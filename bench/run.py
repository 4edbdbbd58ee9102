"""The dualtrack benchmark: seeded workloads, checked outputs, one JSON line.

    python3 bench/run.py --workload scripted-bench --seed 1 --seconds 10 --trace 0

Workloads (see bench/README.md for why each was chosen):

* ``scripted-bench``: ``dualtrack bench`` (through ``dualtrack.cli.main``)
  with per-problem ``ScriptedBackend`` fixtures, the default config, the
  cache on, one worker, traces and results written.
* ``http-bench``: the same problems and fake model, served to
  ``HTTPBackend`` by the loopback stub in ``bench/stub.py`` with a fixed
  delay per call, two workers in a closed loop.
* ``sweep-cache``: ``budget_sweep`` over budgets 100..600 with the cache
  off and on, with the fake model in process.

A run generates its inputs from ``--seed``, records the fixtures and the
reference traces by running the fake model through ``solve``, then repeats
whole passes of the workload until ``--seconds`` of passes have been timed.
Every pass is checked against the plan and the references; mismatches count
as failed problems. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` traced and untraced passes alternate
and it carries the per-layer metrics. Outputs go to a fresh directory under
``.bench_out/``; pass directories are deleted once checked.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("scripted-bench", "http-bench", "sweep-cache")
BENCH_PROBLEMS = 96  # 12 of each of the 8 bench shapes
SWEEP_PROBLEMS = 108  # 12 of each of the 9 sweep shapes
HTTP_WORKERS = 2
PROBES = 7
UNLIMITED = 10**9
# Per-layer metrics computed per traced pass (spans.layer_metrics plus the
# stub's counts), with their units.
LAYER_UNITS = {
    "protocol.prompt_build_us": "us/problem",
    "protocol.prompt_bytes_per_problem": "bytes/problem",
    "protocol.parse_us": "us/problem",
    "cache.fingerprint_us": "us/problem",
    "cache.checks": "count/pass",
    "cache.hits_duplicate": "count/pass",
    "cache.hits_known_bad": "count/pass",
    "cache.hit_ratio": "share",
    "cache.evaluator_calls_avoided": "count/pass",
    "agents.calls.decomposer": "count/pass",
    "agents.calls.evaluator": "count/pass",
    "agents.tokens.decomposer": "tokens/pass",
    "agents.tokens.evaluator": "tokens/pass",
    "agents.connections_per_call": "share",
    "agents.transport_retries": "count/pass",
    "solver.self_us_per_problem": "us/problem",
    "solver.events_per_problem": "events/problem",
    "solver.retries": "count/pass",
    "solver.forced_accepts": "count/pass",
    "solver.budget_stops": "count/pass",
    "solver.synthetic_evals.malformed_step": "count/pass",
    "solver.synthetic_evals.unparseable_final": "count/pass",
    "solver.budget_overshoot_tokens": "tokens",
    "harness.self_us_per_problem": "us/problem",
    "harness.serialize_us_per_problem": "us/problem",
    "harness.bytes_written_per_problem": "bytes/problem",
    "harness.worker_busy_share": "share",
    "harness.cells": "count/pass",
    "harness.solves_per_cell": "count/cell",
    "cli.load_us": "us/pass",
    "dataset.read_jsonl_us": "us/pass",
}


def _load_program():
    """Import dualtrack from this checkout's ``src/``, or exit with an error."""
    if not (SRC / "dualtrack" / "__init__.py").is_file():
        sys.exit(f"bench: no dualtrack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualtrack

    if Path(dualtrack.__file__).resolve().parent != SRC / "dualtrack":
        sys.exit(f"bench: imported dualtrack from {dualtrack.__file__}, not {SRC}")


_load_program()

from dualtrack import (  # noqa: E402
    CanonicalNumber,
    EventKind,
    Outcome,
    Problem,
    solve,
)
from dualtrack import cli, harness  # noqa: E402
from dualtrack.harness import SWEEP_BUDGETS  # noqa: E402
from dualtrack.solver import TraceEvent  # noqa: E402

import calibrate  # noqa: E402
import fake_model  # noqa: E402
from fake_model import FakeModel  # noqa: E402
from spans import Tracer, call_durations, layer_metrics, quantile  # noqa: E402


# ---------------------------------------------------------------- checks

def trace_counts(trace) -> dict:
    """The counts ``fake_model.expected_counts`` predicts, read off a trace."""
    kinds = Counter(event.kind for event in trace.events)
    synthetic = Counter(event.payload.get("synthetic")
                        for event in trace.events_of(EventKind.EVALUATED))
    decisions = Counter(event.payload["decision"]
                        for event in trace.events_of(EventKind.CACHE_REJECTED))
    return {
        "decomposer_calls": kinds[EventKind.GENERATED],
        "evaluator_calls": trace.evaluator_calls,
        "retries": kinds[EventKind.RETRIED],
        "forced_accepts": kinds[EventKind.FORCED_ACCEPT],
        "malformed_step": synthetic["malformed_step"],
        "unparseable_final": synthetic["unparseable_final"],
        "duplicate_accepted": decisions["duplicate_accepted"],
        "known_bad": decisions["known_bad"],
    }


def budget_rule_holds(trace) -> bool:
    """Spend may overshoot the budget only by less than the last call's cost."""
    overshoot = trace.tokens_spent - trace.config["token_budget"]
    charged = [event.tokens_charged for event in trace.events if event.tokens_charged]
    return overshoot <= 0 or (bool(charged) and overshoot < charged[-1])


def follows_plan(plan: dict, trace, cache: bool) -> bool:
    """An unconstrained solve ends as planned, with the planned events."""
    return (trace.outcome is Outcome.SOLVED
            and str(trace.final_answer) == plan["answer"]
            and trace_counts(trace) == fake_model.expected_counts(plan, cache))


def budget_cut(unlimited, budget: int) -> tuple[list[dict], Outcome, int]:
    """Events, outcome and spend of a solve at ``budget``, read off the same
    solve at an unlimited budget.

    This is the budget rule, stated apart from the solver's code: the solver
    checks the budget before every agent call and stops at the first check
    that finds the spend at or above the budget. Every agent call leaves one
    event carrying the tokens it charged, so a cut solve is the unlimited
    solve's events up to that check, then a budget stop.
    """
    spent, events = 0, []
    for event in unlimited.events:
        if event.tokens_charged:
            if spent >= budget:
                stop = TraceEvent(EventKind.BUDGET_STOP, {"spent": spent, "limit": budget})
                return events + [stop.to_dict()], Outcome.BUDGET_EXHAUSTED, spent
            spent += event.tokens_charged
        events.append(event.to_dict())
    return events, unlimited.outcome, spent


def problems_of(plans: list[dict]) -> list[Problem]:
    return [Problem(plan["id"], plan["question"], CanonicalNumber.from_literal(plan["gold"]))
            for plan in plans]


def write_problems(plans: list[dict], path: Path) -> None:
    """Problems as JSONL; every other record carries a GSM8K-style answer."""
    with path.open("w", encoding="utf-8") as handle:
        for index, plan in enumerate(plans):
            record = {"id": plan["id"], "question": plan["question"]}
            if index % 2:
                record["answer"] = f"Work through the steps.\n#### {plan['gold']}"
            else:
                record["gold_answer"] = plan["gold"]
            handle.write(json.dumps(record) + "\n")


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def source_digest() -> str:
    """Hash of the program's sources."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "dualtrack").glob("*.py")):
        sha.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return sha.hexdigest()[:16]


def repeats_across_runs(key: str, payload: str) -> bool:
    """Compare a run's checked output with an earlier run of the same key on
    the same program sources; a change to the sources starts a new record."""
    path = OUT / "digests" / f"{key}-src{source_digest()}"
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if path.is_file():
        same = path.read_text(encoding="utf-8") == digest
        print(f"cross-run check: {path.relative_to(ROOT)} {'matches' if same else 'DIFFERS'}",
              file=sys.stderr)
        return same
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(digest, encoding="utf-8")
    print(f"cross-run check: created {path.relative_to(ROOT)}", file=sys.stderr)
    return True


class Recorder:
    """Passes calls to the fake model and keeps each role's replies in order."""

    def __init__(self, model: FakeModel):
        self.model = model
        self.scripts: dict[str, list[str]] = {"decomposer": [], "evaluator": []}

    def complete(self, role, prompt, params=None):
        reply = self.model.complete(role, prompt, params)
        self.scripts[getattr(role, "value", role)].append(reply.raw_text)
        return reply


# ---------------------------------------------------------------- stub

class Stub:
    """The loopback chat-completions stub, in its own process."""

    def __init__(self, plans_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "stub.py"), "--plans", str(plans_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.port = int(line.split()[1])

    def stats(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------- workloads

class BenchWorkload:
    """``dualtrack bench`` over scripted fixtures or the loopback stub."""

    def __init__(self, name: str, seed: int, inputs: Path):
        self.http = name == "http-bench"
        self.workers = HTTP_WORKERS if self.http else 1
        self.plans = fake_model.make_plans(f"{seed}:bench", fake_model.BENCH_SHAPES,
                                           BENCH_PROBLEMS)
        self.results = len(self.plans)
        self.seed = seed
        config = cli.RunConfig().solver_config()
        model = FakeModel(self.plans)
        fixture: dict[str, dict[str, list[str]]] = {}
        self.traces: dict[str, str] = {}
        self.expected: dict[str, dict] = {}
        self.off_plan: set[str] = set()
        for plan, problem in zip(self.plans, problems_of(self.plans)):
            recorder = Recorder(model)
            trace = solve(problem, config, recorder, recorder)
            fixture[problem.id] = recorder.scripts
            self.traces[problem.id] = trace.to_json() + "\n"
            self.expected[problem.id] = {
                "predicted": plan["answer"],
                "correct": plan["answer"] == plan["gold"],
                "outcome": Outcome.SOLVED.value,
                "tokens_spent": trace.tokens_spent,
                "evaluator_calls": trace.evaluator_calls,
            }
            if not (follows_plan(plan, trace, config.cache_enabled) and budget_rule_holds(trace)):
                self.off_plan.add(problem.id)
        expected = self.expected.values()
        self.summary = {
            "n": len(self.plans),
            "correct": sum(result["correct"] for result in expected),
            "budget": config.token_budget,
            "cache": "on" if config.cache_enabled else "off",
            "mean_tokens": round(sum(result["tokens_spent"] for result in expected)
                                 / len(self.plans), 2),
            "outcomes": {Outcome.SOLVED.value: len(self.plans)},
            "evaluator_calls": sum(result["evaluator_calls"] for result in expected),
        }
        problems_path = inputs / "problems.jsonl"
        write_problems(self.plans, problems_path)
        self.stub = None
        if self.http:
            self.stub = Stub(write_json(inputs / "plans.json", self.plans))
            config_path = write_json(inputs / "config.json", {
                "api_base": f"http://127.0.0.1:{self.stub.port}",
                "decomposer_model": "fake-decomposer",
                "evaluator_model": "fake-evaluator",
                "workers": self.workers,
                "timeout": 30,
            })
            script_args = []
        else:
            config_path = write_json(inputs / "config.json", {"workers": self.workers})
            script_args = ["--script", str(write_json(inputs / "fixture.json", fixture))]
        self.probe_args: list[str] = []
        self.argv = ["bench", str(problems_path), "--config", str(config_path)] + script_args
        self.report = None
        self.first_check = True

    def run_pass(self, out: Path, write: bool) -> None:
        """``dualtrack bench``; scripted passes that do not ``write`` make the
        same calls in process and skip only the run directory."""
        self.report = None
        if write or self.http:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self.argv + ["--out", str(out)])
            if code != cli.EXIT_OK:
                raise RuntimeError(f"dualtrack bench exited with {code}")
            return
        args = cli.build_parser().parse_args(self.argv)
        config = cli.load_run_config(args.config, args)
        problems = cli.load_problems(args.problems)
        backends = cli._build_backends(config, problems)
        self.report = harness.run_benchmark(problems, config.solver_config(), backends,
                                            method=config.method, workers=config.workers)

    def check_pass(self, out: Path) -> int:
        """Problems whose result, trace or summary differs from the plan."""
        if out.is_dir():
            (run_dir,) = out.iterdir()
            lines = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
            records = [json.loads(line) for line in lines]
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            traces = run_dir / "traces"
        elif self.report is not None:
            records = [result.to_dict() for result in self.report.results]
            summary = self.report.summary.to_dict()
            traces = None
        else:
            return self.results
        failed = set(self.off_plan)
        for record in records:
            problem_id = record["problem_id"]
            expected = self.expected.get(problem_id)
            if expected is None or any(record[key] != value for key, value in expected.items()):
                failed.add(problem_id)
            elif traces is None:
                if record["trace_path"] is not None:
                    failed.add(problem_id)
            elif (record["trace_path"] != str(traces / f"{problem_id}.json")
                  or Path(record["trace_path"]).read_text(encoding="utf-8")
                  != self.traces[problem_id]):
                failed.add(problem_id)
        failed |= set(self.expected) - {record["problem_id"] for record in records}
        if any(summary.get(key) != value for key, value in self.summary.items()):
            failed |= set(self.expected)
        if self.first_check:
            self.first_check = False
            if not repeats_across_runs(f"bench-{self.seed}", "".join(self.traces.values())):
                failed |= set(self.expected)
        return len(failed)

    def stub_stats(self) -> dict | None:
        return self.stub.stats() if self.stub else None

    def close(self) -> None:
        if self.stub:
            self.stub.close()


class SweepWorkload:
    """``budget_sweep`` over 100..600 x cache off/on with the fake model in process."""

    workers = 1  # the default config's

    def __init__(self, seed: int, inputs: Path):
        self.plans = fake_model.make_plans(f"{seed}:sweep", fake_model.SWEEP_SHAPES,
                                           SWEEP_PROBLEMS)
        self.seed = seed
        self.model = FakeModel(self.plans)
        self.results = len(SWEEP_BUDGETS) * 2 * len(self.plans)
        problems_path = inputs / "problems.jsonl"
        write_problems(self.plans, problems_path)
        self.argv = ["sweep", str(problems_path),
                     "--config", str(write_json(inputs / "config.json", {}))]
        self.probe_args = ["--plans", str(write_json(inputs / "plans.json", self.plans))]
        self.stub = None
        self.expected_rows, self.reference_failures = self._reference()
        self.rows: list = []
        self.first_check = True

    def _reference(self) -> tuple[list[tuple], int]:
        """Expected rows, each cell derived from the unlimited solves by
        ``budget_cut``. Every cell is also solved with ``solve`` and must
        equal its derivation event for event."""
        base = cli.RunConfig().solver_config()
        problems = problems_of(self.plans)
        cells: dict[tuple[int, bool], list[tuple]] = {}
        failures = 0
        for cache in (False, True):
            unlimited = base.with_overrides(token_budget=UNLIMITED, cache_enabled=cache)
            full = [solve(problem, unlimited, self.model, self.model) for problem in problems]
            failures += len(SWEEP_BUDGETS) * sum(
                not follows_plan(plan, trace, cache) for plan, trace in zip(self.plans, full))
            for budget in SWEEP_BUDGETS:
                config = base.with_overrides(token_budget=budget, cache_enabled=cache)
                cell = cells[budget, cache] = []
                for plan, problem, whole in zip(self.plans, problems, full):
                    events, outcome, spent = budget_cut(whole, budget)
                    trace = solve(problem, config, self.model, self.model)
                    if not ([event.to_dict() for event in trace.events] == events
                            and trace.outcome is outcome and trace.tokens_spent == spent
                            and budget_rule_holds(trace)):
                        failures += 1
                    evaluator_calls = sum(event["kind"] == EventKind.EVALUATED.value
                                          and event["payload"].get("synthetic") is None
                                          for event in events)
                    correct = outcome is Outcome.SOLVED and plan["answer"] == plan["gold"]
                    cell.append((outcome, spent, evaluator_calls, correct))
        # The workload is meant to let cache hits decide which solves fit the
        # larger budgets; without such a solve it does not measure that.
        decided = sum(
            on[0] is Outcome.SOLVED and off[0] is Outcome.BUDGET_EXHAUSTED
            for budget in SWEEP_BUDGETS[3:]
            for off, on in zip(cells[budget, False], cells[budget, True]))
        print(f"sweep-cache: {decided} solves at budgets {SWEEP_BUDGETS[3:]} fit only with"
              " the cache on", file=sys.stderr)
        if not decided:
            failures += self.results
        rows = [self._row(budget, cache, cells[budget, cache])
                for budget in SWEEP_BUDGETS for cache in (False, True)]
        return rows, failures

    @staticmethod
    def _row(budget: int, cache: bool, cell: list[tuple]) -> tuple:
        return (budget, cache, sum(correct for *_, correct in cell), len(cell),
                sum(spent for _, spent, _, _ in cell) / len(cell),
                sum(calls for _, _, calls, _ in cell),
                dict(Counter(outcome.value for outcome, *_ in cell)))

    def run_pass(self, out: Path, write: bool) -> None:
        """``cmd_sweep``'s calls, with the fake model as both backends."""
        self.rows = []
        args = cli.build_parser().parse_args(self.argv)
        config = cli.load_run_config(args.config, args)
        problems = cli.load_problems(args.problems)
        self.rows = harness.budget_sweep(
            problems, cli._parse_budgets(args.budgets), config.solver_config(),
            (self.model, self.model), method=config.method, out_dir=out,
            workers=config.workers, continue_on_error=True)

    def check_pass(self, out: Path) -> int:
        """Results of cells whose summary row or CSV line differs from the derived cells."""
        (run_dir,) = out.iterdir()
        rows = [(row.budget, row.cache, row.correct, row.n, row.mean_tokens,
                 row.evaluator_calls, dict(row.outcomes)) for row in self.rows]
        failed = self.reference_failures
        for index, expected in enumerate(self.expected_rows):
            if index >= len(rows) or rows[index] != expected:
                failed += expected[3]
        csv_text = (run_dir / "sweep.csv").read_text(encoding="utf-8")
        if csv_text != harness.rows_to_csv(self.rows) or len(rows) != len(self.expected_rows):
            failed = max(failed, self.results)
        if self.first_check:
            self.first_check = False
            if not repeats_across_runs(f"sweep-{self.seed}", csv_text):
                failed = self.results
        return min(failed, self.results)

    def stub_stats(self) -> None:
        return None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- measurement

def folder_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


class Runner:
    def __init__(self, workload, run_dir: Path, tracer: Tracer):
        self.workload = workload
        self.passes = run_dir / "passes"
        self.passes.mkdir()
        self.tracer = tracer
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def one_pass(self, traced: bool, write: bool = False) -> tuple[float, dict | None]:
        """Run, time and check one pass: its seconds, and per-layer figures when traced."""
        self.count += 1
        out = self.passes / f"{self.count:05d}"
        before = self.workload.stub_stats() if traced else None
        if traced:
            self.tracer.reset()
            self.tracer.install()
        start = time.perf_counter()
        try:
            self.workload.run_pass(out, write)
        except Exception:
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.uninstall()
        results = self.workload.results
        try:
            failed = self.workload.check_pass(out)
        except (OSError, ValueError, KeyError, TypeError):
            traceback.print_exc()
            failed = results
        self.attempted += results
        self.failed += failed
        layers = None
        if traced:
            layers = layer_metrics(self.tracer, results, self.workload.workers,
                                   folder_bytes(out))
            after = self.workload.stub_stats()
            if before is not None:
                requests = after["requests"] - before["requests"]
                calls = layers["agents.calls.decomposer"] + layers["agents.calls.evaluator"]
                layers["agents.connections_per_call"] = (
                    (after["connections"] - before["connections"]) / requests)
                layers["agents.transport_retries"] = requests - calls
            else:
                layers["agents.connections_per_call"] = 0.0
                layers["agents.transport_retries"] = 0
        shutil.rmtree(out, ignore_errors=True)
        return elapsed, layers

    def probe(self) -> dict:
        """Set-up seconds and peak memory of one pass in a fresh interpreter
        (``probe.py``). The pass counts as attempted; it fails if it does not
        report every result."""
        self.count += 1
        out = self.passes / f"{self.count:05d}"
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py")] + self.workload.probe_args
            + ["--"] + self.workload.argv + ["--out", str(out)],
            capture_output=True, text=True, timeout=120, check=True)
        shutil.rmtree(out, ignore_errors=True)
        figures = json.loads(done.stdout.strip().splitlines()[-1])
        self.attempted += self.workload.results
        if figures["results"] != self.workload.results:
            self.failed += self.workload.results
        return figures


def filesystem_of(path: Path) -> str:
    """Type of the filesystem holding ``path``, from the mount table."""
    best, fs_type = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return fs_type
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fs_type = mount, fields[2]
    return fs_type


def environment(run_dir: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "output_filesystem": filesystem_of(run_dir),
        "output_dir": str(run_dir.relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one dualtrack benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for variable in ("DUALTRACK_API_BASE", "DUALTRACK_API_KEY"):
        os.environ.pop(variable, None)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    run_dir = OUT / run_id
    inputs = run_dir / "inputs"
    inputs.mkdir(parents=True)
    env = environment(run_dir)
    print(json.dumps({"environment": env}), file=sys.stderr)

    if args.workload == "sweep-cache":
        workload = SweepWorkload(args.seed, inputs)
    else:
        workload = BenchWorkload(args.workload, args.seed, inputs)
    try:
        tracer = Tracer()
        runner = Runner(workload, run_dir, tracer)
        _, check = runner.one_pass(traced=True, write=True)  # warm-up; exact counts
        seconds: dict[bool, list[float]] = {False: [], True: []}  # per pass, by traced
        layers: list[dict] = []
        call_ms: list[float] = []
        probes: list[dict] = []
        speeds: list[float] = []  # after each timed pass of an untraced run
        timed = 0.0
        while timed < args.seconds or (args.trace and len(seconds[True]) < 2):
            traced = bool(args.trace) and len(seconds[False]) > len(seconds[True])
            elapsed, figures = runner.one_pass(traced)
            seconds[traced].append(elapsed)
            timed += elapsed
            if not args.trace:
                speeds.append(calibrate.speed())
            if figures:
                layers.append(figures)
                call_ms.extend(call_durations(tracer))
            # Spread the probes over the run, so that they see the same
            # spells of fast and slow machine as the passes do.
            next_probe = len(probes) * args.seconds / PROBES
            if not args.trace and len(probes) < PROBES and timed >= next_probe:
                probes.append(runner.probe())
        while not args.trace and len(probes) < PROBES:
            probes.append(runner.probe())
        if args.trace:
            tracer.dump(run_dir / "spans.jsonl")
    finally:
        workload.close()

    def throughput(durations: list[float]) -> float:
        """All results over all wall-clock seconds of the passes."""
        return workload.results * len(durations) / sum(durations)

    calls = check["agents.calls.decomposer"] + check["agents.calls.evaluator"]
    tokens = check["agents.tokens.decomposer"] + check["agents.tokens.evaluator"]
    if args.trace:
        metrics = {name: (statistics.median(sample[name] for sample in layers), unit)
                   for name, unit in LAYER_UNITS.items()}
        # Timed scripted passes skip the run directory; the first pass of every
        # workload writes it, so the output figures come from that pass.
        for name in ("harness.serialize_us_per_problem", "harness.bytes_written_per_problem"):
            metrics[name] = (check[name], LAYER_UNITS[name])
        metrics["agents.call_ms_p50"] = (quantile(call_ms, 0.50), "ms")
        metrics["agents.call_ms_p99"] = (quantile(call_ms, 0.99), "ms")
        untraced, traced_rate = throughput(seconds[False]), throughput(seconds[True])
        metrics["trace.untraced_problems_per_s"] = (untraced, "problems/s")
        metrics["trace.problems_per_s"] = (traced_rate, "problems/s")
        metrics["trace.overhead_share"] = (1 - traced_rate / untraced, "share")
    else:
        # Times are in reference seconds (see calibrate.py): wall-clock
        # seconds times the machine's speed measured next to them.
        metrics = {
            "problems_per_s": (statistics.median(
                workload.results / (elapsed * speed)
                for elapsed, speed in zip(seconds[False], speeds)), "problems/s"),
            "agent_calls_per_problem": (calls / workload.results, "calls/problem"),
            "tokens_per_problem": (tokens / workload.results, "tokens/problem"),
            "setup_s": (statistics.median(probe["setup_s"] * probe["speed"]
                                          for probe in probes), "s"),
            "peak_rss_mb": (statistics.median(probe["peak_rss_mb"] for probe in probes), "MB"),
        }
        print(f"wall-clock: {throughput(seconds[False]):.6g} problems/s, set-up"
              f" {statistics.median(probe['setup_s'] for probe in probes):.6g} s;"
              f" machine speed median {statistics.median(speeds):.4g}", file=sys.stderr)
    for traced, sample in seconds.items():
        if len(sample) > 1:
            low, mid, high = statistics.quantiles([workload.results / t for t in sample], n=4)
            print(f"{'traced' if traced else 'untraced'} passes: {len(sample)}, problems/s"
                  f" quartiles {low:.6g} {mid:.6g} {high:.6g}", file=sys.stderr)
    shares = fake_model.kind_shares(workload.plans)
    print("trajectory kinds (share of step slots): "
          + ", ".join(f"{kind} {share:.3f}" for kind, share in shares.items()), file=sys.stderr)
    failed_share = runner.failed / runner.attempted
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {failed_share:.6g} share ({runner.failed} of {runner.attempted})")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    write_json(run_dir / "result.json", {
        "environment": env, "trajectory_shares": shares, "probes": probes,
        "pass_seconds": {"untraced": seconds[False], "traced": seconds[True]},
        "speeds": speeds, **result})
    shutil.rmtree(run_dir / "passes", ignore_errors=True)
    shutil.rmtree(inputs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
