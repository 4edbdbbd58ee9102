"""In-memory spans around the program's public functions, for traced runs.

``Tracer.install`` replaces each traced function under the name its
caller looks it up by (``dualtrack.solver.fingerprint``, the methods of
``RejectionCache``, the backends' ``complete`` ...) with a wrapper that
records a span: name, parent span, start, end, thread. ``uninstall``
puts the originals back, so untraced passes run the program untouched.
Nothing is written into ``src/``. Spans stay in memory; ``layer_metrics``
turns one pass's spans into per-layer figures, and ``dump`` writes them.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from collections import Counter
from pathlib import Path

from dualtrack import cli, harness, solver
from dualtrack.agents import HTTPBackend, ScriptedBackend
from dualtrack.cache import RejectionCache
from dualtrack.solver import EventKind

from fake_model import FakeModel

AGENTS = "agents.complete"
SOLVE = "solver.solve"


def _prompt_bytes(tracer: "Tracer", result, args) -> None:
    tracer.count("prompt_bytes", len(result.encode("utf-8")))


def _cache_decision(tracer: "Tracer", result, args) -> None:
    tracer.count(f"cache.{result.value}")


def _agent_call(tracer: "Tracer", result, args) -> None:
    role = getattr(args[1], "value", args[1])
    tracer.count(f"calls.{role}")
    tracer.count(f"tokens.{role}", result.total_tokens)


def _solve_trace(tracer: "Tracer", trace, args) -> None:
    kinds = Counter(event.kind for event in trace.events)
    tracer.count("events", len(trace.events))
    tracer.count("retries", kinds[EventKind.RETRIED])
    tracer.count("forced_accepts", kinds[EventKind.FORCED_ACCEPT])
    tracer.count("budget_stops", kinds[EventKind.BUDGET_STOP])
    for event in trace.events_of(EventKind.EVALUATED):
        if event.payload.get("synthetic"):
            tracer.count(f"synthetic.{event.payload['synthetic']}")
    overshoot = trace.tokens_spent - trace.config["token_budget"]
    tracer.maximum("overshoot", overshoot)


# (owner, attribute, span name, hook on the result). Module functions are
# patched in the module that calls them; methods on their class.
TARGETS = (
    (solver, "build_decomposer_prompt", "protocol.prompt_build", _prompt_bytes),
    (solver, "build_evaluator_prompt", "protocol.prompt_build", _prompt_bytes),
    (solver, "parse_agent_step", "protocol.parse", None),
    (solver, "parse_evaluation", "protocol.parse", None),
    (solver, "normalize_answer", "protocol.parse", None),
    (solver, "fingerprint", "cache.fingerprint", None),
    (RejectionCache, "check", "cache.check", _cache_decision),
    (RejectionCache, "record", "cache.record", None),
    (solver, "synth_rejection", "cache.synth", None),
    (ScriptedBackend, "complete", AGENTS, _agent_call),
    (HTTPBackend, "complete", AGENTS, _agent_call),
    (FakeModel, "complete", AGENTS, _agent_call),
    (harness, "solve", SOLVE, _solve_trace),
    (solver.SolveTrace, "to_json", "harness.serialize", None),
    (harness, "run_benchmark", "harness.run", None),
    (cli, "run_benchmark", "harness.run", None),
    (harness, "budget_sweep", "harness.sweep", None),
    (cli, "load_run_config", "cli.load", None),
    (cli, "_build_backends", "cli.load", None),
    (cli, "load_script_fixture", "cli.load", None),
    (cli, "load_problems", "dataset.load_problems", None),
    (harness, "load_problems", "dataset.load_problems", None),
)
# Generators: the wrapper drains them inside the span.
GENERATORS = ((harness, "_read_jsonl", "dataset.read_jsonl"),)


class Tracer:
    """Collects spans and counters while installed; thread-safe."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: Counter = Counter()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[key] += amount

    def maximum(self, key: str, value: int) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def call(self, name: str, fn, args, kwargs, hook=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, threading.get_ident()))
        if hook is not None:
            hook(self, result, args)
        return result

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def _wrap_generator(self, fn, name: str):
        def traced(*args, **kwargs):
            return iter(self.call(name, lambda: list(fn(*args, **kwargs)), (), {}))

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            if attr in vars(owner):
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hook))
        for owner, attr, name in GENERATORS:
            if attr in vars(owner):
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap_generator(original, name))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write spans as JSON lines: id, parent, name, start_ns, end_ns, thread."""
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, results: int, workers: int, bytes_written: int) -> dict:
    """Per-layer figures of one traced pass over ``results`` problem results."""
    duration: Counter = Counter()
    child_time: Counter = Counter()
    count: Counter = Counter()
    cli_load = 0  # outermost spans only: _build_backends calls load_script_fixture
    for span_id, parent, name, start, end, _ in tracer.spans:
        duration[name] += end - start
        count[name] += 1
        child_time[parent] += end - start
        if name == "cli.load" and parent == 0:
            cli_load += end - start
    solve_self = sum(
        end - start - child_time[span_id]
        for span_id, _, name, start, end, _ in tracer.spans if name == SOLVE
    )
    top = duration["harness.sweep"] or duration["harness.run"]
    c = tracer.counters
    hits_duplicate, hits_known_bad = c["cache.duplicate_accepted"], c["cache.known_bad"]
    checks = c["cache.miss"] + hits_duplicate + hits_known_bad
    cells = count["harness.run"]
    per_problem = 1e3 * results  # ns -> us per problem
    return {
        "protocol.prompt_build_us": duration["protocol.prompt_build"] / per_problem,
        "protocol.prompt_bytes_per_problem": c["prompt_bytes"] / results,
        "protocol.parse_us": duration["protocol.parse"] / per_problem,
        "cache.fingerprint_us": duration["cache.fingerprint"] / per_problem,
        "cache.checks": checks,
        "cache.hits_duplicate": hits_duplicate,
        "cache.hits_known_bad": hits_known_bad,
        "cache.hit_ratio": (hits_duplicate + hits_known_bad) / checks if checks else 0.0,
        "cache.evaluator_calls_avoided": hits_duplicate + hits_known_bad,
        "agents.calls.decomposer": c["calls.decomposer"],
        "agents.calls.evaluator": c["calls.evaluator"],
        "agents.tokens.decomposer": c["tokens.decomposer"],
        "agents.tokens.evaluator": c["tokens.evaluator"],
        "solver.self_us_per_problem": solve_self / per_problem,
        "solver.events_per_problem": c["events"] / results,
        "solver.retries": c["retries"],
        "solver.forced_accepts": c["forced_accepts"],
        "solver.budget_stops": c["budget_stops"],
        "solver.synthetic_evals.malformed_step": c["synthetic.malformed_step"],
        "solver.synthetic_evals.unparseable_final": c["synthetic.unparseable_final"],
        "solver.budget_overshoot_tokens": max(c["overshoot"], 0),
        "harness.self_us_per_problem": (top * workers - duration[SOLVE]) / per_problem,
        "harness.serialize_us_per_problem": duration["harness.serialize"] / per_problem,
        "harness.bytes_written_per_problem": bytes_written / results,
        "harness.worker_busy_share": duration[SOLVE] / (top * workers) if top else 0.0,
        "harness.cells": cells,
        "harness.solves_per_cell": count[SOLVE] / cells if cells else 0.0,
        "cli.load_us": cli_load / 1e3,
        "dataset.read_jsonl_us": duration["dataset.read_jsonl"] / 1e3,
    }


def call_durations(tracer: Tracer) -> list[float]:
    """Durations of the agent calls, in milliseconds."""
    return [(end - start) / 1e6 for _, _, name, start, end, _ in tracer.spans if name == AGENTS]


def quantile(values: list[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
