"""Benchmark runner and metrics.

Runs the solver over a problem set, scores final answers by exact
canonical-decimal match against the gold answers, reports accuracy with
Wilson 95% confidence intervals, and sweeps token budgets with the
rejection cache on and off. Per-problem traces, a results JSONL, a
summary document, and a CSV report are written under a run directory
named by timestamp plus config hash.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from collections import Counter
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

from .dataset import DataError, _read_jsonl
from .protocol import CanonicalNumber, Problem, is_unicode, normalize_answer, parse_worked_solution
from .solver import BudgetCuts, Outcome, ReplayBackend, SolverConfig, SolveTrace, solve

SWEEP_BUDGETS = (100, 200, 300, 400, 500, 600)

BackendPair = tuple[object, object]
BackendProvider = Callable[[Problem], BackendPair]


class InvalidCounts(ValueError):
    """Counts unusable for a binomial interval (n < 1 or correct outside 0..n)."""


class WilsonInterval(NamedTuple):
    """Wilson score interval for a binomial proportion."""

    low: float
    high: float


def wilson_interval(correct: int, n: int) -> WilsonInterval:
    """Wilson 95% score interval for ``correct`` successes in ``n``.

    Better calibrated than the normal approximation for small samples
    and proportions near 0 or 1. Bounds are clamped to [0, 1].

    Raises:
        InvalidCounts: n < 1 or correct outside [0, n].
    """
    if n < 1 or not 0 <= correct <= n:
        raise InvalidCounts(f"invalid counts: correct={correct}, n={n}")
    z = 1.96  # standard-normal quantile of a two-sided 95% interval
    p_hat = correct / n
    denominator = 1 + z**2 / n
    center = (p_hat + z**2 / (2 * n)) / denominator
    half_width = (
        z * math.sqrt(p_hat * (1 - p_hat) / n + z**2 / (4 * n**2)) / denominator
    )
    return WilsonInterval(
        low=max(0.0, center - half_width), high=min(1.0, center + half_width)
    )


class RunResult(NamedTuple):
    """Outcome of one benchmark problem."""

    problem_id: str
    predicted: CanonicalNumber | None
    correct: bool
    tokens_spent: int
    outcome: Outcome
    evaluator_calls: int
    trace_path: str | None = None

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "predicted": str(self.predicted) if self.predicted else None,
            "outcome": self.outcome.value,
        }


class SummaryRow(NamedTuple):
    """Aggregate over one benchmark run (one sweep cell)."""

    method: str
    budget: int
    cache: bool
    correct: int
    n: int
    accuracy: float
    ci_low: float
    ci_high: float
    mean_tokens: float
    evaluator_calls: int
    outcomes: Mapping[str, int]

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "cache": "on" if self.cache else "off",
            "accuracy": round(self.accuracy, 3),
            "ci_low": round(self.ci_low, 3),
            "ci_high": round(self.ci_high, 3),
            "mean_tokens": round(self.mean_tokens, 2),
            "outcomes": dict(sorted(self.outcomes.items())),
        }

    def accuracy_line(self) -> str:
        return (
            f"{self.accuracy * 100:.1f}% "
            f"[{self.ci_low * 100:.1f}%, {self.ci_high * 100:.1f}%]"
        )


# The CSV report is every SummaryRow field but the outcome counts, in field order.
CSV_COLUMNS = tuple(name for name in SummaryRow._fields if name != "outcomes")


class BenchmarkReport(NamedTuple):
    results: list[RunResult]
    summary: SummaryRow
    run_dir: Path | None = None


_score = attrgetter("outcome", "correct", "tokens_spent", "evaluator_calls")


def _summary(scores: Sequence[tuple], *, method: str, budget: int, cache: bool) -> SummaryRow:
    """The row that sums one or more ``_score``s: every summary row is built here."""
    outcomes, correct, tokens, evaluator_calls = zip(*scores)
    n, correct = len(scores), sum(correct)
    interval = wilson_interval(correct, n)
    return SummaryRow(
        method=method,
        budget=budget,
        cache=cache,
        correct=correct,
        n=n,
        accuracy=correct / n,
        ci_low=interval.low,
        ci_high=interval.high,
        mean_tokens=sum(tokens) / n,
        evaluator_calls=sum(evaluator_calls),
        outcomes={outcome.value: count for outcome, count in Counter(outcomes).items()},
    )


def load_problems(path: str | Path) -> list[Problem]:
    """Read benchmark problems from JSONL.

    Each record needs ``id``, ``question``, and either a GSM8K-style
    ``answer`` (gold extracted from its ``####`` marker) or an explicit
    ``gold_answer``. Ids must be unique; a null id counts as missing.
    """
    problems: list[Problem] = []
    seen: set[str] = set()
    for line_number, record in _read_jsonl(path):
        try:
            problem_id, question = record["id"], record["question"]
        except (KeyError, TypeError):
            problem_id = None
        if problem_id is None:
            raise DataError(f"{path}:{line_number}: record needs 'id' and 'question' fields")
        problem_id = str(problem_id)
        if problem_id in seen:
            raise DataError(f"{path}:{line_number}: duplicate problem id {problem_id!r}")
        seen.add(problem_id)
        if not isinstance(question, str):
            raise DataError(f"{path}:{line_number}: question must be a string")
        try:
            gold = None
            if record.get("answer") is not None:
                _, gold = parse_worked_solution(str(record["answer"]))
            elif record.get("gold_answer") is not None:
                gold = normalize_answer(str(record["gold_answer"]))
            problems.append(Problem(id=problem_id, question=question, gold_answer=gold))
        except ValueError as exc:  # a ProtocolError, or a blank question
            raise DataError(f"{path}:{line_number}: {exc}") from None
    return problems


def _result(problem: Problem, trace: SolveTrace, totals: tuple[int, int],
            trace_path: Path | None) -> RunResult:
    """Score one solve whose ``(tokens_spent, evaluator_calls)`` are ``totals``:
    its answer counts only if the solve finished."""
    predicted = trace.final_answer if trace.outcome is Outcome.SOLVED else None
    spent, evaluator_calls = totals
    correct = predicted is not None and predicted == problem.gold_answer
    return RunResult(problem.id, predicted, correct, spent, trace.outcome, evaluator_calls,
                     None if trace_path is None else str(trace_path))


def _map(fn: Callable[[object], object], items: Sequence, workers: int) -> list:
    """``fn`` over ``items`` in order, on ``workers`` threads when above 1."""
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(fn, items))
    return [fn(item) for item in items]


def config_hash(config: SolverConfig, method: str) -> str:
    """Run identity: names the run directory and is kept in run_meta.json."""
    payload = json.dumps(
        {"config": config.to_dict(), "method": method}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]


def _new_run_dir(out_dir: str | Path, config: SolverConfig, method: str, prefix: str = "") -> Path:
    """Create ``<out_dir>/<stamp>-<prefix><config hash>`` exclusively, suffixing
    -2, -3, ... when a run of the same config already took it within the same
    second, and write its run_meta.json."""
    digest = config_hash(config, method)
    base = Path(out_dir) / f"{time.strftime('%Y%m%d-%H%M%S')}-{prefix}{digest}"
    run_dir, attempt = base, 1
    while True:
        try:
            run_dir.mkdir(parents=True)
            break
        except FileExistsError:
            attempt += 1
            run_dir = base.with_name(f"{base.name}-{attempt}")
    meta = {
        "config": config.to_dict(),
        "method": method,
        "config_hash": digest,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (run_dir / "run_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return run_dir


def _check_problems(problems: Sequence[Problem]) -> None:
    """Reject a problem set that cannot be scored or filed: empty, a missing
    gold answer, an id that cannot name a trace file (strict UTF-8, at most
    250 bytes), or a repeated id."""
    if not problems:
        raise DataError("empty problem list")
    seen: set[str] = set()
    for problem in problems:
        if problem.gold_answer is None:
            raise DataError(f"problem {problem.id!r} has no gold answer")
        # The id names the trace file: one path component, no NUL, at most 255 bytes with .json
        if "/" in problem.id or "\\" in problem.id or "\0" in problem.id:
            raise DataError(f"problem id {problem.id!r} must not contain '/', '\\' or NUL")
        if not is_unicode(problem.id):
            raise DataError(f"problem id {problem.id!r} is not valid UTF-8")
        if len(problem.id.encode("utf-8")) > 250:
            raise DataError(f"problem id {problem.id[:20]!r}... is over 250 bytes in UTF-8")
        if problem.id in seen:
            raise DataError(f"duplicate problem id {problem.id!r}")
        seen.add(problem.id)


def _solve_all(problems: Sequence[Problem], config: SolverConfig,
               backends: BackendPair | BackendProvider, budgets: Sequence[int],
               settings: tuple[bool, ...], *, workers: int, trace_dir: Path | None = None,
               continue_on_error: bool = False) -> dict[bool, Sequence | Exception]:
    """The engine of ``run_benchmark`` and ``budget_sweep``: maps each cache
    setting, ``(cache_enabled,)`` or ``(False, True)``, to every problem's
    ``(RunResult, scores)`` with one ``_score`` per budget, or to the first
    error among that setting's solves.

    One task per problem solves the trunk at ``max(budgets)`` under the last
    setting and writes its trace to ``trace_dir`` if given. A cache-off setting
    before it forks from that trace, replaying its calls up to the fork point;
    a provider's pair, which may answer by position (a script), is sent those
    calls too (PROTOCOL.md, Budget sweep). After a trunk error it solves anew.
    An error propagates unless ``continue_on_error`` is set. A trace never leaves
    its ``run``, so the trunk's is freed before the fork asks for its pair.
    """
    shared = not callable(backends)
    provider = (lambda problem: backends) if shared else backends
    configs = {cache: config.with_overrides(token_budget=max(budgets), cache_enabled=cache)
               for cache in settings}

    def run(problem: Problem, cache: bool, recorded: Sequence | None = None,
            trace_path: Path | None = None) -> tuple:
        """A scored solve and, in a sweep, the calls its cache-off fork replays or
        None; or its caught error and None. With ``recorded``, it is that fork."""
        try:
            backends = provider(problem)
            if recorded is not None:
                backends = (ReplayBackend(recorded, *backends, relay=not shared),) * 2
            trace = solve(problem, configs[cache], *backends)
        except Exception as exc:
            if not continue_on_error:
                raise
            return exc, None
        cuts = BudgetCuts(trace)
        result = _result(problem, trace, cuts.totals, trace_path)
        if trace_path is not None:
            trace_path.write_text(trace.to_json() + "\n", encoding="utf-8")
        fork = None if len(settings) == 1 else cuts.fork
        return ((result, cuts.scores(budgets, _score(result))),
                None if fork is None else cuts.calls[:fork])

    def task(problem: Problem) -> tuple:
        """The problem's scored solves, one per setting."""
        path = None if trace_dir is None else trace_dir / f"{problem.id}.json"
        trunk, recorded = run(problem, settings[-1], trace_path=path)
        if len(settings) == 1 or (recorded is None and not isinstance(trunk, Exception)):
            return (trunk,) * len(settings)  # no fork: the trunk is each setting's solve
        # After a trunk error the fork solves on the provider's pair alone.
        return run(problem, False, recorded)[0], trunk

    columns = zip(*_map(task, problems, workers))
    return {cache: next((item for item in column if isinstance(item, Exception)), column)
            for cache, column in zip(settings, columns)}


def run_benchmark(
    problems: Sequence[Problem],
    config: SolverConfig,
    backends: BackendPair | BackendProvider,
    *,
    method: str = "dual_cot",
    out_dir: str | Path | None = None,
    workers: int = 1,
) -> BenchmarkReport:
    """Solve every problem and aggregate exact-match accuracy with a Wilson CI.

    ``backends`` is either a (decomposer, evaluator) pair shared by all
    problems or a callable mapping each problem to its own pair (needed
    for scripted fixtures). Backend failures score as incorrect with
    outcome ``backend_failure``; the run continues and n stays fixed.

    It runs the sweep engine (``_solve_all``) at one budget and one cache
    setting: one provider call and one solve per problem, no fork, no cut.
    With ``out_dir`` set, writes per-problem traces, results.jsonl,
    summary.json, summary.csv, and run_meta.json under a fresh run
    directory.
    """
    _check_problems(problems)
    run_dir: Path | None = None
    trace_dir: Path | None = None
    if out_dir is not None:
        run_dir = _new_run_dir(out_dir, config, method)
        trace_dir = run_dir / "traces"
        trace_dir.mkdir()

    budget, cache = config.token_budget, config.cache_enabled
    solved = _solve_all(problems, config, backends, (budget,), (cache,),
                        workers=workers, trace_dir=trace_dir)[cache]
    results = [result for result, _ in solved]
    summary = _summary([scores[0] for _, scores in solved], method=method, budget=budget,
                       cache=cache)
    if run_dir is not None:
        with (run_dir / "results.jsonl").open("w", encoding="utf-8") as handle:
            for result in results:
                handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
        (run_dir / "summary.json").write_text(
            json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        (run_dir / "summary.csv").write_text(rows_to_csv([summary]), encoding="utf-8")
    return BenchmarkReport(results=results, summary=summary, run_dir=run_dir)


def budget_sweep(
    problems: Sequence[Problem],
    budgets: Sequence[int],
    config: SolverConfig,
    backends: BackendPair | BackendProvider,
    *,
    method: str = "dual_cot",
    out_dir: str | Path | None = None,
    workers: int = 1,
    continue_on_error: bool = False,
) -> list[SummaryRow]:
    """Benchmark every budget with the cache off and on: one summary row per
    (budget, cache) cell, budget by budget in the given order, cache off first.

    Every cell is cut from the engine's (``_solve_all``) one solve per problem
    and cache setting at ``max(budgets)``, cache off forked from cache on. On
    one pair shared by all problems, the fork makes none of the trunk's calls.
    An error in a solve, or the provider's error for it, fails every cell of
    its cache setting; with ``continue_on_error`` those cells are logged.
    """
    if not budgets:
        raise ValueError("budgets must be non-empty")
    if any(budget <= 0 for budget in budgets):
        raise ValueError("budgets must be positive")
    _check_problems(problems)
    run_dir = None if out_dir is None else _new_run_dir(out_dir, config, method, "sweep-")
    solved = _solve_all(problems, config, backends, budgets, (False, True),
                        workers=workers, continue_on_error=continue_on_error)
    rows: list[SummaryRow] = []
    errors: list[str] = []
    for index, budget in enumerate(budgets):
        for cache_enabled in (False, True):
            cell = solved[cache_enabled]
            if isinstance(cell, Exception):
                errors.append(f"budget={budget} cache={cache_enabled}: {cell}")
                continue
            rows.append(_summary([scores[index] for _, scores in cell], method=method,
                                 budget=budget, cache=cache_enabled))
    if run_dir is not None:
        (run_dir / "sweep.csv").write_text(rows_to_csv(rows), encoding="utf-8")
        if errors:
            (run_dir / "errors.txt").write_text("\n".join(errors) + "\n", encoding="utf-8")
    return rows


def rows_to_csv(rows: Sequence[SummaryRow]) -> str:
    """Render summary rows as the canonical CSV report."""
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, fieldnames=CSV_COLUMNS, lineterminator="\n", extrasaction="ignore"
    )
    writer.writeheader()
    for row in rows:
        record = row.to_dict()
        record["accuracy"] = f"{record['accuracy']:.3f}"
        record["ci_low"] = f"{record['ci_low']:.3f}"
        record["ci_high"] = f"{record['ci_high']:.3f}"
        record["mean_tokens"] = f"{record['mean_tokens']:.2f}"
        writer.writerow(record)
    return buffer.getvalue()
