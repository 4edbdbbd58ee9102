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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .dataset import DataError, _read_jsonl
from .protocol import CanonicalNumber, Problem, normalize_answer, parse_worked_solution
from .agents import ReplayBackend
from .solver import BudgetCuts, Outcome, SolverConfig, SolveTrace, solve

SWEEP_BUDGETS = (100, 200, 300, 400, 500, 600)

BackendPair = tuple[object, object]
BackendProvider = Callable[[Problem], BackendPair]


class InvalidCounts(ValueError):
    """Counts unusable for a binomial interval (n < 1 or correct outside 0..n)."""


@dataclass(frozen=True)
class WilsonInterval:
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


@dataclass(frozen=True)
class RunResult:
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
            **vars(self),
            "predicted": str(self.predicted) if self.predicted else None,
            "outcome": self.outcome.value,
        }


@dataclass(frozen=True)
class SummaryRow:
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
            **vars(self),
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
CSV_COLUMNS = tuple(field.name for field in fields(SummaryRow) if field.name != "outcomes")


@dataclass
class BenchmarkReport:
    results: list[RunResult]
    summary: SummaryRow
    run_dir: Path | None = None


def summarize(
    results: Sequence[RunResult], *, method: str, budget: int, cache: bool
) -> SummaryRow:
    """Aggregate per-problem results; pure, so reports can be recomputed.

    Raises:
        InvalidCounts: ``results`` is empty.
    """
    correct = sum(1 for result in results if result.correct)
    interval = wilson_interval(correct, len(results))
    outcomes = Counter(result.outcome.value for result in results)
    return SummaryRow(
        method=method,
        budget=budget,
        cache=cache,
        correct=correct,
        n=len(results),
        accuracy=correct / len(results),
        ci_low=interval.low,
        ci_high=interval.high,
        mean_tokens=sum(result.tokens_spent for result in results) / len(results),
        evaluator_calls=sum(result.evaluator_calls for result in results),
        outcomes=dict(outcomes),
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


def _result(
    problem: Problem, trace: SolveTrace, trace_path: str | None = None,
    totals: tuple[int, int] | None = None,
) -> RunResult:
    """Score one solve: its answer counts only if the solve finished.
    ``totals`` is the trace's ``(tokens_spent, evaluator_calls)`` if known."""
    spent, evaluator_calls = trace.totals() if totals is None else totals
    predicted = trace.final_answer if trace.outcome is Outcome.SOLVED else None
    return RunResult(
        problem_id=problem.id,
        predicted=predicted,
        correct=predicted is not None and predicted == problem.gold_answer,
        tokens_spent=spent,
        outcome=trace.outcome,
        evaluator_calls=evaluator_calls,
        trace_path=trace_path,
    )


def _map(fn: Callable[[object], object], items: Sequence, workers: int) -> list:
    """``fn`` over ``items`` in order, on ``workers`` threads when above 1."""
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(fn, items))
    return [fn(item) for item in items]


def _as_provider(backends: BackendPair | BackendProvider) -> BackendProvider:
    if callable(backends):
        return backends
    decomposer, evaluator = backends
    return lambda problem: (decomposer, evaluator)


def config_hash(config: SolverConfig, method: str) -> str:
    """Run identity: names the run directory and is kept in run_meta.json."""
    payload = json.dumps(
        {"config": config.to_dict(), "method": method}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:10]


def _new_run_dir(out_dir: str | Path, name: str) -> Path:
    """Create ``<out_dir>/<stamp>-<name>`` exclusively, suffixing -2, -3, ...
    when a run of the same config already took it within the same second."""
    base = Path(out_dir) / f"{time.strftime('%Y%m%d-%H%M%S')}-{name}"
    run_dir, attempt = base, 1
    while True:
        try:
            run_dir.mkdir(parents=True)
            return run_dir
        except FileExistsError:
            attempt += 1
            run_dir = base.with_name(f"{base.name}-{attempt}")


def _check_problems(problems: Sequence[Problem]) -> None:
    """Reject a problem set that cannot be scored or filed: empty, a missing
    gold answer, an id that cannot name a trace file, or a repeated id."""
    if not problems:
        raise InvalidCounts("empty problem list")
    seen: set[str] = set()
    for problem in problems:
        if problem.gold_answer is None:
            raise DataError(f"problem {problem.id!r} has no gold answer")
        # The id names the trace file: one path component, with no NUL.
        if "/" in problem.id or "\\" in problem.id or "\0" in problem.id:
            raise DataError(f"problem id {problem.id!r} must not contain '/', '\\' or NUL")
        if problem.id in seen:
            raise DataError(f"duplicate problem id {problem.id!r}")
        seen.add(problem.id)


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

    With ``out_dir`` set, writes per-problem traces, results.jsonl,
    summary.json, summary.csv, and run_meta.json under a fresh run
    directory.
    """
    _check_problems(problems)
    provider = _as_provider(backends)

    run_dir: Path | None = None
    trace_dir: Path | None = None
    if out_dir is not None:
        run_dir = _new_run_dir(out_dir, config_hash(config, method))
        trace_dir = run_dir / "traces"
        trace_dir.mkdir()

    def run_one(problem: Problem) -> RunResult:
        trace = solve(problem, config, *provider(problem))
        trace_path = None
        if trace_dir is not None:
            path = trace_dir / f"{problem.id}.json"
            path.write_text(trace.to_json() + "\n", encoding="utf-8")
            trace_path = str(path)
        return _result(problem, trace, trace_path)

    results = _map(run_one, problems, workers)
    summary = summarize(results, method=method, budget=config.token_budget,
                        cache=config.cache_enabled)
    if run_dir is not None:
        _write_report(run_dir, results, summary, config)
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

    Every cell is cut from one solve per problem at ``max(budgets)``, and the
    cache-off solve forks from the cache-on one in the same task, on a pair
    the provider gives before it starts (PROTOCOL.md, Budget sweep). An error
    in a solve, or the provider's error for it, fails every cell of its cache
    setting; it propagates unless ``continue_on_error`` is set, and then those
    cells are logged. After a cache-on error the problem's fork replays nothing.
    """
    if not budgets:
        raise ValueError("budgets must be non-empty")
    if any(budget <= 0 for budget in budgets):
        raise ValueError("budgets must be positive")
    _check_problems(problems)
    provider = _as_provider(backends)
    solve_configs = {
        cache_enabled: config.with_overrides(
            token_budget=max(budgets), cache_enabled=cache_enabled
        )
        for cache_enabled in (False, True)
    }

    def cut(problem: Problem, replies: Mapping | None = None) -> tuple | Exception:
        """The problem's results, one per budget, its trace and its fork; or the
        error its provider or solve raised, once ``continue_on_error`` caught
        it. With ``replies``, the cache-off fork that replays them."""
        try:
            backends = provider(problem)
            if replies is not None:
                backends = (ReplayBackend(replies, *backends),) * 2
            trace = solve(problem, solve_configs[replies is None], *backends)
        except Exception as exc:
            if not continue_on_error:
                raise
            return exc
        cuts = BudgetCuts(trace)
        whole = _result(problem, trace, totals=cuts.totals)
        results = [whole if stop is None else RunResult(
            problem_id=problem.id, predicted=None, correct=False,
            tokens_spent=stop.spent, outcome=Outcome.BUDGET_EXHAUSTED,
            evaluator_calls=stop.evaluator_calls,
        ) for stop in map(cuts.at, budgets)]
        return results, trace, cuts.fork

    def cut_both(problem: Problem) -> tuple:
        """The problem's (cache-off, cache-on) results, one per budget, or each
        setting's error; cache off forked from cache on. The traces stay in
        this task, so each is freed once the problem is cut."""
        on = cut(problem)
        if isinstance(on, Exception):  # no trace: the fork replays nothing
            off = cut(problem, {})
        else:
            off = on if on[2] is None else cut(problem, on[1].replies(on[2]))
        return tuple(item if isinstance(item, Exception) else item[0] for item in (off, on))

    off, on = zip(*_map(cut_both, problems, workers))
    solved = {cache: next((item for item in cuts if isinstance(item, Exception)), cuts)
              for cache, cuts in ((False, off), (True, on))}
    rows: list[SummaryRow] = []
    errors: list[str] = []
    for index, budget in enumerate(budgets):
        for cache_enabled in (False, True):
            cell = solved[cache_enabled]
            if isinstance(cell, Exception):
                errors.append(f"budget={budget} cache={cache_enabled}: {cell}")
                continue
            rows.append(summarize([results[index] for results in cell], method=method,
                                  budget=budget, cache=cache_enabled))
    if out_dir is not None:
        run_dir = _new_run_dir(out_dir, "sweep-" + config_hash(config, method))
        _write_meta(run_dir, config, method)
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


def _write_report(
    run_dir: Path, results: Sequence[RunResult], summary: SummaryRow, config: SolverConfig
) -> None:
    with (run_dir / "results.jsonl").open("w", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    (run_dir / "summary.json").write_text(
        json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (run_dir / "summary.csv").write_text(rows_to_csv([summary]), encoding="utf-8")
    _write_meta(run_dir, config, summary.method)


def _write_meta(run_dir: Path, config: SolverConfig, method: str) -> None:
    meta = {
        "config": config.to_dict(),
        "method": method,
        "config_hash": config_hash(config, method),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    (run_dir / "run_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_results(path: str | Path) -> list[RunResult]:
    """Read persisted results.jsonl back into RunResults (for recomputation)."""
    results = []
    for line_number, record in _read_jsonl(path):
        try:
            results.append(
                RunResult(
                    problem_id=record["problem_id"],
                    predicted=(
                        CanonicalNumber(record["predicted"])
                        if record["predicted"]
                        else None
                    ),
                    correct=record["correct"],
                    tokens_spent=record["tokens_spent"],
                    outcome=Outcome(record["outcome"]),
                    evaluator_calls=record["evaluator_calls"],
                    trace_path=record.get("trace_path"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_number}: bad result record ({exc})") from None
    return results
