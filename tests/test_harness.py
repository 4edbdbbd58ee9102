from __future__ import annotations

import itertools
import json
import random
import re
import threading
import time
import weakref
import zlib
from collections import Counter
from fractions import Fraction

import pytest

from dualtrack.agents import BackendError, DecodeParams, Role, ScriptedBackend
from dualtrack import harness
from dualtrack.dataset import DataError
from dualtrack.harness import (
    CSV_COLUMNS,
    InvalidCounts,
    SWEEP_BUDGETS,
    budget_sweep,
    load_problems,
    rows_to_csv,
    run_benchmark,
    wilson_interval,
)
from dualtrack.cache import KNOWN_BAD_FEEDBACK
from dualtrack.protocol import CanonicalNumber, Problem, render_problem_block
from dualtrack.solver import BudgetCuts, EventKind, Outcome, SolverConfig, solve

from conftest import (
    BIG_BUDGET,
    HENRY_QUESTION,
    HENRY_SCRIPTS,
    RecordingBackend,
    build_bench_case,
    build_random_case,
    build_sweep_case,
    from_scratch,
    scripted_provider,
    unpaid_calls,
)


def _result_of(problem, trace):
    """The RunResult of a whole solve, from the trace's own totals."""
    return harness._result(problem, trace, None)


def _wilson_center(correct, n, z=1.96):
    p_hat = correct / n
    return (p_hat + z**2 / (2 * n)) / (1 + z**2 / n)


class TestWilsonInterval:
    # Frozen reference intervals for 50-problem runs, to three decimals.
    TABLE_ROWS = [
        (39, 50, 0.648, 0.872),
        (12, 50, 0.143, 0.374),
        (34, 50, 0.542, 0.792),
        (36, 50, 0.583, 0.825),
    ]

    @pytest.mark.parametrize("correct,n,low,high", TABLE_ROWS)
    def test_reference_rows(self, correct, n, low, high):
        interval = wilson_interval(correct, n)
        assert interval.low == pytest.approx(low, abs=1e-3)
        assert interval.high == pytest.approx(high, abs=1e-3)

    def test_zero_successes_closed_form(self):
        # p_hat = 0 collapses to low = 0, high = z^2 / (n + z^2).
        z = 1.96
        interval = wilson_interval(0, 50)
        assert interval.low == 0.0
        assert interval.high == pytest.approx(z**2 / (50 + z**2), abs=1e-9)
        assert interval.high == pytest.approx(0.0713, abs=5e-4)

    def test_all_correct_upper_bound_is_one(self):
        interval = wilson_interval(4, 4)
        assert interval.high == pytest.approx(1.0, abs=1e-12)
        assert interval.low < 1.0

    @pytest.mark.parametrize("correct,n", [(0, 0), (5, 4), (-1, 10)])
    def test_invalid_counts(self, correct, n):
        with pytest.raises(InvalidCounts):
            wilson_interval(correct, n)

    def test_symmetric_around_center_before_clamping(self):
        for correct, n in [(10, 40), (25, 50), (30, 60)]:
            interval = wilson_interval(correct, n)
            center = _wilson_center(correct, n)
            assert interval.high - center == pytest.approx(center - interval.low, abs=1e-12)

    def test_width_shrinks_with_sample_size(self):
        narrow = wilson_interval(144, 200)
        wide = wilson_interval(36, 50)
        assert narrow.high - narrow.low < wide.high - wide.low

    def test_bounds_stay_in_unit_interval(self):
        for n in (1, 2, 5, 50, 500):
            for correct in range(n + 1):
                interval = wilson_interval(correct, n)
                assert 0.0 <= interval.low <= interval.high <= 1.0


class TestConfigHash:
    def test_equal_configs_hash_alike(self):
        integer = SolverConfig(600, decomposer_params=DecodeParams(0),
                               evaluator_params=DecodeParams(1, 64))
        default = SolverConfig(600, evaluator_params=DecodeParams(1.0, 64))
        assert integer == default
        assert harness.config_hash(integer, "m") == harness.config_hash(default, "m")


class TestRunBenchmark:
    def test_engineered_36_of_50(self, tmp_path):
        problems, fixture = build_bench_case(n=50, n_correct=36)
        report = run_benchmark(
            problems,
            SolverConfig(token_budget=BIG_BUDGET),
            scripted_provider(fixture),
            out_dir=tmp_path,
        )
        summary = report.summary
        assert summary.correct == 36
        assert summary.n == 50
        assert summary.accuracy == pytest.approx(0.72)
        assert summary.ci_low == pytest.approx(0.583, abs=1e-3)
        assert summary.ci_high == pytest.approx(0.825, abs=1e-3)
        assert summary.accuracy_line() == "72.0% [58.3%, 82.5%]"

    def test_report_files_written_and_recomputable(self, tmp_path):
        problems, fixture = build_bench_case(n=8, n_correct=5)
        config = SolverConfig(token_budget=BIG_BUDGET)
        report = run_benchmark(
            problems, config, scripted_provider(fixture), out_dir=tmp_path, method="scripted"
        )
        run_dir = report.run_dir
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "summary.csv").exists()
        assert (run_dir / "run_meta.json").exists()
        traces = sorted((run_dir / "traces").glob("*.json"))
        assert len(traces) == 8

        # Every summary figure, recomputed from the per-problem records alone.
        lines = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        correct, n = sum(record["correct"] for record in records), len(records)
        assert (correct, n) == (5, 8)
        interval = wilson_interval(correct, n)
        summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
        assert summary == {
            "method": "scripted", "budget": config.token_budget, "cache": "on",
            "correct": correct, "n": n, "accuracy": round(correct / n, 3),
            "ci_low": round(interval.low, 3), "ci_high": round(interval.high, 3),
            "mean_tokens": round(sum(record["tokens_spent"] for record in records) / n, 2),
            "evaluator_calls": sum(record["evaluator_calls"] for record in records),
            "outcomes": dict(sorted(Counter(record["outcome"] for record in records).items())),
        }
        assert summary == report.summary.to_dict()

    def test_accuracy_equals_mean_of_correct_flags(self):
        problems, fixture = build_bench_case(n=10, n_correct=4)
        report = run_benchmark(
            problems, SolverConfig(token_budget=BIG_BUDGET), scripted_provider(fixture)
        )
        flags = [result.correct for result in report.results]
        assert report.summary.accuracy == sum(flags) / len(flags)

    def test_empty_problem_list_rejected(self):
        with pytest.raises(DataError, match="empty problem list"):
            run_benchmark([], SolverConfig(token_budget=10), ((), ()))

    def test_problem_without_gold_rejected(self):
        problem = Problem(id="p", question="q?")
        with pytest.raises(DataError):
            run_benchmark([problem], SolverConfig(token_budget=10), ((), ()))

    @pytest.mark.parametrize(
        "ids", [["p000", "../escape"], ["a/b"], ["a\\b"], ["p000", "p001", "p000"]]
    )
    def test_unsafe_or_duplicate_ids_rejected_before_writing(self, tmp_path, ids):
        _, fixture = build_bench_case(n=1, n_correct=1)
        problems = [
            Problem(id=problem_id, question=HENRY_QUESTION, gold_answer=CanonicalNumber("25"))
            for problem_id in ids
        ]
        with pytest.raises(DataError, match="problem id"):
            run_benchmark(
                problems, SolverConfig(token_budget=BIG_BUDGET),
                scripted_provider(fixture["p000"]), out_dir=tmp_path / "runs",
            )
        assert list(tmp_path.iterdir()) == []

    def test_backend_failure_counts_incorrect_and_run_continues(self):
        problems, fixture = build_bench_case(n=4, n_correct=4)
        fixture["p001"] = {"decomposer": [], "evaluator": []}  # dead backend
        report = run_benchmark(
            problems, SolverConfig(token_budget=BIG_BUDGET), scripted_provider(fixture)
        )
        by_id = {result.problem_id: result for result in report.results}
        assert by_id["p001"].outcome is Outcome.BACKEND_FAILURE
        assert not by_id["p001"].correct
        assert report.summary.n == 4
        assert report.summary.correct == 3

    def test_unparseable_evaluator_reply_is_counted(self):
        problems, fixture = build_bench_case(n=2, n_correct=2)
        fixture["p001"]["evaluator"] = ["Score: 7\nFeedback: x"]
        recorders = {}

        def provider(problem):
            backend = RecordingBackend(ScriptedBackend(fixture[problem.id]))
            recorders[problem.id] = backend
            return backend, backend

        report = run_benchmark(problems, SolverConfig(token_budget=BIG_BUDGET), provider)
        by_id = {result.problem_id: result for result in report.results}
        assert by_id["p001"].outcome is Outcome.BACKEND_FAILURE
        assert by_id["p001"].evaluator_calls == 1
        assert by_id["p001"].tokens_spent == sum(
            reply.total_tokens for _, reply in recorders["p001"].replies
        )
        assert report.summary.evaluator_calls == 3

    def test_worker_parallelism_preserves_results(self, tmp_path):
        problems, fixture = build_bench_case(n=12, n_correct=7)
        config = SolverConfig(token_budget=BIG_BUDGET)
        serial, parallel = (
            run_benchmark(problems, config, scripted_provider(fixture),
                          out_dir=tmp_path / str(workers), workers=workers)
            for workers in (1, 4)
        )
        # Equal apart from each result's path into its own run directory; the
        # files too: every trace and both summaries byte for byte.
        def unplaced(report):
            return [result._replace(trace_path=None) for result in report.results]

        assert unplaced(serial) == unplaced(parallel)
        assert serial.summary.to_dict() == parallel.summary.to_dict()

        def results(run_dir):
            lines = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
            return [{**json.loads(line), "trace_path": None} for line in lines]

        serial_dir, parallel_dir = serial.run_dir, parallel.run_dir
        traces = sorted(path.name for path in (serial_dir / "traces").iterdir())
        assert len(traces) == 12
        assert sorted(path.name for path in (parallel_dir / "traces").iterdir()) == traces
        for name in [f"traces/{trace}" for trace in traces] + ["summary.csv", "summary.json"]:
            assert (serial_dir / name).read_bytes() == (parallel_dir / name).read_bytes(), name
        assert results(serial_dir) == results(parallel_dir)

    def test_shared_backend_pair_accepted(self):
        problems, fixture = build_bench_case(n=1, n_correct=1)
        backend = ScriptedBackend(fixture["p000"])
        report = run_benchmark(
            problems, SolverConfig(token_budget=BIG_BUDGET), (backend, backend)
        )
        assert report.summary.correct == 1


class TestBudgetSweep:
    def test_grid_produces_two_rows_per_budget(self):
        problems, fixture = build_sweep_case(count=6)
        rows = budget_sweep(
            problems,
            SWEEP_BUDGETS,
            SolverConfig(token_budget=BIG_BUDGET),
            scripted_provider(fixture),
        )
        assert len(rows) == 12
        assert [(row.budget, row.cache) for row in rows] == [
            (budget, cache) for budget in SWEEP_BUDGETS for cache in (False, True)
        ]

    def test_sweep_is_deterministic(self):
        problems, fixture = build_sweep_case(count=5)
        config = SolverConfig(token_budget=BIG_BUDGET)
        first = budget_sweep(problems, (100, 300), config, scripted_provider(fixture))
        second = budget_sweep(problems, (100, 300), config, scripted_provider(fixture))
        assert [row.to_dict() for row in first] == [row.to_dict() for row in second]

    def test_cache_reduces_evaluator_calls_on_repetitive_scripts(self):
        question = "How many apples remain on the cart after the moves?"
        scripts = {
            "decomposer": [
                "STEP: First he adds 12 + 30 = 42 apples.",
                "STEP: So we compute 12 + 30 = 42 apples in total.",
                "STEP: Then he removes 42 - 2 = 40 apples.",
                "FINAL_ANSWER: 40",
            ],
            "evaluator": ["Score: 3\nFeedback: fine."] * 4,
        }
        problems = [
            Problem(id="dup", question=question, gold_answer=CanonicalNumber("40"))
        ]
        fixture = {"dup": scripts}
        rows = budget_sweep(
            problems,
            (BIG_BUDGET,),
            SolverConfig(token_budget=BIG_BUDGET),
            scripted_provider(fixture),
        )
        by_cache = {row.cache: row for row in rows}
        assert by_cache[True].evaluator_calls <= by_cache[False].evaluator_calls
        assert by_cache[True].evaluator_calls == 3
        assert by_cache[False].evaluator_calls == 4

    def test_identical_cells_match_when_flag_identical(self):
        problems, fixture = build_sweep_case(count=3)
        config = SolverConfig(token_budget=BIG_BUDGET)
        rows = budget_sweep(problems, (200, 200), config, scripted_provider(fixture))
        assert rows[0].to_dict() == rows[2].to_dict()
        assert rows[1].to_dict() == rows[3].to_dict()

    def test_empty_budget_list_rejected(self):
        with pytest.raises(ValueError):
            budget_sweep([], (), SolverConfig(token_budget=10), ((), ()))

    def test_non_positive_budget_rejected(self):
        problems, fixture = build_sweep_case(count=1)
        with pytest.raises(ValueError):
            budget_sweep(
                problems, (0,), SolverConfig(token_budget=10), scripted_provider(fixture)
            )

    @pytest.mark.parametrize(
        "ids, error",
        [
            ([], DataError),
            (["p000", None], DataError),
            (["../x"], DataError),
            (["p\0x"], DataError),
            (["p000", "p000"], DataError),
            (["p000", "x" * 251], DataError),
            (["é" * 126], DataError),  # 252 bytes in UTF-8
            (["p\ud800"], DataError),  # valid in JSON, not in UTF-8
        ],
    )
    def test_bad_problem_set_rejected_before_any_cell(self, tmp_path, ids, error):
        problems = [
            Problem(
                id=problem_id or "nogold",
                question=HENRY_QUESTION,
                gold_answer=CanonicalNumber("25") if problem_id else None,
            )
            for problem_id in ids
        ]
        served = []

        def provider(problem):
            served.append(problem.id)
            backend = ScriptedBackend({"decomposer": [], "evaluator": []})
            return backend, backend

        with pytest.raises(error):
            budget_sweep(
                problems, (100, 200), SolverConfig(token_budget=10), provider,
                out_dir=tmp_path / "runs", continue_on_error=True,
            )
        assert served == []
        assert list(tmp_path.iterdir()) == []

    # 250 bytes and ".json" make 255, the longest name a file can have.
    @pytest.mark.parametrize("problem_id", ["x" * 250, "é" * 125])
    def test_id_of_at_most_250_utf8_bytes_is_accepted(self, problem_id):
        problem = Problem(id=problem_id, question=HENRY_QUESTION,
                          gold_answer=CanonicalNumber("25"))
        provider = scripted_provider({problem_id: {"decomposer": [], "evaluator": []}})
        config = SolverConfig(token_budget=10)
        assert run_benchmark([problem], config, provider).summary.n == 1
        assert [row.n for row in budget_sweep([problem], (5,), config, provider)] == [1, 1]

    def test_failed_cell_is_logged_and_other_cells_reported(self, tmp_path):
        problems, fixture = build_sweep_case(count=3)
        ids = [problem.id for problem in problems]
        config = SolverConfig(token_budget=BIG_BUDGET)
        budgets = (150, 300)
        healthy = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        # Each problem is solved with the cache on first. A failing cache-on solve,
        # the first one or the last, fails every cache-on cell. It leaves no
        # trace, so its problem's cache-off solve, next, replays nothing and
        # asks the provider again; no other problem's cache hits, so each other
        # cache-on trace is its cache-off solve.
        for failing in (1, len(problems)):
            served = []

            def provider(problem):
                served.append(problem.id)
                if len(served) == failing:
                    raise RuntimeError(f"endpoint down for {problem.id}")
                return scripted_provider(fixture)(problem)

            out_dir = tmp_path / str(failing)
            rows = budget_sweep(
                problems, budgets, config, provider, out_dir=out_dir, continue_on_error=True
            )
            assert served == ids[:failing] + ids[failing - 1:]
            assert [row.to_dict() for row in rows] == [healthy[cell].to_dict() for cell in (0, 2)]
            (run_dir,) = out_dir.glob("*-sweep-*")
            failed_id = ids[failing - 1]
            assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
                f"budget=150 cache=True: endpoint down for {failed_id}\n"
                f"budget=300 cache=True: endpoint down for {failed_id}\n"
            )
            assert (run_dir / "sweep.csv").read_text(encoding="utf-8") == rows_to_csv(rows)

        served.clear()
        with pytest.raises(RuntimeError, match="endpoint down for s002"):
            budget_sweep(problems, budgets, config, provider)

    def test_failed_cache_off_solve_fails_only_cache_off_cells(self, tmp_path):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (150, 600)
        healthy = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        # A problem's second provider call is the pair of its cache-off fork,
        # asked for before the fork starts.
        failed_id = next(problem.id for problem, (*_, live) in zip(problems, _fork_calls(
            problems, config.with_overrides(token_budget=max(budgets)), fixture)) if live)
        served = []

        def provider(problem):
            served.append(problem.id)
            if problem.id == failed_id and served.count(failed_id) == 2:
                raise RuntimeError(f"endpoint down for {problem.id}")
            return scripted_provider(fixture)(problem)

        rows = budget_sweep(
            problems, budgets, config, provider, out_dir=tmp_path, continue_on_error=True
        )
        assert [row.to_dict() for row in rows] == [healthy[cell].to_dict() for cell in (1, 3)]
        assert served.count(failed_id) == 2
        (run_dir,) = tmp_path.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            f"budget=150 cache=False: endpoint down for {failed_id}\n"
            "budget=150 cache=True: 2 of 40 solves ended in backend_failure\n"
            f"budget=600 cache=False: endpoint down for {failed_id}\n"
            "budget=600 cache=True: 10 of 40 solves ended in backend_failure\n"
        )
        assert (run_dir / "sweep.csv").read_text(encoding="utf-8") == rows_to_csv(rows)

    def test_provider_backend_error_for_a_fork_fails_the_cache_off_cells(self, tmp_path):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (150, 600)
        healthy_served = Counter()

        def healthy_provider(problem):
            healthy_served[problem.id] += 1
            return scripted_provider(fixture)(problem)

        healthy = budget_sweep(problems, budgets, config, healthy_provider)
        # r000's second provider request is its fork's pair, made before the
        # fork's solve, so a BackendError from it is not that problem's
        # backend_failure: it fails the setting, as a provider error for a
        # cache-on solve fails the cache-on cells.
        assert healthy_served["r000"] == 2
        served = Counter()

        def provider(problem):
            served[problem.id] += 1
            if problem.id == "r000" and served[problem.id] == 2:
                raise BackendError("no backends for r000")
            return scripted_provider(fixture)(problem)

        rows = budget_sweep(
            problems, budgets, config, provider, out_dir=tmp_path, continue_on_error=True
        )
        assert served == healthy_served
        assert [row.to_dict() for row in rows] == [healthy[cell].to_dict() for cell in (1, 3)]
        (run_dir,) = tmp_path.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            "budget=150 cache=False: no backends for r000\n"
            "budget=150 cache=True: 2 of 40 solves ended in backend_failure\n"
            "budget=600 cache=False: no backends for r000\n"
            "budget=600 cache=True: 10 of 40 solves ended in backend_failure\n"
        )
        served.clear()
        with pytest.raises(BackendError, match="^no backends for r000$"):
            budget_sweep(problems, budgets, config, provider)

    def test_fork_pair_error_on_a_relayed_call_is_the_forks_backend_failure(self, tmp_path):
        """r000's fork pair raises BackendError on its first call, one the fork
        serves from its trunk's events and relays to the pair. That ends the
        fork's solve as backend_failure, as a cache-off solve on that pair
        ends, and fails no cell."""
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (150, 600)
        calls = []

        class Down:
            def complete(self, role, prompt, params=None):
                calls.append(role)
                raise BackendError("endpoint down")

        def down_for_r000(problem):
            return (Down(),) * 2 if problem.id == "r000" else scripted_provider(fixture)(problem)

        served = Counter()

        def provider(problem):
            served[problem.id] += 1
            return (down_for_r000 if served[problem.id] == 2 else scripted_provider(fixture))(
                problem)

        rows = budget_sweep(
            problems, budgets, config, provider, out_dir=tmp_path, continue_on_error=True
        )
        assert served["r000"] == 2 and calls == [Role.DECOMPOSER]
        healthy = _per_cell_rows(problems, budgets, config, scripted_provider(fixture), 1)
        down = _per_cell_rows(problems, budgets, config, down_for_r000, 1)
        assert [row.to_dict() for row in rows] == [
            cells[index].to_dict() for index, cells in enumerate([down, healthy] * 2)]
        (run_dir,) = tmp_path.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            "budget=150 cache=False: 3 of 40 solves ended in backend_failure\n"
            "budget=150 cache=True: 2 of 40 solves ended in backend_failure\n"
            "budget=600 cache=False: 12 of 40 solves ended in backend_failure\n"
            "budget=600 cache=True: 10 of 40 solves ended in backend_failure\n"
        )

    def test_provider_error_for_a_fork_the_budget_stops_fails_the_cache_off_cells(
            self, tmp_path):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (100, 300)
        healthy = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        # A fork whose first budget check stops it never calls its live pair,
        # but the pair is asked for before the fork starts, so the provider's
        # error for it fails the cache-off cells.
        top = config.with_overrides(token_budget=max(budgets))
        failed_id = next(
            problem.id for problem, (*_, live), forked in zip(
                problems, _fork_calls(problems, top, fixture), _has_fork(problems, top, fixture))
            if forked and live == 0)
        served = Counter()

        def provider(problem):
            served[problem.id] += 1
            if problem.id == failed_id and served[problem.id] == 2:
                raise BackendError(f"no backends for {problem.id}")
            return scripted_provider(fixture)(problem)

        rows = budget_sweep(
            problems, budgets, config, provider, out_dir=tmp_path, continue_on_error=True
        )
        assert served[failed_id] == 2
        assert [row.to_dict() for row in rows] == [healthy[cell].to_dict() for cell in (1, 3)]
        (run_dir,) = tmp_path.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            f"budget=100 cache=False: no backends for {failed_id}\n"
            "budget=100 cache=True: 2 of 40 solves ended in backend_failure\n"
            f"budget=300 cache=False: no backends for {failed_id}\n"
            "budget=300 cache=True: 6 of 40 solves ended in backend_failure\n"
        )

    @pytest.mark.parametrize("failing", [(0,), (13,), (39,), (39, 13)],
                             ids=["first", "middle", "last", "two"])
    def test_failed_cache_on_solve_touches_only_its_own_problem(self, tmp_path, failing):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (150, 600)
        healthy = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        failed_ids = {problems[index].id for index in failing}
        forks = _fork_calls(problems, config.with_overrides(token_budget=max(budgets)), fixture)
        # Every problem once for its cache-on solve and once more for its fork,
        # if it has one; at 600 every fork reaches the live backend. A failed
        # problem's fork has no trace to replay, but asks the provider too.
        expected = Counter(problem.id for problem in problems) + Counter(
            problem.id for problem, (*_, live) in zip(problems, forks)
            if live or problem.id in failed_ids)
        assert 0 < sum(expected.values()) - len(problems) < len(problems)
        for workers in (1, 2):
            served = Counter()
            lock = threading.Lock()

            def provider(problem):
                with lock:
                    served[problem.id] += 1
                    first = served[problem.id] == 1
                if problem.id in failed_ids and first:
                    raise RuntimeError(f"endpoint down for {problem.id}")
                return scripted_provider(fixture)(problem)

            out_dir = tmp_path / str(workers)
            rows = budget_sweep(problems, budgets, config, provider, out_dir=out_dir,
                                workers=workers, continue_on_error=True)
            assert served == expected
            assert [row.to_dict() for row in rows] == [healthy[cell].to_dict() for cell in (0, 2)]
            # The setting's error is its first failed problem's, in problem order.
            first_id = problems[min(failing)].id
            (run_dir,) = out_dir.glob("*-sweep-*")
            assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
                "budget=150 cache=False: 2 of 40 solves ended in backend_failure\n"
                f"budget=150 cache=True: endpoint down for {first_id}\n"
                "budget=600 cache=False: 11 of 40 solves ended in backend_failure\n"
                f"budget=600 cache=True: endpoint down for {first_id}\n"
            )

    def test_cells_with_backend_failures_are_named_in_errors_txt(self, tmp_path):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        rows = budget_sweep(problems, (150, 600), config, scripted_provider(fixture),
                            out_dir=tmp_path)
        # A script that runs out ends its solve in backend_failure. Each cell
        # that holds one gets a line, in sweep order, and keeps its row.
        assert [row.outcomes.get("backend_failure") for row in rows] == [2, 2, 11, 10]
        (run_dir,) = tmp_path.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            "budget=150 cache=False: 2 of 40 solves ended in backend_failure\n"
            "budget=150 cache=True: 2 of 40 solves ended in backend_failure\n"
            "budget=600 cache=False: 11 of 40 solves ended in backend_failure\n"
            "budget=600 cache=True: 10 of 40 solves ended in backend_failure\n"
        )
        assert (run_dir / "sweep.csv").read_text(encoding="utf-8") == rows_to_csv(rows)

    def test_sweep_csv_written(self, tmp_path):
        problems, fixture = build_sweep_case(count=2)
        budget_sweep(
            problems,
            (150,),
            SolverConfig(token_budget=BIG_BUDGET),
            scripted_provider(fixture),
            out_dir=tmp_path,
        )
        sweep_dirs = list(tmp_path.glob("*-sweep-*"))
        assert len(sweep_dirs) == 1
        csv_text = (sweep_dirs[0] / "sweep.csv").read_text(encoding="utf-8")
        lines = csv_text.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        # No solve failed, so there is no errors.txt.
        assert sorted(path.name for path in sweep_dirs[0].iterdir()) == [
            "run_meta.json", "sweep.csv"]


def _per_cell_rows(problems, budgets, config, provider, workers):
    """The brute-force sweep: one benchmark run per (budget, cache) cell."""
    return [
        run_benchmark(
            problems, config.with_overrides(token_budget=budget, cache_enabled=cache),
            provider, workers=workers,
        ).summary
        for budget in budgets
        for cache in (False, True)
    ]


def _fork_calls(problems, config, fixture, model=None):
    """Per problem, the calls its cache-on solve at ``config``'s budget makes,
    the calls its cache-off solve makes, and those of them past the longest
    prefix it shares with the calls the cache-on solve made and got a reply
    to; on the problem's script, or on ``model``, one backend for every
    problem. Counted from one solve per problem and cache setting, apart from
    the sweep. At budgets that stop no fork before its first live call, the
    problems where the third count is above 0 are those ``_has_fork`` names."""
    counts = []
    for problem in problems:
        on, off = from_scratch(problem, config,
                                lambda: model or ScriptedBackend(fixture[problem.id]))
        shared = 0
        for replied, asked in zip(on.attempts[: len(on.replies)], off.attempts):
            if replied != asked:
                break
            shared += 1
        counts.append((len(on.attempts), len(off.attempts), len(off.attempts) - shared))
    return counts


def _has_fork(problems, config, fixture):
    """Per problem, whether its cache-on solve at ``config``'s budget has a
    fork point: a sweep asks the provider for a pair for its cache-off fork."""
    on = config.with_overrides(cache_enabled=True)
    return [solve(problem, on, *scripted_provider(fixture)(problem)).cuts.fork
            is not None for problem in problems]


class _Sampled:
    """A sampled model over one problem whose outcomes can be enumerated.

    Its first Decomposer reply is a coin flip: a right final answer, or a wrong
    step that the Evaluator scores 0 and the retry repeats, so that the cache
    fires with the cache on. Either way the repeat is force-accepted (one
    retry), and a second flip picks one of two wrong final answers. So
    P(hit) = 0.5, and the accuracy is 1 without a hit and 0 with one, with
    the cache off or on. The flips come from ``draws``, one per reply that
    is sampled; every other reply follows from the prompt alone.
    """

    WRONG = "STEP: Take 2 + 2 = 5 apples."
    PROBLEM = Problem(id="coin", question="How many apples are left?",
                      gold_answer=CanonicalNumber("5"))

    def __init__(self, draws):
        self.draws = iter(draws)

    def complete(self, role, prompt, params=None):
        if role == "evaluator":
            text = ("Score: 0\nFeedback: 2 + 2 is 4." if f"step:\n{self.WRONG}\n" in prompt
                    else "Score: 3\nFeedback: Correct.")
        elif "HINT:" in prompt:
            text = self.WRONG
        elif self.WRONG[len("STEP: "):] in prompt:
            text = ("FINAL_ANSWER: 4", "FINAL_ANSWER: 6 apples are left")[next(self.draws)]
        else:
            text = ("FINAL_ANSWER: 5", self.WRONG)[next(self.draws)]
        return ScriptedBackend({role: [text]}).complete(role, prompt, params)


class _Repeats:
    """A sampled model over one problem whose outcomes can be enumerated, and
    in which requests repeat.

    Its first Decomposer reply is a coin flip: the right final answer, or a
    wrong step that the Evaluator scores 0 with ``FEEDBACK``. After that
    feedback the Decomposer flips again between the wrong step and the right
    answer: a request a solve may make several times, each a fresh draw. With
    the cache on, the wrong step again is a known-bad hit, after which the
    Decomposer gives ``OTHER``, another wrong step with the same feedback, so
    the cache-on solve asks the feedback's request twice. Its cache-off fork
    asks the Evaluator about the wrong step a second time, once more than the
    cache-on solve, and then asks the feedback's request a second time, as
    the cache-on solve did. A wrong step force-accepted after 3 retries leads
    to a wrong final answer. The flips come from ``draws``, one per reply
    that is sampled (``_flip``); every other reply follows from the prompt.
    """

    RIGHT, WRONG, OTHER = ("FINAL_ANSWER: 5", "STEP: Take 2 + 2 = 5 apples.",
                           "STEP: Take 3 + 3 = 7 apples.")
    FEEDBACK = "Recount the apples."
    PROBLEM = Problem(id="repeats", question="How many apples are left?",
                      gold_answer=CanonicalNumber("5"))

    def __init__(self, draws):
        self.draws = iter(draws)

    def _flip(self, prompt):
        return next(self.draws)

    def complete(self, role, prompt, params=None):
        if role == "evaluator":
            wrong = any(f"step:\n{step}\n" in prompt for step in (self.WRONG, self.OTHER))
            text = f"Score: 0\nFeedback: {self.FEEDBACK}" if wrong else "Score: 3\nFeedback: Ok."
        elif "\nSTEP 1: " in prompt:
            text = "FINAL_ANSWER: 6 apples are left"
        elif prompt.endswith(KNOWN_BAD_FEEDBACK):
            text = self.OTHER
        elif prompt.endswith(self.FEEDBACK):
            text = (self.WRONG, self.RIGHT)[self._flip(prompt)]
        else:
            text = (self.RIGHT, self.WRONG)[self._flip(prompt)]
        return ScriptedBackend({role: [text]}).complete(role, prompt, params)


class _Tabled(_Repeats):
    """``_Repeats`` reading one table of draws, one per (sampled request,
    repeat): solves that share a table share the draw of every (request,
    repeat) they both make."""

    # The sampled (request, repeat) pairs a solve can make: the first
    # request once, the feedback's up to 3 times.
    KEYS = ((False, 1), (True, 1), (True, 2), (True, 3))

    def __init__(self, table):
        self.table, self.made = table, Counter()

    def _flip(self, prompt):
        key = prompt.endswith(self.FEEDBACK)
        self.made[key] += 1
        return self.table[key, self.made[key]]


class _Keyed:
    """One backend for every problem that answers by the request alone: the
    reply to a prompt is one of its problem's scripted replies, picked by a
    hash of the prompt. The problem's id ends its question, in parentheses."""

    def __init__(self, fixture):
        self.fixture = fixture

    def complete(self, role, prompt, params=None):
        problem_id = re.search(r"\((r\d+)\)$", prompt, re.M)[1]
        replies = self.fixture[problem_id][Role(role).value]
        text = replies[zlib.crc32(prompt.encode("utf-8")) % len(replies)]
        return ScriptedBackend({role: [text]}).complete(role, prompt, params)


class TestDerivedSweep:
    """Cells cut from one max-budget solve per problem with the cache on, and
    one with the cache off forked from it at its first cache hit or failed
    call, against the same cells solved one by one."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("retries", [1, 3])
    def test_rows_and_csv_match_per_cell_runs(self, tmp_path, retries, workers):
        problems, fixture = build_random_case(random.Random(606), 40)
        provider = scripted_provider(fixture)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40,
                              max_retries_per_step=retries)
        # The exact spend of a solve that runs out of replies: at that budget
        # the check before the failed call stops the solve.
        exact = next(
            result.tokens_spent
            for result in run_benchmark(problems, config, provider).results
            if result.outcome is Outcome.BACKEND_FAILURE and result.tokens_spent <= 600
        )
        # Unsorted, with duplicates; the first grid tops out at 600, where
        # solves end in budget stops, the second above every solve's spend.
        for budgets in [(300, 1, 600, 2, exact, 100, 300, 500, 200, 400),
                        (exact, BIG_BUDGET, 2, 1, 300, 300)]:
            out_dir = tmp_path / str(len(budgets))
            served = []
            rows = budget_sweep(problems, budgets, config,
                                lambda problem: served.append(problem) or provider(problem),
                                out_dir=out_dir, workers=workers)
            # Both paths are reached: some cache-off cells are the cache-on
            # solve's, and the rest fork from it onto the live backend (at
            # these top budgets no fork stops before its first live call).
            top = config.with_overrides(token_budget=max(budgets))
            forks = sum(live > 0 for *_, live in _fork_calls(problems, top, fixture))
            assert 0 < forks < len(problems)
            assert len(served) == len(problems) + forks
            expected = _per_cell_rows(problems, budgets, config, provider, workers)
            assert [row.to_dict() for row in rows] == [row.to_dict() for row in expected]
            (run_dir,) = out_dir.glob("*-sweep-*")
            assert (run_dir / "sweep.csv").read_text(encoding="utf-8") == rows_to_csv(expected)

    @pytest.mark.parametrize("budgets", [(600,), (100, 600, 300), SWEEP_BUDGETS, (100, 300)])
    def test_one_solve_per_problem_and_cache_setting(self, budgets):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        # At 300 a few cache-off forks stop at the budget check before their
        # first call past the prefix, so they never reach the live backend.
        top = config.with_overrides(token_budget=max(budgets))
        on_calls, off_calls, live_calls = zip(*_fork_calls(problems, top, fixture))
        forks = sum(live > 0 for live in live_calls)
        assert 0 < forks < len(problems)
        # The provider is asked for a fork's pair before the fork starts, so
        # once for each cache-on trace with a fork point. A provider's pair may
        # answer by position, so the fork's whole cache-off solve runs on it.
        forked = _has_fork(problems, top, fixture)
        swept = []

        def provider(problem):
            backend = RecordingBackend(ScriptedBackend(fixture[problem.id]))
            swept.append(backend)
            return backend, backend

        budget_sweep(problems, budgets, config, provider)
        assert len(swept) == len(problems) + sum(forked) == {600: 65, 300: 56}[max(budgets)]
        assert sum(len(backend.attempts) for backend in swept) == sum(on_calls) + sum(
            off for off, fork in zip(off_calls, forked) if fork)

    @pytest.mark.parametrize("budgets", [(600,), (100, 600, 300), SWEEP_BUDGETS, (100, 300)])
    def test_shared_pair_gets_only_the_calls_past_each_fork_point(self, budgets):
        problems, fixture = build_random_case(random.Random(606), 40)
        problems = [problem._replace(question=f"{problem.question} ({problem.id})")
                    for problem in problems]
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        top = config.with_overrides(token_budget=max(budgets))
        on_calls, _, live_calls = zip(*_fork_calls(problems, top, fixture, _Keyed(fixture)))
        assert 0 < sum(live > 0 for live in live_calls) < len(problems)
        # One pair for every problem answers by the request, so each fork
        # looks its requests up in its trunk's call log and sends the pair
        # only the (request, repeat) pairs the trunk did not pay for.
        expected = []
        for problem in problems:
            on, off = from_scratch(problem, top, lambda: _Keyed(fixture))
            expected += on.attempts + unpaid_calls(on, off)
        model = RecordingBackend(_Keyed(fixture))
        rows = budget_sweep(problems, budgets, config, (model, model))
        assert model.attempts == expected
        # At 600 three forks reuse a reply past their fork point, which serving
        # the prefix alone would have sent to the pair again.
        assert sum(on_calls) + sum(live_calls) - len(expected) == {600: 3, 300: 0}[max(budgets)]
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in _per_cell_rows(
            problems, budgets, config, (_Keyed(fixture),) * 2, 1)]

    @pytest.mark.parametrize("keyed", [False, True], ids=["positional", "prompt-keyed"])
    def test_fork_replays_the_prefix_and_solves_the_rest_live(self, keyed):
        # The second step restates the first, so with the cache on it is a
        # duplicate: the cache-off solve forks there, before its Evaluator call.
        problem = Problem(id="dup", question="How many apples remain on the cart?",
                          gold_answer=CanonicalNumber("40"))
        scripts = {
            "decomposer": ["STEP: First he adds 12 + 30 = 42 apples.",
                           "STEP: First he adds 12 + 30 = 42 apples.",
                           "STEP: Then he removes 42 - 2 = 40 apples.",
                           "FINAL_ANSWER: 40"],
            "evaluator": ["Score: 3\nFeedback: fine."] * 4,
        }
        config = SolverConfig(token_budget=BIG_BUDGET)
        replies, attempts = {}, {}
        for cache in (True, False):
            scratch = RecordingBackend(ScriptedBackend(scripts))
            off = solve(problem, config.with_overrides(cache_enabled=cache), scratch, scratch)
            replies.update(zip(scratch.attempts, (reply for _, reply in scratch.replies)))
            attempts[cache] = scratch.attempts
        # The cache-off solve's first 3 calls are the cache-on solve's.
        assert attempts[False][:3] == attempts[True][:3] and len(attempts[False]) == 8

        class Keyed:
            def complete(self, role, prompt, params=None):
                return replies[Role(role), prompt]

        budgets = (100, 250, BIG_BUDGET)
        if keyed:
            # One pair for every problem: the fork looks each request up in the
            # trunk's call log, so the pair gets only the (request, repeat)
            # pairs the cache-on solve never made: here the last 5, since the
            # accepted duplicate changes every later prompt.
            scratch_on, scratch_off = from_scratch(problem, config, Keyed)
            unpaid = unpaid_calls(scratch_on, scratch_off)
            assert unpaid == attempts[False][3:]
            shared = RecordingBackend(Keyed())
            rows = budget_sweep([problem], budgets, config, (shared, shared))
            assert shared.attempts == scratch_on.attempts + unpaid
        else:
            # A provider's pair may answer by position, so the fork sends it
            # the replayed calls too: all 8 calls reach it.
            live = []

            def provider(problem):
                backend = RecordingBackend(ScriptedBackend(scripts))
                live.append(backend)
                return backend, backend

            rows = budget_sweep([problem], budgets, config, provider)
            on, fork = live
            assert (on.attempts, fork.attempts) == (attempts[True], attempts[False])
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in _per_cell_rows(
            [problem], budgets, config, scripted_provider({"dup": scripts}), 1)]
        assert rows[-2].evaluator_calls == off.evaluator_calls == 4

    def test_shared_pair_fork_reuses_the_trunks_replies_to_the_fix(self):
        # With the cache off the Evaluator scores the duplicate 0, and its
        # feedback brings the fix the cache-on solve made after the cache's
        # hint. From the fix on, both solves make the same requests.
        problem = Problem(id="dup", question="How many apples remain on the cart?",
                          gold_answer=CanonicalNumber("40"))
        first = "STEP: First he adds 12 + 30 = 42 apples."
        fix = "STEP: Then he removes 42 - 2 = 40 apples."

        class Keyed:
            def complete(self, role, prompt, params=None):
                steps = prompt.count("\nSTEP ")
                if role == "evaluator":
                    candidate = prompt.rpartition("Candidate step:")[2]
                    text = ("Score: 0\nFeedback: It repeats step 1." if steps and first in candidate
                            else "Score: 3\nFeedback: fine.")
                else:
                    text = (first, fix if "HINT:" in prompt else first, "FINAL_ANSWER: 40")[steps]
                return ScriptedBackend({role: [text]}).complete(role, prompt, params)

        config = SolverConfig(token_budget=BIG_BUDGET)
        on, off = from_scratch(problem, config, Keyed)
        assert (len(on.attempts), len(off.attempts)) == (7, 8)
        # Past the fork point (3 calls in) the cache-off solve makes 5 calls:
        # the Evaluator's look at the duplicate and the Decomposer's answer to
        # its feedback are new; the fix's evaluation and the last step's two
        # calls are the trunk's own requests, which the fork gets from its log.
        assert off.attempts[5:] == on.attempts[4:]
        shared = RecordingBackend(Keyed())
        budgets = (100, 250, BIG_BUDGET)
        rows = budget_sweep([problem], budgets, config, (shared, shared))
        assert shared.attempts == on.attempts + off.attempts[3:5]
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in _per_cell_rows(
            [problem], budgets, config, (Keyed(), Keyed()), 1)]
        assert rows[-2].evaluator_calls == 4

    def test_shared_pair_fork_makes_the_trunks_raised_call_again_live(self, henry_problem):
        config = SolverConfig(token_budget=BIG_BUDGET)
        # Henry's solve makes the same 6 calls with the cache on and off.
        on, off = from_scratch(henry_problem, config, lambda: ScriptedBackend(HENRY_SCRIPTS))
        assert on.attempts == off.attempts and len(on.attempts) == 6
        replies = dict(zip(on.attempts, (reply for _, reply in on.replies)))
        failing = on.attempts[3]  # the Evaluator's look at the good step

        class Flaky:
            """Answers by the request, but fails the first time it is asked ``failing``."""

            def __init__(self):
                self.failed = False

            def complete(self, role, prompt, params=None):
                if (Role(role), prompt) == failing and not self.failed:
                    self.failed = True
                    raise BackendError("connection reset")
                return replies[Role(role), prompt]

        shared = RecordingBackend(Flaky())
        off_row, on_row = budget_sweep([henry_problem], (BIG_BUDGET,), config, (shared, shared))
        # The trunk's failed call is not in its log, so the fork, having the
        # first 3 calls from the log, makes it again on the pair and goes on live.
        assert shared.attempts == on.attempts[:4] + on.attempts[3:]
        assert on_row.outcomes == {"backend_failure": 1}
        assert off_row.to_dict() == _per_cell_rows(
            [henry_problem], (BIG_BUDGET,), config,
            lambda problem: (ScriptedBackend(HENRY_SCRIPTS),) * 2, 1)[0].to_dict()
        assert off_row.correct == 1

    @pytest.mark.parametrize("shared", [True, False], ids=["shared-pair", "provider"])
    def test_fork_after_a_raised_decomposer_call_forks_at_the_end(self, shared):
        """A trunk whose Decomposer call raised right after a ``retried`` or an
        ``accepted`` event has its fork point at the end of its events, after an
        event that is not ``generated``. Past the trunk's calls its fork makes
        only the raised one, and every cache-off cell equals a real cache-off
        solve at its budget."""
        wrong, right = "STEP: He adds 12 + 30 = 41 apples.", "STEP: He adds 12 + 30 = 42 apples."
        verdicts = ["Score: 0\nFeedback: 12 + 30 is 42.", "Score: 3\nFeedback: fine."]
        # Each problem's script runs out at its next Decomposer call.
        scripts = {"accepted": {"decomposer": [wrong, right], "evaluator": verdicts},
                   "retried": {"decomposer": [wrong], "evaluator": verdicts[:1]}}
        problems = [Problem(id=name, question=f"How many apples are on the cart? ({name})",
                            gold_answer=CanonicalNumber("42")) for name in scripts]

        class Keyed:
            """Answers each request as its problem's script does, and raises
            where the script runs out, whatever came before."""

            def complete(self, role, prompt, params=None):
                replies = scripts[re.search(r"\((\w+)\)$", prompt, re.M)[1]][Role(role).value]
                if role == "evaluator":
                    index = int(right in prompt)
                else:
                    index = 2 if "\nSTEP 1: " in prompt else int("HINT:" in prompt)
                if index >= len(replies):
                    raise BackendError("script exhausted")
                return ScriptedBackend({role: [replies[index]]}).complete(role, prompt, params)

        config = SolverConfig(token_budget=BIG_BUDGET)
        ends = set()
        for problem in problems:
            model = RecordingBackend(Keyed())
            trunk = solve(problem, config, model, model)
            asked = list(model.attempts)  # the raised call last
            ends.add(trunk.events[-1].kind)
            assert trunk.cuts.fork == len(trunk.events)
            # Every spend before a check, and one more, up to the trunk's whole spend.
            budgets = sorted({budget for spend, _ in trunk.cuts.checks
                              for budget in (spend, spend + 1) if budget > 0} | {BIG_BUDGET})
            served = []

            def provider(problem):
                backend = RecordingBackend(ScriptedBackend(scripts[problem.id]))
                served.append(backend)
                return backend, backend

            model.attempts.clear()
            rows = budget_sweep([problem], budgets, config, (model, model) if shared else provider)
            reference = (Keyed(), Keyed()) if shared else scripted_provider(scripts)
            assert [row.to_dict() for row in rows] == [row.to_dict() for row in _per_cell_rows(
                [problem], budgets, config, reference, 1)], problem.id
            assert rows[-2].outcomes == {"backend_failure": 1}
            # One pair: the trunk's calls, then the fork's only live call, the
            # raised one. A provider's pairs: the fork's is sent the trunk's
            # calls again, the raised one last.
            sent = [model.attempts] if shared else [backend.attempts for backend in served]
            assert sent == ([asked + asked[-1:]] if shared else [asked, asked]), problem.id
        assert ends == {EventKind.RETRIED, EventKind.ACCEPTED}

    def test_trace_ending_in_an_unparsed_evaluator_reply_is_the_cache_off_solve(
            self, monkeypatch):
        problems, fixture = build_sweep_case(count=3)
        fixture["s001"]["evaluator"][1] = "Score: high\nFeedback: x"
        config = SolverConfig(token_budget=BIG_BUDGET)
        budgets = (150, BIG_BUDGET)
        served, solved = [], []
        provider = scripted_provider(fixture)
        monkeypatch.setattr(harness, "solve", lambda *args: solved.append(args) or solve(*args))
        rows = budget_sweep(problems, budgets, config,
                            lambda problem: served.append(problem) or provider(problem))
        # The reply left its event, so the trace has no failed call to retry:
        # no cache-off solve runs, not even a replay.
        assert served == problems
        assert len(solved) == len(problems)
        assert [row.outcomes.get("backend_failure") for row in rows[2:]] == [1, 1]
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in _per_cell_rows(
            problems, budgets, config, provider, 1)]

    @pytest.mark.parametrize("role", ["decomposer_params", "evaluator_params"])
    def test_sampled_decoding_solves_every_problem_per_cache_setting(self, role):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (100, 600, 300)
        greedy_served, served = [], []
        provider = scripted_provider(fixture)
        greedy = budget_sweep(problems, budgets, config,
                              lambda problem: greedy_served.append(problem) or provider(problem))
        # Every problem gets a cache-off solve at any temperature: the cache-on
        # trace where the cache never fired, a fork from it everywhere else.
        # The fork rule does not look at the temperature, so a sampled sweep
        # asks the provider for the same backends as a greedy one.
        sampled = config.with_overrides(**{role: DecodeParams(temperature=0.7)})
        rows = budget_sweep(problems, budgets, sampled,
                            lambda problem: served.append(problem) or provider(problem))
        forks = sum(live > 0 for *_, live in _fork_calls(
            problems, config.with_overrides(token_budget=max(budgets)), fixture))
        assert 0 < forks < len(problems)
        assert served == greedy_served
        assert len(served) == len(problems) + forks
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in greedy]

    def test_sampled_fork_has_the_cache_off_distribution(self):
        config = SolverConfig(
            token_budget=BIG_BUDGET, max_retries_per_step=1,
            decomposer_params=DecodeParams(temperature=0.7),
            evaluator_params=DecodeParams(temperature=0.7),
        )
        problem = _Sampled.PROBLEM
        flips = list(itertools.product((0, 1), repeat=2))  # a solve draws at most 2

        def solved(cache_enabled, draws):
            model = _Sampled(draws)
            return solve(problem, config.with_overrides(cache_enabled=cache_enabled),
                         model, model)

        # Every problem solved from scratch with the cache off: the target.
        scratch = Counter()
        for draws in flips:
            row = harness._summary([harness._score(_result_of(problem, solved(False, draws)))],
                                   method="dual_cot", budget=BIG_BUDGET, cache=False)
            scratch[json.dumps(row.to_dict())] += Fraction(1, len(flips))
        assert sorted(scratch.values()) == [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        # The sweep over every outcome: the cache-on solve draws first, and a
        # fork replays it up to its cache hit and draws afresh from there. A
        # provider's pair also gets, and draws for, the replayed calls, but
        # their replies are the trunk's.
        outcomes = list(itertools.product(flips, flips))
        for shared in (True, False):
            swept = Counter()
            for first, second in outcomes:
                pairs = iter([_Sampled(first), _Sampled(second)])
                backends = ((_Sampled(first + second),) * 2 if shared
                            else lambda problem: (next(pairs),) * 2)
                off, on = budget_sweep([problem], (BIG_BUDGET,), config, backends)
                swept[json.dumps(off.to_dict())] += Fraction(1, len(outcomes))
                # Paired: cache off and on share the first flip, which decides both.
                assert off.correct == on.correct
            assert swept == scratch, shared
            assert sum(json.loads(row)["correct"] * weight
                       for row, weight in swept.items()) == Fraction(1, 2)
        # The rule that took the cache-on solve where the cache never fired,
        # and sampled the cache-off solve afresh everywhere else.
        old_rule = Fraction(0)
        for first, second in outcomes:
            trace = solved(True, first)
            if trace.events_of(EventKind.CACHE_REJECTED):
                trace = solved(False, second)
            old_rule += Fraction(_result_of(problem, trace).correct, len(outcomes))
        assert old_rule == Fraction(3, 4)

    def test_sampled_fork_reuses_repeated_requests_and_keeps_the_distribution(self):
        sampled = DecodeParams(temperature=0.7)
        config = SolverConfig(token_budget=BIG_BUDGET, max_retries_per_step=3,
                              decomposer_params=sampled, evaluator_params=sampled)
        problem = _Repeats.PROBLEM

        def row(trace, cache):
            return json.dumps(harness._summary(
                [harness._score(_result_of(problem, trace))], method="dual_cot",
                budget=BIG_BUDGET, cache=cache).to_dict())

        def solved(cache, model):
            return solve(problem, config.with_overrides(cache_enabled=cache), model, model)

        # The target: the cache-off solve from scratch, a fresh draw per sampled call.
        scratch = Counter()
        for draws in itertools.product((0, 1), repeat=4):  # a solve draws at most 4
            scratch[row(solved(False, _Repeats(draws)), False)] += Fraction(1, 16)
        assert len(scratch) == 5  # the right answer at each of 4 attempts, or a forced wrong step
        # The pairing: both solves read one table of draws, one per (request, repeat).
        coupled = Counter()
        for bits in itertools.product((0, 1), repeat=len(_Tabled.KEYS)):
            table = dict(zip(_Tabled.KEYS, bits))
            coupled[row(solved(False, _Tabled(table)), False),
                    row(solved(True, _Tabled(table)), True)] += Fraction(1, 16)

        hinted = f"{render_problem_block(problem.question, ())}\nHINT: {_Repeats.FEEDBACK}"
        looks_at_wrong = next(prompt for role, prompt in from_scratch(
            problem, config, lambda: _Repeats((1, 0, 0, 0)))[0].attempts
            if role is Role.EVALUATOR and _Repeats.WRONG in prompt)
        # One shared pair: the cache-on solve draws first, then its fork draws
        # each call the trunk did not make as often.
        swept = Counter()
        for draws in itertools.product((0, 1), repeat=4):
            model = RecordingBackend(_Repeats(draws))
            off, on = budget_sweep([problem], (BIG_BUDGET,), config, (model, model))
            swept[json.dumps(off.to_dict()), json.dumps(on.to_dict())] += Fraction(1, 16)
            asked = Counter(prompt for _, prompt in model.attempts)
            if draws[:3] == (1, 0, 1):
                # The cache-on solve draws the wrong step twice and then the right
                # answer at its second ask of the feedback's request: 7 calls.
                # The fork takes its first 3 calls from the log, asks the
                # Evaluator about the wrong step a second time (live: the trunk
                # asked once), and gets the trunk's second draw for the
                # feedback's request and the trunk's verdict on the answer.
                assert (asked[hinted], asked[looks_at_wrong]) == (2, 2)
                assert len(model.attempts) == 7 + 1
                assert off.correct == on.correct == 1
        assert swept == coupled
        off_rows = Counter()
        for (off, _), weight in swept.items():
            off_rows[off] += weight
        assert off_rows == scratch
        # A provider's pair gets every call, and its fork looks up only the
        # calls before the fork point; its cache-off rows are exact too.
        swept = Counter()
        for first, second in itertools.product(itertools.product((0, 1), repeat=4), repeat=2):
            pairs = iter([_Repeats(first), _Repeats(second)])
            off, _ = budget_sweep([problem], (BIG_BUDGET,), config,
                                  lambda problem: (next(pairs),) * 2)
            swept[json.dumps(off.to_dict())] += Fraction(1, 256)
        assert swept == scratch

    def test_provider_wrapper_that_forwards_only_complete_keeps_the_rows(self):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        budgets = (300, 600)

        class Wrapper:
            """Forwards only ``complete``, as a logging wrapper might."""

            def __init__(self, inner):
                self.inner = inner

            def complete(self, role, prompt, params=None):
                return self.inner.complete(role, prompt, params)

        def provider(problem):
            backend = Wrapper(ScriptedBackend(fixture[problem.id]))
            return backend, backend

        rows = budget_sweep(problems, budgets, config, provider)
        # A fork sends its wrapped script every call, so the script stays in step.
        plain = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in plain]
        assert [row.to_dict() for row in rows] == [row.to_dict() for row in _per_cell_rows(
            problems, budgets, config, scripted_provider(fixture), 1)]

    def test_cache_on_call_failure_is_solved_again_with_cache_off(self):
        problems, fixture = build_sweep_case(count=3)
        config = SolverConfig(token_budget=BIG_BUDGET)
        budgets = (150, BIG_BUDGET)
        healthy = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        served = []

        class Flaky(ScriptedBackend):
            def complete(self, role, prompt, params=None):
                if self.calls(Role.EVALUATOR) == 1 and role == "evaluator":
                    raise BackendError("connection reset")
                return super().complete(role, prompt, params)

        def provider(problem):
            # The cache-on solve of the second problem meets a transport error
            # at its second Evaluator call; no cache-on solve hits the cache,
            # so only that one is forked, next, after the 3 calls it got
            # replies to.
            scripts = fixture[problem.id]
            backend = Flaky(scripts) if len(served) == 1 else RecordingBackend(
                ScriptedBackend(scripts))
            served.append((problem.id, backend))
            return backend, backend

        rows = budget_sweep(problems, budgets, config, provider)
        assert [problem_id for problem_id, _ in served] == [
            problems[0].id, problems[1].id, problems[1].id, problems[2].id]
        # The fork's pair comes from a provider, so it gets every call of the
        # cache-off solve, the 3 replayed ones and the failed one included.
        fork = served[2][1]
        assert [role for role, _ in fork.attempts] == [Role.DECOMPOSER, Role.EVALUATOR] * 4
        assert (fork.inner.calls(Role.DECOMPOSER), fork.inner.calls(Role.EVALUATOR)) == (4, 4)
        assert [rows[cell].to_dict() for cell in (0, 2)] == [healthy[cell].to_dict()
                                                            for cell in (0, 2)]
        assert rows[3].outcomes["backend_failure"] == 1


class TestSweepResultsPerProblem:
    """Every (problem, cache, budget) score of a sweep, and the row summed from
    it, against the result of a real solve at that budget. Rows over many
    problems can hide an off-by-one in the cut that cancels out."""

    @pytest.mark.parametrize("retries", [1, 3])
    @pytest.mark.parametrize("seed", [606, 707, 808])
    def test_each_result_equals_a_real_solve_at_its_budget(self, monkeypatch, seed, retries):
        problems, fixture = build_random_case(random.Random(seed), 12)
        provider = scripted_provider(fixture)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40,
                              max_retries_per_step=retries)
        scored = {}  # cache setting -> the scores its solve gave, one per budget

        def recording_solve(problem, config, *args):
            """``solve``, with cuts that record the scores they give under its cache setting."""

            class Recording(BudgetCuts):
                def scores(self, budgets, whole):
                    scored[config.cache_enabled] = scores = super().scores(budgets, whole)
                    return scores

            trace = solve(problem, config, *args)
            return trace._replace(cuts=Recording(*trace.cuts))

        monkeypatch.setattr(harness, "solve", recording_solve)
        rng = random.Random(seed)
        reached = Counter()
        for problem in problems:
            solves = {}

            def run(budget, cache):
                if (budget, cache) not in solves:
                    solves[budget, cache] = solve(
                        problem,
                        config.with_overrides(token_budget=budget, cache_enabled=cache),
                        *provider(problem),
                    )
                return solves[budget, cache]

            # 1, 2, the exact spend of each unbudgeted solve, and the spend
            # before each of its agent calls with one either side.
            edges = {1, 2}
            for cache in (False, True):
                spent = 0
                for event in run(BIG_BUDGET, cache).events:
                    if event.kind is EventKind.GENERATED or (
                            event.kind is EventKind.EVALUATED
                            and event.payload["synthetic"] is None):
                        edges.update((spent - 1, spent, spent + 1))
                    spent += event.tokens_charged
                edges.add(spent)
            for top in (600, BIG_BUDGET):
                budgets = sorted(budget for budget in edges if 0 < budget < top) + [top]
                budgets += rng.sample(budgets, len(budgets) // 3)
                rng.shuffle(budgets)
                scored.clear()
                rows = budget_sweep([problem], budgets, config, provider)
                # Without a fork point the cache-on solve is the cache-off one.
                scored.setdefault(False, scored[True])
                assert [(row.budget, row.cache) for row in rows] == [
                    (budget, cache) for budget in budgets for cache in (False, True)
                ]
                for index, row in enumerate(rows):
                    budget, cache = row.budget, row.cache
                    real, whole = run(budget, cache), run(top, cache)
                    result = _result_of(problem, real)
                    assert scored[cache][index // 2] == (
                        result.outcome, result.correct, result.tokens_spent,
                        result.evaluator_calls), (problem.id, cache, budget)
                    assert row == harness._summary(
                        [harness._score(result)], method="dual_cot", budget=budget,
                        cache=cache), (problem.id, cache, budget)
                    last = whole.events[-1] if whole.events else None
                    stopped = real.outcome is Outcome.BUDGET_EXHAUSTED
                    if stopped and real.events[-1].payload["spent"] == budget:
                        reached["stop at a spend before a call"] += 1
                    if (budget < top and stopped and whole.outcome is Outcome.BUDGET_EXHAUSTED
                            and len(real.events) == len(whole.events)):
                        reached["terminal budget_stop"] += 1
                    if (stopped and whole.outcome is Outcome.BACKEND_FAILURE
                            and len(real.events) == len(whole.events) + 1):
                        reached["failed call with no event"] += 1
                    if (real.outcome is Outcome.BACKEND_FAILURE and budget <= whole.tokens_spent
                            and last.kind is EventKind.EVALUATED and last.payload["score"] is None):
                        reached["unparseable Evaluator reply"] += 1
        assert len(reached) == 4, reached

    @pytest.mark.parametrize("workers", [1, 2])
    def test_trunk_trace_is_freed_before_the_fork_asks_for_its_pair(self, monkeypatch, workers):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=600, max_steps=40)
        healthy = budget_sweep(problems, (150, 600), config, scripted_provider(fixture))
        trunks = {}  # problem id -> weak reference to the events of its trunk trace
        forks, alive = [], []

        class Events(list):
            """A list that can be weakly referenced, unlike a list or a tuple."""

        def recording_solve(problem, config, *backends):
            trace = solve(problem, config, *backends)
            trace = trace._replace(events=Events(trace.events))
            if config.cache_enabled:
                trunks[problem.id] = weakref.ref(trace.events)
            return trace

        def provider(problem):
            if problem.id in trunks:  # the trunk is solved: this pair is its fork's
                forks.append(problem.id)
                if trunks[problem.id]() is not None:
                    alive.append(problem.id)
            return scripted_provider(fixture)(problem)

        monkeypatch.setattr(harness, "solve", recording_solve)
        assert budget_sweep(problems, (150, 600), config, provider, workers=workers) == healthy
        assert len(trunks) == len(problems) and forks and alive == []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_each_problems_traces_are_freed_before_the_next_problem(
            self, monkeypatch, tmp_path, command, workers):
        problems, fixture = build_random_case(random.Random(606), 40)
        config = SolverConfig(token_budget=600, max_steps=40)

        def run(provider, out_dir):
            """The run's outputs: a sweep's rows, or a benchmark's results and summary."""
            if command == "sweep":
                rows = budget_sweep(problems, (150, 600), config, provider, out_dir=out_dir,
                                    workers=workers)
                return [row.to_dict() for row in rows]
            report = run_benchmark(problems, config, provider, out_dir=out_dir, workers=workers)
            return ([{**result.to_dict(), "trace_path": None} for result in report.results],
                    report.summary.to_dict())

        healthy = run(scripted_provider(fixture), tmp_path / "healthy")
        traces = []  # (thread, problem id, weak reference to the events of a trace solve returned)
        alive = []  # (asking problem, earlier problem) whose trace was still held

        class Events(list):
            """A list that can be weakly referenced, unlike a list or a tuple."""

        def recording_solve(problem, *args):
            trace = solve(problem, *args)
            trace = trace._replace(events=Events(trace.events))
            traces.append((threading.get_ident(), problem.id, weakref.ref(trace.events)))
            return trace

        # A problem's task runs on one thread, so the problems a thread took
        # before this one are done, and none of their traces may be alive.
        def provider(problem):
            alive.extend((problem.id, problem_id) for thread, problem_id, ref in list(traces)
                         if thread == threading.get_ident() and problem_id != problem.id
                         and ref() is not None)
            return scripted_provider(fixture)(problem)

        monkeypatch.setattr(harness, "solve", recording_solve)
        assert run(provider, tmp_path / "freed") == healthy
        # A sweep's cache-off traces were watched too: some problems forked.
        assert len(traces) > len(problems) if command == "sweep" else len(traces) == len(problems)
        assert alive == []
        (healthy_dir,), (freed_dir,) = ((tmp_path / name).iterdir()
                                        for name in ("healthy", "freed"))
        names = sorted(path.relative_to(healthy_dir) for path in healthy_dir.rglob("*.*")
                       if path.name not in ("run_meta.json", "results.jsonl"))
        assert names == sorted(path.relative_to(freed_dir) for path in freed_dir.rglob("*.*")
                               if path.name not in ("run_meta.json", "results.jsonl"))
        for name in names:
            assert (freed_dir / name).read_bytes() == (healthy_dir / name).read_bytes(), name


class TestRunDirectories:
    @pytest.fixture(autouse=True)
    def frozen_clock(self, monkeypatch):
        monkeypatch.setattr(time, "strftime", lambda fmt, *args: "20260101-000000")

    def test_same_second_benchmarks_get_own_directories(self, tmp_path):
        problems, fixture = build_bench_case(n=5, n_correct=3)
        config = SolverConfig(token_budget=BIG_BUDGET)
        provider = scripted_provider(fixture)
        first = run_benchmark(problems[:3], config, provider, out_dir=tmp_path)
        second = run_benchmark(problems, config, provider, out_dir=tmp_path)
        assert second.run_dir.name == first.run_dir.name + "-2"
        assert sorted(tmp_path.iterdir()) == [first.run_dir, second.run_dir]
        for report, count in ((first, 3), (second, 5)):
            ids = [problem.id for problem in problems[:count]]
            lines = (report.run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
            assert [json.loads(line)["problem_id"] for line in lines] == ids
            assert sorted(path.stem for path in (report.run_dir / "traces").iterdir()) == ids

    def test_same_second_sweeps_get_own_directories(self, tmp_path):
        problems, fixture = build_sweep_case(count=3)
        config = SolverConfig(token_budget=BIG_BUDGET)
        first = budget_sweep(
            problems[:1], (150,), config, scripted_provider(fixture), out_dir=tmp_path
        )
        second = budget_sweep(
            problems, (150, 300), config, scripted_provider(fixture), out_dir=tmp_path
        )
        sweep_dirs = sorted(tmp_path.glob("*-sweep-*"))
        assert len(sweep_dirs) == 2
        for run_dir, rows in zip(sweep_dirs, (first, second)):
            assert (run_dir / "sweep.csv").read_text(encoding="utf-8") == rows_to_csv(rows)

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_run_directory_is_made_before_any_solve(self, tmp_path, command):
        problems, fixture = build_sweep_case(count=2)
        out_dir = tmp_path / "a-file"
        out_dir.write_text("", encoding="utf-8")
        asked = []

        def provider(problem):
            asked.append(problem.id)
            return scripted_provider(fixture)(problem)

        config = SolverConfig(token_budget=BIG_BUDGET)
        with pytest.raises(NotADirectoryError):
            if command == "sweep":
                budget_sweep(problems, (150,), config, provider, out_dir=out_dir)
            else:
                run_benchmark(problems, config, provider, out_dir=out_dir)
        assert asked == []


class TestCsvRendering:
    def test_columns_and_formatting(self):
        problems, fixture = build_bench_case(n=4, n_correct=2)
        report = run_benchmark(
            problems, SolverConfig(token_budget=BIG_BUDGET), scripted_provider(fixture)
        )
        text = rows_to_csv([report.summary])
        header, row = text.strip().splitlines()
        assert header == "method,budget,cache,correct,n,accuracy,ci_low,ci_high,mean_tokens,evaluator_calls"
        fields = row.split(",")
        assert fields[0] == "dual_cot"
        assert fields[2] == "on"
        assert fields[5] == "0.500"


class TestLoadProblems:
    def test_reads_both_gold_forms(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text(
            json.dumps(
                {"id": "a", "question": "Q1?", "answer": "one step\n#### 72"}
            )
            + "\n"
            + json.dumps({"id": "b", "question": "Q2?", "gold_answer": "3.50"})
            + "\n"
            + json.dumps({"id": "c", "question": "Q3?"})
            + "\n",
            encoding="utf-8",
        )
        problems = load_problems(path)
        assert problems[0].gold_answer == CanonicalNumber("72")
        assert problems[1].gold_answer == CanonicalNumber("3.5")
        assert problems[2].gold_answer is None

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text(
            json.dumps({"id": "a", "question": "Q?", "gold_answer": "1"})
            + "\n"
            + json.dumps({"id": "a", "question": "Q again?", "gold_answer": "2"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="duplicate"):
            load_problems(path)

    def test_null_id_is_a_missing_id(self, tmp_path):
        path = tmp_path / "problems.jsonl"
        path.write_text(
            json.dumps({"id": "a", "question": "Q?", "gold_answer": "1"})
            + "\n"
            + json.dumps({"id": None, "question": "Q again?", "gold_answer": "2"})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=":2: record needs 'id' and 'question' fields$"):
            load_problems(path)
