from __future__ import annotations

import json
import time

import pytest

from dualtrack.agents import ScriptedBackend
from dualtrack.dataset import DataError
from dualtrack.harness import (
    CSV_COLUMNS,
    InvalidCounts,
    SWEEP_BUDGETS,
    budget_sweep,
    load_problems,
    load_results,
    rows_to_csv,
    run_benchmark,
    summarize,
    wilson_interval,
)
from dualtrack.protocol import CanonicalNumber, Problem
from dualtrack.solver import Outcome, SolverConfig

from conftest import (
    HENRY_QUESTION,
    RecordingBackend,
    build_bench_case,
    build_sweep_case,
    scripted_provider,
)

BIG_BUDGET = 1_000_000


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

        persisted = load_results(run_dir / "results.jsonl")
        recomputed = summarize(
            persisted, method="scripted", budget=config.token_budget, cache=True
        )
        assert recomputed.to_dict() == report.summary.to_dict()
        assert json.loads((run_dir / "summary.json").read_text()) == report.summary.to_dict()

    def test_accuracy_equals_mean_of_correct_flags(self):
        problems, fixture = build_bench_case(n=10, n_correct=4)
        report = run_benchmark(
            problems, SolverConfig(token_budget=BIG_BUDGET), scripted_provider(fixture)
        )
        flags = [result.correct for result in report.results]
        assert report.summary.accuracy == sum(flags) / len(flags)

    def test_empty_problem_list_rejected(self):
        with pytest.raises(InvalidCounts):
            run_benchmark([], SolverConfig(token_budget=10), ((), ()))
        with pytest.raises(InvalidCounts):
            summarize([], method="dual_cot", budget=10, cache=True)

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

    def test_worker_parallelism_preserves_results(self):
        problems, fixture = build_bench_case(n=12, n_correct=7)
        config = SolverConfig(token_budget=BIG_BUDGET)
        serial = run_benchmark(problems, config, scripted_provider(fixture), workers=1)
        parallel = run_benchmark(problems, config, scripted_provider(fixture), workers=4)
        assert [r.to_dict() for r in serial.results] == [r.to_dict() for r in parallel.results]
        assert serial.summary.to_dict() == parallel.summary.to_dict()

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
            ([], InvalidCounts),
            (["p000", None], DataError),
            (["../x"], DataError),
            (["p000", "p000"], DataError),
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

    def test_failed_cell_is_logged_and_other_cells_reported(self, tmp_path):
        problems, fixture = build_sweep_case(count=3)
        config = SolverConfig(token_budget=BIG_BUDGET)
        budgets = (150, 300)
        healthy = budget_sweep(problems, budgets, config, scripted_provider(fixture))
        served = []

        def provider(problem):
            # Cells run budget by budget, cache off first, one problem at a time:
            # the first problem of the third cell, (300, off), fails that cell.
            served.append(problem.id)
            if len(served) == 2 * len(problems) + 1:
                raise RuntimeError(f"endpoint down for {problem.id}")
            return scripted_provider(fixture)(problem)

        rows = budget_sweep(
            problems, budgets, config, provider, out_dir=tmp_path, continue_on_error=True
        )
        assert [row.to_dict() for row in rows] == [
            healthy[cell].to_dict() for cell in (0, 1, 3)
        ]
        (run_dir,) = tmp_path.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            "budget=300 cache=False: endpoint down for s000\n"
        )
        assert (run_dir / "sweep.csv").read_text(encoding="utf-8") == rows_to_csv(rows)

        served.clear()
        with pytest.raises(RuntimeError, match="endpoint down for s000"):
            budget_sweep(problems, budgets, config, provider)

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
            persisted = load_results(report.run_dir / "results.jsonl")
            assert [result.problem_id for result in persisted] == ids
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
