"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest

from dualtrack.agents import HTTPBackend, Role, ScriptedBackend
from dualtrack.cache import fingerprint
from dualtrack.dataset import RawExample, make_instances
from dualtrack.harness import run_benchmark, wilson_interval
from dualtrack.protocol import CanonicalNumber, Problem
from dualtrack.solver import (
    Decision,
    EventKind,
    Outcome,
    SolverConfig,
    solve,
    step_decision,
)

from conftest import (
    BIG_BUDGET,
    HENRY_FEEDBACK,
    HENRY_GOOD_STEP,
    HENRY_QUESTION,
    HENRY_SCRIPTS,
    NATALIA_ANSWER,
    NATALIA_QUESTION,
    WENG_ANSWER,
    WENG_QUESTION,
    RecordingBackend,
    assert_budget_discipline,
    assert_budget_prefix,
    assert_calls_match_events,
    build_bench_case,
    build_sweep_case,
    check_cache_soundness,
    random_scripts,
    scripted_provider,
    with_malformed,
)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({title}): PASS")


def test_criterion_1_wilson_reproduction():
    with criterion(1, "wilson reproduction"):
        rows = [
            (39, 50, 0.648, 0.872),
            (12, 50, 0.143, 0.374),
            (34, 50, 0.542, 0.792),
            (36, 50, 0.583, 0.825),
        ]
        for correct, n, low, high in rows:
            interval = wilson_interval(correct, n)
            assert interval.low == pytest.approx(low, abs=1e-3), (correct, n)
            assert interval.high == pytest.approx(high, abs=1e-3), (correct, n)


def test_criterion_2_golden_retry_trajectory():
    with criterion(2, "golden trajectory"):
        backend = ScriptedBackend(HENRY_SCRIPTS)
        problem = Problem(
            id="henry", question=HENRY_QUESTION, gold_answer=CanonicalNumber("25")
        )
        trace = solve(problem, SolverConfig(token_budget=BIG_BUDGET), backend, backend)

        retried = trace.events_of(EventKind.RETRIED)
        assert len(retried) == 1, "exactly one retry expected"
        assert retried[0].payload["hint"] == HENRY_FEEDBACK

        assert trace.accepted_steps[0].text == HENRY_GOOD_STEP
        assert not trace.accepted_steps[0].forced
        assert trace.outcome is Outcome.SOLVED
        assert trace.final_answer == CanonicalNumber("25")


# Insertable filler for fingerprint perturbations; a bare "x" between digits
# would read as multiplication, so it stays out of the pool.
_WORDS = [
    "he", "she", "then", "sold", "counted", "apples", "before", "lunch",
    "total", "each", "box", "with", "spare", "finally", "notes", "again",
]


def _embed(core: str, rng: random.Random) -> str:
    before = " ".join(rng.choices(_WORDS, k=rng.randint(0, 6)))
    after = " ".join(rng.choices(_WORDS, k=rng.randint(0, 6)))
    pad_left = " " * rng.randint(1, 4)
    pad_right = " " * rng.randint(1, 4)
    return f"{before}{pad_left}{core}{pad_right}{after}".strip()


def test_criterion_3_cache_soundness_suite():
    with criterion(3, "cache soundness suite"):
        # (a) cache enabled: no evaluator call for any cached fingerprint,
        # verified by replaying every trace against a model cache.
        rng = random.Random(101)
        config = SolverConfig(token_budget=BIG_BUDGET, max_steps=40)
        for _ in range(60):
            scripts = random_scripts(rng)
            backend = ScriptedBackend(scripts)
            trace = solve(Problem(id="r", question="Count it all up?"), config,
                          backend, backend)
            check_cache_soundness(trace, cache_enabled=True,
                                  bad_threshold=config.cache_bad_threshold)

        # (b) cache disabled: exactly one evaluator call per parsed candidate.
        rng = random.Random(202)
        no_cache = config.with_overrides(cache_enabled=False)
        for _ in range(60):
            scripts = random_scripts(rng)
            backend = ScriptedBackend(scripts)
            trace = solve(Problem(id="r", question="Count it all up?"), no_cache,
                          backend, backend)
            assert trace.events_of(EventKind.CACHE_REJECTED) == []
            generated = len(trace.events_of(EventKind.GENERATED))
            synthetic = sum(
                1
                for event in trace.events_of(EventKind.EVALUATED)
                if event.payload["synthetic"] is not None
            )
            assert trace.evaluator_calls == generated - synthetic
            assert backend.calls(Role.EVALUATOR) == trace.evaluator_calls

        # (c) phrasing invariance and digit sensitivity, >= 1000 random cases.
        rng = random.Random(303)
        cases = 0
        for _ in range(1100):
            a, b = rng.randint(0, 999), rng.randint(1, 999)
            op = rng.choice("+-*/")
            core = f"{a} {op} {b} = {rng.randint(0, 99999)}"
            first, second = _embed(core, rng), _embed(core, rng)
            assert fingerprint(first) == fingerprint(second), (first, second)

            digits = [i for i, ch in enumerate(first) if ch.isdigit()]
            position = rng.choice(digits)
            replacement = rng.choice([d for d in "0123456789" if d != first[position]])
            mutated = first[:position] + replacement + first[position + 1:]
            assert fingerprint(mutated) != fingerprint(first), (first, mutated)
            cases += 1
        assert cases >= 1000


def test_criterion_4_budget_suite():
    with criterion(4, "budget suite"):
        problems, fixture = build_sweep_case(count=24)
        assert len(problems) >= 20
        config = SolverConfig(token_budget=BIG_BUDGET)

        # (a) zero budget: no agent calls at all.
        for problem in problems:
            backend = ScriptedBackend(fixture[problem.id])
            trace = solve(problem, config.with_overrides(token_budget=0),
                          backend, backend)
            assert trace.outcome is Outcome.BUDGET_EXHAUSTED
            assert backend.calls(Role.DECOMPOSER) == 0
            assert backend.calls(Role.EVALUATOR) == 0
            assert [event.kind for event in trace.events] == [EventKind.BUDGET_STOP]

        # (b) event sequences under smaller budgets prefix larger ones.
        budgets = (100, 200, 300, 400, 500, 600)
        for problem in problems:
            traces = {}
            for budget in budgets:
                backend = ScriptedBackend(fixture[problem.id])
                traces[budget] = solve(
                    problem, config.with_overrides(token_budget=budget),
                    backend, backend,
                )
            for smaller, larger in zip(budgets, budgets[1:]):
                assert_budget_prefix(traces[smaller], traces[larger])

            # (c) never exceed the budget before a call; overshoot < one call.
            for budget in budgets:
                assert_budget_discipline(traces[budget], budget)

        # (d) random scripts with malformed replies from both roles: (b) and
        # (c) still hold, and every reply served leaves exactly one event
        # charging its tokens, so a trace's spend is what the agents charged.
        rng = random.Random(404)
        budgets = (0,) + budgets + (BIG_BUDGET,)
        unparsed_evaluations = 0
        for _ in range(60):
            scripts = with_malformed(random_scripts(rng), rng)
            for cache in (False, True):
                for retries in (1, 3):
                    base = SolverConfig(token_budget=BIG_BUDGET, max_steps=40,
                                        max_retries_per_step=retries, cache_enabled=cache)
                    traces = {}
                    for budget in budgets:
                        backend = RecordingBackend(ScriptedBackend(scripts))
                        trace = traces[budget] = solve(
                            Problem(id="r", question="Count it all up?"),
                            base.with_overrides(token_budget=budget), backend, backend,
                        )
                        assert_calls_match_events(trace, backend.replies)
                        assert_budget_discipline(trace, budget)
                        check_cache_soundness(trace, cache_enabled=cache)
                    for smaller, larger in zip(budgets, budgets[1:]):
                        assert_budget_prefix(traces[smaller], traces[larger])
                    unparsed_evaluations += "protocol violation" in (
                        traces[BIG_BUDGET].error or ""
                    )
        assert unparsed_evaluations > 0


def test_criterion_5_dataset_golden_files():
    with criterion(5, "dataset golden files"):
        natalia = RawExample(question=NATALIA_QUESTION, answer=NATALIA_ANSWER)
        weng = RawExample(question=WENG_QUESTION, answer=WENG_ANSWER)

        natalia_instances = make_instances(natalia)
        weng_instances = make_instances(weng)
        assert len(natalia_instances) == 3
        assert len(weng_instances) == 3

        assert natalia_instances[0].problem_block == (
            "Problem: Natalia sold clips to 48 of her friends in April, and then"
            " she sold half as many clips in May. How many clips did Natalia sell"
            " altogether in April and May?\n"
            "Steps completed so far:"
        )
        assert natalia_instances[0].target == (
            "STEP: Natalia sold <<48/2 = 24>> clips in May."
        )
        assert natalia_instances[1].target == (
            "STEP: Natalia sold <<48 + 24 = 72>> clips altogether."
        )
        assert natalia_instances[2].target == "FINAL_ANSWER: 72"

        assert weng_instances[1].problem_block == (
            "Problem: Weng earns $12 an hour for babysitting. Yesterday, she just"
            " did 50 minutes of babysitting. How much did she earn?\n"
            "Steps completed so far:\n"
            "STEP 1: Weng earns 12/60 = $<<12/60=0.2>>0.2 per minute."
        )
        assert weng_instances[1].target == (
            "STEP: Working 50 minutes, she earned 0.2 x 50 = $<<0.2*50=10>>10."
        )
        assert weng_instances[2].target == "FINAL_ANSWER: 10"


def test_criterion_6_step_decision_table():
    with criterion(6, "step-decision table"):
        config = SolverConfig(token_budget=10)
        for score in (0, 1, 2, 3):
            for retries in range(config.max_retries_per_step + 1):
                decision = step_decision(score, retries, config)
                if score > 1:
                    assert decision is Decision.ACCEPT, (score, retries)
                elif retries < config.max_retries_per_step:
                    assert decision is Decision.RETRY, (score, retries)
                else:
                    assert decision is Decision.FORCED_ACCEPT, (score, retries)


def test_criterion_7_end_to_end_scripted_benchmark(tmp_path):
    with criterion(7, "end-to-end scripted benchmark"):
        problems, fixture = build_bench_case(n=50, n_correct=36)
        report = run_benchmark(
            problems,
            SolverConfig(token_budget=BIG_BUDGET),
            scripted_provider(fixture),
            out_dir=tmp_path,
        )
        summary = report.summary
        assert summary.correct == 36 and summary.n == 50
        assert summary.accuracy == pytest.approx(0.72, abs=1e-9)
        assert summary.ci_low == pytest.approx(0.583, abs=1e-3)
        assert summary.ci_high == pytest.approx(0.825, abs=1e-3)
        assert summary.accuracy_line() == "72.0% [58.3%, 82.5%]"
        assert len(list((report.run_dir / "traces").glob("*.json"))) == 50


def test_criterion_8_live_model_results_reported_not_asserted():
    with criterion(8, "live-model results reported, not asserted"):
        # Live-model accuracies need fine-tuned endpoints and are not
        # desk-reproducible; the property suites above stand in for them, plus
        # this optional live mode whose output is reported only.
        from dualtrack.agents import API_BASE_ENV, API_KEY_ENV, CHAT_COMPLETIONS_PATH

        assert CHAT_COMPLETIONS_PATH == "/v1/chat/completions"
        assert API_BASE_ENV == "DUALTRACK_API_BASE"
        assert API_KEY_ENV == "DUALTRACK_API_KEY"
        backend = HTTPBackend(
            base_url="http://example.invalid",
            models={Role.DECOMPOSER: "d", Role.EVALUATOR: "e"},
        )
        assert callable(backend.complete)

        base = os.environ.get(API_BASE_ENV)
        if not base:
            print("\n  live endpoint not configured; skipping live report")
            return
        models = {
            Role.DECOMPOSER: os.environ.get("DUALTRACK_DECOMPOSER_MODEL", "decomposer"),
            Role.EVALUATOR: os.environ.get("DUALTRACK_EVALUATOR_MODEL", "evaluator"),
        }
        live = HTTPBackend(base_url=base, api_key=os.environ.get(API_KEY_ENV), models=models)
        problem = Problem(
            id="live",
            question="A basket holds 3 red and 4 green apples. How many apples in all?",
        )
        trace = solve(problem, SolverConfig(token_budget=600), live, live)
        print(
            f"\n  live solve outcome={trace.outcome.value}"
            f" answer={trace.final_answer} tokens={trace.tokens_spent}"
            " (reported, not asserted)"
        )
