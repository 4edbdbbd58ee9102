from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections import Counter

import pytest

from dualtrack.agents import AgentReply, DecodeParams, Role, ScriptedBackend
from dualtrack.cache import DUPLICATE_FEEDBACK, KNOWN_BAD_FEEDBACK
from dualtrack.protocol import (
    SCORE_RUBRIC,
    CanonicalNumber,
    Problem,
    StepKind,
    parse_agent_step,
)
from dualtrack.solver import (
    BudgetCuts,
    Decision,
    EventKind,
    MALFORMED_STEP_FEEDBACK,
    Outcome,
    ReplayBackend,
    SolverConfig,
    SolveTrace,
    TraceEvent,
    UNPARSEABLE_FINAL_FEEDBACK,
    solve,
    step_decision,
)

from conftest import (
    BIG_BUDGET,
    HENRY_FEEDBACK,
    HENRY_GOOD_STEP,
    HENRY_SCRIPTS,
    RecordingBackend,
    assert_budget_discipline,
    assert_budget_prefix,
    assert_calls_match_events,
    build_random_case,
    check_cache_soundness,
)


def config(**overrides) -> SolverConfig:
    return SolverConfig(token_budget=BIG_BUDGET).with_overrides(**overrides)


def kinds(trace) -> list[str]:
    return [event.kind.value for event in trace.events]


class TestStepDecision:
    def test_above_threshold_accepts(self):
        assert step_decision(2, 0, config()) is Decision.ACCEPT

    def test_low_score_with_retries_left(self):
        assert step_decision(0, 1, config()) is Decision.RETRY

    def test_retries_spent_forces_accept(self):
        assert step_decision(1, 3, config()) is Decision.FORCED_ACCEPT

    def test_exhaustive_table_matches_rules(self):
        cfg = config()
        for score in range(4):
            for retries in range(cfg.max_retries_per_step + 1):
                expected = (
                    Decision.ACCEPT
                    if score > 1
                    else Decision.RETRY
                    if retries < cfg.max_retries_per_step
                    else Decision.FORCED_ACCEPT
                )
                assert step_decision(score, retries, cfg) is expected

    def test_respects_custom_threshold(self):
        strict = config(accept_threshold=2, cache_bad_threshold=1)
        assert step_decision(2, 0, strict) is Decision.RETRY
        assert step_decision(3, 0, strict) is Decision.ACCEPT


class TestSolverConfig:
    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            SolverConfig(token_budget=-1)

    def test_rejects_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            SolverConfig(token_budget=10, accept_threshold=4)

    def test_rejects_bad_threshold_above_accept(self):
        with pytest.raises(ValueError):
            SolverConfig(token_budget=10, accept_threshold=1, cache_bad_threshold=2)

    def test_snapshot_contains_decode_params(self):
        snapshot = config(decomposer_params=DecodeParams(0.2, 64)).to_dict()
        assert snapshot["decomposer_params"] == {"temperature": 0.2, "max_new_tokens": 64}

    @staticmethod
    def rendered(solver_config: SolverConfig) -> dict:
        """The snapshot rendered from the fields on every call, as before it was kept."""
        return {**solver_config._asdict(),
                "decomposer_params": solver_config.decomposer_params._asdict(),
                "evaluator_params": solver_config.evaluator_params._asdict()}

    def test_traces_of_one_run_share_no_config_dict(self, henry_problem):
        solver_config = config(evaluator_params=DecodeParams(0.5, 32))
        traces = [solve(henry_problem, solver_config, *[ScriptedBackend(HENRY_SCRIPTS)] * 2)
                  for _ in range(2)]
        for trace in traces:
            assert trace.config == solver_config.to_dict() == self.rendered(solver_config)
        first, second = (trace.config for trace in traces)
        assert first is not second
        assert first["decomposer_params"] is not second["decomposer_params"]
        first["token_budget"] = -1
        first["decomposer_params"]["temperature"] = 9.0
        first["evaluator_params"].clear()
        assert second == self.rendered(solver_config)
        later = solve(henry_problem, solver_config, *[ScriptedBackend(HENRY_SCRIPTS)] * 2)
        assert later.config == self.rendered(solver_config)
        assert later.to_json() == traces[1].to_json()

    def test_equal_configs_keep_their_own_snapshot(self):
        # 0 == 0.0 and True == 1, so these configs are equal, but their JSON is not.
        as_int = SolverConfig(token_budget=5, cache_enabled=1,
                              decomposer_params=DecodeParams(temperature=0))
        as_float = SolverConfig(token_budget=5)
        assert as_int == as_float and hash(as_int) == hash(as_float)
        for solver_config in (as_float, as_int, as_float, as_int):
            assert json.dumps(solver_config.to_dict()) == json.dumps(self.rendered(solver_config))
        assert json.dumps(as_int.to_dict()) != json.dumps(as_float.to_dict())

    @pytest.mark.parametrize("name", ["token_budget", "_rendered", "extra"])
    def test_config_stays_read_only(self, name):
        solver_config = config()
        solver_config.to_dict()
        with pytest.raises(AttributeError):
            setattr(solver_config, name, {})
        assert solver_config.to_dict() == self.rendered(solver_config)


class TestGoldenRetryTrajectory:
    def test_retry_then_corrected_step(self, henry_problem, henry_backend):
        trace = solve(henry_problem, config(), henry_backend, henry_backend)

        assert trace.outcome is Outcome.SOLVED
        assert trace.final_answer == CanonicalNumber("25")

        retried = trace.events_of(EventKind.RETRIED)
        assert len(retried) == 1
        assert retried[0].payload["hint"] == HENRY_FEEDBACK

        evaluated_scores = [
            event.payload["score"] for event in trace.events_of(EventKind.EVALUATED)
        ]
        assert evaluated_scores == [0, 3, 3]

        assert trace.accepted_steps[0].text == HENRY_GOOD_STEP
        assert kinds(trace) == [
            "generated", "evaluated", "retried",
            "generated", "evaluated", "accepted",
            "generated", "evaluated", "accepted", "finished",
        ]

    def test_hint_reaches_decomposer_prompt(self, henry_problem):
        backend = RecordingBackend(ScriptedBackend(HENRY_SCRIPTS))
        solve(henry_problem, config(), backend, backend)
        prompts = backend.prompts[Role.DECOMPOSER]
        assert f"HINT: {HENRY_FEEDBACK}" in prompts[1]
        assert "HINT:" not in prompts[0]
        # hints do not persist once the slot is accepted
        assert "HINT:" not in prompts[2]


def _expected_prompts(question: str, trace) -> list[tuple[Role, str]]:
    """Every prompt a solve sent, rebuilt from its trace by the templates of
    PROTOCOL.md: the block of the steps accepted so far, then the hint, or
    the candidate step with the rubric and the reply format."""
    steps, hint, prompts = [], None, []
    for event in trace.events:
        block = "\n".join([f"Problem: {question}", "Steps completed so far:",
                           *(f"STEP {k}: {text}" for k, text in enumerate(steps, start=1))])
        if event.kind is EventKind.GENERATED:
            prompts.append((Role.DECOMPOSER, f"{block}\nHINT: {hint}" if hint else block))
            candidate = event.payload["raw"]
        elif event.kind is EventKind.EVALUATED and event.payload["synthetic"] is None:
            prompts.append((Role.EVALUATOR, "\n".join([
                block, "Candidate step:", parse_agent_step(candidate).wire_line,
                "Rate the candidate step on this scale:", *SCORE_RUBRIC,
                "Respond with exactly two lines:", "Score: <0-3>", "Feedback: <one sentence>",
            ])))
        elif event.kind is EventKind.RETRIED:
            hint = event.payload["hint"] or None
        elif event.kind in (EventKind.ACCEPTED, EventKind.FORCED_ACCEPT):
            steps.append(event.payload["text"])
            hint = None
    return prompts


class TestPrompts:
    @pytest.mark.parametrize("cache", [False, True])
    @pytest.mark.parametrize("retries", [1, 3])
    def test_every_prompt_follows_the_templates(self, cache, retries):
        problems, fixture = build_random_case(random.Random(404), 40)
        cfg = config(max_steps=6, cache_enabled=cache, max_retries_per_step=retries)
        reached = set()
        for problem in problems:
            backend = RecordingBackend(ScriptedBackend(fixture[problem.id]))
            trace = solve(problem, cfg, backend, backend)
            # A call that raised left no event; the calls that replied did.
            assert backend.attempts[: len(backend.replies)] == _expected_prompts(
                problem.question, trace)
            reached.update(event.kind for event in trace.events)
        assert {EventKind.RETRIED, EventKind.ACCEPTED, EventKind.FORCED_ACCEPT} <= reached


class TestTermination:
    def test_immediate_final(self):
        backend = ScriptedBackend(
            {"decomposer": ["FINAL_ANSWER: 72"], "evaluator": ["Score: 3\nFeedback: ok"]}
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.SOLVED
        assert trace.final_answer == CanonicalNumber("72")
        assert len(trace.accepted_steps) == 1

    def test_zero_budget_makes_no_calls(self):
        backend = ScriptedBackend({"decomposer": ["FINAL_ANSWER: 1"]})
        trace = solve(
            Problem(id="p", question="q?"), config(token_budget=0), backend, backend
        )
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert kinds(trace) == ["budget_stop"]
        assert backend.calls(Role.DECOMPOSER) == 0

    def test_budget_checked_before_evaluator_call(self):
        backend = ScriptedBackend(
            {"decomposer": ["STEP: count 1 + 1 = 2"], "evaluator": ["Score: 3"]}
        )
        trace = solve(
            Problem(id="p", question="q?"), config(token_budget=1), backend, backend
        )
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert kinds(trace) == ["generated", "budget_stop"]
        assert backend.calls(Role.EVALUATOR) == 0

    def test_step_limit_stop(self):
        backend = ScriptedBackend(
            {
                "decomposer": [f"STEP: add {i} + 1 = {i + 1} now" for i in range(5)],
                "evaluator": ["Score: 3\nFeedback: ok"] * 5,
            }
        )
        trace = solve(
            Problem(id="p", question="q?"), config(max_steps=2), backend, backend
        )
        assert trace.outcome is Outcome.STEP_LIMIT
        assert len(trace.accepted_steps) == 2
        assert trace.final_answer is None
        assert trace.events[-1].kind is EventKind.STEP_LIMIT_STOP

    def test_decomposer_exhaustion_is_backend_failure(self):
        backend = ScriptedBackend({"decomposer": [], "evaluator": []})
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.BACKEND_FAILURE
        assert "decomposer" in trace.error

    def test_evaluator_failure_preserves_partial_trace(self):
        backend = ScriptedBackend(
            {"decomposer": ["STEP: add 1 + 1 = 2 coins"], "evaluator": []}
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.BACKEND_FAILURE
        assert "evaluator" in trace.error
        assert kinds(trace) == ["generated"]

    def test_evaluator_protocol_violation_is_backend_failure(self):
        for reply in ("I liked this step a lot", "Score: 7\nFeedback: x"):
            backend = RecordingBackend(
                ScriptedBackend(
                    {"decomposer": ["STEP: add 1 + 1 = 2 coins"], "evaluator": [reply]}
                )
            )
            trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
            assert trace.outcome is Outcome.BACKEND_FAILURE
            assert "protocol violation" in trace.error
            # the failed call is still charged and recorded
            assert len(backend.replies) == 2
            assert trace.tokens_spent == sum(r.total_tokens for _, r in backend.replies)
            assert trace.evaluator_calls == 1
            assert kinds(trace) == ["generated", "evaluated"]
            assert trace.events[-1].payload == {
                "score": None,
                "feedback": None,
                "fingerprint": "1+1=2",
                "synthetic": None,
                "raw": reply,
            }


class TestRetryAndForcedAccept:
    def test_forced_accept_after_retry_limit(self):
        backend = ScriptedBackend(
            {
                "decomposer": [f"STEP: guess {i} + 0 = {i} apples" for i in range(4)]
                + ["FINAL_ANSWER: 9"],
                "evaluator": ["Score: 1\nFeedback: weak try"] * 4
                + ["Score: 3\nFeedback: ok"],
            }
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        forced = trace.events_of(EventKind.FORCED_ACCEPT)
        assert len(forced) == 1
        assert trace.accepted_steps[0].forced
        assert trace.accepted_steps[0].score == 1
        assert len(trace.events_of(EventKind.RETRIED)) == 3
        assert trace.outcome is Outcome.SOLVED

    def test_forced_accept_of_final_line_terminates(self):
        backend = ScriptedBackend(
            {
                "decomposer": ["FINAL_ANSWER: 7"] * 4,
                "evaluator": ["Score: 0\nFeedback: not convinced"] * 4,
            }
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.SOLVED
        assert trace.final_answer == CanonicalNumber("7")
        assert trace.accepted_steps[0].forced

    def test_retry_bound_per_slot(self):
        backend = ScriptedBackend(
            {
                "decomposer": [f"STEP: try {i} - 0 = {i} now" for i in range(10)],
                "evaluator": ["Score: 0\nFeedback: wrong"] * 10,
            }
        )
        cfg = config(max_retries_per_step=2, max_steps=2)
        trace = solve(Problem(id="p", question="q?"), cfg, backend, backend)
        for slot in {event.payload["slot"] for event in trace.events_of(EventKind.GENERATED)}:
            generated = [
                event
                for event in trace.events_of(EventKind.GENERATED)
                if event.payload["slot"] == slot
            ]
            assert len(generated) <= 1 + cfg.max_retries_per_step
            retried = [
                event
                for event in trace.events_of(EventKind.RETRIED)
                if event.payload["slot"] == slot
            ]
            assert len(retried) <= cfg.max_retries_per_step


class TestMalformedOutput:
    def test_malformed_step_is_retried_with_corrective_hint(self):
        backend = RecordingBackend(
            ScriptedBackend(
                {
                    "decomposer": ["no prefix at all", "FINAL_ANSWER: 4"],
                    "evaluator": ["Score: 3\nFeedback: ok"],
                }
            )
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.SOLVED
        synthetic = [
            event
            for event in trace.events_of(EventKind.EVALUATED)
            if event.payload["synthetic"] == "malformed_step"
        ]
        assert len(synthetic) == 1
        assert synthetic[0].payload["feedback"] == MALFORMED_STEP_FEEDBACK
        # the malformed generation never reached the evaluator
        assert backend.inner.calls(Role.EVALUATOR) == 1
        assert f"HINT: {MALFORMED_STEP_FEEDBACK}" in backend.prompts[Role.DECOMPOSER][1]

    def test_unparseable_final_is_retried(self):
        backend = ScriptedBackend(
            {
                "decomposer": ["FINAL_ANSWER: I give up", "FINAL_ANSWER: 5"],
                "evaluator": ["Score: 3\nFeedback: ok"],
            }
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.SOLVED
        assert trace.final_answer == CanonicalNumber("5")
        synthetic = [
            event
            for event in trace.events_of(EventKind.EVALUATED)
            if event.payload["synthetic"] == "unparseable_final"
        ]
        assert len(synthetic) == 1
        assert synthetic[0].payload["feedback"] == UNPARSEABLE_FINAL_FEEDBACK

    def test_malformed_forever_degrades_to_forced_intermediate(self):
        backend = ScriptedBackend(
            {
                "decomposer": ["garbage one", "garbage two", "garbage three",
                               "garbage four", "FINAL_ANSWER: 3"],
                "evaluator": ["Score: 3\nFeedback: ok"],
            }
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.outcome is Outcome.SOLVED
        first = trace.accepted_steps[0]
        assert first.forced
        assert first.kind is StepKind.INTERMEDIATE
        assert first.text == "garbage four"
        assert backend.calls(Role.EVALUATOR) == 1  # only the real final step


class TestCacheIntegration:
    DUPLICATE_SCRIPTS = {
        "decomposer": [
            "STEP: First he adds 12 + 30 = 42 apples.",
            "STEP: So we compute 12 + 30 = 42 apples in total.",
            "STEP: Then he removes 42 - 2 = 40 apples.",
            "FINAL_ANSWER: 40",
        ],
        "evaluator": ["Score: 3\nFeedback: fine."] * 4,
    }

    def test_duplicate_fingerprint_skips_evaluator(self):
        backend = ScriptedBackend(self.DUPLICATE_SCRIPTS)
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        rejections = trace.events_of(EventKind.CACHE_REJECTED)
        assert len(rejections) == 1
        assert rejections[0].payload["decision"] == "duplicate_accepted"
        assert rejections[0].payload["feedback"] == DUPLICATE_FEEDBACK
        assert backend.calls(Role.EVALUATOR) == 3  # duplicate never evaluated
        assert trace.outcome is Outcome.SOLVED
        check_cache_soundness(trace, cache_enabled=True)

    def test_cache_disabled_evaluates_every_candidate(self):
        backend = ScriptedBackend(self.DUPLICATE_SCRIPTS)
        trace = solve(
            Problem(id="p", question="q?"), config(cache_enabled=False), backend, backend
        )
        assert trace.events_of(EventKind.CACHE_REJECTED) == []
        assert backend.calls(Role.EVALUATOR) == 4
        assert trace.evaluator_calls == 4

    def test_low_scored_pattern_becomes_known_bad(self):
        backend = ScriptedBackend(
            {
                "decomposer": [
                    "STEP: He pays 10 - 3 = 6 coins.",
                    "STEP: So paying 10 - 3 = 6 coins settles it.",
                    "STEP: He pays 10 - 3 = 7 coins.",
                    "FINAL_ANSWER: 7",
                ],
                "evaluator": [
                    "Score: 0\nFeedback: the subtraction is wrong",
                    "Score: 3\nFeedback: ok",
                    "Score: 3\nFeedback: ok",
                ],
            }
        )
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        rejections = trace.events_of(EventKind.CACHE_REJECTED)
        assert len(rejections) == 1
        assert rejections[0].payload["decision"] == "known_bad"
        assert rejections[0].payload["feedback"] == KNOWN_BAD_FEEDBACK
        assert trace.outcome is Outcome.SOLVED

    def test_cache_is_per_problem(self):
        scripts = {
            "decomposer": ["STEP: add 5 + 5 = 10 here", "FINAL_ANSWER: 10"],
            "evaluator": ["Score: 3\nFeedback: ok"] * 2,
        }
        first = solve(
            Problem(id="a", question="q?"), config(), ScriptedBackend(scripts), ScriptedBackend(scripts)
        )
        second = solve(
            Problem(id="b", question="q?"), config(), ScriptedBackend(scripts), ScriptedBackend(scripts)
        )
        # same fingerprint crosses problems without being rejected
        assert first.events_of(EventKind.CACHE_REJECTED) == []
        assert second.events_of(EventKind.CACHE_REJECTED) == []
        assert second.outcome is Outcome.SOLVED


class TestDeterminismAndBudget:
    def test_identical_runs_yield_identical_trace_bytes(self, henry_problem):
        traces = [
            solve(henry_problem, config(), ScriptedBackend(HENRY_SCRIPTS), ScriptedBackend(HENRY_SCRIPTS))
            for _ in range(2)
        ]
        assert traces[0].to_json() == traces[1].to_json()

    def test_budget_prefix_property(self, henry_problem):
        traces = {}
        for budget in (100, 200, 300, 400, 500, 600, BIG_BUDGET):
            backend = ScriptedBackend(HENRY_SCRIPTS)
            traces[budget] = solve(
                henry_problem, config(token_budget=budget), backend, backend
            )
        budgets = sorted(traces)
        for smaller, larger in zip(budgets, budgets[1:]):
            assert_budget_prefix(traces[smaller], traces[larger])

    def test_budget_discipline_across_budgets(self, henry_problem):
        for budget in (1, 50, 120, 250, 400, 550):
            backend = ScriptedBackend(HENRY_SCRIPTS)
            trace = solve(henry_problem, config(token_budget=budget), backend, backend)
            assert_budget_discipline(trace, budget)

    def test_tokens_spent_matches_event_charges(self, henry_problem, henry_backend):
        backend = RecordingBackend(henry_backend)
        trace = solve(henry_problem, config(), backend, backend)
        assert trace.tokens_spent == sum(event.tokens_charged for event in trace.events)
        assert trace.tokens_spent > 0
        assert_calls_match_events(trace, backend.replies)


# Exact trace bytes of the Henry solve, unlimited and stopped at budget 400
# (after the second generation, before its evaluation).
HENRY_TRACE_JSON = (
    '{"accepted_steps": [{"fingerprint": "40-15=25", "forced": false, "index": 1'
    ', "kind": "intermediate", "score": 3'
    ', "text": "Henry traveled 40 - 15 = 25 miles between his first and second stops."}'
    ', {"fingerprint": "25", "forced": false, "index": 2, "kind": "final", "score": 3'
    ', "text": "25"}], "config": {"accept_threshold": 1, "cache_bad_threshold": 1'
    ', "cache_enabled": true, "decomposer_params": {"max_new_tokens": 128'
    ', "temperature": 0.0}, "evaluator_params": {"max_new_tokens": 128'
    ', "temperature": 0.0}, "max_retries_per_step": 3, "max_steps": 12'
    ', "token_budget": 1000000}, "error": null, "events": [{"kind": "generated"'
    ', "payload": {"attempt": 0'
    ', "raw": "STEP: Henry traveled 60 - 45 = 15 miles between his first and second stops."'
    ', "slot": 1}, "tokens_charged": 79}, {"kind": "evaluated"'
    ', "payload": {"feedback": "The calculation is wrong; he traveled 60 - 20 = 40 miles before his first stop'
    ', so he traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "fingerprint": "60-45=15"'
    ', "raw": "Raw score: 0.0/3\\nFeedback: The calculation is wrong; he traveled 60 - 20 = 40 miles before his first stop'
    ', so he traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "score": 0, "synthetic": null}, "tokens_charged": 289}, {"kind": "retried"'
    ', "payload": {"hint": "The calculation is wrong; he traveled 60 - 20 = 40 miles before his first stop'
    ', so he traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "retries_used": 1, "slot": 1}, "tokens_charged": 0}, {"kind": "generated"'
    ', "payload": {"attempt": 1'
    ', "raw": "STEP: Henry traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "slot": 1}, "tokens_charged": 118}, {"kind": "evaluated"'
    ', "payload": {"feedback": "Correct.", "fingerprint": "40-15=25"'
    ', "raw": "Score: 3\\nFeedback: Correct.", "score": 3, "synthetic": null}'
    ', "tokens_charged": 252}, {"kind": "accepted"'
    ', "payload": {"fingerprint": "40-15=25", "index": 1, "kind": "intermediate"'
    ', "score": 3'
    ', "text": "Henry traveled 40 - 15 = 25 miles between his first and second stops."}'
    ', "tokens_charged": 0}, {"kind": "generated", "payload": {"attempt": 0'
    ', "raw": "FINAL_ANSWER: 25", "slot": 2}, "tokens_charged": 84}'
    ', {"kind": "evaluated", "payload": {"feedback": "Correct.", "fingerprint": "25"'
    ', "raw": "Score: 3\\nFeedback: Correct.", "score": 3, "synthetic": null}'
    ', "tokens_charged": 256}, {"kind": "accepted", "payload": {"fingerprint": "25"'
    ', "index": 2, "kind": "final", "score": 3, "text": "25"}, "tokens_charged": 0}'
    ', {"kind": "finished", "payload": {"final_answer": "25"}, "tokens_charged": 0}]'
    ', "final_answer": "25", "labels": [], "outcome": "solved", "problem_id": "henry"}'
)

HENRY_BUDGET_400_TRACE_JSON = (
    '{"accepted_steps": [], "config": {"accept_threshold": 1, "cache_bad_threshold": 1'
    ', "cache_enabled": true, "decomposer_params": {"max_new_tokens": 128'
    ', "temperature": 0.0}, "evaluator_params": {"max_new_tokens": 128'
    ', "temperature": 0.0}, "max_retries_per_step": 3, "max_steps": 12'
    ', "token_budget": 400}, "error": null, "events": [{"kind": "generated"'
    ', "payload": {"attempt": 0'
    ', "raw": "STEP: Henry traveled 60 - 45 = 15 miles between his first and second stops."'
    ', "slot": 1}, "tokens_charged": 79}, {"kind": "evaluated"'
    ', "payload": {"feedback": "The calculation is wrong; he traveled 60 - 20 = 40 miles before his first stop'
    ', so he traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "fingerprint": "60-45=15"'
    ', "raw": "Raw score: 0.0/3\\nFeedback: The calculation is wrong; he traveled 60 - 20 = 40 miles before his first stop'
    ', so he traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "score": 0, "synthetic": null}, "tokens_charged": 289}, {"kind": "retried"'
    ', "payload": {"hint": "The calculation is wrong; he traveled 60 - 20 = 40 miles before his first stop'
    ', so he traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "retries_used": 1, "slot": 1}, "tokens_charged": 0}, {"kind": "generated"'
    ', "payload": {"attempt": 1'
    ', "raw": "STEP: Henry traveled 40 - 15 = 25 miles between his first and second stops."'
    ', "slot": 1}, "tokens_charged": 118}, {"kind": "budget_stop"'
    ', "payload": {"limit": 400, "spent": 486}, "tokens_charged": 0}]'
    ', "final_answer": null, "labels": [], "outcome": "budget_exhausted"'
    ', "problem_id": "henry"}'
)


class TestTraceSerialization:
    def test_trace_dict_schema(self, henry_problem, henry_backend):
        trace = solve(henry_problem, config(), henry_backend, henry_backend)
        record = trace.to_dict()
        assert record["problem_id"] == "henry"
        assert record["outcome"] == "solved"
        assert record["final_answer"] == "25"
        assert record["labels"] == []
        assert record["error"] is None
        assert record["config"]["token_budget"] == BIG_BUDGET
        assert all(
            set(event) == {"kind", "payload", "tokens_charged"} for event in record["events"]
        )
        steps = record["accepted_steps"]
        assert steps[0]["kind"] == "intermediate"
        assert steps[-1]["kind"] == "final"
        assert all("fingerprint" in step for step in steps)

    def test_henry_trace_bytes(self, henry_problem, henry_backend):
        trace = solve(henry_problem, config(), henry_backend, henry_backend)
        assert trace.to_json() == HENRY_TRACE_JSON

    def test_budget_stopped_henry_trace_bytes(self, henry_problem, henry_backend):
        trace = solve(henry_problem, config(token_budget=400), henry_backend, henry_backend)
        assert trace.outcome is Outcome.BUDGET_EXHAUSTED
        assert trace.to_json() == HENRY_BUDGET_400_TRACE_JSON


def _generated(tokens):
    return TraceEvent(EventKind.GENERATED, {"slot": 1, "attempt": 0, "raw": "STEP: x"}, tokens)


def _evaluated(tokens, score=3):
    return TraceEvent(EventKind.EVALUATED, {"score": score, "feedback": "ok", "fingerprint": "x",
                                            "synthetic": None, "raw": "Score: 3"}, tokens)


def _event(kind, **payload):
    return TraceEvent(kind, payload)


def walked_cuts(trace) -> BudgetCuts:
    """The reference for the ``cuts`` that ``solve`` records: one walk over a
    trace's events. It tells agent calls (``generated`` and non-synthetic
    ``evaluated`` events) from the rest and notes the spend and Evaluator calls
    before each; the fork point is the first ``cache_rejected`` event. A trace
    whose last call raised and left no event ends in one more check, and there
    is its fork point if it has none before."""
    checks, spent, evaluator_calls, fork = [], 0, 0, None
    for position, event in enumerate(trace.events):
        kind = event.kind
        if kind is EventKind.GENERATED or (
                kind is EventKind.EVALUATED and event.payload.get("synthetic") is None):
            checks.append((spent, evaluator_calls))
            evaluator_calls += kind is EventKind.EVALUATED
        elif fork is None and kind is EventKind.CACHE_REJECTED:
            fork = position
        spent += event.tokens_charged  # 0 unless the event is an agent call
    if trace.outcome is Outcome.BACKEND_FAILURE:
        last = trace.events[-1] if trace.events else None
        if not (last and last.kind is EventKind.EVALUATED and last.payload["score"] is None):
            fork = len(trace.events) if fork is None else fork
            checks.append((spent, evaluator_calls))
    return BudgetCuts(trace.config["token_budget"], checks, (spent, evaluator_calls), fork)


# Hand-built traces that end four ways, each with the budget it was solved at
# and, for every budget from 1 up, the budget stop it scores as: a list of (the
# last budget it applies to, (spent, evaluator_calls) or None for the whole
# solve's score). The spend before each agent call is worked out in the comments.
# Then the totals and the position of the cache-off fork point in the events.
HAND_TRACES = {
    "solved": (16, Outcome.SOLVED, [
        _generated(3),  # 0: spend before 0
        _evaluated(2),  # 1: 3
        _event(EventKind.ACCEPTED),
        _generated(4),  # 3: 5, after 1 Evaluator call
        _event(EventKind.CACHE_REJECTED, decision="duplicate"),  # 4: the fork, after 3 calls
        _event(EventKind.RETRIED),
        _generated(3),  # 6: 9
        _event(EventKind.EVALUATED, score=0, feedback="", fingerprint="",
               synthetic="malformed_step"),  # no agent call: not a check
        _event(EventKind.RETRIED),
        _generated(2),  # 9: 12
        _evaluated(1),  # 10: 14
        _event(EventKind.ACCEPTED),
        _event(EventKind.FINISHED, final_answer="1"),
    ], [(3, (3, 0)), (5, (5, 1)), (9, (9, 1)), (12, (12, 1)), (14, (14, 1)), (16, None)],
        (15, 2), 4),
    # The solve's own stop, at spend 11, is the whole score of every budget
    # that no check before it stops: budget_exhausted, spent 11.
    "budget_stop": (10, Outcome.BUDGET_EXHAUSTED, [
        _generated(4),  # 0: 0
        _evaluated(3, score=0),  # 1: 4
        _event(EventKind.RETRIED),
        _generated(4),  # 3: 7
        _event(EventKind.CACHE_REJECTED, decision="known_bad"),  # 4: the fork, after 3 calls
        _event(EventKind.RETRIED),
        _event(EventKind.BUDGET_STOP, spent=11, limit=10),
    ], [(4, (4, 0)), (7, (7, 1)), (10, None)], (11, 1), 4),
    # The Evaluator call after event 3 raised and left no event, so the end,
    # at spend 13, is a check, and the fork point, 4: every event is before it.
    "raised call": (20, Outcome.BACKEND_FAILURE, [
        _generated(5),  # 0: 0
        _evaluated(2),  # 1: 5
        _event(EventKind.ACCEPTED),
        _generated(6),  # 3: 7
    ], [(5, (5, 0)), (7, (7, 1)), (13, (13, 1)), (20, None)], (13, 1), 4),
    # The Evaluator's reply left its event, so the end is no check.
    "unparsed reply": (20, Outcome.BACKEND_FAILURE, [
        _generated(5),  # 0: 0
        _evaluated(2, score=None),  # 1: 5, a reply that did not parse
    ], [(5, (5, 0)), (20, None)], (7, 1), None),
}


def _score(problem, trace):
    """A solve's score as a sweep cell sums it: its outcome, whether it solved
    the problem correctly, its spend and its Evaluator calls."""
    correct = trace.outcome is Outcome.SOLVED and trace.final_answer == problem.gold_answer
    return trace.outcome, correct, trace.tokens_spent, trace.evaluator_calls


class TestBudgetCuts:
    @pytest.mark.parametrize("name", list(HAND_TRACES))
    def test_every_budget_cuts_where_worked_out_by_hand(self, name):
        limit, outcome, events, spans, totals, fork = HAND_TRACES[name]
        trace = SolveTrace(problem_id="p", config={"token_budget": limit}, events=events,
                           outcome=outcome)
        cuts = walked_cuts(trace)
        whole = (outcome, outcome is Outcome.SOLVED, *totals)
        expected, budget = [], 1
        for last, stop in spans:
            score = whole if stop is None else (Outcome.BUDGET_EXHAUSTED, False, *stop)
            expected += [score] * (last - budget + 1)
            budget = last + 1
        assert len(expected) == limit
        assert cuts.scores(range(1, limit + 1), whole) == expected
        assert (cuts.totals, cuts.fork) == (totals, fork)
        # A trace built by hand has no cuts; its totals are summed from its events.
        assert (trace.tokens_spent, trace.evaluator_calls) == totals
        # Repeated and unsorted budgets are scored in the order given.
        budgets = [limit, *range(1, limit + 1), 1]
        assert cuts.scores(budgets, whole) == [expected[budget - 1] for budget in budgets]
        assert cuts.scores([], whole) == []
        with pytest.raises(ValueError):
            cuts.scores([1, limit + 1], whole)

    @pytest.mark.parametrize("retries", [1, 3])
    @pytest.mark.parametrize("seed", [606, 707, 808])
    def test_fork_is_the_position_where_the_fork_leaves_the_trace(self, seed, retries):
        """The fork point against the position of the event where the fork
        leaves the trace: its first cache_rejected event, else the end of a
        trace whose last call raised and left no event. Both kinds of fork must
        be reached."""
        problems, fixture = build_random_case(random.Random(seed), 40)
        base = config(max_steps=40, max_retries_per_step=retries, cache_enabled=True)
        forks = Counter()
        for problem in problems:
            backend = ScriptedBackend(fixture[problem.id])
            trace = solve(problem, base, backend, backend)
            kinds = [event.kind for event in trace.events]
            last = trace.events[-1] if trace.events else None
            if EventKind.CACHE_REJECTED in kinds:
                end, forks["cache hit"] = kinds.index(EventKind.CACHE_REJECTED), True
            elif trace.outcome is Outcome.BACKEND_FAILURE and not (
                    last and last.kind is EventKind.EVALUATED and last.payload["score"] is None):
                end, forks["raised call"] = len(kinds), True
            else:
                end = None
            assert trace.cuts.fork == end, problem.id
        assert len(forks) == 2, forks

    @pytest.mark.parametrize("retries", [1, 3])
    @pytest.mark.parametrize("seed", [606, 707, 808])
    def test_recorded_checks_equal_the_walk(self, seed, retries):
        """The checks, totals and fork point the loop records against the walk
        over its events, for solves that end every way, cache off and on."""
        problems, fixture = build_random_case(random.Random(seed), 40)
        seen = Counter()
        # (token_budget, max_steps): whole solves, budget stops and step limits
        limits = ((BIG_BUDGET, 40), (600, 40), (300, 40), (100, 40), (BIG_BUDGET, 2))
        for problem, cache, (budget, steps) in itertools.product(problems, (False, True), limits):
            backend = ScriptedBackend(fixture[problem.id])
            trace = solve(problem, config(max_steps=steps, max_retries_per_step=retries,
                                          cache_enabled=cache, token_budget=budget),
                          backend, backend)
            walked = walked_cuts(trace)
            assert trace.cuts == walked, (problem.id, cache, budget)
            assert (trace.tokens_spent, trace.evaluator_calls) == walked.totals
            seen[trace.outcome] += 1
            seen["fork", cache] += trace.cuts.fork is not None
        assert all(seen[outcome] for outcome in Outcome), seen
        assert seen["fork", True] > seen["fork", False] > 0, seen

    def test_cut_equals_a_real_solve_at_that_budget(self):
        """Random scripts with malformed replies and short scripts, solved at
        a top budget and scored at each smaller one, against a real solve at
        that budget: the same score, and the real solve's events before its
        budget stop begin the top solve's. Both end cases must be reached: a
        top solve that ended in its own budget stop, and a real solve stopped
        at the end of a top one whose last call raised."""
        problems, fixture = build_random_case(random.Random(808), 60)
        ends = {"budget_stop": 0, "failed_call": 0}
        for problem in problems:
            for cache in (False, True):
                for retries in (1, 3):
                    base = config(max_steps=40, max_retries_per_step=retries,
                                  cache_enabled=cache)

                    def run(budget):
                        backend = ScriptedBackend(fixture[problem.id])
                        return solve(problem, base.with_overrides(token_budget=budget),
                                     backend, backend)

                    # 1, 2, the grid, and the exact spend of the unlimited solve
                    budgets = {1, 2, 100, 200, 300, 400, 500, run(BIG_BUDGET).tokens_spent}
                    for top in (600, BIG_BUDGET):
                        solved = run(top)
                        below = sorted(b for b in budgets if 0 < b <= top)
                        reals = [run(budget) for budget in below]
                        assert solved.cuts.scores(below, _score(problem, solved)) == [
                            _score(problem, real) for real in reals]
                        for real in reals:
                            assert_budget_prefix(real, solved)
                            if solved.outcome is Outcome.BUDGET_EXHAUSTED:
                                ends["budget_stop"] += 1
                            elif (real.outcome is Outcome.BUDGET_EXHAUSTED
                                  and len(real.events) > len(solved.events)):
                                ends["failed_call"] += 1
        assert ends["budget_stop"] > 0 and ends["failed_call"] > 0, ends


class _Counting:
    """A prompt-keyed backend that counts the calls that reach it."""

    def __init__(self):
        self.calls = []

    def complete(self, role, prompt, params=None):
        self.calls.append((role, prompt))
        return AgentReply(raw_text=f"live {prompt}", prompt_tokens=2, completion_tokens=1)


class TestReplayBackend:
    """The cache-off fork's backend, over the events of a real cache-on solve:
    its second generation repeats its first, so the fork point is event 4, after
    3 calls."""

    SCRIPTS = {"decomposer": TestCacheIntegration.DUPLICATE_SCRIPTS["decomposer"],
               "evaluator": [f"Score: 3\nFeedback: {word}." for word in ("a", "b", "c", "d")]}

    def _events(self):
        backend = ScriptedBackend(self.SCRIPTS)
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.cuts.fork == 4
        return trace.events

    def test_serves_each_logged_request_then_delegates(self):
        events = self._events()
        calls = [event.call for event in events if event.call is not None]
        decomposer, evaluator = _Counting(), _Counting()
        replay = ReplayBackend(events, decomposer, evaluator)
        # A logged request gets its logged reply, charged as it was, and
        # reaches no backend.
        served = [replay.complete(role, prompt, params) for role, prompt, params, _ in calls]
        assert all(mine is reply for mine, (*_, reply) in zip(served, calls))
        assert decomposer.calls == evaluator.calls == []
        # A request the log does not hold as often, or with other params, goes
        # to its role's live backend.
        role, prompt, params, _ = calls[0]
        assert replay.complete(role, prompt, params).raw_text == f"live {prompt}"
        assert replay.complete(role, prompt, params._replace(temperature=0.5)).total_tokens == 3
        assert replay.complete(Role.EVALUATOR, "p4").raw_text == "live p4"
        assert decomposer.calls == [(Role.DECOMPOSER, prompt)] * 2
        assert evaluator.calls == [(Role.EVALUATOR, "p4")]

    def test_nth_repeat_of_a_request_gets_the_nth_logged_reply(self):
        # The Evaluator gives the same feedback twice, so the Decomposer's
        # second and third requests are the same; no step is a cache hit.
        backend = ScriptedBackend({
            "decomposer": ["STEP: 1 + 1 = 2.", "STEP: 2 + 2 = 4.", "STEP: 3 + 3 = 6.",
                           "FINAL_ANSWER: 6"],
            "evaluator": ["Score: 0\nFeedback: redo."] * 2 + ["Score: 3\nFeedback: ok."] * 2})
        trace = solve(Problem(id="p", question="q?"), config(), backend, backend)
        assert trace.cuts.fork is None
        (_, opening, _, _), (role, prompt, params, second), (_, again, _, third), _ = [
            event.call for event in trace.events_of(EventKind.GENERATED)]
        assert again == prompt != opening and second.raw_text != third.raw_text
        live = _Counting()
        replay = ReplayBackend(trace.events, live, live)
        # The string role names the same request as the Role.
        served = [replay.complete(role, prompt, params) for role in (Role.DECOMPOSER, "decomposer")]
        assert served[0] is second and served[1] is third
        assert live.calls == []
        assert replay.complete(Role.DECOMPOSER, prompt, params).raw_text == f"live {prompt}"
        assert live.calls == [(Role.DECOMPOSER, prompt)]

    def test_relay_sends_the_recorded_calls_to_a_positional_backend_too(self):
        # A provider's fork gets the events before the fork point: 3 calls.
        events, live = self._events()[:4], _Counting()
        # A relayed call reaches the live backend, but its reply is the logged one.
        role, prompt, params, logged = events[0].call
        reply = ReplayBackend(events, live, live, relay=True).complete(role, prompt, params)
        assert reply is logged
        assert live.calls == [(Role.DECOMPOSER, prompt)]
        problem, off = Problem(id="p", question="q?"), config(cache_enabled=False)
        script = RecordingBackend(ScriptedBackend(self.SCRIPTS))
        fresh = ScriptedBackend(self.SCRIPTS)
        replay = ReplayBackend(events, script, script, relay=True)
        # The fork's cache-off solve is the one from scratch: the script gets
        # every call, and the 3 logged ones are charged at the same totals.
        assert solve(problem, off, replay, replay) == solve(problem, off, fresh, fresh)
        assert [role for role, _ in script.attempts] == [Role.DECOMPOSER, Role.EVALUATOR] * 4


class TestCallLog:
    def test_each_agent_call_event_keeps_the_call_its_backend_saw(self):
        problems, fixture = build_random_case(random.Random(606), 40)
        params = DecodeParams(max_new_tokens=64)
        # Long solves, and solves that a budget or the step limit stops.
        bases = [config(max_steps=40, evaluator_params=params),
                 config(token_budget=400, max_steps=2, evaluator_params=params)]
        seen = Counter()
        for problem, base in itertools.product(problems, bases):
            backend = RecordingBackend(ScriptedBackend(fixture[problem.id]))
            trace = solve(problem, base, backend, backend)
            calls = [event.call for event in trace.events if event.call is not None]
            # A call that raised is the solve's last, and leaves no event and no call.
            returned = backend.attempts[:len(backend.replies)]
            seen["raised"] += len(backend.attempts) > len(returned)
            assert [(role, prompt) for role, prompt, _, _ in calls] == returned
            assert all(mine is reply for (*_, mine), (_, reply) in zip(calls, backend.replies))
            assert [params for _, _, params, _ in calls] == [
                base.decomposer_params if role is Role.DECOMPOSER else base.evaluator_params
                for role, _ in returned]
            # Only agent calls carry one: no cache hit, synthetic evaluation or
            # other event does.
            for event in trace.events:
                synthetic = event.kind is EventKind.EVALUATED and event.payload["synthetic"]
                seen[event.kind, bool(synthetic)] += 1
                agent_call = event.kind is EventKind.GENERATED or (
                    event.kind is EventKind.EVALUATED and not synthetic)
                assert (event.call is not None) is agent_call, (problem.id, event)
            # The call is never written.
            bare = [event._replace(call=None) for event in trace.events]
            assert trace._replace(events=bare).to_json() == trace.to_json()
        assert seen["raised"] and seen[EventKind.EVALUATED, True], seen
        assert all(seen[kind, False] for kind in EventKind), seen


# SHA-256 over the traces of TestTraceDigest's corpus, one JSON line each.
TRACE_CORPUS_DIGEST = "5e0d55632d5cbca08dd6332c9f009a76703e33dca389b84d021a65681db4c3c7"


class TestTraceDigest:
    def test_corpus_traces_are_byte_identical(self):
        """10,240 solves of random scripts pin the solve loop's bytes: every
        outcome, both cache-hit kinds, both synthetic evaluations, forced
        accepts and Evaluator protocol violations are in the corpus."""
        digest = hashlib.sha256()
        seen: Counter = Counter()
        # (accept_threshold, cache_bad_threshold, max_retries_per_step, max_steps)
        settings = ((1, 1, 3, 12), (2, 0, 1, 12), (0, 0, 2, 12), (1, 1, 3, 2))
        for seed in range(1, 9):
            problems, fixture = build_random_case(random.Random(seed), 40)
            for cache in (False, True):
                for budget in (0, 150, 400, 2048):
                    for accept, bad, retries, steps in settings:
                        solver_config = SolverConfig(
                            token_budget=budget, accept_threshold=accept,
                            cache_bad_threshold=bad, max_retries_per_step=retries,
                            max_steps=steps, cache_enabled=cache)
                        for problem in problems:
                            backend = ScriptedBackend(fixture[problem.id])
                            trace = solve(problem, solver_config, backend, backend)
                            digest.update((trace.to_json() + "\n").encode("utf-8"))
                            seen[trace.outcome.value] += 1
                            seen["protocol_violation"] += "protocol violation" in (
                                trace.error or "")
                            for event in trace.events:
                                seen[event.kind.value] += 1
                                payload = event.payload
                                seen[payload.get("decision")] += 1
                                seen[payload.get("synthetic")] += 1
        assert sum(seen[outcome.value] for outcome in Outcome) == 10_240
        for key in ("solved", "budget_exhausted", "step_limit", "backend_failure",
                    "duplicate_accepted", "known_bad", "malformed_step",
                    "unparseable_final", "forced_accept", "protocol_violation"):
            assert seen[key] > 0, key
        assert digest.hexdigest() == TRACE_CORPUS_DIGEST
