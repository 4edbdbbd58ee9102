"""Shared fixtures: canonical trajectories, scripted problem sets, oracles."""

from __future__ import annotations

import pytest

from dualtrack import (
    CanonicalNumber,
    EventKind,
    Outcome,
    Problem,
    Role,
    ScriptedBackend,
)

# The distance-between-stops retry trajectory: bad step scored 0 with a
# corrective hint, corrected step scored 3.
HENRY_QUESTION = (
    "Henry drove 60 miles to visit his grandmother. He made his first stop"
    " after driving 20 miles, and his second stop 15 miles before arriving."
    " How many miles did Henry travel between his first and second stops?"
)
HENRY_BAD_STEP = "Henry traveled 60 - 45 = 15 miles between his first and second stops."
HENRY_GOOD_STEP = "Henry traveled 40 - 15 = 25 miles between his first and second stops."
HENRY_FEEDBACK = (
    "The calculation is wrong; he traveled 60 - 20 = 40 miles before his first"
    " stop, so he traveled 40 - 15 = 25 miles between his first and second stops."
)
HENRY_SCRIPTS = {
    "decomposer": [
        f"STEP: {HENRY_BAD_STEP}",
        f"STEP: {HENRY_GOOD_STEP}",
        "FINAL_ANSWER: 25",
    ],
    "evaluator": [
        f"Raw score: 0.0/3\nFeedback: {HENRY_FEEDBACK}",
        "Score: 3\nFeedback: Correct.",
        "Score: 3\nFeedback: Correct.",
    ],
}

NATALIA_QUESTION = (
    "Natalia sold clips to 48 of her friends in April, and then she sold half"
    " as many clips in May. How many clips did Natalia sell altogether in"
    " April and May?"
)
NATALIA_STEPS = [
    "Natalia sold <<48/2 = 24>> clips in May.",
    "Natalia sold <<48 + 24 = 72>> clips altogether.",
]
NATALIA_ANSWER = "\n".join(NATALIA_STEPS + ["#### 72"])

WENG_QUESTION = (
    "Weng earns $12 an hour for babysitting. Yesterday, she just did 50"
    " minutes of babysitting. How much did she earn?"
)
WENG_STEPS = [
    "Weng earns 12/60 = $<<12/60=0.2>>0.2 per minute.",
    "Working 50 minutes, she earned 0.2 x 50 = $<<0.2*50=10>>10.",
]
WENG_ANSWER = "\n".join(WENG_STEPS + ["#### 10"])


@pytest.fixture
def henry_problem() -> Problem:
    return Problem(id="henry", question=HENRY_QUESTION, gold_answer=CanonicalNumber("25"))


@pytest.fixture
def henry_backend() -> ScriptedBackend:
    return ScriptedBackend(HENRY_SCRIPTS)


class RecordingBackend:
    """Wraps a backend, capturing every prompt it is asked to complete and
    every reply it serves, in order, as ``(role, reply)`` pairs."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts: dict[Role, list[str]] = {role: [] for role in Role}
        self.replies: list = []

    def complete(self, role, prompt, params=None):
        self.prompts[Role(role)].append(prompt)
        reply = self.inner.complete(role, prompt, params)
        self.replies.append((Role(role), reply))
        return reply


def scripted_provider(fixture: dict):
    """Per-problem backend provider over a fixture mapping id -> role scripts."""

    def provider(problem: Problem):
        scripts = fixture[problem.id] if problem.id in fixture else fixture
        backend = ScriptedBackend(scripts)
        return backend, backend

    return provider


def build_bench_case(n: int = 50, n_correct: int = 36):
    """A benchmark set engineered so exactly ``n_correct`` solves are right."""
    problems: list[Problem] = []
    fixture: dict[str, dict[str, list[str]]] = {}
    for i in range(n):
        gold = 10 + i
        predicted = gold if i < n_correct else gold + 1
        problem_id = f"p{i:03d}"
        problems.append(
            Problem(
                id=problem_id,
                question=f"A shelf holds 10 books and gains {i} more during the sale."
                " How many books are on the shelf afterwards?",
                gold_answer=CanonicalNumber(str(gold)),
            )
        )
        fixture[problem_id] = {
            "decomposer": [
                f"STEP: The shelf ends with 10 + {i} = {gold} books.",
                f"FINAL_ANSWER: {predicted}",
            ],
            "evaluator": [
                "Score: 3\nFeedback: Correct and useful.",
                "Score: 3\nFeedback: Correct final answer.",
            ],
        }
    return problems, fixture


def build_sweep_case(count: int = 24):
    """Scripted problems whose full solves cost roughly 300..800 tokens, so
    the 100..600 budget grid truncates some and completes others."""
    problems: list[Problem] = []
    fixture: dict[str, dict[str, list[str]]] = {}
    for i in range(count):
        problem_id = f"s{i:03d}"
        question = "Add the stage amounts and report the total on hand."
        decomposer: list[str] = []
        evaluator: list[str] = []
        for j in range(1 + i % 3):
            a, b = 11 + 7 * i + j, 3 + j
            if j == 0 and i % 2 == 1:
                decomposer.append(f"STEP: Add {a} + {b} = {a + b + 1} now.")
                evaluator.append("Score: 0\nFeedback: Wrong sum; recompute it.")
            decomposer.append(f"STEP: Add {a} + {b} = {a + b} now.")
            evaluator.append("Score: 3\nFeedback: Correct and useful.")
        gold = 100 + i
        decomposer.append(f"FINAL_ANSWER: {gold}")
        evaluator.append("Score: 3\nFeedback: Correct final answer.")
        problems.append(
            Problem(id=problem_id, question=question, gold_answer=CanonicalNumber(str(gold)))
        )
        fixture[problem_id] = {"decomposer": decomposer, "evaluator": evaluator}
    return problems, fixture


def strip_trailing_budget_stop(events):
    if events and events[-1].kind is EventKind.BUDGET_STOP:
        return events[:-1]
    return events


def assert_budget_prefix(smaller_trace, larger_trace):
    """Events under a smaller budget must prefix those under a larger one."""
    smaller = [e.to_dict() for e in strip_trailing_budget_stop(smaller_trace.events)]
    larger = [e.to_dict() for e in larger_trace.events]
    assert larger[: len(smaller)] == smaller
    if smaller_trace.outcome is not Outcome.BUDGET_EXHAUSTED:
        assert [e.to_dict() for e in smaller_trace.events] == larger


def check_cache_soundness(trace, cache_enabled: bool, bad_threshold: int = 1):
    """Replay the trace against a model cache; assert no cached fingerprint
    ever reached the evaluator and every cache rejection was justified."""
    model: dict[str, str] = {}
    for event in trace.events:
        payload = event.payload
        if event.kind is EventKind.EVALUATED and payload.get("synthetic") is None:
            fp = payload["fingerprint"]
            if cache_enabled:
                assert not (fp and fp in model), f"evaluator called for cached {fp!r}"
                # a reply that failed to parse has no score and ends the solve
                if fp and payload["score"] is not None and payload["score"] <= bad_threshold:
                    model.setdefault(fp, "low_score")
        elif event.kind is EventKind.CACHE_REJECTED:
            assert cache_enabled, "cache rejection despite cache disabled"
            fp = payload["fingerprint"]
            assert fp and fp in model, f"unjustified cache rejection for {fp!r}"
            expected = (
                "duplicate_accepted" if model[fp] == "accepted" else "known_bad"
            )
            assert payload["decision"] == expected
        elif event.kind in (EventKind.ACCEPTED, EventKind.FORCED_ACCEPT):
            if cache_enabled and payload["fingerprint"]:
                model.setdefault(payload["fingerprint"], "accepted")
    return model


def assert_budget_discipline(trace, limit: int):
    """No call is issued at or past the limit; overshoot is at most one call."""
    spent = 0
    last_charge = 0
    for event in trace.events:
        if event.tokens_charged > 0:
            assert spent < limit, "agent call issued with budget already exhausted"
            spent += event.tokens_charged
            last_charge = event.tokens_charged
    if spent > limit:
        assert spent - limit < last_charge


def assert_calls_match_events(trace, replies):
    """Every served reply left exactly one event charging its tokens, in
    order, and the trace's spend is the sum of what the backends charged."""
    kinds = {Role.DECOMPOSER: EventKind.GENERATED, Role.EVALUATOR: EventKind.EVALUATED}
    charged = [event for event in trace.events if event.tokens_charged > 0]
    assert [(event.kind, event.payload["raw"], event.tokens_charged) for event in charged] == [
        (kinds[role], reply.raw_text, reply.total_tokens) for role, reply in replies
    ]
    assert trace.tokens_spent == sum(reply.total_tokens for _, reply in replies)
