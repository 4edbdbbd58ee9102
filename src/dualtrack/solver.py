"""The collaborative Decomposer-Evaluator solve loop.

One solve is a strictly sequential state machine over accepted-step
slots: generate a candidate, screen it against the rejection cache,
evaluate it, then accept, retry with the feedback as a hint, or force
acceptance once the retry limit is reached. The loop terminates on an
accepted FINAL_ANSWER, on token-budget exhaustion, on the step cap, or
on a backend failure, and records every event in a replayable trace.

Budget discipline: every agent call leaves exactly one event
(``generated`` or ``evaluated``) carrying its raw reply and the tokens
it charged, and spend is the sum of those events. The loop makes agent
calls at one site, one call a pass (the Evaluator's if a screened step awaits
it, else the Decomposer's), and checks the budget right before it and never
mid-call, so total spend can overshoot the limit by at most the cost of the
final call, and a solve at a smaller budget is the one at a larger budget
stopped at its first check at or above the smaller one (PROTOCOL.md, Budget sweep).

Each such event also keeps, in memory, the call itself as ``(role, prompt,
params, reply)``: the requests and replies a sweep's cache-off fork looks up
in ``ReplayBackend``; the trace's ``BudgetCuts`` is the loop's own record of
each check it passed and of the fork point. No trace file holds either.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import defaultdict
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Sequence

from .agents import AgentReply, BackendError, DecodeParams, Role
from .cache import REJECTION_FEEDBACK, CacheDecision, RejectionCache, fingerprint
from .protocol import (
    AcceptedStep,
    CanonicalNumber,
    MalformedStep,
    Problem,
    ProtocolError,
    StepKind,
    build_decomposer_prompt,
    build_evaluator_prompt,
    extend_problem_block,
    make_checked,
    new_record,
    parse_agent_step,
    parse_evaluation,
    render_problem_block,
)

MALFORMED_STEP_FEEDBACK = "emit exactly one STEP: or FINAL_ANSWER: line"
UNPARSEABLE_FINAL_FEEDBACK = (
    "the FINAL_ANSWER line must contain the numeric answer; "
    "emit exactly one STEP: or FINAL_ANSWER: line"
)


class Outcome(str, Enum):
    SOLVED = "solved"
    BUDGET_EXHAUSTED = "budget_exhausted"
    STEP_LIMIT = "step_limit"
    BACKEND_FAILURE = "backend_failure"


class EventKind(str, Enum):
    GENERATED = "generated"
    CACHE_REJECTED = "cache_rejected"
    EVALUATED = "evaluated"
    ACCEPTED = "accepted"
    RETRIED = "retried"
    FORCED_ACCEPT = "forced_accept"
    BUDGET_STOP = "budget_stop"
    STEP_LIMIT_STOP = "step_limit_stop"
    FINISHED = "finished"


class Decision(str, Enum):
    ACCEPT = "accept"
    RETRY = "retry"
    FORCED_ACCEPT = "forced_accept"


# The members the solve loop uses, bound once: on Python 3.11 every
# ``EnumClass.MEMBER`` lookup is a descriptor call, as is ``member.value``, so
# the loop and the serializers read a member's string as ``member._value_``.
_SOLVED, _STEP_LIMIT = Outcome.SOLVED, Outcome.STEP_LIMIT
_BUDGET_EXHAUSTED, _BACKEND_FAILURE = Outcome.BUDGET_EXHAUSTED, Outcome.BACKEND_FAILURE
_GENERATED, _EVALUATED, _CACHE_REJECTED = (
    EventKind.GENERATED, EventKind.EVALUATED, EventKind.CACHE_REJECTED)
_ACCEPTED, _FORCED_ACCEPT, _RETRIED = (
    EventKind.ACCEPTED, EventKind.FORCED_ACCEPT, EventKind.RETRIED)
_BUDGET_STOP, _STEP_LIMIT_STOP, _FINISHED = (
    EventKind.BUDGET_STOP, EventKind.STEP_LIMIT_STOP, EventKind.FINISHED)
_ACCEPT, _RETRY, _FORCE = Decision.ACCEPT, Decision.RETRY, Decision.FORCED_ACCEPT
_DECOMPOSER, _EVALUATOR = Role.DECOMPOSER, Role.EVALUATOR
_INTERMEDIATE, _FINAL = StepKind.INTERMEDIATE, StepKind.FINAL
_MISS, _DUPLICATE_ACCEPTED, _KNOWN_BAD = (
    CacheDecision.MISS, CacheDecision.DUPLICATE_ACCEPTED, CacheDecision.KNOWN_BAD)


class _SolverConfigFields(NamedTuple):
    token_budget: int
    accept_threshold: int = 1
    max_retries_per_step: int = 3
    max_steps: int = 12
    cache_enabled: bool = True
    cache_bad_threshold: int = 1
    decomposer_params: DecodeParams = DecodeParams()
    evaluator_params: DecodeParams = DecodeParams()


class SolverConfig(_SolverConfigFields):
    """Knobs of the solve loop.

    A step is accepted when its score strictly exceeds
    ``accept_threshold``; steps scoring at or below
    ``cache_bad_threshold`` are fingerprint-cached as known-bad. The
    token budget is shared by both agents; 0 means no calls at all.
    """

    _make = classmethod(make_checked)

    def __new__(cls, *args, **kwargs) -> "SolverConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.token_budget < 0:
            raise ValueError("token_budget must be non-negative")
        if not 0 <= self.accept_threshold <= 3:
            raise ValueError("accept_threshold must be within 0..3")
        if self.cache_bad_threshold > self.accept_threshold:
            raise ValueError("cache_bad_threshold must not exceed accept_threshold")
        if self.max_retries_per_step < 1:
            raise ValueError("max_retries_per_step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")
        return self

    # Read-only as with ``__slots__ = ()``, which would leave ``_rendered`` no instance dict.
    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot set {name!r}: SolverConfig is read-only")

    def with_overrides(self, **changes) -> "SolverConfig":
        return self._replace(**changes)

    def to_dict(self) -> dict:
        """The fields as a dict of its own, each role's params too: ``_rendered`` copied."""
        config = self._rendered.copy()
        config["decomposer_params"] = config["decomposer_params"].copy()
        config["evaluator_params"] = config["evaluator_params"].copy()
        return config

    @cached_property
    def _rendered(self) -> dict:
        return {**self._asdict(), "decomposer_params": self.decomposer_params._asdict(),
                "evaluator_params": self.evaluator_params._asdict()}


class TraceEvent(NamedTuple):
    kind: EventKind
    payload: dict
    tokens_charged: int = 0
    call: tuple | None = None  # an agent call's (role, prompt, params, reply); never written

    def to_dict(self) -> dict:
        return {"kind": self.kind._value_, "payload": self.payload,
                "tokens_charged": self.tokens_charged}


class SolveTrace(NamedTuple):
    """Ordered event log of one solve, serializable for audit and replay.

    ``solve`` builds it once, when the solve ends. The trace file's
    ``labels`` is always written empty; error-category labels are assigned
    by human annotators, never inferred here.
    """

    problem_id: str
    config: dict
    events: Sequence[TraceEvent] = ()
    accepted_steps: Sequence[AcceptedStep] = ()
    final_answer: CanonicalNumber | None = None
    outcome: Outcome | None = None
    error: str | None = None
    cuts: BudgetCuts | None = None  # the loop's own record of its budget checks; never written

    def events_of(self, kind: EventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind is kind]

    # A trace that ``solve`` did not return (one built by hand or read from a
    # file) has no ``cuts``: its totals are summed from its events.
    @property
    def evaluator_calls(self) -> int:
        """Real Evaluator calls: evaluated events that are not synthetic."""
        if self.cuts is None:
            return sum(event.kind is _EVALUATED and event.payload.get("synthetic") is None
                       for event in self.events)
        return self.cuts.totals[1]

    @property
    def tokens_spent(self) -> int:
        if self.cuts is None:
            return sum(event.tokens_charged for event in self.events)
        return self.cuts.totals[0]

    def to_dict(self) -> dict:
        trace = self._asdict()
        del trace["cuts"]
        trace["events"] = [event.to_dict() for event in self.events]
        trace["accepted_steps"] = [
            {**step._asdict(), "kind": step.kind._value_} for step in self.accepted_steps
        ]
        trace["final_answer"] = str(self.final_answer) if self.final_answer else None
        trace["outcome"] = self.outcome._value_ if self.outcome else None
        trace["labels"] = []
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)


class BudgetCuts(NamedTuple):
    """The budget checks one solve's loop passed, and the score each budget up
    to its own gives that solve by the cut rule of PROTOCOL.md "Budget sweep":
    a budget stops the solve at the first check whose spend is at or above it.

    ``checks``: ``(spend, evaluator_calls)`` before each check passed, one whose
    call raised included. ``totals``: the solve's ``(tokens_spent,
    evaluator_calls)``. ``fork``, the cache-off fork point: the position of the
    first ``cache_rejected`` event, else the end if a call raised, else None.
    """

    limit: int
    checks: list[tuple[int, int]]
    totals: tuple[int, int]
    fork: int | None

    def scores(self, budgets: Sequence[int], whole: tuple) -> list[tuple]:
        """Each budget's score, in order: ``whole`` where the budget lets the
        solve end as it did, else its budget stop's ``(budget_exhausted, False,
        spent, evaluator_calls)``, the shape of ``whole``.

        Raises:
            ValueError: a budget exceeds the budget the trace was solved at.
        """
        if budgets and max(budgets) > self.limit:
            raise ValueError(f"cannot cut a trace solved at {self.limit} at {max(budgets)}")
        checks, count = self.checks, len(self.checks)
        # (budget,) sorts before every check whose spend is the budget.
        return [whole if (index := bisect_left(checks, (budget,))) == count
                else (_BUDGET_EXHAUSTED, False, *checks[index]) for budget in budgets]


class ReplayBackend:
    """Both roles' backend in the cache-off fork, over the calls a trunk's
    events keep: the n-th time the fork makes a request ``(role, prompt,
    params)`` it gets the reply the events hold for the trunk's n-th such
    request, if they hold one, and every other call goes to its role's live
    backend (PROTOCOL.md, Budget sweep). With ``relay``, a call served from
    the events is made on its live backend too and that reply dropped, so a
    backend that answers by position (a script) stays in step. A provider's
    fork replays, not solves afresh: a trunk reused only where the cache never
    fired biases a sampled cache-off column (PROTOCOL.md, Budget sweep).
    Single-owner, like ScriptedBackend.
    """

    def __init__(self, events: Sequence[TraceEvent], decomposer, evaluator, relay: bool = False):
        # Each request's logged replies, in call order; serving one pops it.
        self._replies = replies = defaultdict(list)
        for event in events:
            if (call := event.call) is not None:
                replies[call[:3]].append(call[3])
        self._live, self._relay = {_DECOMPOSER: decomposer, _EVALUATOR: evaluator}, relay

    def complete(self, role: Role, prompt: str, params: DecodeParams | None = None) -> AgentReply:
        logged = self._replies.get((role, prompt, params))
        if not logged:
            return self._live[role].complete(role, prompt, params)
        if self._relay:  # its reply is the logged one
            self._live[role].complete(role, prompt, params)
        return logged.pop(0)


def step_decision(score: int, retries_so_far: int, config: SolverConfig) -> Decision:
    """Accept above the threshold, retry while retries remain, then force."""
    if score > config.accept_threshold:
        return _ACCEPT
    if retries_so_far < config.max_retries_per_step:
        return _RETRY
    return _FORCE


def solve(
    problem: Problem,
    config: SolverConfig,
    decomposer_backend,
    evaluator_backend,
) -> SolveTrace:
    """Run the full Decomposer-Evaluator loop on one problem.

    Deterministic for deterministic backends: identical (problem,
    config, scripts) yield a byte-identical trace. Each pass of the loop makes
    at most one agent call, at one site, the Decomposer's generation or the
    Evaluator's scoring, and the budget is checked right before it; a cache hit
    or a synthetic evaluation makes no call and is not checked. Backend
    failures end the solve with outcome ``backend_failure`` and the partial
    trace preserved.
    Each call that returns leaves its ``(role, prompt, params, reply)`` as its
    event's ``call``, and the trace's ``cuts`` records each budget check passed.
    """
    events: list[TraceEvent] = []
    accepted: list[AcceptedStep] = []
    checks: list[tuple[int, int]] = []  # (spend, Evaluator calls) before each check that passed
    emit, check, final_answer, error, fork = events.append, checks.append, None, None, None
    cache = RejectionCache() if config.cache_enabled else None
    budget, bad_threshold, max_steps = (
        config.token_budget, config.cache_bad_threshold, config.max_steps)
    decomposer = (_DECOMPOSER, _GENERATED, decomposer_backend.complete, config.decomposer_params)
    evaluator = (_EVALUATOR, _EVALUATED, evaluator_backend.complete, config.evaluator_params)
    # The problem and its accepted steps, one line longer after each accepted step.
    block = render_problem_block(problem.question, ())
    hint: str | None = None
    spent = retries = evaluator_calls = 0
    screened = False  # whether a parsed step passed the cache screen and awaits its score
    while True:
        slot = len(accepted) + 1
        if spent >= budget:
            emit(new_record(TraceEvent, (_BUDGET_STOP, {"spent": spent, "limit": budget}, 0,
                                         None)))
            outcome = _BUDGET_EXHAUSTED
            break
        check((spent, evaluator_calls))
        # This pass's one agent call: the Evaluator's if a step awaits it, else the Decomposer's.
        if screened:
            role, kind, complete, params = evaluator
            payload = {"score": None, "feedback": None, "fingerprint": fp, "synthetic": None}
            prompt = build_evaluator_prompt(block, candidate)
        else:
            role, kind, complete, params = decomposer
            payload = {"slot": slot, "attempt": retries}
            prompt = build_decomposer_prompt(block, hint)
        try:
            reply = complete(role, prompt, params)
        except BackendError as exc:
            outcome, error, fork = _BACKEND_FAILURE, f"{role._value_}: {exc}", fork or len(events)
            break
        payload["raw"] = raw = reply.raw_text
        tokens = reply.total_tokens
        emit(new_record(TraceEvent, (kind, payload, tokens, (role, prompt, params, reply))))
        spent += tokens

        if screened:
            # score and feedback stay null in the trace if the reply fails to parse
            screened, evaluator_calls = False, evaluator_calls + 1
            try:
                evaluation = parse_evaluation(raw)
            except ProtocolError as exc:
                outcome, error = _BACKEND_FAILURE, f"evaluator protocol violation: {exc}"
                break
            payload["score"] = score = evaluation.score
            payload["feedback"] = feedback = evaluation.feedback
            if cache is not None and score <= bad_threshold:
                cache.record(fp, _KNOWN_BAD)
        else:
            # Judge the generation: a synthetic zero if it does not parse, else
            # the cache's rejection, else wait for the Evaluator's score.
            try:
                candidate, synthetic = parse_agent_step(raw), None
                if candidate.kind is _FINAL and candidate.answer is None:
                    synthetic, feedback = "unparseable_final", UNPARSEABLE_FINAL_FEEDBACK
                else:
                    fp = fingerprint(candidate.text)
            except MalformedStep:
                synthetic, feedback = "malformed_step", MALFORMED_STEP_FEEDBACK
            if synthetic is not None:
                candidate, fp, score = None, "", 0
                payload = {"score": 0, "feedback": feedback, "fingerprint": "",
                           "synthetic": synthetic}
                emit(new_record(TraceEvent, (_EVALUATED, payload, 0, None)))
            elif cache is not None and (hit := cache.check(fp)) is not _MISS:
                score, feedback, fork = 0, REJECTION_FEEDBACK[hit], fork or len(events)  # never 0
                payload = {"decision": hit._value_, "fingerprint": fp, "score": 0,
                           "feedback": feedback}
                emit(new_record(TraceEvent, (_CACHE_REJECTED, payload, 0, None)))
            else:
                screened = True
                continue

        decision = step_decision(score, retries, config)
        if decision is _RETRY:
            retries += 1
            emit(new_record(TraceEvent, (_RETRIED, {"slot": slot, "hint": feedback,
                                                    "retries_used": retries}, 0, None)))
            hint = feedback or None
            continue

        forced = decision is _FORCE
        if candidate is None:
            # Force-accepting an unparseable generation: keep the raw text as a
            # degraded intermediate step so the slot can terminate.
            kind, text = _INTERMEDIATE, raw.strip() or "(unparseable output)"
            fp = fingerprint(text)
        else:
            kind, text = candidate.kind, candidate.text
        accepted.append(new_record(AcceptedStep, (slot, kind, text, fp, score, forced)))
        if cache is not None:
            cache.record(fp, _DUPLICATE_ACCEPTED)
        emit(new_record(TraceEvent, (_FORCED_ACCEPT if forced else _ACCEPTED,
                                     {"index": slot, "kind": kind._value_, "text": text,
                                      "fingerprint": fp, "score": score}, 0, None)))
        hint, retries = None, 0

        if kind is _FINAL:
            final_answer = candidate.answer
            emit(new_record(TraceEvent, (_FINISHED, {"final_answer": str(final_answer)}, 0, None)))
            outcome = _SOLVED
            break
        if slot >= max_steps:
            emit(new_record(TraceEvent, (_STEP_LIMIT_STOP, {"steps": slot}, 0, None)))
            outcome = _STEP_LIMIT
            break
        block = extend_problem_block(block, slot, text)
    cuts = new_record(BudgetCuts, (budget, checks, (spent, evaluator_calls), fork))
    return new_record(SolveTrace, (problem.id, config.to_dict(), events, accepted, final_answer,
                                   outcome, error, cuts))
