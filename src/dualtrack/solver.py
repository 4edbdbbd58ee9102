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
calls in two places, the Decomposer's generation and the Evaluator's
scoring, and checks the budget right before each and never mid-call, so
total spend can overshoot the limit by at most the cost of the final call,
and a solve at a smaller budget is the one at a larger budget stopped at its
first check at or above the smaller one (PROTOCOL.md, Budget sweep).
"""

from __future__ import annotations

import json
from bisect import bisect_left
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
# ``EnumClass.MEMBER`` lookup is a descriptor call.
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

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "payload": self.payload,
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

    def events_of(self, kind: EventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind is kind]

    @property
    def evaluator_calls(self) -> int:
        """Real Evaluator calls: evaluated events that are not synthetic."""
        return BudgetCuts(self).totals[1]

    @property
    def tokens_spent(self) -> int:
        return BudgetCuts(self).totals[0]

    def to_dict(self) -> dict:
        trace = self._asdict()
        trace["events"] = [event.to_dict() for event in self.events]
        trace["accepted_steps"] = [
            {**step._asdict(), "kind": step.kind.value} for step in self.accepted_steps
        ]
        trace["final_answer"] = str(self.final_answer) if self.final_answer else None
        trace["outcome"] = self.outcome.value if self.outcome else None
        trace["labels"] = []
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)


class BudgetCuts:
    """The score each budget up to a trace's own gives the same solve, by the
    cut rule of PROTOCOL.md "Budget sweep": one walk notes the spend before
    each budget check, and a budget stops the solve at the first at or above it.

    The walk alone tells agent calls (``generated`` and non-synthetic
    ``evaluated`` events) from the rest and keeps them as ``calls``. It also
    keeps ``totals``, the trace's ``(tokens_spent, evaluator_calls)``, and
    ``fork``, how many ``calls`` the cache-off solve replays from this trace:
    those before the first ``cache_rejected`` event, else all of a trace whose
    last call raised and left no event, else None (the trace is that solve).
    """

    def __init__(self, trace: SolveTrace):
        self._limit: int = trace.config["token_budget"]
        # Per budget check: the spend before it and the Evaluator calls before it.
        self._spends, self._evaluations = spends, evaluations = [], []
        self.calls = calls = []
        spent = evaluator_calls = 0
        fork = None
        for event in trace.events:
            kind = event.kind
            if kind is _GENERATED or (
                    kind is _EVALUATED and event.payload.get("synthetic") is None):
                spends.append(spent)
                evaluations.append(evaluator_calls)
                calls.append(event)
                evaluator_calls += kind is _EVALUATED
            elif fork is None and kind is _CACHE_REJECTED:
                fork = len(calls)
            spent += event.tokens_charged  # 0 unless the event is an agent call
        if trace.outcome is _BACKEND_FAILURE:
            # A last call that raised left no event: the end is one more check.
            last = trace.events[-1] if trace.events else None
            if not (last and last.kind is _EVALUATED and last.payload["score"] is None):
                spends.append(spent)
                evaluations.append(evaluator_calls)
                fork = len(calls) if fork is None else fork
        self.totals, self.fork = (spent, evaluator_calls), fork

    def scores(self, budgets: Sequence[int], whole: tuple) -> list[tuple]:
        """Each budget's score, in order: ``whole`` where the budget lets the
        solve end as it did, else its budget stop's ``(budget_exhausted, False,
        spent, evaluator_calls)``, the shape of ``whole``.

        Raises:
            ValueError: a budget exceeds the budget the trace was solved at.
        """
        if budgets and max(budgets) > self._limit:
            raise ValueError(f"cannot cut a trace solved at {self._limit} at {max(budgets)}")
        spends, evaluations = self._spends, self._evaluations
        checks = len(spends)
        return [whole if (index := bisect_left(spends, budget)) == checks
                else (_BUDGET_EXHAUSTED, False, spends[index], evaluations[index])
                for budget in budgets]


class ReplayBackend:
    """Both roles' backend in the cache-off fork: its i-th call gets the i-th
    recorded agent call's ``raw`` reply, charged at that call's recorded total
    (a trace does not split it into prompt and completion), and every later
    call goes to its role's live backend. ``calls`` are the trunk's, as
    ``BudgetCuts.calls[:fork]`` gives them; up to the fork point the cache-off
    solve makes them in the same order (PROTOCOL.md, Budget sweep). With
    ``relay``, each recorded call is made on its live backend too and that
    reply dropped, so a backend that answers by position (a script) stays in
    step. Single-owner, like ScriptedBackend.
    """

    def __init__(self, calls: Sequence[TraceEvent], decomposer, evaluator, relay: bool = False):
        self._calls, self._served, self._relay = calls, 0, relay
        self._live = {_DECOMPOSER: decomposer, _EVALUATOR: evaluator}

    def complete(self, role: Role, prompt: str, params: DecodeParams | None = None) -> AgentReply:
        served = self._served
        if served == len(self._calls):
            return self._live[role].complete(role, prompt, params)
        if self._relay:  # its reply is the recorded one
            self._live[role].complete(role, prompt, params)
        self._served, event = served + 1, self._calls[served]
        return new_record(AgentReply, (event.payload["raw"], event.tokens_charged, 0))


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
    config, scripts) yield a byte-identical trace. The budget is checked
    right before each of the loop's two agent calls, the Decomposer's
    generation and the Evaluator's scoring; a cache hit or a synthetic
    evaluation makes no call and is not checked. Backend failures end the
    solve with outcome ``backend_failure`` and the partial trace preserved.
    """
    events: list[TraceEvent] = []
    accepted: list[AcceptedStep] = []
    emit, final_answer, error = events.append, None, None
    cache = RejectionCache() if config.cache_enabled else None
    budget, bad_threshold, max_steps = (
        config.token_budget, config.cache_bad_threshold, config.max_steps)
    generate, decomposer_params = decomposer_backend.complete, config.decomposer_params
    evaluate, evaluator_params = evaluator_backend.complete, config.evaluator_params
    # The problem and its accepted steps, one line longer after each accepted step.
    block = render_problem_block(problem.question, ())
    hint: str | None = None
    spent = retries = 0
    while True:
        slot = len(accepted) + 1
        if spent >= budget:
            emit(new_record(TraceEvent, (_BUDGET_STOP, {"spent": spent, "limit": budget}, 0)))
            outcome = _BUDGET_EXHAUSTED
            break
        try:
            reply = generate(_DECOMPOSER, build_decomposer_prompt(block, hint), decomposer_params)
        except BackendError as exc:
            outcome, error = _BACKEND_FAILURE, f"decomposer: {exc}"
            break
        raw, tokens = reply.raw_text, reply.total_tokens
        emit(new_record(TraceEvent, (_GENERATED, {"slot": slot, "attempt": retries, "raw": raw},
                                     tokens)))
        spent += tokens

        # Judge the generation: a synthetic zero if it does not parse, else the
        # cache's rejection or the Evaluator's score.
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
            payload = {"score": 0, "feedback": feedback, "fingerprint": "", "synthetic": synthetic}
            emit(new_record(TraceEvent, (_EVALUATED, payload, 0)))
        elif cache is not None and (hit := cache.check(fp)) is not _MISS:
            score, feedback = 0, REJECTION_FEEDBACK[hit]
            payload = {"decision": hit.value, "fingerprint": fp, "score": 0, "feedback": feedback}
            emit(new_record(TraceEvent, (_CACHE_REJECTED, payload, 0)))
        else:
            if spent >= budget:
                emit(new_record(TraceEvent, (_BUDGET_STOP, {"spent": spent, "limit": budget}, 0)))
                outcome = _BUDGET_EXHAUSTED
                break
            try:
                reply = evaluate(_EVALUATOR, build_evaluator_prompt(block, candidate),
                                 evaluator_params)
            except BackendError as exc:
                outcome, error = _BACKEND_FAILURE, f"evaluator: {exc}"
                break
            verdict, tokens = reply.raw_text, reply.total_tokens
            # score and feedback stay null in the trace if the reply fails to parse
            payload = {"score": None, "feedback": None, "fingerprint": fp, "synthetic": None,
                       "raw": verdict}
            emit(new_record(TraceEvent, (_EVALUATED, payload, tokens)))
            spent += tokens
            try:
                evaluation = parse_evaluation(verdict)
            except ProtocolError as exc:
                outcome, error = _BACKEND_FAILURE, f"evaluator protocol violation: {exc}"
                break
            payload["score"] = score = evaluation.score
            payload["feedback"] = feedback = evaluation.feedback
            if cache is not None and score <= bad_threshold:
                cache.record(fp, _KNOWN_BAD)

        decision = step_decision(score, retries, config)
        if decision is _RETRY:
            retries += 1
            emit(new_record(TraceEvent, (_RETRIED, {"slot": slot, "hint": feedback,
                                                    "retries_used": retries}, 0)))
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
                                     {"index": slot, "kind": kind.value, "text": text,
                                      "fingerprint": fp, "score": score}, 0)))
        hint, retries = None, 0

        if kind is _FINAL:
            final_answer = candidate.answer
            emit(new_record(TraceEvent, (_FINISHED, {"final_answer": str(final_answer)}, 0)))
            outcome = _SOLVED
            break
        if slot >= max_steps:
            emit(new_record(TraceEvent, (_STEP_LIMIT_STOP, {"steps": slot}, 0)))
            outcome = _STEP_LIMIT
            break
        block = extend_problem_block(block, slot, text)
    return new_record(SolveTrace, (problem.id, config.to_dict(), events, accepted, final_answer,
                                   outcome, error))
