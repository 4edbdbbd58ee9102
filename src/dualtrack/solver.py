"""The collaborative Decomposer-Evaluator solve loop.

One solve is a strictly sequential state machine over accepted-step
slots: generate a candidate, screen it against the rejection cache,
evaluate it, then accept, retry with the feedback as a hint, or force
acceptance once the retry limit is reached. The loop terminates on an
accepted FINAL_ANSWER, on token-budget exhaustion, on the step cap, or
on a backend failure, and records every event in a replayable trace.

Budget discipline: every agent call leaves exactly one event
(``generated`` or ``evaluated``) carrying its raw reply and the tokens
it charged, and spend is the sum of those events. The budget is checked
before every agent call and never mid-call, so total spend can overshoot
the limit by at most the cost of the final call, and a solve at a smaller
budget is a prefix of the same solve at a larger one (PROTOCOL.md,
Budget sweep).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import NamedTuple

from .agents import BackendError, DecodeParams, Role
from .cache import REJECTION_FEEDBACK, CacheDecision, RejectionCache, fingerprint
from .protocol import (
    AcceptedStep,
    CanonicalNumber,
    Evaluation,
    MalformedStep,
    Problem,
    ProtocolError,
    StepCandidate,
    StepKind,
    build_decomposer_prompt,
    build_evaluator_prompt,
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


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the solve loop.

    A step is accepted when its score strictly exceeds
    ``accept_threshold``; steps scoring at or below
    ``cache_bad_threshold`` are fingerprint-cached as known-bad. The
    token budget is shared by both agents; 0 means no calls at all.
    """

    token_budget: int
    accept_threshold: int = 1
    max_retries_per_step: int = 3
    max_steps: int = 12
    cache_enabled: bool = True
    cache_bad_threshold: int = 1
    decomposer_params: DecodeParams = DecodeParams()
    evaluator_params: DecodeParams = DecodeParams()

    def __post_init__(self) -> None:
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

    def with_overrides(self, **changes) -> "SolverConfig":
        return replace(self, **changes)

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "decomposer_params": dict(vars(self.decomposer_params)),
            "evaluator_params": dict(vars(self.evaluator_params)),
        }


@dataclass
class TraceEvent:
    kind: EventKind
    payload: dict
    tokens_charged: int = 0

    @property
    def is_agent_call(self) -> bool:
        """Whether this event records an agent call: the Decomposer's
        generation or a real (not synthetic) evaluation."""
        return self.kind is EventKind.GENERATED or (
            self.kind is EventKind.EVALUATED and self.payload.get("synthetic") is None
        )

    def to_dict(self) -> dict:
        return {**vars(self), "kind": self.kind.value}


@dataclass
class SolveTrace:
    """Ordered event log of one solve, serializable for audit and replay.

    ``labels`` is always exported empty; error-category labels are
    assigned by human annotators, never inferred here.
    """

    problem_id: str
    config: dict
    events: list[TraceEvent] = field(default_factory=list)
    accepted_steps: list[AcceptedStep] = field(default_factory=list)
    final_answer: CanonicalNumber | None = None
    outcome: Outcome | None = None
    error: str | None = None
    labels: list[str] = field(default_factory=list)

    def events_of(self, kind: EventKind) -> list[TraceEvent]:
        return [event for event in self.events if event.kind is kind]

    @property
    def evaluator_calls(self) -> int:
        """Real Evaluator calls: evaluated events that are not synthetic."""
        return BudgetCuts(self).totals[1]

    @property
    def tokens_spent(self) -> int:
        return BudgetCuts(self).totals[0]

    def replies(self, end: int | None = None) -> dict[Role, list[tuple[str, int]]]:
        """Each role's recorded ``(raw, tokens_charged)`` replies, in order,
        from the agent-call events before ``end`` (all of them by default)."""
        replies: dict[Role, list[tuple[str, int]]] = {role: [] for role in Role}
        for event in self.events[:end]:
            if event.is_agent_call:
                role = Role.DECOMPOSER if event.kind is EventKind.GENERATED else Role.EVALUATOR
                replies[role].append((event.payload["raw"], event.tokens_charged))
        return replies

    def at_budget(self, budget: int) -> "SolveTrace":
        """The trace the same solve leaves at a budget no larger than this
        one's: the events before the check where ``BudgetCuts`` stops it and a
        budget stop, or the whole trace; its config records ``budget``.

        Raises:
            ValueError: ``budget`` exceeds the budget this trace was solved at.
        """
        cut = BudgetCuts(self).at(budget)
        config = {**self.config, "token_budget": budget}
        if cut is None:
            return replace(self, config=config)
        events = self.events[: cut.end]
        events.append(TraceEvent(EventKind.BUDGET_STOP, {"spent": cut.spent, "limit": budget}))
        accepted = sum(
            event.kind in (EventKind.ACCEPTED, EventKind.FORCED_ACCEPT) for event in events
        )
        return SolveTrace(
            problem_id=self.problem_id,
            config=config,
            events=events,
            accepted_steps=self.accepted_steps[:accepted],
            outcome=Outcome.BUDGET_EXHAUSTED,
        )

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "events": [event.to_dict() for event in self.events],
            "accepted_steps": [
                {**vars(step), "kind": step.kind.value} for step in self.accepted_steps
            ],
            "final_answer": str(self.final_answer) if self.final_answer else None,
            "outcome": self.outcome.value if self.outcome else None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False)


class BudgetCut(NamedTuple):
    """Where a budget stops a solve: before event ``end``, with ``spent``
    tokens charged and ``evaluator_calls`` real Evaluator calls made."""

    end: int
    spent: int
    evaluator_calls: int


class BudgetCuts:
    """Where every budget up to a trace's own stops the same solve, by the
    cut rule of PROTOCOL.md "Budget sweep": one walk notes the spend before
    each budget check, and a budget takes the first at or above it.

    The walk also keeps the trace's ``totals``, its ``(tokens_spent,
    evaluator_calls)``, and ``fork``, the event index where the cache-off
    solve leaves this trace: the first ``cache_rejected`` event, else the end
    of a trace whose last call raised and left no event, else None (the trace
    is the cache-off solve).
    """

    def __init__(self, trace: SolveTrace):
        self._limit: int = trace.config["token_budget"]
        # Per budget check: the spend before it, its event index, the Evaluator calls before it.
        self._spends, self._ends, self._calls = spends, ends, calls = [], [], []
        spent = evaluator_calls = 0
        fork = None
        generated, evaluated, rejected = (  # one lookup each: an Enum member is a descriptor
            EventKind.GENERATED, EventKind.EVALUATED, EventKind.CACHE_REJECTED)
        for index, event in enumerate(trace.events):
            kind = event.kind  # an agent call: TraceEvent.is_agent_call's test, inline
            if kind is generated or (kind is evaluated and event.payload.get("synthetic") is None):
                spends.append(spent)
                ends.append(index)
                calls.append(evaluator_calls)
                evaluator_calls += kind is evaluated
            elif fork is None and kind is rejected:
                fork = index
            spent += event.tokens_charged  # 0 unless the event is an agent call
        end = None
        if trace.outcome is Outcome.BUDGET_EXHAUSTED:
            end = len(trace.events) - 1
        elif trace.outcome is Outcome.BACKEND_FAILURE:
            last = trace.events[-1] if trace.events else None
            if not (last and last.kind is EventKind.EVALUATED and last.payload["score"] is None):
                end = len(trace.events)
                fork = end if fork is None else fork
        if end is not None:
            spends.append(spent)
            ends.append(end)
            calls.append(evaluator_calls)
        self.totals, self.fork = (spent, evaluator_calls), fork

    def at(self, budget: int) -> BudgetCut | None:
        """Where ``budget`` stops the solve, or None if it ends as it did.

        Raises:
            ValueError: ``budget`` exceeds the budget the trace was solved at.
        """
        if budget > self._limit:
            raise ValueError(f"cannot cut a trace solved at {self._limit} at {budget}")
        if (index := bisect_left(self._spends, budget)) < len(self._spends):
            return BudgetCut(self._ends[index], self._spends[index], self._calls[index])
        return None


def step_decision(score: int, retries_so_far: int, config: SolverConfig) -> Decision:
    """Accept above the threshold, retry while retries remain, then force."""
    if score > config.accept_threshold:
        return Decision.ACCEPT
    if retries_so_far < config.max_retries_per_step:
        return Decision.RETRY
    return Decision.FORCED_ACCEPT


class _Stop(Exception):
    """Ends a solve with the outcome (and error) it carries."""

    def __init__(self, outcome: Outcome, error: str | None = None):
        self.outcome, self.error = outcome, error


def solve(
    problem: Problem,
    config: SolverConfig,
    decomposer_backend,
    evaluator_backend,
) -> SolveTrace:
    """Run the full Decomposer-Evaluator loop on one problem.

    Deterministic for deterministic backends: identical (problem,
    config, scripts) yield a byte-identical trace. Backend failures end
    the solve with outcome ``backend_failure`` and the partial trace
    preserved.
    """
    cache = RejectionCache()
    trace = SolveTrace(problem_id=problem.id, config=config.to_dict())
    accepted = trace.accepted_steps
    agents = {
        Role.DECOMPOSER: (decomposer_backend, config.decomposer_params, EventKind.GENERATED),
        Role.EVALUATOR: (evaluator_backend, config.evaluator_params, EventKind.EVALUATED),
    }
    spent = 0

    def emit(kind: EventKind, payload: dict, tokens: int = 0) -> None:
        trace.events.append(TraceEvent(kind, payload, tokens))

    def call(role: Role, prompt: str, payload: dict) -> str:
        """The only way to spend tokens: check the budget, call the agent,
        and record the call as one event carrying its raw reply and cost."""
        nonlocal spent
        if spent >= config.token_budget:
            emit(EventKind.BUDGET_STOP, {"spent": spent, "limit": config.token_budget})
            raise _Stop(Outcome.BUDGET_EXHAUSTED)
        backend, params, kind = agents[role]
        try:
            reply = backend.complete(role, prompt, params)
        except BackendError as exc:
            raise _Stop(Outcome.BACKEND_FAILURE, f"{role.value}: {exc}")
        payload["raw"] = reply.raw_text
        emit(kind, payload, reply.total_tokens)
        spent += reply.total_tokens
        return reply.raw_text

    def synthetic(feedback: str, kind: str) -> Evaluation:
        emit(
            EventKind.EVALUATED,
            {"score": 0, "feedback": feedback, "fingerprint": "", "synthetic": kind},
        )
        return Evaluation(0, feedback)

    def judge(raw: str, block: str) -> tuple[StepCandidate | None, str, Evaluation]:
        """Score a generation: parse it, screen it against the cache, or
        have the Evaluator score it. Returns no candidate if unparseable."""
        try:
            candidate = parse_agent_step(raw)
        except MalformedStep:
            return None, "", synthetic(MALFORMED_STEP_FEEDBACK, "malformed_step")
        if candidate.kind is StepKind.FINAL and candidate.answer is None:
            return None, "", synthetic(UNPARSEABLE_FINAL_FEEDBACK, "unparseable_final")

        fp = fingerprint(candidate.text)
        cache_hit = cache.check(fp) if config.cache_enabled else CacheDecision.MISS
        if cache_hit is not CacheDecision.MISS:
            evaluation = Evaluation(0, REJECTION_FEEDBACK[cache_hit])
            emit(
                EventKind.CACHE_REJECTED,
                {"decision": cache_hit.value, "fingerprint": fp,
                 "score": evaluation.score, "feedback": evaluation.feedback},
            )
            return candidate, fp, evaluation

        # score and feedback stay null in the trace if the reply fails to parse
        payload = {"score": None, "feedback": None, "fingerprint": fp, "synthetic": None}
        raw = call(Role.EVALUATOR, build_evaluator_prompt(block, candidate), payload)
        try:
            evaluation = parse_evaluation(raw)
        except ProtocolError as exc:
            raise _Stop(Outcome.BACKEND_FAILURE, f"evaluator protocol violation: {exc}")
        payload.update(score=evaluation.score, feedback=evaluation.feedback)
        if config.cache_enabled and evaluation.score <= config.cache_bad_threshold:
            cache.record(fp, CacheDecision.KNOWN_BAD)
        return candidate, fp, evaluation

    # The problem and its accepted steps, rendered again only when a step is accepted.
    block = render_problem_block(problem.question, ())
    hint: str | None = None
    retries = 0
    try:
        while True:
            slot = len(accepted) + 1
            raw = call(
                Role.DECOMPOSER,
                build_decomposer_prompt(block, hint),
                {"slot": slot, "attempt": retries},
            )
            candidate, fp, evaluation = judge(raw, block)

            decision = step_decision(evaluation.score, retries, config)
            if decision is Decision.RETRY:
                retries += 1
                emit(
                    EventKind.RETRIED,
                    {"slot": slot, "hint": evaluation.feedback, "retries_used": retries},
                )
                hint = evaluation.feedback or None
                continue

            forced = decision is Decision.FORCED_ACCEPT
            if candidate is None:
                # Force-accepting an unparseable generation: keep the raw text as a
                # degraded intermediate step so the slot can terminate.
                text = raw.strip() or "(unparseable output)"
                candidate = StepCandidate(kind=StepKind.INTERMEDIATE, text=text)
                fp = fingerprint(text)
            step = AcceptedStep(slot, candidate.kind, candidate.text, fp, evaluation.score, forced)
            accepted.append(step)
            if config.cache_enabled:
                cache.record(fp, CacheDecision.DUPLICATE_ACCEPTED)
            emit(
                EventKind.FORCED_ACCEPT if forced else EventKind.ACCEPTED,
                {"index": step.index, "kind": step.kind.value, "text": step.text,
                 "fingerprint": step.fingerprint, "score": step.score},
            )
            hint = None
            retries = 0

            if step.kind is StepKind.FINAL:
                trace.final_answer = candidate.answer
                emit(EventKind.FINISHED, {"final_answer": str(trace.final_answer)})
                raise _Stop(Outcome.SOLVED)
            if len(accepted) >= config.max_steps:
                emit(EventKind.STEP_LIMIT_STOP, {"steps": len(accepted)})
                raise _Stop(Outcome.STEP_LIMIT)
            block = render_problem_block(problem.question, [step.text for step in accepted])
    except _Stop as stop:
        trace.outcome = stop.outcome
        trace.error = stop.error
    return trace
