"""Shared fixtures: canonical trajectories, scripted problem sets, oracles."""

from __future__ import annotations

import json
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from dualtrack import (
    CanonicalNumber,
    EventKind,
    HTTPBackend,
    Outcome,
    Problem,
    Role,
    ScriptedBackend,
)

# A token budget above the spend of every solve in these tests.
BIG_BUDGET = 1_000_000

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
    """Wraps a backend, capturing every call it is asked to make, in order,
    as ``(role, prompt)`` attempts (and each role's prompts), and every reply
    it serves, in order, as ``(role, reply)`` pairs. Other attributes, such
    as a script's ``calls``, are the wrapped backend's."""

    def __init__(self, inner):
        self.inner = inner
        self.prompts: dict[Role, list[str]] = {role: [] for role in Role}
        self.attempts: list = []
        self.replies: list = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def complete(self, role, prompt, params=None):
        self.prompts[Role(role)].append(prompt)
        self.attempts.append((Role(role), prompt))
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


def random_scripts(rng: random.Random) -> dict:
    """Role scripts of 4..10 steps and a final answer, some steps restating
    an earlier computation, with random Evaluator scores."""
    decomposer: list[str] = []
    expressions: list[str] = []
    for _ in range(rng.randint(4, 10)):
        if expressions and rng.random() < 0.4:
            expression = rng.choice(expressions)
            decomposer.append(
                rng.choice(
                    [
                        f"STEP: Note again that {expression} settles the count.",
                        f"STEP: As computed, {expression} still holds.",
                        f"STEP: Recall {expression} from before.",
                    ]
                )
            )
        else:
            a, b = rng.randint(1, 400), rng.randint(1, 400)
            expression = f"{a} + {b} = {a + b}"
            expressions.append(expression)
            decomposer.append(f"STEP: Compute {expression} for this stage.")
    decomposer.append(f"FINAL_ANSWER: {rng.randint(1, 999)}")
    evaluator = [
        f"Score: {rng.choice([0, 1, 2, 3, 3, 3])}\nFeedback: noted"
        for _ in decomposer
    ]
    return {"decomposer": decomposer, "evaluator": evaluator}


MALFORMED_STEPS = ["STEP:", "FINAL_ANSWER: about a dozen", "I think it is near 40."]
MALFORMED_SCORES = ["Score: 7\nFeedback: x", "Looks right to me.", "Score: high\nFeedback: x"]


def with_malformed(scripts: dict, rng: random.Random) -> dict:
    """Random scripts with malformed replies spliced into both roles: steps
    the solver scores itself, and Evaluator replies that end the solve."""
    decomposer: list[str] = []
    for reply in scripts["decomposer"]:
        if rng.random() < 0.2:
            decomposer.append(rng.choice(MALFORMED_STEPS))
        decomposer.append(reply)
    evaluator = [
        rng.choice(MALFORMED_SCORES) if rng.random() < 0.1 else reply
        for reply in scripts["evaluator"]
    ]
    return {"decomposer": decomposer, "evaluator": evaluator}


def build_random_case(rng: random.Random, count: int):
    """Problems over random scripts with malformed replies, a third of them
    cut short so that a solve can run out of replies mid-run. About half
    the gold answers match the scripted final answer."""
    problems: list[Problem] = []
    fixture: dict[str, dict[str, list[str]]] = {}
    for i in range(count):
        scripts = with_malformed(random_scripts(rng), rng)
        if rng.random() < 1 / 3:
            role = rng.choice(["decomposer", "evaluator"])
            scripts[role] = scripts[role][: rng.randint(1, len(scripts[role]))]
        answer = scripts["decomposer"][-1].rpartition(" ")[2]
        gold = answer if answer.isdigit() and rng.random() < 0.5 else "0"
        problem_id = f"r{i:03d}"
        problems.append(Problem(id=problem_id, question="Count it all up?",
                                gold_answer=CanonicalNumber(gold)))
        fixture[problem_id] = scripts
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


def chat_payload(content, usage=None):
    payload = {"choices": [{"message": {"content": content}}]}
    if usage is not None:
        payload["usage"] = usage
    return payload


def chat_ok(content, usage=None):
    return 200, json.dumps(chat_payload(content, usage)).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    """Records the request, then plays the server's next action: ``(status,
    body bytes)`` or ``(status, body bytes, extra headers)`` sent with one
    ``write``, ``"close"`` (no response) or ``"stall"`` (no response for 1 s)."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002
        pass

    def do_POST(self):  # noqa: N802
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        server = self.server
        with server.lock:
            server.requests.append((self.headers, body))
            action = server.actions[min(server.received, len(server.actions)) - 1]
        if action in ("close", "stall"):
            if action == "stall":
                server.released.wait(1.0)
            self.close_connection = True
            return
        status, body, *extra = action
        headers = {"Content-Type": "application/json", "Content-Length": len(body),
                   **(extra[0] if extra else {})}
        head = (
            f"HTTP/1.1 {status} Status\r\n"
            + "".join(f"{name}: {value}\r\n" for name, value in headers.items())
            + "\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)


class LocalEndpoint(ThreadingHTTPServer):
    """A chat-completions endpoint on 127.0.0.1; the last action repeats.
    ``requests`` holds each request's headers and JSON body, in arrival order."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.released = threading.Event()
        self.requests: list = []
        self.actions: list = []

    @property
    def received(self) -> int:
        return len(self.requests)

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server_address[1]}"

    def backend(self, *actions, timeout: float = 5.0) -> HTTPBackend:
        self.actions = list(actions)
        return HTTPBackend(
            base_url=self.url,
            models={Role.DECOMPOSER: "decomposer-8b", Role.EVALUATOR: "evaluator-8b"},
            timeout=timeout,
        )


@pytest.fixture
def endpoint():
    server = LocalEndpoint()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.released.set()
    server.shutdown()
    server.server_close()
