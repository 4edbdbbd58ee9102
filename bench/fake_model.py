"""Seeded problem plans and the fake model that plays both agents.

A plan fixes, for every problem, the reply the Decomposer gives at each
attempt of each step slot and the verdict the Evaluator gives each
candidate. The fake model's reply is a pure function of the role and
the prompt: it reads the question, the number of accepted steps and the
latest hint (or the candidate line) out of the prompt and looks the
answer up in the plan. So it stays consistent under every token budget,
both cache settings and both transports, and it never runs out.

Trajectory kinds of one step slot (the last slot of a problem is its
``FINAL_ANSWER:`` slot):

* ``clean``: the first candidate is good.
* ``retry``: a wrong step scored low with a hint, then the fix.
* ``duplicate``: a restatement of the previous accepted step (a cache
  duplicate hit when the cache is on), then the fix.
* ``known_bad``: a wrong step, then the same wrong math rephrased (a
  cache known-bad hit when the cache is on), then the fix.
* ``malformed``: (intermediate) a reply with no ``STEP:`` line, then
  the fix.
* ``forced``: (intermediate) four weak steps scored 1; the last is
  force-accepted, and the problem ends with a wrong answer.
* ``unparseable``: (final) a ``FINAL_ANSWER:`` with no number, then the
  answer.
"""

from __future__ import annotations

import random

from dualtrack.agents import AgentReply, Role, estimate_tokens
from dualtrack.cache import DUPLICATE_FEEDBACK, KNOWN_BAD_FEEDBACK
from dualtrack.protocol import FINAL_ANSWER_PREFIX, HINT_PREFIX, PROBLEM_PREFIX, STEP_PREFIX
from dualtrack.solver import MALFORMED_STEP_FEEDBACK, UNPARSEABLE_FINAL_FEEDBACK

CANDIDATE_HEADER = "Candidate step:"

# Each workload cycles through its shapes in equal numbers, so the mix of
# trajectory kinds, and with it the calls per problem, is the same for every
# seed; the seed changes names, numbers, wording and order.
BENCH_SHAPES = (
    ("clean", "clean", "clean"),
    ("retry", "clean", "clean"),
    ("clean", "duplicate", "clean"),
    ("known_bad", "clean", "clean"),
    ("malformed", "clean", "unparseable"),
    ("forced", "clean"),
    ("clean", "clean", "retry"),
    ("known_bad", "duplicate", "clean"),
)
# Short problems for the 100..600 budget grid: one-slot solves fit every
# budget, two slots need about 300, a cache hit saves the Evaluator call that
# decides whether ``known_bad``/``duplicate`` fit at 400-500, and ``forced``
# never fits.
SWEEP_SHAPES = (
    ("clean",),
    ("unparseable",),
    ("clean", "clean"),
    ("malformed", "clean"),
    ("retry", "clean"),
    ("known_bad",),
    ("clean", "duplicate"),
    ("known_bad", "clean"),
    ("forced", "clean"),
)
KINDS = ("clean", "retry", "duplicate", "known_bad", "malformed", "forced", "unparseable")

NAMES = ("Ava", "Ben", "Cora", "Dev", "Emil", "Fay", "Gus", "Hana", "Ivo", "Jun",
         "Kai", "Lena", "Milo", "Nia", "Omar", "Pia", "Quin", "Rosa", "Sami", "Tess")
OBJECTS = ("pens", "apples", "stamps", "marbles", "coins", "books", "shells",
           "cards", "beads", "tickets")
OPS = ("+", "-", "*")
PREAMBLES = ("", "", "", "Let me work on the next part.\n", "Continuing from here.\n")


def _apply(op: str, a: int, b: int) -> int:
    return a + b if op == "+" else a - b if op == "-" else a * b


def _sentence(op: str, x: int, name: str, obj: str) -> str:
    if op == "+":
        return f"Then {name} gets {x} more {obj}."
    if op == "-":
        return f"Then {name} gives away {x} {obj}."
    return f"Then the number of {obj} is multiplied by {x}."


def make_plan(rng: random.Random, problem_id: str, case: int, shape: tuple) -> dict:
    """Draw one problem and the trajectory of every step slot in ``shape``.

    The last slot of a shape is the ``FINAL_ANSWER:`` slot.
    """
    name, obj = rng.choice(NAMES), rng.choice(OBJECTS)
    value = truth = rng.randint(6, 40)
    sentences = [f"In case {case}, {name} has {value} {obj}."]
    used: set[int] = {value}
    slots = []
    previous_math = ""

    def wrong(right: int) -> int:
        bad = right + rng.randint(1, 9)
        while bad in used:
            bad += 1
        used.add(bad)
        return bad

    def attempt(body: str, verdict: dict | None = None, synthetic: str | None = None,
                cache_hit: str | None = None) -> dict:
        wire = None if synthetic else body
        return {"reply": rng.choice(PREAMBLES) + body, "wire": wire, "verdict": verdict,
                "synthetic": synthetic, "cache_hit": cache_hit}

    def verdict(score: int, feedback: str) -> dict:
        return {"score": score, "feedback": feedback,
                "format": rng.choice(("score", "score", "raw", "raw_decimal"))}

    for slot, kind in enumerate(shape, start=1):
        if slot < len(shape):
            op = rng.choice(OPS)
            x = rng.randint(2, 5) if op == "*" else rng.randint(2, 30)
            if op == "-" and x >= value:
                op = "+"
            new = _apply(op, value, x)
            while new in used:
                x += 1
                new = _apply(op, value, x)
            used.add(new)
            sentences.append(_sentence(op, x, name, obj))
            math = f"{value} {op} {x}"
            truth = _apply(op, truth, x)

            def line(result: int) -> str:
                return f"{STEP_PREFIX} {name} now has {math} = {result} {obj}."

            def rephrase(result: int) -> str:
                return f"{STEP_PREFIX} So {math} = {result}, which gives the {obj}."

            repeat = f"{STEP_PREFIX} Again, {previous_math} {obj}."
            good = line(new)
        else:
            new = value
            math = "the answer"

            def line(result: int) -> str:
                return f"{FINAL_ANSWER_PREFIX} {result}"

            def rephrase(result: int) -> str:
                return f"{FINAL_ANSWER_PREFIX} {result} {obj}"

            repeat = f"{FINAL_ANSWER_PREFIX} {previous_math}"
            good = f"{FINAL_ANSWER_PREFIX} " + rng.choice(
                (str(new), str(new), f"{new} {obj}", f"${new}"))

        attempts: list[dict] = []
        after: dict[str, int] = {}
        if kind == "retry":
            bad = wrong(new)
            feedback = f"Recheck step {slot}: {math} is not {bad}."
            attempts.append(attempt(line(bad), verdict(rng.choice((0, 1)), feedback)))
            after[feedback] = 1
        elif kind == "duplicate":
            feedback = f"Step {slot} repeats the previous step; compute something new."
            attempts.append(attempt(repeat, verdict(0, feedback), cache_hit="duplicate_accepted"))
            after[feedback] = after[DUPLICATE_FEEDBACK] = 1
        elif kind == "known_bad":
            bad = wrong(new)
            first = f"Step {slot} is wrong: {math} is not {bad}."
            second = f"Step {slot} is still wrong: {math} is never {bad}."
            attempts.append(attempt(line(bad), verdict(0, first)))
            attempts.append(attempt(rephrase(bad), verdict(0, second), cache_hit="known_bad"))
            after[first] = 1
            after[second] = after[KNOWN_BAD_FEEDBACK] = 2
        elif kind == "malformed":
            attempts.append(attempt(f"I think {name} should work on {obj} next.",
                                    synthetic="malformed_step"))
            after[MALFORMED_STEP_FEEDBACK] = 1
        elif kind == "unparseable":
            attempts.append(attempt(f"{FINAL_ANSWER_PREFIX} the number of {obj} left",
                                    synthetic="unparseable_final"))
            after[UNPARSEABLE_FINAL_FEEDBACK] = 1
        elif kind == "forced":
            # Four weak steps; the last is force-accepted, so the model goes
            # on from its wrong value and ends with a wrong answer.
            for tries in range(1, 5):
                new = wrong(new)
                feedback = f"Step {slot} is imprecise (try {tries})."
                attempts.append(attempt(line(new), verdict(1, feedback)))
                after[feedback] = tries
            good = None
        elif kind != "clean":
            raise ValueError(f"unknown trajectory kind {kind!r}")
        if good is not None:
            attempts.append(attempt(good, verdict(rng.choice((2, 3, 3)), f"Step {slot} is right.")))
        slots.append({"kind": kind, "attempts": attempts, "after": after})
        previous_math = f"{math} = {new}"
        value = new

    sentences.append(f"How many {obj} does {name} have at the end?")
    return {"id": problem_id, "question": " ".join(sentences), "answer": str(value),
            "gold": str(truth), "slots": slots}


def make_plans(workload_seed: str, shapes: tuple, count: int) -> list[dict]:
    """``count`` plans cycling through ``shapes`` in a seeded order."""
    rng = random.Random(workload_seed)
    order = [shapes[i % len(shapes)] for i in range(count)]
    rng.shuffle(order)
    return [make_plan(rng, f"p{i:04d}", i, shape) for i, shape in enumerate(order)]


def expected_counts(plan: dict, cache: bool) -> dict:
    """Agent calls and solver events the plan implies at an unlimited budget."""
    counts = {"decomposer_calls": 0, "evaluator_calls": 0, "retries": 0,
              "forced_accepts": 0, "malformed_step": 0, "unparseable_final": 0,
              "duplicate_accepted": 0, "known_bad": 0}
    for slot in plan["slots"]:
        counts["decomposer_calls"] += len(slot["attempts"])
        counts["retries"] += len(slot["attempts"]) - 1
        counts["forced_accepts"] += slot["kind"] == "forced"
        for attempt in slot["attempts"]:
            if attempt["synthetic"]:
                counts[attempt["synthetic"]] += 1
            elif cache and attempt["cache_hit"]:
                counts[attempt["cache_hit"]] += 1
            else:
                counts["evaluator_calls"] += 1
    return counts


def kind_shares(plans: list[dict]) -> dict[str, float]:
    """Share of step slots of each trajectory kind."""
    kinds = [slot["kind"] for plan in plans for slot in plan["slots"]]
    return {kind: kinds.count(kind) / len(kinds) for kind in KINDS}


def _render_verdict(verdict: dict) -> str:
    score = verdict["score"]
    line = {"score": f"Score: {score}", "raw": f"Raw score: {score}/3",
            "raw_decimal": f"Raw score: {score}.0/3"}[verdict["format"]]
    return f"{line}\nFeedback: {verdict['feedback']}"


class FakeModel:
    """Both agents, answering from the plans; replies are memoised per prompt."""

    def __init__(self, plans: list[dict]):
        self._plans = {plan["question"]: plan for plan in plans}
        self._memo: dict[tuple[str, str], str] = {}

    def reply(self, role: str, prompt: str) -> str:
        key = (role, prompt)
        text = self._memo.get(key)
        if text is None:
            text = self._answer(role, prompt)
            self._memo[key] = text
        return text

    def complete(self, role, prompt: str, params=None) -> AgentReply:
        text = self.reply(Role(role).value, prompt)
        return AgentReply(text, estimate_tokens(prompt), estimate_tokens(text))

    def _answer(self, role: str, prompt: str) -> str:
        lines = prompt.split("\n")
        plan = self._plans[lines[0][len(PROBLEM_PREFIX) + 1:]]
        if role == Role.DECOMPOSER.value:
            hint = None
            if lines[-1].startswith(HINT_PREFIX):
                hint = lines.pop()[len(HINT_PREFIX) + 1:]
            slot = plan["slots"][len(lines) - 2]
            return slot["attempts"][0 if hint is None else slot["after"][hint]]["reply"]
        marker = lines.index(CANDIDATE_HEADER)
        slot = plan["slots"][marker - 2]
        for attempt in slot["attempts"]:
            if attempt["wire"] == lines[marker + 1]:
                return _render_verdict(attempt["verdict"])
        raise KeyError(f"candidate not in plan {plan['id']}: {lines[marker + 1]!r}")
