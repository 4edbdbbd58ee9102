"""Wire protocol between the solver loop and its two agents.

The Decomposer and the Evaluator speak a rigid line-prefix format: the
Decomposer emits exactly one ``STEP:`` or ``FINAL_ANSWER:`` line per
turn, the Evaluator replies with a ``Score:`` line (0-3) and a
``Feedback:`` line. This module owns the prompt templates, the strict
parsers for both reply formats and for GSM8K-style worked solutions, and
exact-decimal answer normalization.

Every function here is pure and deterministic: identical inputs produce
byte-identical outputs. The prefixes and templates are bit-exact
contract strings, documented in PROTOCOL.md.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple, Sequence

STEP_PREFIX = "STEP:"
FINAL_ANSWER_PREFIX = "FINAL_ANSWER:"
HINT_PREFIX = "HINT:"
SCORE_PREFIX = "Score:"
RAW_SCORE_PREFIX = "Raw score:"
FEEDBACK_PREFIX = "Feedback:"
GOLD_MARKER = "####"
PROBLEM_PREFIX = "Problem:"
HISTORY_HEADER = "Steps completed so far:"

MIN_SCORE = 0
MAX_SCORE = 3

SCORE_RUBRIC = (
    "3 (good step): mathematically correct, logically follows from the previous"
    " steps, and clearly helps move toward the final answer.",
    "2 (almost good): mostly correct and useful, but with a minor imprecision or"
    " missing detail that does not invalidate the step.",
    "1 (weak / partially correct): contains some relevant ideas but has an"
    " important mistake or omits a key part of the reasoning.",
    "0 (bad step): wrong math, wrong logic, irrelevant or seriously misleading,"
    " or effectively the same content as a previous step and therefore not"
    " progress.",
)

# What follows the candidate step in every Evaluator prompt.
EVALUATOR_PROMPT_TAIL = "\n".join((
    "Rate the candidate step on this scale:",
    *SCORE_RUBRIC,
    "Respond with exactly two lines:",
    f"{SCORE_PREFIX} <0-3>",
    f"{FEEDBACK_PREFIX} <one sentence>",
))

DECOMPOSER_SYSTEM_PROMPT = (
    "You solve grade-school math word problems one step at a time. Given the"
    " problem and the steps completed so far, reply with exactly one line:"
    " either 'STEP: <the next incremental step>' or, once the answer is"
    " reached, 'FINAL_ANSWER: <the numeric answer>'. If a HINT line is"
    " present, use it to correct the last rejected step."
)

EVALUATOR_SYSTEM_PROMPT = (
    "You grade one candidate reasoning step for a math word problem. Reply"
    " with exactly two lines: 'Score: <0-3>' and 'Feedback: <one short"
    " sentence>'."
)


class ProtocolError(ValueError):
    """Base class for violations of the agent wire protocol."""


class MalformedStep(ProtocolError):
    """Decomposer output contains no STEP: or FINAL_ANSWER: line."""


class MalformedEvaluation(ProtocolError):
    """Evaluator output contains no parseable score line."""


class ScoreOutOfRange(ProtocolError):
    """Evaluator score parsed but outside {0, 1, 2, 3}."""


class NoNumberFound(ProtocolError):
    """Text contains no numeric literal to normalize."""


class MissingMarker(ProtocolError):
    """GSM8K-style answer text has no '####' final-answer marker."""


class StepKind(str, Enum):
    INTERMEDIATE = "intermediate"
    FINAL = "final"


_INTERMEDIATE, _FINAL = StepKind.INTERMEDIATE, StepKind.FINAL  # bound once, as in solver
_LITERAL_RE = re.compile(r"^([+-]?)(\d*)(?:\.(\d*))?$")
_CURRENCY_RE = re.compile(r"[$€£¥,%]")
# A literal may not butt up against a preceding digit or dot, so the "15"
# in "3.15" or the minus in "3-15" are not misread as standalone numbers.
_NUMBER_RE = re.compile(r"(?<![\d.])-?(?:\d+(?:\.\d+)?|\.\d+)")
_DIGIT_RE = re.compile(r"\d")  # a decimal digit of any script


# Records are NamedTuples: immutable, and built with no setattr per field. One
# that checks its fields subclasses a fields-only NamedTuple, checks them in
# __new__ and takes make_checked as its _make. The per-call paths build an
# unchecked one with new_record(cls, fields), which skips type.__call__ and the
# generated __new__ (about 550 -> 250 ns a record under timeit on Python 3.11).
new_record = tuple.__new__


def make_checked(cls, iterable):
    """``_make`` for a record whose ``__new__`` checks its fields: it builds
    through ``__new__``, so ``_make`` and ``_replace`` (which calls it) check too."""
    fields = tuple(iterable)
    if len(fields) != len(cls._fields):
        raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(fields)}")
    return cls(*fields)


def ascii_numerals(text: str) -> str:
    """``text`` with each decimal digit of any script (``١``, ``१``, ``１``) as
    the ASCII digit of its value, and each minus sign ``−`` and ``－`` as
    ``-``; ASCII text is returned as it is."""
    if text.isascii():
        return text
    text = text.replace("\u2212", "-").replace("\uff0d", "-")  # MINUS SIGN, FULLWIDTH HYPHEN-MINUS
    return _DIGIT_RE.sub(lambda digit: str(int(digit[0])), text)


def is_unicode(text: str) -> bool:
    """Whether ``text`` encodes as UTF-8: a lone surrogate (JSON ``\\ud800``) does not."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class CanonicalNumber(NamedTuple):
    """An exact decimal in canonical form, unique per numeric value.

    Canonical form: optional minus sign (never on zero), integer digits
    without leading zeros, and a fractional part only when nonzero, with
    trailing fractional zeros removed. "72" and "72.0" canonicalize to
    the same value.
    """

    text: str

    @classmethod
    def from_literal(cls, literal: str) -> "CanonicalNumber":
        match = _LITERAL_RE.match(ascii_numerals(literal).strip())
        if not match or not (match.group(2) or match.group(3)):
            raise NoNumberFound(f"not a numeric literal: {literal!r}")
        sign, int_part, frac_part = match.groups()
        int_part = (int_part or "").lstrip("0") or "0"
        frac_part = (frac_part or "").rstrip("0")
        text = int_part + (f".{frac_part}" if frac_part else "")
        if sign == "-" and text != "0":
            text = "-" + text
        return new_record(cls, (text,))

    def __str__(self) -> str:
        return self.text


class Problem(NamedTuple("Problem", [("id", str), ("question", str),
                                     ("gold_answer", CanonicalNumber | None)])):
    """One benchmark item: id, question text, optional gold answer."""

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, id: str, question: str,
                gold_answer: CanonicalNumber | None = None) -> "Problem":
        if not question.strip():
            raise ValueError("problem question must be non-empty")
        if not is_unicode(question):
            raise ValueError("problem question must be valid Unicode")
        return tuple.__new__(cls, (id, question, gold_answer))


class StepCandidate(NamedTuple):
    """One parsed reasoning step as proposed by the Decomposer.

    ``answer`` is a FINAL step's normalized number, None if its text has none.
    """

    kind: StepKind
    text: str
    answer: CanonicalNumber | None = None

    @property
    def wire_line(self) -> str:
        prefix = FINAL_ANSWER_PREFIX if self.kind is _FINAL else STEP_PREFIX
        return f"{prefix} {self.text}"


class Evaluation(NamedTuple("Evaluation", [("score", int), ("feedback", str)])):
    """Evaluator verdict: integer score in {0..3} plus a short hint."""

    __slots__ = ()
    _make = classmethod(make_checked)

    def __new__(cls, score: int, feedback: str = "") -> "Evaluation":
        if not MIN_SCORE <= score <= MAX_SCORE:
            raise ScoreOutOfRange(f"score {score} outside {MIN_SCORE}..{MAX_SCORE}")
        return tuple.__new__(cls, (score, feedback))


class AcceptedStep(NamedTuple):
    """A step the solver appended to the history."""

    index: int
    kind: StepKind
    text: str
    fingerprint: str
    score: int
    forced: bool = False


def render_problem_block(question: str, step_texts: Sequence[str]) -> str:
    """Render the shared problem-plus-history block.

    Both prompt builders start with it, and the training-data serializer
    uses it verbatim, so training and inference see identical bytes. It
    changes only when a step is accepted, so the solver renders it once
    and extends it by one line per accepted step, then hands it to both
    builders.
    """
    block = f"{PROBLEM_PREFIX} {question}\n{HISTORY_HEADER}"
    for index, text in enumerate(step_texts, start=1):
        block = extend_problem_block(block, index, text)
    return block


def extend_problem_block(block: str, index: int, step_text: str) -> str:
    """The problem block with accepted step ``index`` as its new last line."""
    return f"{block}\nSTEP {index}: {step_text}"


def build_decomposer_prompt(block: str, hint: str | None = None) -> str:
    """Build the next-step request sent to the Decomposer.

    Emits the problem block followed, when a hint is present, by one
    trailing ``HINT:`` line. Pure function of its inputs.
    """
    return f"{block}\n{HINT_PREFIX} {hint}" if hint else block


def build_evaluator_prompt(block: str, candidate: StepCandidate) -> str:
    """Build the scoring request sent to the Evaluator.

    Contains the problem block, the candidate step verbatim, and the fixed
    tail: the four-line 0-3 rubric and the required ``Score:`` /
    ``Feedback:`` output format.
    """
    return f"{block}\nCandidate step:\n{candidate.wire_line}\n{EVALUATOR_PROMPT_TAIL}"


def parse_agent_step(raw: str) -> StepCandidate:
    """Parse a Decomposer reply into a StepCandidate.

    Scans lines top-down; the first line starting (after leading
    whitespace) with ``STEP:`` or ``FINAL_ANSWER:`` and carrying a
    non-empty body becomes the candidate. All other lines are discarded.
    A FINAL candidate carries its normalized ``answer``; one whose body has
    no numeric literal has none, and is not rejected here.

    Raises:
        MalformedStep: no line carries either prefix.
    """
    if not raw:
        raise MalformedStep("empty decomposer output")
    for line in raw.splitlines():
        stripped = line.lstrip()
        if stripped.startswith(STEP_PREFIX):
            kind, body = _INTERMEDIATE, stripped[len(STEP_PREFIX):]
        elif stripped.startswith(FINAL_ANSWER_PREFIX):
            kind, body = _FINAL, stripped[len(FINAL_ANSWER_PREFIX):]
        else:
            continue
        text = body.strip()
        if not text:
            continue
        answer = None
        if kind is _FINAL:
            try:
                answer = normalize_answer(text)
            except NoNumberFound:
                pass
        return new_record(StepCandidate, (kind, text, answer))
    raise MalformedStep("no line starting with STEP: or FINAL_ANSWER:")


def _parse_score_payload(payload: str) -> int:
    value = payload.strip()
    if "/" in value:
        value = value.split("/", 1)[0].strip()
    # Decimal scores such as "0.0" are truncated to their integer part.
    value = value.split(".", 1)[0].strip()
    try:
        return int(value)
    except ValueError:
        raise MalformedEvaluation(f"unparseable score payload: {payload!r}") from None


def parse_evaluation(raw: str) -> Evaluation:
    """Parse an Evaluator reply into an Evaluation.

    Accepts ``Score: <n>``, ``Raw score: <n>/3``, and ``Raw score:
    <n>.0/3`` score lines; the first such line wins. Feedback is taken
    from the first ``Feedback:`` line and defaults to empty.

    Raises:
        MalformedEvaluation: no score line found, or its payload is not a number.
        ScoreOutOfRange: the parsed integer is outside {0..3}.
    """
    if not raw:
        raise MalformedEvaluation("empty evaluator output")
    score: int | None = None
    feedback: str | None = None
    for line in raw.splitlines():
        stripped = line.strip()
        if score is None:
            if stripped.startswith(SCORE_PREFIX):
                score = _parse_score_payload(stripped[len(SCORE_PREFIX):])
                continue
            if stripped.startswith(RAW_SCORE_PREFIX):
                score = _parse_score_payload(stripped[len(RAW_SCORE_PREFIX):])
                continue
        if feedback is None and stripped.startswith(FEEDBACK_PREFIX):
            feedback = stripped[len(FEEDBACK_PREFIX):].strip()
    if score is None:
        raise MalformedEvaluation("no Score: or Raw score: line found")
    return Evaluation(score, feedback or "")


def normalize_answer(text: str) -> CanonicalNumber:
    """Extract and canonicalize the last numeric literal in ``text``.

    Currency symbols, commas, and percent signs are stripped, and ``−`` and
    ``－`` read as ``-``, before extraction; surrounding words are ignored.
    Models often prepend units or restate the question, so the last literal
    is the answer.

    Raises:
        NoNumberFound: the text contains no numeric literal.
    """
    digits = text.strip()
    if digits.isdigit() and digits.isascii():  # its own last literal, as most answers are
        return new_record(CanonicalNumber, (digits.lstrip("0") or "0",))
    cleaned = _CURRENCY_RE.sub("", ascii_numerals(text))
    literals = _NUMBER_RE.findall(cleaned)
    if not literals:
        raise NoNumberFound(f"no numeric literal in {text!r}")
    return CanonicalNumber.from_literal(literals[-1])


def parse_worked_solution(answer: str) -> tuple[list[str], CanonicalNumber]:
    """Split a GSM8K-style worked solution into its steps and gold answer.

    The lines before the first line containing the ``####`` marker,
    trimmed and cleared of empties, are the steps; inline ``<<...>>``
    annotations are preserved. The remainder of the marker line is
    normalized as the gold answer.

    Raises:
        MissingMarker: no ``####`` marker present.
        NoNumberFound: the marker line carries no number.
    """
    steps: list[str] = []
    for line in answer.splitlines():
        if GOLD_MARKER in line:
            return steps, normalize_answer(line.partition(GOLD_MARKER)[2])
        if text := line.strip():
            steps.append(text)
    raise MissingMarker(f"no {GOLD_MARKER!r} marker in answer text")
