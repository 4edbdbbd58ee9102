"""Step-supervised training data from GSM8K-style worked solutions.

Each raw example (question + multi-line solution ending in its gold
answer line, split by ``protocol.parse_worked_solution``) becomes T+1
next-step instances: one per solution step, with the preceding steps as
history, plus one final instance targeting the ``FINAL_ANSWER:`` line.
Problem blocks render through the same template the solver uses at
inference time, keeping train and test bytes identical. Also maps
PRM-style step ratings onto the 0-3 scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .protocol import (
    FINAL_ANSWER_PREFIX,
    STEP_PREFIX,
    ProtocolError,
    parse_worked_solution,
    render_problem_block,
)

PRM_RATING_TO_SCORE = {-1: 0, 0: 1, 1: 3}


class DataError(ValueError):
    """Input file is unreadable or violates the expected record schema."""


class UnknownRating(ValueError):
    """PRM rating outside {-1, 0, 1}."""


@dataclass(frozen=True)
class RawExample:
    """One GSM8K-format example: question plus worked solution."""

    question: str
    answer: str
    id: str = ""


@dataclass(frozen=True)
class TrainingInstance:
    """One next-step supervision record."""

    id: str
    problem_block: str
    target: str
    step_index: int


@dataclass(frozen=True)
class RatingRecord:
    """A PRM-style candidate step with its rating mapped to the 0-3 scale."""

    text: str
    rating: int
    mapped_score: int


def example_id(example: RawExample) -> str:
    """The example's id, or a stable question-derived one when absent."""
    if example.id:
        return example.id
    digest = hashlib.sha256(example.question.encode("utf-8")).hexdigest()
    return f"g{digest[:10]}"


def make_instances(example: RawExample) -> list[TrainingInstance]:
    """Expand one example into its T+1 next-step instances.

    Instance t (1-based) pairs the question and steps 1..t-1 with the
    target ``STEP: <step t>``; the last instance pairs the full history
    with ``FINAL_ANSWER: <gold>``.
    """
    steps, gold = parse_worked_solution(example.answer)
    targets = [f"{STEP_PREFIX} {step}" for step in steps]
    targets.append(f"{FINAL_ANSWER_PREFIX} {gold}")
    base_id = example_id(example)
    return [
        TrainingInstance(
            id=f"{base_id}-{t}",
            problem_block=render_problem_block(example.question, steps[: t - 1]),
            target=target,
            step_index=t,
        )
        for t, target in enumerate(targets, start=1)
    ]


def serialize_instance(instance: TrainingInstance) -> str:
    """Serialize an instance to its one-line JSON record."""
    return json.dumps(vars(instance), ensure_ascii=False, sort_keys=True)


def map_prm_rating(rating: int) -> int:
    """Map a PRM rating in {-1, 0, 1} onto the 0-3 evaluator scale.

    Neutral ratings land at 1, below the accept threshold, so neutral
    steps count as weak rather than acceptable.
    """
    try:
        return PRM_RATING_TO_SCORE[rating]
    except (KeyError, TypeError):
        raise UnknownRating(f"rating must be -1, 0, or 1, got {rating!r}") from None


def load_gsm8k_examples(path: str | Path) -> list[RawExample]:
    """Read GSM8K-format examples from a JSONL file of question/answer records.

    Every answer must parse as a worked solution, so a bad record is
    reported by line before any instance is written. A null ``id`` counts
    as absent.
    """
    examples = []
    for line_number, record in _read_jsonl(path):
        try:
            question, answer = record["question"], record["answer"]
        except (KeyError, TypeError):
            raise DataError(
                f"{path}:{line_number}: record needs 'question' and 'answer' fields"
            ) from None
        if not isinstance(question, str) or not isinstance(answer, str):
            raise DataError(f"{path}:{line_number}: question and answer must be strings")
        try:
            parse_worked_solution(answer)
        except ProtocolError as exc:
            raise DataError(f"{path}:{line_number}: {exc}") from None
        raw_id = record.get("id")
        examples.append(
            RawExample(question=question, answer=answer,
                       id="" if raw_id is None else str(raw_id))
        )
    return examples


def load_prm_records(path: str | Path) -> list[RatingRecord]:
    """Read PRM-style text/rating records, mapping ratings to the 0-3 scale."""
    records = []
    for line_number, record in _read_jsonl(path):
        try:
            text, rating = record["text"], record["rating"]
        except (KeyError, TypeError):
            raise DataError(
                f"{path}:{line_number}: record needs 'text' and 'rating' fields"
            ) from None
        try:
            mapped = map_prm_rating(rating)
        except UnknownRating as exc:
            raise DataError(f"{path}:{line_number}: {exc}") from None
        records.append(RatingRecord(text=text, rating=rating, mapped_score=mapped))
    return records


def _read_jsonl(path: str | Path) -> Iterable[tuple[int, dict]]:
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    for line_number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise DataError(f"{path}:{line_number}: invalid JSON ({exc})") from None
        yield line_number, record


def _hash_fraction(key: str, seed: int) -> float:
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def split_examples(
    examples: Sequence[RawExample], val_fraction: float = 0.05, seed: int = 0
) -> tuple[list[RawExample], list[RawExample]]:
    """Deterministic train/validation split keyed on example ids.

    All instances of an example stay on one side. ``val_fraction`` 0
    puts everything in train.
    """
    if not 0 <= val_fraction <= 1:
        raise ValueError("val_fraction must be within [0, 1]")
    train, val = [], []
    for example in examples:
        side = val if _hash_fraction(example_id(example), seed) < val_fraction else train
        side.append(example)
    return train, val


def write_instances(instances: Iterable[TrainingInstance], path: str | Path) -> int:
    """Write instances as JSONL; returns the record count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for instance in instances:
            handle.write(serialize_instance(instance) + "\n")
            count += 1
    return count
