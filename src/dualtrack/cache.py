"""Math fingerprints and the per-problem rejection cache.

A fingerprint collapses a step down to its arithmetic: digits and
elementary operators survive, natural language does not, so different
phrasings of the same calculation map to one pattern while any change
of a digit yields a new one. The cache stores fingerprints of accepted
steps and of low-scored steps for a single problem and lets the solver
reject redundant or known-bad candidates without an Evaluator call.
"""

from __future__ import annotations

import re
from enum import Enum

from .protocol import Evaluation

FINGERPRINT_ALPHABET = "0123456789.+-*/=%()"

DUPLICATE_FEEDBACK = (
    "This repeats an earlier computation; move to a genuinely new sub-calculation."
)
KNOWN_BAD_FEEDBACK = (
    "This matches a previously rejected pattern; move to a genuinely new sub-calculation."
)

# A lone "x" (or ×, ·) between digits is multiplication; inside words it is
# just a letter and falls to the deletion pass.
_MULT_GLYPH_RE = re.compile(r"(\d)\s*[x×·]\s*(?=\d)")
# Dots are decimal points only between digits; sentence punctuation is noise.
_BARE_DOT_RE = re.compile(r"(?<!\d)\.|\.(?!\d)")
_NON_ALPHABET_RE = re.compile(r"[^0-9.+\-*/=%()]")


class CacheDecision(str, Enum):
    MISS = "miss"
    DUPLICATE_ACCEPTED = "duplicate_accepted"
    KNOWN_BAD = "known_bad"


class CacheOrigin(str, Enum):
    ACCEPTED_DUPLICATE_SOURCE = "accepted_duplicate_source"
    LOW_SCORE = "low_score"


def fingerprint(step_text: str) -> str:
    """Reduce a step to its math pattern.

    Inline ``<<...>>`` annotation delimiters are stripped (content kept),
    multiplication/division glyphs are normalized, and every character
    outside the fingerprint alphabet is deleted, preserving order. Steps
    with no math content yield the empty string.
    """
    text = step_text.replace("<<", "").replace(">>", "")
    text = text.replace("÷", "/")
    text = _MULT_GLYPH_RE.sub(r"\1*", text)
    text = _BARE_DOT_RE.sub("", text)
    return _NON_ALPHABET_RE.sub("", text)


class RejectionCache:
    """Fingerprint store scoped to one problem.

    Holds at most one entry per fingerprint; the first recorded origin
    wins. Empty fingerprints are never stored or matched, so math-free
    steps cannot collide with each other.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CacheOrigin] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fp: str) -> bool:
        return fp in self._entries

    def check(self, fp: str) -> CacheDecision:
        """Classify a fingerprint against the cache."""
        if not fp:
            return CacheDecision.MISS
        origin = self._entries.get(fp)
        if origin is None:
            return CacheDecision.MISS
        if origin is CacheOrigin.ACCEPTED_DUPLICATE_SOURCE:
            return CacheDecision.DUPLICATE_ACCEPTED
        return CacheDecision.KNOWN_BAD

    def record(self, fp: str, origin: CacheOrigin) -> None:
        """Insert a fingerprint; no-op for empty fingerprints or known ones."""
        if not fp:
            return
        self._entries.setdefault(fp, origin)


def synth_rejection(decision: CacheDecision) -> Evaluation:
    """Synthesize the zero-score evaluation for a cache hit.

    Never contacts any agent. ``decision`` must not be MISS.
    """
    if decision is CacheDecision.DUPLICATE_ACCEPTED:
        return Evaluation(score=0, feedback=DUPLICATE_FEEDBACK)
    if decision is CacheDecision.KNOWN_BAD:
        return Evaluation(score=0, feedback=KNOWN_BAD_FEEDBACK)
    raise ValueError("synth_rejection requires a non-miss cache decision")
