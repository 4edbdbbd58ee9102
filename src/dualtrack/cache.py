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

from .protocol import ascii_numerals

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
# Starting with the literal dot lets re jump from dot to dot, where a pattern
# that starts with a lookbehind is tried at every position of the text.
_BARE_DOT_RE = re.compile(r"\.(?!(?<=\d\.)\d)")
_NON_ALPHABET_RE = re.compile(f"[^{re.escape(FINGERPRINT_ALPHABET)}]")
_ASCII_DELETE = bytes(i for i in range(128) if chr(i) not in FINGERPRINT_ALPHABET)


class CacheDecision(str, Enum):
    MISS = "miss"
    DUPLICATE_ACCEPTED = "duplicate_accepted"
    KNOWN_BAD = "known_bad"


# The feedback of the zero-score evaluation that a cache hit stands in for.
REJECTION_FEEDBACK = {
    CacheDecision.DUPLICATE_ACCEPTED: DUPLICATE_FEEDBACK,
    CacheDecision.KNOWN_BAD: KNOWN_BAD_FEEDBACK,
}
_MISS = CacheDecision.MISS  # bound once, as in solver


def fingerprint(step_text: str) -> str:
    """Reduce a step to its math pattern.

    Digits, minus signs and fullwidth forms become ASCII, inline ``<<...>>``
    annotation delimiters are stripped (content kept), multiplication and
    division glyphs are normalized, and every character outside the
    fingerprint alphabet is deleted, preserving order (on ASCII text by a byte
    table). Steps with no math content yield "".
    """
    text = ascii_numerals(step_text).replace("<<", "").replace(">>", "")
    # A pass cannot match a text without its trigger character, so it is skipped.
    if "x" in text or "×" in text or "·" in text:
        text = _MULT_GLYPH_RE.sub(r"\1*", text)
    if "." in text:
        text = _BARE_DOT_RE.sub("", text)
    if text.isascii():
        return text.encode().translate(None, _ASCII_DELETE).decode()
    return _NON_ALPHABET_RE.sub("", text)


class RejectionCache:
    """Fingerprint store scoped to one problem.

    Maps each fingerprint to the decision a later match gets; the first
    recorded decision wins. Empty fingerprints are never stored or
    matched, so math-free steps cannot collide with each other.
    """

    def __init__(self) -> None:
        self._decisions: dict[str, CacheDecision] = {}

    def check(self, fp: str) -> CacheDecision:
        """Classify a fingerprint against the cache."""
        return self._decisions.get(fp, _MISS)

    def record(self, fp: str, decision: CacheDecision) -> None:
        """Store the decision for a fingerprint; no-op if empty or known."""
        if fp:
            self._decisions.setdefault(fp, decision)
