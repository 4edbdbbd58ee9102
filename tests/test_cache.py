from __future__ import annotations

import itertools
import random
import re
import string

import pytest
from hypothesis import example, given, strategies as st

from dualtrack.cache import (
    DUPLICATE_FEEDBACK,
    FINGERPRINT_ALPHABET,
    KNOWN_BAD_FEEDBACK,
    REJECTION_FEEDBACK,
    CacheDecision,
    RejectionCache,
    fingerprint,
)

from conftest import HENRY_BAD_STEP

ALPHABET_RE = re.compile(r"^[0-9.+\-*/=%()]*$")

# Insertable filler; a bare "x" between digits would read as multiplication,
# so it stays out of the pool.
WORDS = [
    "he", "she", "then", "sold", "counted", "apples", "before", "lunch",
    "total", "each", "box", "with", "spare", "finally", "notes", "again",
]


# Every printable ASCII character (digits, the operators, punctuation the
# deletion pass drops, whitespace and each gated pass's trigger), the
# non-ASCII glyphs the chain rewrites, letters of any script, and decimal
# digits and spaces of any script (``\d`` and ``\s`` match them), so both
# the ASCII and the non-ASCII deletion paths are reached.
GATE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from(string.printable + FINGERPRINT_ALPHABET + "×·÷€\u2212\uff0d\u2013"),
        st.characters(categories=("Lu", "Ll", "Nd", "Zs")),
    ),
    max_size=60,
)


def _ungated_fingerprint(step_text: str) -> str:
    """The fingerprint chain with every regex pass run, as PROTOCOL.md lists it."""
    text = step_text.replace("\u2212", "-").replace("\uff0d", "-")
    text = re.sub(r"\d", lambda match: str(int(match[0])), text)
    text = text.replace("<<", "").replace(">>", "").replace("÷", "/")
    text = re.sub(r"(\d)\s*[x×·]\s*(?=\d)", r"\1*", text)
    text = re.sub(r"(?<!\d)\.|\.(?!\d)", "", text)
    return re.sub(f"[^{re.escape(FINGERPRINT_ALPHABET)}]", "", text)


class TestFingerprint:
    def test_spaced_subtraction_step(self):
        assert fingerprint(HENRY_BAD_STEP) == "60-45=15"

    def test_annotation_delimiters_stripped_content_kept(self):
        assert fingerprint("Natalia sold <<48/2 = 24>> clips in May.") == "48/2=24"

    def test_no_math_content_yields_empty(self):
        assert fingerprint("She walked to the store.") == ""

    def test_distinguishes_different_results(self):
        assert fingerprint("10 + 20 = 30") != fingerprint("10 + 20 = 40")
        assert fingerprint("10 + 20 = 30") == "10+20=30"

    def test_digits_that_are_not_ascii_are_kept_as_ascii(self):
        # Deleting them would leave only the operators, so different sums would collide.
        assert fingerprint("１２ x ３ = ３６ apples.") == "12*3=36"
        assert fingerprint("４ x ５ = ２０ pens.") == "4*5=20"
        assert fingerprint("٣.٥ + ١ = ٤.٥") == fingerprint("3.5 + 1 = 4.5") == "3.5+1=4.5"

    @given(digits=st.text(alphabet=st.characters(categories=("Nd",)), max_size=12))
    def test_a_digit_counts_by_its_value_in_any_script(self, digits):
        ascii_digits = "".join(str(int(digit)) for digit in digits)
        assert fingerprint(f"{digits} + 1.") == fingerprint(f"{ascii_digits} + 1.")

    # U+2212 MINUS SIGN and U+FF0D FULLWIDTH HYPHEN-MINUS are the ASCII minus,
    # so the same computation written with either glyph hits the cache; an en
    # dash is no minus sign and is deleted.
    @pytest.mark.parametrize("text,expected", [
        ("50 \u2212 20 = 30 apples", "50-20=30"),
        ("50 \uff0d 20 = 30 apples", "50-20=30"),
        ("\uff15\uff10 \uff0d \uff12\uff10 = \uff13\uff10 apples", "50-20=30"),
        ("2\u20133 hours", "23"),
    ])
    def test_minus_sign_glyphs_are_subtraction(self, text, expected):
        assert fingerprint(text) == expected

    def test_x_between_digits_is_multiplication(self):
        assert fingerprint("she earned 0.2 x 50 = 10") == "0.2*50=10"

    def test_x_inside_words_is_dropped(self):
        assert fingerprint("six boxes and 7 more") == "7"

    def test_unicode_multiplication_and_division_glyphs(self):
        assert fingerprint("3 × 4 = 12") == "3*4=12"
        assert fingerprint("8 ÷ 2 = 4") == "8/2=4"
        assert fingerprint("3·4 = 12") == "3*4=12"

    def test_sentence_period_dropped_decimal_point_kept(self):
        assert fingerprint("He paid 1.5 dollars.") == "1.5"

    def test_currency_and_commas_removed(self):
        assert fingerprint("It cost $1,200 - $200 = $1,000.") == "1200-200=1000"

    @given(text=GATE_TEXT)
    @example("no trigger: 12 + 3 = 15")
    @example("3 x 4 = 12 but no dot")
    @example("no glyph, 1.5. then .5")
    @example("0.2 × 50 = 10.")
    @example("(12 + 3) * 4 / 2 - 1 = 29; 50% of ~9 is [4.5]!")
    @example("1.5")
    @example(".5")
    @example("5.")
    @example("1..2")
    @example("3 . 4")
    @example("١.٢")
    @example("7 \u2212 2 = 5. then \uff0d3")
    @example("a.b")
    def test_gated_passes_match_the_ungated_chain(self, text):
        assert fingerprint(text) == _ungated_fingerprint(text)

    def test_every_short_text_matches_the_ungated_chain(self):
        # Each neighbourhood of a dot up to length 4: ASCII and Arabic-Indic
        # digits, a space, a letter and an annotation delimiter.
        for size in range(5):
            for chars in itertools.product("1٣. a<", repeat=size):
                text = "".join(chars)
                assert fingerprint(text) == _ungated_fingerprint(text), text

    @given(text=st.text(max_size=200))
    def test_output_stays_in_alphabet(self, text):
        assert ALPHABET_RE.match(fingerprint(text))

    @given(text=st.text(max_size=200))
    def test_idempotent_when_fed_back(self, text):
        once = fingerprint(text)
        assert fingerprint(once) == once

    def test_phrasing_invariance_randomized(self):
        rng = random.Random(7)
        for _ in range(300):
            a, b = rng.randint(0, 999), rng.randint(1, 99)
            op = rng.choice("+-*/")
            core = f"{a} {op} {b} = {rng.randint(0, 9999)}"
            first = _embed(core, rng)
            second = _embed(core, rng)
            assert fingerprint(first) == fingerprint(second), (first, second)

    def test_digit_sensitivity_randomized(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = rng.randint(0, 999), rng.randint(1, 99)
            core = f"{a} + {b} = {a + b}"
            sentence = _embed(core, rng)
            mutated = _mutate_one_digit(sentence, rng)
            assert fingerprint(sentence) != fingerprint(mutated), (sentence, mutated)


def _embed(core: str, rng: random.Random) -> str:
    before = " ".join(rng.choices(WORDS, k=rng.randint(0, 5)))
    after = " ".join(rng.choices(WORDS, k=rng.randint(0, 5)))
    pad = " " * rng.randint(1, 3)
    return f"{before}{pad}{core}{pad}{after}".strip()


def _mutate_one_digit(text: str, rng: random.Random) -> str:
    digit_positions = [i for i, ch in enumerate(text) if ch.isdigit()]
    position = rng.choice(digit_positions)
    old = text[position]
    new = rng.choice([d for d in "0123456789" if d != old])
    return text[:position] + new + text[position + 1:]


class TestRejectionCache:
    def test_empty_cache_misses(self):
        cache = RejectionCache()
        assert cache.check("1+1=2") is CacheDecision.MISS

    def test_empty_fingerprint_always_misses(self):
        cache = RejectionCache()
        cache.record("", CacheDecision.KNOWN_BAD)
        assert cache.check("") is CacheDecision.MISS

    def test_accepted_entry_reports_duplicate(self):
        cache = RejectionCache()
        cache.record("1+1=2", CacheDecision.DUPLICATE_ACCEPTED)
        assert cache.check("1+1=2") is CacheDecision.DUPLICATE_ACCEPTED

    def test_low_score_entry_reports_known_bad(self):
        cache = RejectionCache()
        cache.record("2+2=5", CacheDecision.KNOWN_BAD)
        assert cache.check("2+2=5") is CacheDecision.KNOWN_BAD

    def test_record_idempotent(self):
        cache = RejectionCache()
        cache.record("3*3=9", CacheDecision.KNOWN_BAD)
        cache.record("3*3=9", CacheDecision.KNOWN_BAD)
        assert cache.check("3*3=9") is CacheDecision.KNOWN_BAD

    def test_first_origin_wins_both_orders(self):
        accepted_first = RejectionCache()
        accepted_first.record("5-2=3", CacheDecision.DUPLICATE_ACCEPTED)
        accepted_first.record("5-2=3", CacheDecision.KNOWN_BAD)
        assert accepted_first.check("5-2=3") is CacheDecision.DUPLICATE_ACCEPTED

        low_first = RejectionCache()
        low_first.record("5-2=3", CacheDecision.KNOWN_BAD)
        low_first.record("5-2=3", CacheDecision.DUPLICATE_ACCEPTED)
        assert low_first.check("5-2=3") is CacheDecision.KNOWN_BAD

    def test_instances_are_independent(self):
        first, second = RejectionCache(), RejectionCache()
        first.record("9/3=3", CacheDecision.DUPLICATE_ACCEPTED)
        assert second.check("9/3=3") is CacheDecision.MISS


class TestSynthRejection:
    def test_duplicate_fixed_feedback(self):
        feedback = REJECTION_FEEDBACK[CacheDecision.DUPLICATE_ACCEPTED]
        assert feedback == DUPLICATE_FEEDBACK
        assert (
            feedback
            == "This repeats an earlier computation; move to a genuinely new sub-calculation."
        )

    def test_known_bad_fixed_feedback(self):
        feedback = REJECTION_FEEDBACK[CacheDecision.KNOWN_BAD]
        assert feedback == KNOWN_BAD_FEEDBACK
        assert "previously rejected" in feedback
