from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from dualtrack.protocol import (
    CanonicalNumber,
    Evaluation,
    MalformedEvaluation,
    MalformedStep,
    MissingMarker,
    NoNumberFound,
    Problem,
    ScoreOutOfRange,
    StepCandidate,
    StepKind,
    build_decomposer_prompt,
    build_evaluator_prompt,
    normalize_answer,
    parse_agent_step,
    parse_evaluation,
    parse_worked_solution,
    render_problem_block,
)

from conftest import (
    HENRY_BAD_STEP,
    NATALIA_ANSWER,
    WENG_QUESTION,
    WENG_STEPS,
)

# Single-line step bodies: nothing splitlines() treats as a boundary,
# non-empty once stripped.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85  "
step_texts = st.text(
    alphabet=st.characters(blacklist_characters=_LINE_BREAKS, blacklist_categories=("Cs",)),
    min_size=1,
    max_size=80,
).map(str.strip).filter(bool)


class TestDecomposerPrompt:
    def test_weng_serialization_block(self):
        problem = Problem(id="weng", question=WENG_QUESTION)
        prompt = build_decomposer_prompt(problem, WENG_STEPS[:1])
        assert prompt == (
            "Problem: Weng earns $12 an hour for babysitting. Yesterday, she just"
            " did 50 minutes of babysitting. How much did she earn?\n"
            "Steps completed so far:\n"
            "STEP 1: Weng earns 12/60 = $<<12/60=0.2>>0.2 per minute."
        )

    def test_empty_history_has_header_and_no_step_lines(self):
        problem = Problem(id="q1", question="What is 2 + 2?")
        prompt = build_decomposer_prompt(problem, [])
        assert prompt == "Problem: What is 2 + 2?\nSteps completed so far:"

    def test_hint_appended_as_trailing_line(self):
        problem = Problem(id="q1", question="How many post-it notes remain?")
        history = ["She started with 220 post-it notes."]
        hint = "account for the 23 post-it notes"
        without = build_decomposer_prompt(problem, history)
        with_hint = build_decomposer_prompt(problem, history, hint)
        assert with_hint == without + "\nHINT: account for the 23 post-it notes"

    def test_deterministic_bytes(self):
        problem = Problem(id="q1", question="Count the apples.")
        history = ["He picked 3 + 4 = 7 apples."]
        first = build_decomposer_prompt(problem, history, "keep going")
        second = build_decomposer_prompt(problem, history, "keep going")
        assert first == second


class TestParseAgentStep:
    def test_intermediate_step_line(self):
        candidate = parse_agent_step(f"STEP: {HENRY_BAD_STEP}")
        assert candidate.kind is StepKind.INTERMEDIATE
        assert candidate.text == HENRY_BAD_STEP

    def test_final_answer_line(self):
        candidate = parse_agent_step("FINAL_ANSWER: 72")
        assert candidate.kind is StepKind.FINAL
        assert candidate.text == "72"
        assert candidate.answer == CanonicalNumber("72")

    def test_no_recognized_prefix_raises(self):
        with pytest.raises(MalformedStep):
            parse_agent_step("The answer is 72")

    def test_first_prefixed_line_wins(self):
        candidate = parse_agent_step("preamble\nSTEP: a\nSTEP: b")
        assert candidate.kind is StepKind.INTERMEDIATE
        assert candidate.text == "a"

    def test_leading_whitespace_before_prefix_allowed(self):
        candidate = parse_agent_step("   STEP: indented body")
        assert candidate.text == "indented body"

    def test_prefixed_line_with_empty_body_is_skipped(self):
        candidate = parse_agent_step("STEP:\nSTEP: real content")
        assert candidate.text == "real content"

    def test_final_without_number_is_flagged(self):
        candidate = parse_agent_step("FINAL_ANSWER: I cannot tell")
        assert candidate.kind is StepKind.FINAL
        assert candidate.answer is None

    def test_empty_input_raises(self):
        with pytest.raises(MalformedStep):
            parse_agent_step("")

    @given(text=step_texts, final=st.booleans())
    def test_round_trip(self, text, final):
        prefix = "FINAL_ANSWER:" if final else "STEP:"
        candidate = parse_agent_step(f"{prefix} {text}")
        assert candidate.kind is (StepKind.FINAL if final else StepKind.INTERMEDIATE)
        assert candidate.text == text


class TestEvaluatorPrompt:
    def test_contains_candidate_verbatim(self):
        problem = Problem(id="henry", question="How many miles between stops?")
        candidate = StepCandidate(kind=StepKind.INTERMEDIATE, text="60 - 45 = 15")
        prompt = build_evaluator_prompt(problem, [], candidate)
        assert "60 - 45 = 15" in prompt

    def test_contains_format_instruction_and_rubric(self):
        problem = Problem(id="q1", question="Count.")
        candidate = StepCandidate(kind=StepKind.INTERMEDIATE, text="1 + 1 = 2")
        prompt = build_evaluator_prompt(problem, [], candidate)
        assert "Score: <0-3>" in prompt
        assert "Feedback: <one sentence>" in prompt
        assert "3 (good step):" in prompt
        assert "2 (almost good):" in prompt
        assert "1 (weak / partially correct):" in prompt
        assert "0 (bad step):" in prompt

    def test_numbered_history_included(self):
        problem = Problem(id="q1", question="Count.")
        history = ["first step text", "second step text"]
        candidate = StepCandidate(kind=StepKind.FINAL, text="9")
        prompt = build_evaluator_prompt(problem, history, candidate)
        assert "STEP 1: first step text" in prompt
        assert "STEP 2: second step text" in prompt
        assert "FINAL_ANSWER: 9" in prompt

    def test_deterministic_bytes(self):
        problem = Problem(id="q1", question="Count.")
        candidate = StepCandidate(kind=StepKind.INTERMEDIATE, text="2 * 3 = 6")
        assert build_evaluator_prompt(problem, [], candidate) == build_evaluator_prompt(
            problem, [], candidate
        )


class TestParseEvaluation:
    def test_raw_score_decimal_form(self):
        feedback = (
            "The calculation is wrong; he traveled 60 - 20 = 40 miles before his"
            " first stop, so he traveled 40 - 15 = 25 miles between his first and"
            " second stops."
        )
        evaluation = parse_evaluation(f"Raw score: 0.0/3\nFeedback: {feedback}")
        assert evaluation.score == 0
        assert evaluation.feedback == feedback

    def test_score_out_of_range(self):
        with pytest.raises(ScoreOutOfRange):
            parse_evaluation("Score: 5\nFeedback: x")

    def test_missing_feedback_defaults_empty(self):
        evaluation = parse_evaluation("Score: 3")
        assert evaluation == Evaluation(score=3, feedback="")

    def test_raw_score_integer_fraction_form(self):
        assert parse_evaluation("Raw score: 2/3").score == 2

    def test_decimal_truncated(self):
        assert parse_evaluation("Score: 2.7").score == 2

    def test_no_score_line_raises(self):
        with pytest.raises(MalformedEvaluation):
            parse_evaluation("Feedback: looks fine")

    def test_unparseable_score_payload_raises(self):
        with pytest.raises(MalformedEvaluation):
            parse_evaluation("Score: three")

    def test_negative_score_rejected(self):
        with pytest.raises(ScoreOutOfRange):
            parse_evaluation("Score: -1")

    @given(raw=st.text(max_size=120))
    def test_never_returns_score_outside_range(self, raw):
        try:
            evaluation = parse_evaluation(raw)
        except (MalformedEvaluation, ScoreOutOfRange):
            return
        assert 0 <= evaluation.score <= 3

    def test_evaluation_type_rejects_out_of_range(self):
        with pytest.raises(ScoreOutOfRange):
            Evaluation(score=4)


class TestNormalizeAnswer:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("72", "72"),
            ("$1,000.50", "1000.5"),
            ("she earned 10 dollars", "10"),
            ("72.0", "72"),
            ("-5", "-5"),
            ("-0", "0"),
            ("0072.500", "72.5"),
            ("50%", "50"),
            ("40 - 15 = 25", "25"),
            (".5", "0.5"),
        ],
    )
    def test_examples(self, text, expected):
        assert normalize_answer(text) == CanonicalNumber(expected)

    def test_no_number_raises(self):
        with pytest.raises(NoNumberFound):
            normalize_answer("no digits here")

    def test_canonical_equality_of_spellings(self):
        assert normalize_answer("72") == normalize_answer("72.0")

    @given(
        sign=st.sampled_from(["", "-"]),
        integer=st.integers(min_value=0, max_value=10**9),
        fraction=st.text(alphabet="0123456789", max_size=6),
    )
    def test_idempotent_on_canonical_output(self, sign, integer, fraction):
        literal = f"{sign}{integer}" + (f".{fraction}" if fraction else "")
        once = normalize_answer(literal)
        again = normalize_answer(str(once))
        assert once == again


class TestExtractGoldAnswer:
    """The gold half of ``parse_worked_solution``; the steps are tested in test_dataset."""

    def test_natalia_example(self):
        assert parse_worked_solution(NATALIA_ANSWER)[1] == CanonicalNumber("72")

    def test_comma_normalization(self):
        assert parse_worked_solution("#### 1,234")[1] == CanonicalNumber("1234")

    def test_missing_marker(self):
        with pytest.raises(MissingMarker):
            parse_worked_solution("no marker here")

    def test_first_marker_line_ends_the_solution(self):
        answer = "add 2 + 3\n#### 5\nnote after\n#### 6"
        assert parse_worked_solution(answer) == (["add 2 + 3"], CanonicalNumber("5"))


class TestProblemType:
    def test_blank_question_rejected(self):
        with pytest.raises(ValueError):
            Problem(id="p", question="   ")

    def test_render_problem_block_matches_prompt_builder(self):
        problem = Problem(id="p", question="Count the pears.")
        steps = ["He picked 2 + 2 = 4 pears."]
        assert render_problem_block(problem.question, steps) == build_decomposer_prompt(
            problem, steps
        )
