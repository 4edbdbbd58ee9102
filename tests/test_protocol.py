from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dualtrack.agents import DecodeParams
from dualtrack.cache import fingerprint
from dualtrack.cli import RunConfig
from dualtrack.dataset import RawExample, TrainingInstance
from dualtrack.harness import BenchmarkReport, RunResult, SummaryRow, WilsonInterval
from dualtrack.protocol import (
    AcceptedStep,
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
    extend_problem_block,
    normalize_answer,
    parse_agent_step,
    parse_evaluation,
    parse_worked_solution,
    render_problem_block,
)
from dualtrack.solver import EventKind, Outcome, SolverConfig, SolveTrace, TraceEvent

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
        prompt = build_decomposer_prompt(render_problem_block(problem.question, WENG_STEPS[:1]))
        assert prompt == (
            "Problem: Weng earns $12 an hour for babysitting. Yesterday, she just"
            " did 50 minutes of babysitting. How much did she earn?\n"
            "Steps completed so far:\n"
            "STEP 1: Weng earns 12/60 = $<<12/60=0.2>>0.2 per minute."
        )

    def test_empty_history_has_header_and_no_step_lines(self):
        problem = Problem(id="q1", question="What is 2 + 2?")
        prompt = build_decomposer_prompt(render_problem_block(problem.question, []))
        assert prompt == "Problem: What is 2 + 2?\nSteps completed so far:"

    def test_hint_appended_as_trailing_line(self):
        problem = Problem(id="q1", question="How many post-it notes remain?")
        history = ["She started with 220 post-it notes."]
        hint = "account for the 23 post-it notes"
        block = render_problem_block(problem.question, history)
        without = build_decomposer_prompt(block)
        with_hint = build_decomposer_prompt(block, hint)
        assert with_hint == without + "\nHINT: account for the 23 post-it notes"

    def test_deterministic_bytes(self):
        problem = Problem(id="q1", question="Count the apples.")
        history = ["He picked 3 + 4 = 7 apples."]
        block = render_problem_block(problem.question, history)
        first = build_decomposer_prompt(block, "keep going")
        second = build_decomposer_prompt(block, "keep going")
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

    # U+2212 MINUS SIGN and U+FF0D FULLWIDTH HYPHEN-MINUS are minus signs, so a
    # negative answer keeps its sign and is not scored as its absolute value.
    @pytest.mark.parametrize("line", ["FINAL_ANSWER: \u22127", "FINAL_ANSWER: \uff0d\uff17"])
    def test_final_answer_keeps_a_minus_sign_of_any_glyph(self, line):
        assert parse_agent_step(line).answer == CanonicalNumber("-7")

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
        prompt = build_evaluator_prompt(render_problem_block(problem.question, []), candidate)
        assert "60 - 45 = 15" in prompt

    def test_contains_format_instruction_and_rubric(self):
        problem = Problem(id="q1", question="Count.")
        candidate = StepCandidate(kind=StepKind.INTERMEDIATE, text="1 + 1 = 2")
        prompt = build_evaluator_prompt(render_problem_block(problem.question, []), candidate)
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
        prompt = build_evaluator_prompt(render_problem_block(problem.question, history), candidate)
        assert "STEP 1: first step text" in prompt
        assert "STEP 2: second step text" in prompt
        assert "FINAL_ANSWER: 9" in prompt

    def test_deterministic_bytes(self):
        problem = Problem(id="q1", question="Count.")
        candidate = StepCandidate(kind=StepKind.INTERMEDIATE, text="2 * 3 = 6")
        block = render_problem_block(problem.question, [])
        assert build_evaluator_prompt(block, candidate) == build_evaluator_prompt(block, candidate)


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

    @pytest.mark.parametrize("score", [4, -1])
    def test_evaluation_range_is_checked_by_position_and_keyword(self, score):
        with pytest.raises(ScoreOutOfRange):
            Evaluation(score, "f")
        with pytest.raises(ScoreOutOfRange):
            Evaluation(score=score, feedback="f")


class TestRecordContract:
    """The records are immutable, built alike by position or keyword, and
    print their fields by name."""

    @pytest.mark.parametrize(
        "positional,keyword,text",
        [
            (
                StepCandidate(StepKind.FINAL, "5", CanonicalNumber("5")),
                StepCandidate(kind=StepKind.FINAL, text="5", answer=CanonicalNumber("5")),
                "StepCandidate(kind=<StepKind.FINAL: 'final'>, text='5',"
                " answer=CanonicalNumber(text='5'))",
            ),
            (
                StepCandidate(StepKind.INTERMEDIATE, "1 + 1 = 2"),
                StepCandidate(kind=StepKind.INTERMEDIATE, text="1 + 1 = 2"),
                "StepCandidate(kind=<StepKind.INTERMEDIATE: 'intermediate'>,"
                " text='1 + 1 = 2', answer=None)",
            ),
            (Evaluation(2, "ok"), Evaluation(score=2, feedback="ok"),
             "Evaluation(score=2, feedback='ok')"),
            (Evaluation(0), Evaluation(score=0), "Evaluation(score=0, feedback='')"),
            (
                AcceptedStep(1, StepKind.INTERMEDIATE, "2 + 2 = 4", "2+2=4", 3),
                AcceptedStep(index=1, kind=StepKind.INTERMEDIATE, text="2 + 2 = 4",
                             fingerprint="2+2=4", score=3, forced=False),
                "AcceptedStep(index=1, kind=<StepKind.INTERMEDIATE: 'intermediate'>,"
                " text='2 + 2 = 4', fingerprint='2+2=4', score=3, forced=False)",
            ),
            (CanonicalNumber("-2.5"), CanonicalNumber(text="-2.5"),
             "CanonicalNumber(text='-2.5')"),
            (
                Problem("p1", "How many?", CanonicalNumber("5")),
                Problem(id="p1", question="How many?", gold_answer=CanonicalNumber("5")),
                "Problem(id='p1', question='How many?', gold_answer=CanonicalNumber(text='5'))",
            ),
            (Problem("p2", "Why?"), Problem(id="p2", question="Why?"),
             "Problem(id='p2', question='Why?', gold_answer=None)"),
            (DecodeParams(), DecodeParams(temperature=0.0, max_new_tokens=128),
             "DecodeParams(temperature=0.0, max_new_tokens=128)"),
            (DecodeParams(0.5, 64), DecodeParams(temperature=0.5, max_new_tokens=64),
             "DecodeParams(temperature=0.5, max_new_tokens=64)"),
            (
                SolverConfig(100),
                SolverConfig(token_budget=100, accept_threshold=1, max_retries_per_step=3,
                             max_steps=12, cache_enabled=True, cache_bad_threshold=1,
                             decomposer_params=DecodeParams(), evaluator_params=DecodeParams()),
                "SolverConfig(token_budget=100, accept_threshold=1, max_retries_per_step=3,"
                " max_steps=12, cache_enabled=True, cache_bad_threshold=1,"
                " decomposer_params=DecodeParams(temperature=0.0, max_new_tokens=128),"
                " evaluator_params=DecodeParams(temperature=0.0, max_new_tokens=128))",
            ),
            (
                SolverConfig(300, 2, 1, 4, False, 0, DecodeParams(0.5, 64),
                             DecodeParams(max_new_tokens=32)),
                SolverConfig(token_budget=300, accept_threshold=2, max_retries_per_step=1,
                             max_steps=4, cache_enabled=False, cache_bad_threshold=0,
                             decomposer_params=DecodeParams(0.5, 64),
                             evaluator_params=DecodeParams(max_new_tokens=32)),
                "SolverConfig(token_budget=300, accept_threshold=2, max_retries_per_step=1,"
                " max_steps=4, cache_enabled=False, cache_bad_threshold=0,"
                " decomposer_params=DecodeParams(temperature=0.5, max_new_tokens=64),"
                " evaluator_params=DecodeParams(temperature=0.0, max_new_tokens=32))",
            ),
            (
                TraceEvent(EventKind.GENERATED, {"raw": "STEP: x"}, 3),
                TraceEvent(kind=EventKind.GENERATED, payload={"raw": "STEP: x"},
                           tokens_charged=3),
                "TraceEvent(kind=<EventKind.GENERATED: 'generated'>, payload={'raw': 'STEP: x'},"
                " tokens_charged=3, call=None)",
            ),
            (
                TraceEvent(EventKind.FINISHED, {"final_answer": "5"}),
                TraceEvent(kind=EventKind.FINISHED, payload={"final_answer": "5"}),
                "TraceEvent(kind=<EventKind.FINISHED: 'finished'>,"
                " payload={'final_answer': '5'}, tokens_charged=0, call=None)",
            ),
            (WilsonInterval(0.25, 0.75), WilsonInterval(low=0.25, high=0.75),
             "WilsonInterval(low=0.25, high=0.75)"),
            (
                RunResult("p1", CanonicalNumber("5"), True, 120, Outcome.SOLVED, 2),
                RunResult(problem_id="p1", predicted=CanonicalNumber("5"), correct=True,
                          tokens_spent=120, outcome=Outcome.SOLVED, evaluator_calls=2,
                          trace_path=None),
                "RunResult(problem_id='p1', predicted=CanonicalNumber(text='5'), correct=True,"
                " tokens_spent=120, outcome=<Outcome.SOLVED: 'solved'>, evaluator_calls=2,"
                " trace_path=None)",
            ),
            (
                RunResult("p2", None, False, 300, Outcome.BUDGET_EXHAUSTED, 1, "t/p2.json"),
                RunResult(problem_id="p2", predicted=None, correct=False, tokens_spent=300,
                          outcome=Outcome.BUDGET_EXHAUSTED, evaluator_calls=1,
                          trace_path="t/p2.json"),
                "RunResult(problem_id='p2', predicted=None, correct=False, tokens_spent=300,"
                " outcome=<Outcome.BUDGET_EXHAUSTED: 'budget_exhausted'>, evaluator_calls=1,"
                " trace_path='t/p2.json')",
            ),
            (
                SummaryRow("dual_cot", 300, True, 1, 2, 0.5, 0.1, 0.9, 210.0, 3,
                           {"solved": 1, "budget_exhausted": 1}),
                SummaryRow(method="dual_cot", budget=300, cache=True, correct=1, n=2,
                           accuracy=0.5, ci_low=0.1, ci_high=0.9, mean_tokens=210.0,
                           evaluator_calls=3, outcomes={"solved": 1, "budget_exhausted": 1}),
                "SummaryRow(method='dual_cot', budget=300, cache=True, correct=1, n=2,"
                " accuracy=0.5, ci_low=0.1, ci_high=0.9, mean_tokens=210.0, evaluator_calls=3,"
                " outcomes={'solved': 1, 'budget_exhausted': 1})",
            ),
            (
                BenchmarkReport([RunResult("p1", None, False, 9, Outcome.STEP_LIMIT, 0)],
                                SummaryRow("m", 1, False, 0, 1, 0.0, 0.0, 0.5, 1.5, 0, {}),
                                Path("runs/x")),
                BenchmarkReport(
                    results=[RunResult("p1", None, False, 9, Outcome.STEP_LIMIT, 0)],
                    summary=SummaryRow("m", 1, False, 0, 1, 0.0, 0.0, 0.5, 1.5, 0, {}),
                    run_dir=Path("runs/x")),
                "BenchmarkReport(results=[RunResult(problem_id='p1', predicted=None,"
                " correct=False, tokens_spent=9, outcome=<Outcome.STEP_LIMIT: 'step_limit'>,"
                " evaluator_calls=0, trace_path=None)], summary=SummaryRow(method='m', budget=1,"
                " cache=False, correct=0, n=1, accuracy=0.0, ci_low=0.0, ci_high=0.5,"
                f" mean_tokens=1.5, evaluator_calls=0, outcomes={{}}), run_dir={Path('runs/x')!r})",
            ),
            (RawExample("Q?", "a\n#### 5"), RawExample(question="Q?", answer="a\n#### 5"),
             "RawExample(question='Q?', answer='a\\n#### 5', id='')"),
            (RawExample("Q?", "#### 5", "ex1"),
             RawExample(question="Q?", answer="#### 5", id="ex1"),
             "RawExample(question='Q?', answer='#### 5', id='ex1')"),
            (
                TrainingInstance("ex1-1", "Problem: Q?", "STEP: a", 1),
                TrainingInstance(id="ex1-1", problem_block="Problem: Q?", target="STEP: a",
                                 step_index=1),
                "TrainingInstance(id='ex1-1', problem_block='Problem: Q?', target='STEP: a',"
                " step_index=1)",
            ),
            (
                RunConfig("http://x"),
                RunConfig(api_base="http://x", token_budget=2048, script_path=None),
                "RunConfig(api_base='http://x', decomposer_model=None,"
                " evaluator_model=None, decomposer_system_prompt=None,"
                " evaluator_system_prompt=None, token_budget=2048, accept_threshold=1,"
                " max_retries_per_step=3, max_steps=12, cache_enabled=True,"
                " cache_bad_threshold=1, temperature=0.0, max_new_tokens=128,"
                " decomposer_temperature=None, decomposer_max_new_tokens=None,"
                " evaluator_temperature=None, evaluator_max_new_tokens=None, timeout=60.0,"
                " workers=1, out_dir='runs', method='dual_cot')",
            ),
            (
                SolveTrace("p1", {"token_budget": 5},
                           [TraceEvent(EventKind.FINISHED, {"final_answer": "5"})],
                           [AcceptedStep(1, StepKind.FINAL, "5", "5", 3)], CanonicalNumber("5"),
                           Outcome.SOLVED, None),
                SolveTrace(problem_id="p1", config={"token_budget": 5},
                           events=[TraceEvent(EventKind.FINISHED, {"final_answer": "5"})],
                           accepted_steps=[AcceptedStep(1, StepKind.FINAL, "5", "5", 3)],
                           final_answer=CanonicalNumber("5"), outcome=Outcome.SOLVED),
                "SolveTrace(problem_id='p1', config={'token_budget': 5},"
                " events=[TraceEvent(kind=<EventKind.FINISHED: 'finished'>,"
                " payload={'final_answer': '5'}, tokens_charged=0, call=None)],"
                " accepted_steps=[AcceptedStep(index=1, kind=<StepKind.FINAL: 'final'>, text='5',"
                " fingerprint='5', score=3, forced=False)], final_answer=CanonicalNumber(text='5'),"
                " outcome=<Outcome.SOLVED: 'solved'>, error=None, cuts=None)",
            ),
            (
                SolveTrace("p1", {}),
                SolveTrace(problem_id="p1", config={}, events=(), accepted_steps=(),
                           final_answer=None, outcome=None, error=None),
                "SolveTrace(problem_id='p1', config={}, events=(), accepted_steps=(),"
                " final_answer=None, outcome=None, error=None, cuts=None)",
            ),
        ],
    )
    def test_record_contract(self, positional, keyword, text):
        assert positional == keyword
        assert repr(positional) == text
        for name in re.findall(r"(\w+)=", text):
            with pytest.raises(AttributeError):
                setattr(positional, name, None)

    def test_run_config_repr_leaves_out_the_script_path(self):
        config = RunConfig(workers=2, script_path="fixture.json")
        assert "fixture.json" not in repr(config)
        assert repr(config) == repr(RunConfig(workers=2))
        assert config != RunConfig(workers=2)
        with pytest.raises(AttributeError):
            config.script_path = None

    def test_run_config_repr_leaves_out_the_api_key(self):
        config = RunConfig(api_base="http://x", api_key="sk-secret")
        for shown in (repr(config), str(config), repr([config]), f"{config}"):
            assert "sk-secret" not in shown and "api_key" not in shown
        assert repr(config) == repr(RunConfig(api_base="http://x"))
        assert config.api_key == "sk-secret"
        assert config != RunConfig(api_base="http://x")


class TestCheckedRecords:
    """A record that checks its fields checks them however it is built: by
    position, by keyword, by ``_make`` or by ``_replace``."""

    @pytest.mark.parametrize(
        "record, changes, error",
        [
            (Evaluation(2), {"score": 9}, ScoreOutOfRange),
            (Evaluation(2), {"score": -1}, ScoreOutOfRange),
            (Problem("p", "Q?"), {"question": "  "}, ValueError),
            (DecodeParams(), {"temperature": -0.1}, ValueError),
            (DecodeParams(), {"max_new_tokens": 0}, ValueError),
            (SolverConfig(5), {"token_budget": -1}, ValueError),
            (SolverConfig(5), {"accept_threshold": 4}, ValueError),
            (SolverConfig(5), {"cache_bad_threshold": 2}, ValueError),
            (SolverConfig(5), {"max_retries_per_step": 0}, ValueError),
            (SolverConfig(5), {"max_steps": 0}, ValueError),
        ],
    )
    def test_checks_hold_for_every_constructor(self, record, changes, error):
        cls = type(record)
        values = [changes.get(name, value) for name, value in zip(cls._fields, record)]
        with pytest.raises(error):
            cls(*values)
        with pytest.raises(error):
            cls(**dict(zip(cls._fields, values)))
        with pytest.raises(error):
            cls._make(values)
        with pytest.raises(error):
            record._replace(**changes)

    def test_with_overrides_is_checked(self):
        with pytest.raises(ValueError, match="token_budget"):
            SolverConfig(token_budget=5).with_overrides(token_budget=-1)
        assert SolverConfig(5).with_overrides(max_steps=3) == SolverConfig(5, max_steps=3)

    @pytest.mark.parametrize(
        "record", [Evaluation(2, "ok"), Problem("p", "Q?"), DecodeParams(), SolverConfig(5)])
    def test_make_and_replace_build_the_same_record(self, record):
        cls = type(record)
        assert type(cls._make(record)) is cls and cls._make(iter(record)) == record
        assert type(record._replace()) is cls and record._replace() == record
        with pytest.raises(TypeError):
            cls._make(tuple(record)[:-1])
        with pytest.raises(ValueError):
            record._replace(no_such_field=1)


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
            # Digits that are not ASCII, and texts with more than digits, take
            # the literal regex's path: each decimal digit reads as its value.
            ("९", "9"),
            ("٣", "3"),
            ("１７", "17"),
            ("-17", "-17"),
            ("1,000", "1000"),
            ("17.", "17"),
            # U+2212 MINUS SIGN and U+FF0D FULLWIDTH HYPHEN-MINUS read as "-";
            # an en dash is no minus sign, so "2–3" is a range ending in 3.
            ("\u22125", "-5"),
            ("\uff0d\uff15", "-5"),
            ("it fell to \u22123.50 degrees", "-3.5"),
            ("\u22120", "0"),
            ("50 \u2212 20 = 30", "30"),
            ("3\u221215", "15"),
            ("2\u20133 hours", "3"),
        ],
    )
    def test_examples(self, text, expected):
        assert normalize_answer(text) == CanonicalNumber(expected)

    # One canonical number per value, whatever script its digits are in.
    @pytest.mark.parametrize("text,expected", [
        ("１２", "12"),
        ("it costs ١٢٠.٥٠ in all", "120.5"),
        ("-००७", "-7"),
        ("3.१४", "3.14"),
        ("total: ０", "0"),
    ])
    def test_digits_that_are_not_ascii_read_as_ascii(self, text, expected):
        assert normalize_answer(text) == CanonicalNumber(expected)
        assert normalize_answer(text).text.isascii()

    @given(digits=st.text(alphabet=st.characters(categories=("Nd",)), min_size=1, max_size=12))
    def test_a_number_is_one_canonical_number_in_any_script(self, digits):
        ascii_text = "".join(str(int(digit)) for digit in digits)
        assert normalize_answer(f"= {digits}") == normalize_answer(ascii_text)
        assert CanonicalNumber.from_literal(digits) == normalize_answer(ascii_text)

    # Fullwidth punctuation reads as its ASCII form: "，" separates thousands
    # and "．" is a decimal point, not a break between two literals.
    @pytest.mark.parametrize("text,expected", [
        ("１，０００", "1000"),
        ("３．５", "3.5"),
        ("＄１，２００．５０", "1200.5"),
    ])
    def test_fullwidth_punctuation_reads_as_ascii(self, text, expected):
        assert normalize_answer(text) == CanonicalNumber(expected)

    # Compared by exception type: a NoNumberFound message quotes its input.
    @given(text=st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E)))
    def test_fullwidth_text_reads_as_its_ascii_form(self, text):
        wide = text.translate({code: code + 0xFEE0 for code in range(0x21, 0x7F)})
        assert fingerprint(wide) == fingerprint(text)
        results = []
        for form in (text, wide):
            try:
                results.append(normalize_answer(form))
            except NoNumberFound as exc:
                results.append(type(exc))
        assert results[0] == results[1]

    @pytest.mark.parametrize("literal", ["\u22125", "\uff0d5", "\uff0d\uff15", " \u22125.0 "])
    def test_literal_with_a_minus_sign_glyph_is_negative(self, literal):
        assert CanonicalNumber.from_literal(literal) == CanonicalNumber("-5")

    # "²" is a digit to str.isdigit() but no decimal digit.
    @pytest.mark.parametrize("text", ["no digits here", "²"])
    def test_no_number_raises(self, text):
        with pytest.raises(NoNumberFound):
            normalize_answer(text)

    @given(
        zeros=st.text(alphabet="0", max_size=4),
        digits=st.text(alphabet="0123456789", min_size=1, max_size=12),
        before=st.text(alphabet=" \t\n\r\u2028\xa0", max_size=3),
        after=st.text(alphabet=" \t\n\r\u2028\xa0", max_size=3),
    )
    def test_ascii_digit_run_is_its_own_literal(self, zeros, digits, before, after):
        assert normalize_answer(f"{before}{zeros}{digits}{after}") == (
            CanonicalNumber.from_literal(zeros + digits))

    def test_literal_that_is_not_a_number_raises(self):
        with pytest.raises(NoNumberFound):
            CanonicalNumber.from_literal("abc")

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

    def test_leading_zeros_dropped(self):
        assert parse_worked_solution("x\n#### 0072") == (["x"], CanonicalNumber("72"))

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
        block = render_problem_block(problem.question, steps)
        assert build_decomposer_prompt(block) == block

    @given(st.lists(step_texts, max_size=4), step_texts)
    def test_extending_the_block_by_a_step_equals_rendering_it_afresh(self, steps, step):
        block = render_problem_block(WENG_QUESTION, steps)
        extended = extend_problem_block(block, len(steps) + 1, step)
        assert extended == render_problem_block(WENG_QUESTION, [*steps, step])
        assert extended == f"{block}\nSTEP {len(steps) + 1}: {step}"
