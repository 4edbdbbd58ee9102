from __future__ import annotations

import json

import pytest

from dualtrack.dataset import (
    DataError,
    RawExample,
    TrainingInstance,
    UnknownRating,
    load_gsm8k_examples,
    make_instances,
    map_prm_rating,
    read_text,
    serialize_instance,
    split_examples,
    write_instances,
)
from dualtrack.agents import Role, ScriptedBackend
from dualtrack.harness import load_problems
from dualtrack.protocol import (
    MissingMarker,
    Problem,
    parse_worked_solution,
)
from dualtrack.solver import SolverConfig, solve

from conftest import (
    BIG_BUDGET,
    NATALIA_ANSWER,
    NATALIA_QUESTION,
    NATALIA_STEPS,
    RecordingBackend,
    WENG_ANSWER,
    WENG_QUESTION,
)

NATALIA = RawExample(question=NATALIA_QUESTION, answer=NATALIA_ANSWER, id="natalia")
WENG = RawExample(question=WENG_QUESTION, answer=WENG_ANSWER, id="weng")


class TestSplitSolutionSteps:
    """The steps half of ``protocol.parse_worked_solution``."""

    def test_natalia_steps(self):
        assert parse_worked_solution(NATALIA_ANSWER)[0] == NATALIA_STEPS

    def test_marker_only_answer_has_no_steps(self):
        assert parse_worked_solution("#### 7")[0] == []

    def test_interior_blank_lines_dropped_order_kept(self):
        answer = "first step\n\n  \nsecond step\n#### 3"
        assert parse_worked_solution(answer)[0] == ["first step", "second step"]

    def test_annotations_preserved(self):
        steps = parse_worked_solution(WENG_ANSWER)[0]
        assert steps[0] == "Weng earns 12/60 = $<<12/60=0.2>>0.2 per minute."

    def test_missing_marker_raises(self):
        with pytest.raises(MissingMarker):
            parse_worked_solution("just some steps, no marker")


class TestMakeInstances:
    def test_natalia_expands_to_three_instances(self):
        instances = make_instances(NATALIA)
        assert len(instances) == 3
        assert [instance.step_index for instance in instances] == [1, 2, 3]

        assert instances[0].problem_block == (
            f"Problem: {NATALIA_QUESTION}\nSteps completed so far:"
        )
        assert instances[0].target == "STEP: Natalia sold <<48/2 = 24>> clips in May."

        assert instances[1].problem_block == (
            f"Problem: {NATALIA_QUESTION}\nSteps completed so far:\n"
            "STEP 1: Natalia sold <<48/2 = 24>> clips in May."
        )
        assert instances[1].target == (
            "STEP: Natalia sold <<48 + 24 = 72>> clips altogether."
        )

        assert instances[2].target == "FINAL_ANSWER: 72"
        assert instances[2].problem_block.endswith(
            "STEP 2: Natalia sold <<48 + 24 = 72>> clips altogether."
        )

    def test_weng_instance_two_is_byte_exact(self):
        instances = make_instances(WENG)
        assert len(instances) == 3
        assert instances[1].problem_block == (
            "Problem: Weng earns $12 an hour for babysitting. Yesterday, she just"
            " did 50 minutes of babysitting. How much did she earn?\n"
            "Steps completed so far:\n"
            "STEP 1: Weng earns 12/60 = $<<12/60=0.2>>0.2 per minute."
        )
        assert instances[1].target == (
            "STEP: Working 50 minutes, she earned 0.2 x 50 = $<<0.2*50=10>>10."
        )

    def test_degenerate_example_yields_final_only(self):
        example = RawExample(question="How many?", answer="#### 7", id="bare")
        instances = make_instances(example)
        assert len(instances) == 1
        assert instances[0].target == "FINAL_ANSWER: 7"
        assert instances[0].step_index == 1

    def test_final_prefix_only_on_last_instance(self):
        for example in (NATALIA, WENG):
            instances = make_instances(example)
            for instance in instances[:-1]:
                assert instance.target.startswith("STEP: ")
            assert instances[-1].target.startswith("FINAL_ANSWER: ")

    def test_histories_are_nested_prefixes(self):
        instances = make_instances(NATALIA)
        for earlier, later in zip(instances, instances[1:]):
            assert later.problem_block.startswith(earlier.problem_block)

    def test_targets_reconstruct_split_steps(self):
        instances = make_instances(NATALIA)
        bodies = [
            instance.target.removeprefix("STEP: ")
            for instance in instances
            if instance.target.startswith("STEP: ")
        ]
        assert bodies == parse_worked_solution(NATALIA_ANSWER)[0]

    def test_instance_count_is_steps_plus_one(self):
        for example in (NATALIA, WENG):
            steps = parse_worked_solution(example.answer)[0]
            assert len(make_instances(example)) == len(steps) + 1

    def test_problem_block_matches_decomposer_prompt(self):
        # Each instance's block is the prompt the solver sends for its slot
        # once the gold steps before it are accepted.
        instances = make_instances(WENG)
        backend = RecordingBackend(ScriptedBackend({
            Role.DECOMPOSER: [instance.target for instance in instances],
            Role.EVALUATOR: ["Score: 3\nFeedback: ok"] * len(instances),
        }))
        problem = Problem(id="weng", question=WENG_QUESTION)
        solve(problem, SolverConfig(token_budget=BIG_BUDGET), backend, backend)
        assert backend.prompts[Role.DECOMPOSER] == [
            instance.problem_block for instance in instances
        ]


class TestInstanceSerialization:
    def test_round_trip(self):
        for instance in make_instances(NATALIA):
            assert TrainingInstance(**json.loads(serialize_instance(instance))) == instance

    def test_record_bytes(self):
        instance = TrainingInstance(
            id="café-2",
            problem_block="Problem: A pen costs €3. How much do 2 cost?\n"
            "Steps completed so far:\nSTEP 1: One pen is €3.",
            target="STEP: Two pens cost 2 x 3 = €6.",
            step_index=2,
        )
        assert serialize_instance(instance) == (
            '{"id": "café-2", "problem_block": "Problem: A pen costs €3. How much do 2 cost?'
            '\\nSteps completed so far:\\nSTEP 1: One pen is €3.", "step_index": 2, '
            '"target": "STEP: Two pens cost 2 x 3 = €6."}'
        )

    def test_record_fields(self):
        record = json.loads(serialize_instance(make_instances(WENG)[1]))
        assert set(record) == {"id", "problem_block", "target", "step_index"}
        assert record["id"] == "weng-2"
        assert record["step_index"] == 2


class TestPrmMapping:
    @pytest.mark.parametrize("rating,expected", [(-1, 0), (0, 1), (1, 3)])
    def test_mapping_table(self, rating, expected):
        assert map_prm_rating(rating) == expected

    def test_mapping_is_monotone(self):
        scores = [map_prm_rating(rating) for rating in (-1, 0, 1)]
        assert scores == sorted(scores)

    @pytest.mark.parametrize("rating", [2, -2, "1", None, True, False, 1.0])
    def test_unknown_rating_rejected(self, rating):
        with pytest.raises(UnknownRating):
            map_prm_rating(rating)


class TestLoaders:
    def test_load_gsm8k_examples(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text(
            json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})
            + "\n"
            + json.dumps({"question": WENG_QUESTION, "answer": WENG_ANSWER, "id": "weng"})
            + "\n",
            encoding="utf-8",
        )
        examples = load_gsm8k_examples(path)
        assert len(examples) == 2
        assert examples[1].id == "weng"

    def test_null_id_counts_as_absent(self, tmp_path):
        records = [
            {"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER},
            {"question": WENG_QUESTION, "answer": WENG_ANSWER},
        ]
        path = tmp_path / "train.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        without_ids = load_gsm8k_examples(path)
        path.write_text(
            "".join(json.dumps({**r, "id": None}) + "\n" for r in records), encoding="utf-8"
        )
        with_null_ids = load_gsm8k_examples(path)
        assert with_null_ids == without_ids
        ids = [make_instances(example)[0].id for example in with_null_ids]
        assert len(set(ids)) == 2 and not any(i.startswith("None") for i in ids)

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "only one field"}\n', encoding="utf-8")
        with pytest.raises(DataError, match=":1:"):
            load_gsm8k_examples(path)

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "q", "answer": "#### 1"}\n{broken\n', encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            load_gsm8k_examples(path)

    @pytest.mark.parametrize("value", ["5", "null", '["x"]'])
    @pytest.mark.parametrize("field", ["question", "answer"])
    def test_non_string_field_names_line(self, tmp_path, field, value):
        good = {"question": "q", "answer": "#### 1"}
        bad = json.dumps({**good, field: "@"}).replace('"@"', value)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: question and answer must be strings"):
            load_gsm8k_examples(path)

    def test_blank_lines_are_skipped_and_numbering_kept(self, tmp_path):
        path = tmp_path / "train.jsonl"
        path.write_text(
            "\n" + json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})
            + "\n   \n{broken\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=":4: invalid JSON"):
            load_gsm8k_examples(path)
        path.write_text(path.read_text(encoding="utf-8").replace("{broken", ""),
                        encoding="utf-8")
        assert load_gsm8k_examples(path) == [
            RawExample(question=NATALIA_QUESTION, answer=NATALIA_ANSWER)
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_gsm8k_examples(tmp_path / "absent.jsonl")

    # JSON takes these raw inside a string, and json.dumps(..., ensure_ascii=False)
    # writes them raw; str.splitlines() would end a record at each.
    @pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85"])
    def test_records_split_only_at_newlines(self, tmp_path, separator):
        question = f"Tom has 3 apples.{separator}He buys 4 more. How many now?"
        path = tmp_path / "records.jsonl"
        path.write_text(json.dumps({"question": question, "answer": "3 + 4 = 7\n#### 7"},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        assert separator in path.read_text(encoding="utf-8")
        assert load_gsm8k_examples(path) == [RawExample(question, "3 + 4 = 7\n#### 7")]
        path.write_text(json.dumps({"id": "p", "question": question, "gold_answer": "7"},
                                   ensure_ascii=False) + "\n", encoding="utf-8")
        (problem,) = load_problems(path)
        assert (problem.id, problem.question, str(problem.gold_answer)) == ("p", question, "7")

    def test_crlf_records_keep_their_line_numbers(self, tmp_path):
        good = json.dumps({"id": "p", "question": "q?", "gold_answer": "1", "answer": "#### 1"})
        path = tmp_path / "records.jsonl"
        path.write_bytes(f"{good}\r\n\r\n{{broken\r\n".encode("utf-8"))
        for load in (load_gsm8k_examples, load_problems):
            with pytest.raises(DataError, match=":3: invalid JSON"):
                load(path)
        path.write_bytes(f"{good}\r\n\r\n".encode("utf-8"))
        assert [example.question for example in load_gsm8k_examples(path)] == ["q?"]
        assert [problem.id for problem in load_problems(path)] == ["p"]


class TestReadText:
    def test_reads_utf8(self, tmp_path):
        path = tmp_path / "note.txt"
        path.write_bytes("café costs €3\n".encode("utf-8"))
        assert read_text(path) == "café costs €3\n"
        assert read_text(str(path), "note") == "café costs €3\n"

    def test_one_leading_bom_is_dropped_and_any_other_kept(self, tmp_path):
        path = tmp_path / "note.txt"
        path.write_bytes("\ufeff\ufeffa\ufeffb".encode("utf-8"))
        assert read_text(path) == "\ufeffa\ufeffb"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_is_data_error_naming_the_path(self, tmp_path, kind):
        path = tmp_path / "input.jsonl"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"ok\n\xe9\n")
        with pytest.raises(DataError) as error:
            read_text(path)
        assert str(error.value).startswith(f"cannot read {path}: ")

    def test_name_replaces_the_path_in_the_message(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_bytes(b"\xe9")
        with pytest.raises(DataError) as error:
            read_text(path, "config file")
        assert str(error.value).startswith(
            "cannot read config file: 'utf-8' codec can't decode byte 0xe9")
        assert str(path) not in str(error.value)


class TestSplitExamples:
    def _examples(self, count):
        return [
            RawExample(question=f"Question {i}?", answer=f"step\n#### {i}", id=f"e{i}")
            for i in range(count)
        ]

    def test_zero_fraction_puts_all_in_train(self):
        train, val = split_examples(self._examples(20), val_fraction=0.0)
        assert len(train) == 20 and not val

    def test_full_fraction_puts_all_in_val(self):
        train, val = split_examples(self._examples(20), val_fraction=1.0)
        assert len(val) == 20 and not train

    def test_split_is_deterministic_and_partitioning(self):
        examples = self._examples(100)
        first = split_examples(examples, val_fraction=0.2, seed=3)
        second = split_examples(examples, val_fraction=0.2, seed=3)
        assert first == second
        train, val = first
        assert len(train) + len(val) == 100
        assert {e.id for e in train}.isdisjoint({e.id for e in val})

    def test_seed_changes_assignment(self):
        examples = self._examples(100)
        _, val_a = split_examples(examples, val_fraction=0.5, seed=1)
        _, val_b = split_examples(examples, val_fraction=0.5, seed=2)
        assert {e.id for e in val_a} != {e.id for e in val_b}

    def test_fraction_roughly_respected(self):
        _, val = split_examples(self._examples(400), val_fraction=0.5, seed=0)
        assert 120 <= len(val) <= 280

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            split_examples(self._examples(1), val_fraction=1.5)


class TestStatsAndWriting:
    def test_write_instances(self, tmp_path):
        path = tmp_path / "out" / "train.jsonl"
        count = write_instances(make_instances(NATALIA), path)
        assert count == 3
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["step_index"] == 1
