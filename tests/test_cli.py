from __future__ import annotations

import argparse
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from dualtrack.cli import (
    EXIT_BACKEND,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_UNSOLVED,
    KNOWN_KEYS,
    ConfigError,
    RunConfig,
    _http_backend,
    build_parser,
    load_run_config,
    main,
)
from dualtrack.agents import HTTPBackend, Role, ScriptedBackend
from dualtrack.harness import config_hash, rows_to_csv, run_benchmark
from dualtrack.protocol import (DECOMPOSER_SYSTEM_PROMPT, EVALUATOR_SYSTEM_PROMPT, CanonicalNumber,
                                Problem)
from dualtrack.solver import SolverConfig

from conftest import (
    HENRY_FEEDBACK,
    HENRY_GOOD_STEP,
    HENRY_QUESTION,
    HENRY_SCRIPTS,
    NATALIA_ANSWER,
    NATALIA_QUESTION,
    WENG_ANSWER,
    WENG_QUESTION,
    build_bench_case,
    build_sweep_case,
    chat_ok,
    from_scratch,
    unpaid_calls,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def write_problems(path, problems):
    lines = [
        json.dumps(
            {
                "id": problem.id,
                "question": problem.question,
                "gold_answer": str(problem.gold_answer),
            }
        )
        for problem in problems
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def henry_fixture_file(tmp_path):
    return write_json(tmp_path / "henry_scripts.json", HENRY_SCRIPTS)


class TestPrep:
    def test_two_examples_make_six_instances(self, tmp_path, capsys):
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(
            json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})
            + "\n"
            + json.dumps({"question": WENG_QUESTION, "answer": WENG_ANSWER})
            + "\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "prepped"
        code = main(["prep", str(data), str(out_dir), "--split-ratio", "0"])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "examples: 2" in output
        assert "instances: 6 (train 6, val 0)" in output
        assert (out_dir / "train.jsonl").exists()
        assert len((out_dir / "train.jsonl").read_text().splitlines()) == 6
        assert (out_dir / "val.jsonl").read_text() == ""
        stats = json.loads((out_dir / "stats.json").read_text())
        assert stats["instances"] == 6

    @pytest.mark.parametrize(
        "records, flags, counts",
        [
            ("natalia weng", ["--split-ratio", "0"], (2, 6, "2.0", "2.00", 6, 0)),
            (
                "natalia weng tom",
                ["--split-ratio", "0.5", "--seed", "1"],
                (3, 8, "1.6666666666666667", "1.67", 5, 3),
            ),
            ("", [], (0, 0, "0.0", "0.00", 0, 0)),
        ],
        ids=["all-train", "split", "empty"],
    )
    def test_stats_file_and_report_bytes(self, tmp_path, capsys, records, flags, counts):
        examples = {
            "natalia": {"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER},
            "weng": {"question": WENG_QUESTION, "answer": WENG_ANSWER},
            "tom": {
                "question": "Tom has 2 apples and gets 3 more. How many apples does he have?",
                "answer": "Tom has 2 + 3 = <<2+3=5>>5 apples.\n#### 5",
            },
        }
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(
            "".join(json.dumps(examples[name]) + "\n" for name in records.split()),
            encoding="utf-8",
        )
        out_dir = tmp_path / "prepped"
        assert main(["prep", str(data), str(out_dir)] + flags) == EXIT_OK
        n, instances, mean_json, mean_text, train, val = counts
        assert (out_dir / "stats.json").read_text(encoding="utf-8") == (
            "{\n"
            f'  "examples": {n},\n'
            f'  "instances": {instances},\n'
            f'  "mean_steps_per_example": {mean_json},\n'
            f'  "train_instances": {train},\n'
            f'  "val_instances": {val}\n'
            "}\n"
        )
        assert capsys.readouterr().out == (
            f"examples: {n}\n"
            f"instances: {instances} (train {train}, val {val})\n"
            f"mean steps per example: {mean_text}\n"
            f"wrote {out_dir / 'train.jsonl'} and {out_dir / 'val.jsonl'}\n"
        )

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["prep", str(tmp_path / "absent.jsonl"), str(tmp_path / "out")])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "answer", ["It is 4 + 3 = 7.", "It is 4 + 3.\n#### seven"], ids=["no-marker", "no-number"]
    )
    def test_answer_without_gold_names_line_and_writes_nothing(self, tmp_path, capsys, answer):
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(
            json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER}) + "\n"
            + json.dumps({"question": WENG_QUESTION, "answer": WENG_ANSWER}) + "\n"
            + json.dumps({"question": "How many?", "answer": answer}) + "\n",
            encoding="utf-8",
        )
        out_dir = tmp_path / "prepped"
        assert main(["prep", str(data), str(out_dir), "--split-ratio", "0"]) == EXIT_DATA
        assert f"data error: {data}:3: " in capsys.readouterr().err
        assert not (out_dir / "train.jsonl").exists()

    def test_split_ratio_validated(self, tmp_path, capsys):
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(
            json.dumps({"question": "q", "answer": "#### 1"}) + "\n", encoding="utf-8"
        )
        code = main(["prep", str(data), str(tmp_path / "out"), "--split-ratio", "2"])
        assert code == EXIT_CONFIG
        assert "split_ratio" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, "not json\n"], ids=["missing", "malformed"])
    def test_split_ratio_checked_before_the_input_is_read(self, tmp_path, capsys, content):
        data = tmp_path / "gsm8k.jsonl"
        if content is not None:
            data.write_text(content, encoding="utf-8")
        code = main(["prep", str(data), str(tmp_path / "out"), "--split-ratio", "2"])
        assert code == EXIT_CONFIG
        assert "split_ratio" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSolve:
    def test_henry_trajectory_prints_retry_then_fix(self, henry_fixture_file, capsys):
        code = main(
            ["solve", HENRY_QUESTION, "--script", henry_fixture_file, "--budget", "100000"]
        )
        assert code == EXIT_OK
        output = capsys.readouterr().out
        retry_at = output.index(HENRY_FEEDBACK)
        fixed_at = output.index(HENRY_GOOD_STEP)
        assert retry_at < fixed_at
        assert "FINAL_ANSWER: 25" in output
        assert "outcome: solved" in output
        expected = config_hash(SolverConfig(token_budget=100000), "dual_cot")
        assert f"config_hash: {expected}\n" in output

    def test_per_problem_fixture_needs_adhoc_entry(self, tmp_path, capsys):
        fixture = write_json(tmp_path / "scripts.json", {"p000": HENRY_SCRIPTS})
        code = main(["solve", HENRY_QUESTION, "--script", fixture])
        assert code == EXIT_DATA
        assert "adhoc" in capsys.readouterr().err
        fixture = write_json(tmp_path / "scripts.json", {"p000": {}, "adhoc": HENRY_SCRIPTS})
        code = main(["solve", HENRY_QUESTION, "--script", fixture, "--budget", "100000"])
        assert code == EXIT_OK
        assert "FINAL_ANSWER: 25" in capsys.readouterr().out

    def test_zero_budget_exits_unsolved(self, henry_fixture_file, capsys):
        code = main(
            ["solve", HENRY_QUESTION, "--script", henry_fixture_file, "--budget", "0"]
        )
        assert code == EXIT_UNSOLVED
        assert "budget_exhausted" in capsys.readouterr().out

    def test_blank_question_is_usage_error(self, henry_fixture_file, capsys):
        code = main(["solve", "  ", "--script", henry_fixture_file])
        assert code == EXIT_CONFIG
        assert "config error: question:" in capsys.readouterr().err

    def test_dead_script_exits_backend(self, tmp_path, capsys):
        fixture = write_json(tmp_path / "dead.json", {"decomposer": [], "evaluator": []})
        code = main(["solve", "How many?", "--script", fixture])
        assert code == EXIT_BACKEND

    def test_unknown_config_key_listed(self, tmp_path, henry_fixture_file, capsys):
        # `seed` is not a run setting; `prep --seed` seeds the split
        for key in ("max_retirez", "seed"):
            config = write_json(tmp_path / "config.json", {key: 3})
            code = main(
                ["solve", HENRY_QUESTION, "--script", henry_fixture_file, "--config", config]
            )
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert key in err

    def test_mistyped_config_value_names_field(self, tmp_path, henry_fixture_file, capsys):
        config = write_json(tmp_path / "config.json", {"token_budget": "lots"})
        code = main(
            ["solve", HENRY_QUESTION, "--script", henry_fixture_file, "--config", config]
        )
        assert code == EXIT_CONFIG
        assert "token_budget" in capsys.readouterr().err

    def test_no_endpoint_and_no_script_is_config_error(self, capsys, monkeypatch):
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        code = main(["solve", "How many?"])
        assert code == EXIT_CONFIG
        assert "api_base" in capsys.readouterr().err

    def test_out_is_a_usage_error_that_creates_nothing(self, tmp_path, henry_fixture_file,
                                                       capsys):
        # solve writes no files, so it takes no --out.
        out_dir = tmp_path / "runs"
        with pytest.raises(SystemExit) as exit_info:
            main(["solve", HENRY_QUESTION, "--script", henry_fixture_file,
                  "--out", str(out_dir)])
        assert exit_info.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "unrecognized arguments: --out" in captured.err
        assert captured.out == ""
        assert not out_dir.exists()


class TestBench:
    def test_engineered_table_row(self, tmp_path, capsys):
        problems, fixture = build_bench_case(n=50, n_correct=36)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        out_dir = tmp_path / "runs"
        code = main(
            [
                "bench",
                problems_file,
                "--script",
                fixture_file,
                "--budget",
                "1000000",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "72.0% [58.3%, 82.5%]" in output
        assert "(36/50)" in output

        run_dirs = list(out_dir.iterdir())
        assert len(run_dirs) == 1
        results = (run_dirs[0] / "results.jsonl").read_text().splitlines()
        assert len(results) == 50
        csv_lines = (run_dirs[0] / "summary.csv").read_text().splitlines()
        assert len(csv_lines) == 2

    def test_report_bytes_are_pinned(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            time, "strftime",
            lambda fmt, *args: "2026-01-01T00:00:00" if "T" in fmt else "20260101-000000",
        )
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text(
            json.dumps({"id": "henry", "question": HENRY_QUESTION, "gold_answer": "25"}) + "\n",
            encoding="utf-8",
        )
        fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
        out_dir = tmp_path / "runs"
        argv = ["bench", str(problems_file), "--script", fixture_file, "--budget", "100000",
                "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        run_dir = out_dir / "20260101-000000-19a7dc08e9"
        assert capsys.readouterr().out == (
            "config_hash: 19a7dc08e9\n"
            "accuracy: 100.0% [20.7%, 100.0%] (1/1)\n"
            "mean tokens: 1078.00\n"
            "evaluator calls: 3\n"
            f"report: {run_dir}\n"
        )
        assert sorted(path.name for path in run_dir.iterdir()) == [
            "results.jsonl", "run_meta.json", "summary.csv", "summary.json", "traces",
        ]
        trace_path = json.dumps(str(run_dir / "traces" / "henry.json"))
        assert (run_dir / "results.jsonl").read_text(encoding="utf-8") == (
            '{"correct": true, "evaluator_calls": 3, "outcome": "solved", "predicted": "25", '
            '"problem_id": "henry", "tokens_spent": 1078, "trace_path": ' + trace_path + "}\n"
        )
        assert (run_dir / "summary.json").read_text(encoding="utf-8") == (
            '{\n  "accuracy": 1.0,\n  "budget": 100000,\n  "cache": "on",\n'
            '  "ci_high": 1.0,\n  "ci_low": 0.207,\n  "correct": 1,\n'
            '  "evaluator_calls": 3,\n  "mean_tokens": 1078.0,\n  "method": "dual_cot",\n'
            '  "n": 1,\n  "outcomes": {\n    "solved": 1\n  }\n}\n'
        )
        assert (run_dir / "summary.csv").read_text(encoding="utf-8") == (
            "method,budget,cache,correct,n,accuracy,ci_low,ci_high,mean_tokens,evaluator_calls\n"
            "dual_cot,100000,on,1,1,1.000,0.207,1.000,1078.00,3\n"
        )
        params = '{\n      "max_new_tokens": 128,\n      "temperature": 0.0\n    }'
        assert (run_dir / "run_meta.json").read_text(encoding="utf-8") == (
            '{\n  "config": {\n    "accept_threshold": 1,\n    "cache_bad_threshold": 1,\n'
            '    "cache_enabled": true,\n'
            f'    "decomposer_params": {params},\n'
            f'    "evaluator_params": {params},\n'
            '    "max_retries_per_step": 3,\n    "max_steps": 12,\n'
            '    "token_budget": 100000\n  },\n'
            '  "config_hash": "19a7dc08e9",\n  "method": "dual_cot",\n'
            '  "written_at": "2026-01-01T00:00:00"\n}\n'
        )

    def test_missing_script_entry_is_data_error(self, tmp_path, capsys):
        problems, fixture = build_bench_case(n=3, n_correct=3)
        del fixture["p002"]
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        code = main(["bench", problems_file, "--script", fixture_file])
        assert code == EXIT_DATA
        assert "p002" in capsys.readouterr().err


    def test_unsafe_problem_id_is_data_error(self, tmp_path, capsys):
        problems, fixture = build_bench_case(n=1, n_correct=1)
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text(
            json.dumps({"id": "../escape", "question": "q?", "gold_answer": "1"}) + "\n",
            encoding="utf-8",
        )
        fixture_file = write_json(tmp_path / "scripts.json", fixture["p000"])
        out_dir = tmp_path / "runs"
        argv = ["bench", str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
        code = main(argv)
        assert code == EXIT_DATA
        assert "../escape" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_problem_id_with_nul_is_data_error_before_any_file(self, tmp_path, capsys):
        # The good problem comes first: no trace of it is written either.
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text("".join(
            json.dumps({"id": problem_id, "question": "q?", "gold_answer": "1"}) + "\n"
            for problem_id in ("p1", "p\0x")), encoding="utf-8")
        fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
        out_dir = tmp_path / "runs"
        argv = ["bench", str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
        assert main(argv) == EXIT_DATA
        assert repr("p\0x") in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_problem_id_too_long_to_name_a_file_is_data_error_before_any_file(
            self, tmp_path, capsys, command):
        # 251 bytes of id and ".json" exceed the 255-byte limit on a file
        # name, whatever the file system here allows.
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text("".join(
            json.dumps({"id": problem_id, "question": "q?", "gold_answer": "1"}) + "\n"
            for problem_id in ("p1", "x" * 251)), encoding="utf-8")
        fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
        out_dir = tmp_path / "runs"
        argv = [command, str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
        assert main(argv) == EXIT_DATA
        assert "over 250 bytes" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_problem_id_with_lone_surrogate_is_data_error_before_any_file(
            self, tmp_path, capsys, command):
        # "\ud800" is valid JSON but has no UTF-8 encoding, so it cannot name
        # a trace file. The good problem comes first: no trace of it is written.
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text("".join(
            json.dumps({"id": problem_id, "question": "q?", "gold_answer": "1"}) + "\n"
            for problem_id in ("p1", "p\ud800")), encoding="utf-8")
        fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
        out_dir = tmp_path / "runs"
        argv = [command, str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
        assert main(argv) == EXIT_DATA
        assert repr("p\ud800") in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", ["bench", "solve"])
    def test_question_with_lone_surrogate_is_refused_before_any_file(
            self, tmp_path, capsys, command):
        # A JSON "\ud800" escape, or an argument byte that is not UTF-8, which
        # Python decodes to "\udcff", leaves a lone surrogate in the question.
        out_dir = tmp_path / "runs"
        if command == "bench":
            problems_file = tmp_path / "problems.jsonl"
            problems_file.write_text("".join(
                json.dumps({"id": problem_id, "question": question, "gold_answer": "1"}) + "\n"
                for problem_id, question in (("p1", "q?"), ("p2", "q\ud800?"))),
                encoding="utf-8")
            fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
            argv = ["bench", str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
            code, error = EXIT_DATA, f"data error: {problems_file}:2: "
        else:
            argv = ["solve", "How many\udcff?", "--script", write_json(
                tmp_path / "scripts.json", HENRY_SCRIPTS)]
            code, error = EXIT_CONFIG, "config error: question: "
        assert main(argv) == code
        err = capsys.readouterr().err
        assert error + "problem question must be valid Unicode" in err
        assert "Traceback" not in err
        assert not out_dir.exists()


class TestLiveEndpoint:
    def test_bench_sends_role_models_system_prompts_and_key(
        self, tmp_path, capsys, monkeypatch, endpoint
    ):
        problem = Problem(id="apples", question="How many apples?",
                          gold_answer=CanonicalNumber("7"))
        problems_file = write_problems(tmp_path / "problems.jsonl", [problem])
        config = write_json(tmp_path / "config.json", {
            "api_base": endpoint.url,
            "decomposer_model": "decomposer-8b",
            "evaluator_model": "evaluator-8b",
            "evaluator_system_prompt": "Grade the step strictly.",
        })
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        monkeypatch.setenv("DUALTRACK_API_KEY", "sk-local")
        endpoint.actions = [
            chat_ok("STEP: Add 3 + 4 = 7 apples."),
            chat_ok("Score: 3\nFeedback: Correct."),
            chat_ok("FINAL_ANSWER: 7"),
            chat_ok("Score: 3\nFeedback: Correct."),
        ]
        argv = ["bench", problems_file, "--config", config, "--out", str(tmp_path / "runs")]
        assert main(argv) == EXIT_OK
        assert "accuracy: 100.0%" in capsys.readouterr().out
        sent = [
            (headers["Authorization"], body["model"], body["messages"][0]["content"])
            for headers, body in endpoint.requests
        ]
        assert sent == [
            ("Bearer sk-local", "decomposer-8b", DECOMPOSER_SYSTEM_PROMPT),
            ("Bearer sk-local", "evaluator-8b", "Grade the step strictly."),
        ] * 2

    def test_reply_that_is_not_valid_unicode_is_a_backend_failure(
        self, tmp_path, capsys, monkeypatch, endpoint
    ):
        # The body's "\ud800" escape is valid JSON but decodes to a lone
        # surrogate, which the trace file could not hold as UTF-8.
        problem = Problem(id="apples", question="How many apples?",
                          gold_answer=CanonicalNumber("7"))
        problems_file = write_problems(tmp_path / "problems.jsonl", [problem])
        config = write_json(tmp_path / "config.json", {
            "api_base": endpoint.url, "decomposer_model": "d", "evaluator_model": "e"})
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        endpoint.actions = [chat_ok("STEP: \ud800", {"prompt_tokens": 5, "completion_tokens": 3})]
        out_dir = tmp_path / "runs"
        argv = ["bench", problems_file, "--config", config, "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        assert "accuracy: 0.0%" in capsys.readouterr().out
        (trace_file,) = out_dir.glob("*/traces/apples.json")
        trace = json.loads(trace_file.read_text(encoding="utf-8"))
        assert (trace["outcome"], trace["error"], trace["events"]) == (
            "backend_failure", "decomposer: message content is not valid Unicode", [])
        assert endpoint.received == 1


    def test_sweep_sends_each_request_its_trunk_did_not_already_pay_for(
        self, tmp_path, monkeypatch, endpoint
    ):
        # Problem n: add n, then remove 2, then answer. On odd n the Decomposer
        # first repeats step 1 in slot 2: a cache hit with the cache on, an
        # Evaluator's 0 with it off. Either hint brings the fix, and from the
        # fix on both solves make the same requests.
        problems = [Problem(id=f"n{n}", question=f"How many apples remain on cart {n}?",
                            gold_answer=CanonicalNumber(str(10 + n - n % 3 // 2)))
                    for n in range(1, 7)]

        def answer(role, prompt):
            n = int(re.search(r"cart (\d+)\?", prompt)[1])
            first = f"STEP: First he adds 12 + {n} = {12 + n} apples."
            steps = prompt.count("\nSTEP ")
            if role == "evaluator":
                repeat = steps and first in prompt.rpartition("Candidate step:")[2]
                return ("Score: 0\nFeedback: It repeats step 1." if repeat
                        else "Score: 3\nFeedback: Ok.")
            fix = f"STEP: Then he removes {12 + n} - 2 = {10 + n} apples."
            if steps == 1:
                return fix if n % 2 == 0 or "HINT:" in prompt else first
            return (first, None, f"FINAL_ANSWER: {10 + n}")[steps]

        models = {"decomposer": "decomposer-8b", "evaluator": "evaluator-8b"}
        roles = {model: role for role, model in models.items()}
        endpoint.responder = lambda body: chat_ok(
            answer(roles[body["model"]], body["messages"][-1]["content"]))

        class InProcess:
            def complete(self, role, prompt, params=None):
                return ScriptedBackend({role: [answer(Role(role).value, prompt)]}).complete(
                    role, prompt, params)

        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        config_file = write_json(tmp_path / "config.json", {
            "api_base": endpoint.url, "decomposer_model": models["decomposer"],
            "evaluator_model": models["evaluator"]})
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        monkeypatch.delenv("DUALTRACK_API_KEY", raising=False)
        budgets = (150, 300, 450, 900)
        out_dir = tmp_path / "runs"
        argv = ["sweep", problems_file, "--config", config_file,
                "--budgets", ",".join(map(str, budgets)), "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        # Each problem's cache-on solve, then what its fork did not find in its log.
        run_config = load_run_config(config_file, build_parser().parse_args(argv))
        top = run_config.solver_config().with_overrides(token_budget=max(budgets))
        expected, saved = [], 0
        for problem in problems:
            on, off = from_scratch(problem, top, InProcess)
            unpaid = unpaid_calls(on, off)
            expected += on.attempts + unpaid
            if on.attempts != off.attempts:  # the 3 calls past the fork point from the fix on
                assert off.attempts[5:] == on.attempts[4:] and unpaid == off.attempts[3:5]
                saved += 3
        assert saved == 9
        system = {Role.DECOMPOSER: DECOMPOSER_SYSTEM_PROMPT,
                  Role.EVALUATOR: EVALUATOR_SYSTEM_PROMPT}
        params = {Role.DECOMPOSER: top.decomposer_params, Role.EVALUATOR: top.evaluator_params}
        assert [body for _, body in endpoint.requests] == [
            {"model": models[role.value],
             "messages": [{"role": "system", "content": system[role]},
                          {"role": "user", "content": prompt}],
             "temperature": params[role].temperature, "max_tokens": params[role].max_new_tokens}
            for role, prompt in expected]
        (run_dir,) = out_dir.glob("*-sweep-*")
        sweep_csv = (run_dir / "sweep.csv").read_text(encoding="utf-8")
        # The rows are those of one benchmark per cell against the same endpoint.
        backend = endpoint.backend()
        cells = [run_benchmark(problems, top.with_overrides(token_budget=budget,
                                                             cache_enabled=cache),
                               (backend, backend)).summary
                 for budget in budgets for cache in (False, True)]
        assert sweep_csv == rows_to_csv(cells)

    def test_sweep_names_cells_whose_solves_a_failing_endpoint_ended(
        self, tmp_path, capsys, monkeypatch, endpoint
    ):
        # Every request about cart 2 gets a 503 on both asks, so the transport
        # retry does not outlive it; cart 1 is answered at once.
        problems = [Problem(id=f"n{n}", question=f"How many apples are on cart {n}?",
                            gold_answer=CanonicalNumber("7")) for n in (1, 2)]

        def respond(body):
            if "cart 2?" in body["messages"][-1]["content"]:
                return 503, b'{"error": "overloaded"}'
            return chat_ok("FINAL_ANSWER: 7" if body["model"] == "decomposer-8b"
                           else "Score: 3\nFeedback: Ok.")

        endpoint.responder = respond
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        config_file = write_json(tmp_path / "config.json", {
            "api_base": endpoint.url, "decomposer_model": "decomposer-8b",
            "evaluator_model": "evaluator-8b"})
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        monkeypatch.delenv("DUALTRACK_API_KEY", raising=False)
        out_dir = tmp_path / "runs"
        argv = ["sweep", problems_file, "--config", config_file, "--budgets", "150,900",
                "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        # Cart 2's cache-on solve asked twice, and its cache-off fork, with no
        # reply to reuse, twice more.
        assert sum("cart 2?" in body["messages"][-1]["content"]
                   for _, body in endpoint.requests) == 4
        assert captured.err == "backend_failure in 4 of 4 cells; see errors.txt\n"
        assert captured.out.count("50.0%") == 4
        (run_dir,) = out_dir.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == "".join(
            f"budget={budget} cache={cache}: 1 of 2 solves ended in backend_failure\n"
            for budget in (150, 900) for cache in (False, True))

    @pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
    @pytest.mark.parametrize("key", ["sk-\u20acuro", "sk-1\nX-Injected: 1"])
    def test_key_no_http_header_can_carry_is_config_error_before_any_call(
        self, tmp_path, capsys, monkeypatch, endpoint, command, key
    ):
        problem = Problem(id="apples", question="How many apples?",
                          gold_answer=CanonicalNumber("7"))
        problems_file = write_problems(tmp_path / "problems.jsonl", [problem])
        config = write_json(tmp_path / "config.json", {
            "api_base": endpoint.url, "decomposer_model": "d", "evaluator_model": "e"})
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        monkeypatch.setenv("DUALTRACK_API_KEY", key)
        out_dir = tmp_path / "runs"
        argv = ([command, problem.question] if command == "solve"
                else [command, problems_file, "--out", str(out_dir)])
        assert main(argv + ["--config", config]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: api_key: ")
        assert key not in captured.out + captured.err
        assert "Traceback" not in captured.err
        assert endpoint.requests == []
        assert not out_dir.exists()


class TestSweep:
    def test_small_sweep_writes_csv(self, tmp_path, capsys):
        problems, fixture = build_sweep_case(count=3)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        out_dir = tmp_path / "runs"
        code = main(
            [
                "sweep",
                problems_file,
                "--script",
                fixture_file,
                "--budgets",
                "200,400",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "budget" in captured.out and "cache" in captured.out
        # No solve failed: nothing on stderr and no errors.txt.
        assert captured.err == ""
        sweep_dirs = list(out_dir.glob("*-sweep-*"))
        assert not (sweep_dirs[0] / "errors.txt").exists()
        csv_lines = (sweep_dirs[0] / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 5  # header + 2 budgets x cache off/on

    def test_backend_failures_are_named_on_stderr_and_in_errors_txt(self, tmp_path, capsys):
        problems, fixture = build_sweep_case(count=3)
        # s002's Evaluator script runs out before its final answer is scored.
        fixture["s002"]["evaluator"].pop()
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        out_dir = tmp_path / "runs"
        argv = ["sweep", problems_file, "--script", fixture_file, "--budgets", "200,1500",
                "--out", str(out_dir)]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "backend_failure in 2 of 4 cells; see errors.txt\n"
        (run_dir,) = out_dir.glob("*-sweep-*")
        assert (run_dir / "errors.txt").read_text(encoding="utf-8") == (
            "budget=1500 cache=False: 1 of 3 solves ended in backend_failure\n"
            "budget=1500 cache=True: 1 of 3 solves ended in backend_failure\n"
        )
        assert len((run_dir / "sweep.csv").read_text().splitlines()) == 5

    def test_default_grid_makes_twelve_rows(self, tmp_path, capsys):
        problems, fixture = build_sweep_case(count=2)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        out_dir = tmp_path / "runs"
        code = main(
            ["sweep", problems_file, "--script", fixture_file, "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        sweep_dirs = list(out_dir.glob("*-sweep-*"))
        csv_lines = (sweep_dirs[0] / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 13

    def test_empty_budget_list_is_usage_error(self, tmp_path, capsys):
        problems, fixture = build_sweep_case(count=1)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        code = main(
            ["sweep", problems_file, "--script", fixture_file, "--budgets", ""]
        )
        assert code == EXIT_CONFIG
        assert "budgets" in capsys.readouterr().err


class TestSweepRejectsBadInput:
    """Problems and budgets are checked before any cell runs or any
    directory is made."""

    @pytest.mark.parametrize("budgets", ["0,100", "100,-5"])
    def test_non_positive_budget_is_config_error(self, tmp_path, capsys, budgets):
        problems, fixture = build_sweep_case(count=1)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        out_dir = tmp_path / "runs"
        argv = ["sweep", problems_file, "--script", fixture_file, "--budgets", budgets]
        assert main(argv + ["--out", str(out_dir)]) == EXIT_CONFIG
        assert "budgets" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "records, named",
        [
            ([], "empty problem list"),
            ([{"id": "../x", "question": "q?", "gold_answer": "1"}], "../x"),
            ([{"id": "p", "question": "q?"}], "no gold answer"),
        ],
    )
    def test_bad_problem_set_is_data_error(self, tmp_path, capsys, records, named):
        problems_file = tmp_path / "problems.jsonl"
        problems_file.write_text(
            "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
        )
        fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
        out_dir = tmp_path / "runs"
        argv = ["sweep", str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
        assert main(argv) == EXIT_DATA
        assert named in capsys.readouterr().err
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["bench", "sweep"])
def test_blank_problem_question_is_data_error(tmp_path, capsys, command):
    problems_file = tmp_path / "problems.jsonl"
    problems_file.write_text(
        json.dumps({"id": "p0", "question": "q?", "gold_answer": "1"}) + "\n"
        + json.dumps({"id": "p1", "question": " \t", "gold_answer": "1"}) + "\n",
        encoding="utf-8",
    )
    fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
    out_dir = tmp_path / "runs"
    argv = [command, str(problems_file), "--script", fixture_file, "--out", str(out_dir)]
    assert main(argv) == EXIT_DATA
    assert f"data error: {problems_file}:2: " in capsys.readouterr().err
    assert not out_dir.exists()


class TestUnusableFiles:
    """An input file that is not UTF-8 is a data error, or a config error for a
    config file, and an output location that cannot hold a directory is a
    config error found before any agent call; none ends in a traceback."""

    @pytest.mark.parametrize("command", ["bench", "prep"])
    def test_non_utf8_input_is_data_error(self, tmp_path, capsys, command):
        data = tmp_path / "input.jsonl"
        data.write_bytes(b'{"id": "p", "question": "Caf\xe9?", "gold_answer": "1"}\n')
        if command == "bench":
            fixture_file = write_json(tmp_path / "scripts.json", HENRY_SCRIPTS)
            argv = ["bench", str(data), "--script", fixture_file, "--out", str(tmp_path / "runs")]
        else:
            argv = ["prep", str(data), str(tmp_path / "prepped")]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: cannot read {data}: 'utf-8' codec can't decode byte 0xe9" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, code, error", [
        ("--script", EXIT_DATA, "data error: cannot read script fixture"),
        ("--config", EXIT_CONFIG, "config error: cannot read config file"),
    ], ids=["fixture", "config"])
    def test_non_utf8_fixture_or_config_names_the_file_it_reads(
        self, tmp_path, capsys, henry_fixture_file, flag, code, error
    ):
        unreadable = tmp_path / "unreadable.json"
        unreadable.write_bytes(b"\xe9")
        argv = ["solve", HENRY_QUESTION, "--script", henry_fixture_file, flag, str(unreadable)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert f"{error}: 'utf-8' codec can't decode byte 0xe9" in err
        assert "Traceback" not in err

    # Some editors save UTF-8 with a leading byte-order mark, which RFC 8259
    # lets a JSON reader ignore; each input file is read past it.
    @pytest.mark.parametrize("with_bom", ["problems", "gsm8k", "config", "fixture"])
    def test_input_that_starts_with_a_utf8_bom_is_read(self, tmp_path, capsys, with_bom):
        problem = Problem(id="henry", question=HENRY_QUESTION, gold_answer=CanonicalNumber("25"))
        files = {"problems": write_problems(tmp_path / "problems.jsonl", [problem]),
                 "fixture": write_json(tmp_path / "scripts.json", HENRY_SCRIPTS),
                 "config": write_json(tmp_path / "config.json", {"method": "dual"}),
                 "gsm8k": write_json(tmp_path / "gsm8k.jsonl",
                                     {"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})}
        bom_file = Path(files[with_bom])
        bom_file.write_bytes(b"\xef\xbb\xbf" + bom_file.read_bytes())
        if with_bom == "gsm8k":
            output = tmp_path / "prepped"
            assert main(["prep", files["gsm8k"], str(output)]) == EXIT_OK
            assert json.loads((output / "stats.json").read_text(encoding="utf-8"))["examples"] == 1
        else:
            out_dir = tmp_path / "runs"
            argv = ["bench", files["problems"], "--script", files["fixture"],
                    "--config", files["config"], "--out", str(out_dir)]
            assert main(argv) == EXIT_OK
            (run_dir,) = out_dir.iterdir()
            (result,) = (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()
            assert json.loads(result)["problem_id"] == "henry"
            assert json.loads(result)["correct"] is True
        assert "error" not in capsys.readouterr().err

    # "\ud800" is valid JSON but decodes to a lone surrogate, which has no
    # UTF-8 encoding: no trace, output file or hash can take it.
    @pytest.mark.parametrize("command", ["bench", "solve"])
    def test_fixture_text_that_is_not_valid_unicode_is_data_error(
        self, tmp_path, capsys, command
    ):
        fixture_file = write_json(tmp_path / "scripts.json", {
            **HENRY_SCRIPTS, "decomposer": [f"STEP: {HENRY_GOOD_STEP}\ud800"]})
        out_dir = tmp_path / "runs"
        if command == "bench":
            problem = Problem(id="henry", question=HENRY_QUESTION,
                              gold_answer=CanonicalNumber("25"))
            problems_file = write_problems(tmp_path / "problems.jsonl", [problem])
            argv = ["bench", problems_file, "--script", fixture_file, "--out", str(out_dir)]
        else:
            argv = ["solve", HENRY_QUESTION, "--script", fixture_file]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "data error: fixture: decomposer script holds text that is not valid Unicode" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("field", ["question", "answer", "id"])
    def test_gsm8k_text_that_is_not_valid_unicode_is_data_error(
        self, tmp_path, capsys, field
    ):
        records = [{"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER, "id": "a"}] * 2
        records[1] = {**records[1], field: records[1][field] + "\ud800"}
        data = tmp_path / "gsm8k.jsonl"
        data.write_text("".join(json.dumps(record) + "\n" for record in records),
                        encoding="utf-8")
        output = tmp_path / "prepped"
        assert main(["prep", str(data), str(output)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"data error: {data}:2: question, answer and id must be valid Unicode" in err
        assert "Traceback" not in err
        assert not output.exists()

    @pytest.mark.parametrize("command", ["bench", "sweep"])
    @pytest.mark.parametrize("under_file", [False, True], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_hold_a_directory_is_config_error_before_any_call(
        self, tmp_path, capsys, monkeypatch, endpoint, command, under_file
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out_dir = blocker / "runs" if under_file else blocker
        problem = Problem(id="apples", question="How many apples?",
                          gold_answer=CanonicalNumber("7"))
        problems_file = write_problems(tmp_path / "problems.jsonl", [problem])
        config = write_json(tmp_path / "config.json", {
            "api_base": endpoint.url, "decomposer_model": "d", "evaluator_model": "e"})
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        endpoint.actions = [chat_ok("FINAL_ANSWER: 7"), chat_ok("Score: 3\nFeedback: Right.")]
        argv = [command, problems_file, "--config", config, "--out", str(out_dir)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: out_dir: {str(out_dir)!r} cannot hold a directory" in err
        assert "Traceback" not in err
        assert endpoint.requests == []
        assert blocker.read_text(encoding="utf-8") == ""

    def test_prep_output_that_is_a_file_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})
                        + "\n", encoding="utf-8")
        output = tmp_path / "prepped"
        output.write_text("", encoding="utf-8")
        assert main(["prep", str(data), str(output)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: output: {str(output)!r} cannot hold a directory" in err
        assert "Traceback" not in err
        assert output.read_text(encoding="utf-8") == ""

    # An input that is not UTF-8 would be a data error if it were read first.
    @pytest.mark.parametrize("readable", [True, False], ids=["gsm8k", "not-utf8"])
    @pytest.mark.parametrize("name", ["train.jsonl", "val.jsonl", "stats.json"])
    def test_prep_output_file_that_is_a_directory_is_config_error_before_any_file(
        self, tmp_path, capsys, name, readable
    ):
        data = tmp_path / "gsm8k.jsonl"
        example = json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER}) + "\n"
        data.write_bytes(example.encode("utf-8") * 2 if readable else b"\xe9")
        output = tmp_path / "prepped"
        (output / name).mkdir(parents=True)
        assert main(["prep", str(data), str(output), "--split-ratio", "0.5"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: output: {str(output / name)!r} is a directory" in err
        assert "Traceback" not in err
        assert [path.name for path in output.iterdir()] == [name]
        assert list((output / name).iterdir()) == []


class TestConfigText:
    """Run settings that no report, path or request can take are config errors
    (exit 2) found before any solve or file."""

    @pytest.fixture
    def bench_files(self, tmp_path):
        problem = Problem(id="henry", question=HENRY_QUESTION, gold_answer=CanonicalNumber("25"))
        return (write_problems(tmp_path / "problems.jsonl", [problem]),
                write_json(tmp_path / "scripts.json", HENRY_SCRIPTS))

    # An argument byte that is not UTF-8 decodes to "\udcff"; a JSON "\ud800"
    # escape to a lone surrogate. The method is the first column of each CSV.
    @pytest.mark.parametrize("command, source", [
        ("bench", "argv"), ("sweep", "argv"), ("bench", "file")])
    def test_method_that_is_not_valid_unicode_is_refused_before_any_file(
            self, tmp_path, capsys, bench_files, command, source):
        problems_file, fixture_file = bench_files
        out_dir = tmp_path / "runs"
        argv = [command, problems_file, "--script", fixture_file, "--out", str(out_dir)]
        if source == "argv":
            argv += ["--method", "dual\udcff"]
        else:
            argv += ["--config", write_json(tmp_path / "config.json", {"method": "dual\ud800"})]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: method: " in err and "is not valid Unicode" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", ["out_dir", "decomposer_model"])
    def test_config_file_text_that_is_not_valid_unicode_names_its_key(
            self, tmp_path, capsys, monkeypatch, bench_files, key):
        problems_file, fixture_file = bench_files
        monkeypatch.chdir(tmp_path)  # where the default out_dir, "runs", would go
        config = write_json(tmp_path / "config.json", {key: "runs\ud800"})
        argv = ["bench", problems_file, "--script", fixture_file, "--config", config]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err and "is not valid Unicode" in err
        assert "Traceback" not in err
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "config.json", "problems.jsonl", "scripts.json"]

    @pytest.mark.parametrize("command", ["bench", "prep"])
    def test_output_path_that_is_not_utf8_is_printed_escaped(
            self, tmp_path, monkeypatch, bench_files, command):
        # A path from argv is passed to the file system as the bytes it came
        # as (an argument byte that is not UTF-8 decodes to "\udcff"); a
        # strict UTF-8 stdout gets that byte as a backslash escape.
        problems_file, fixture_file = bench_files
        out_dir = tmp_path / "o\udcff"
        shown = f"{tmp_path}{os.sep}o\\xff"
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr(sys, "stdout", stdout)
        if command == "bench":
            argv = ["bench", problems_file, "--script", fixture_file, "--out", str(out_dir)]
        else:
            data = tmp_path / "gsm8k.jsonl"
            data.write_text(
                json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER}) + "\n",
                encoding="utf-8")
            argv = ["prep", str(data), str(out_dir)]
        assert main(argv) == EXIT_OK
        stdout.flush()
        printed = stdout.buffer.getvalue().decode("utf-8")
        if command == "bench":
            (run_dir,) = out_dir.iterdir()
            assert (run_dir / "summary.csv").read_text(encoding="utf-8").startswith("method,")
            assert printed.endswith(f"report: {shown}{os.sep}{run_dir.name}\n")
        else:
            assert json.loads((out_dir / "stats.json").read_text(encoding="utf-8"))["examples"] == 1
            assert printed.endswith(
                f"wrote {shown}{os.sep}train.jsonl and {shown}{os.sep}val.jsonl\n")

    # HTTPBackend appends /v1/chat/completions to the base: a port no socket
    # can take fails every call, and a query or fragment moves the path.
    @pytest.mark.parametrize("api_base", [
        "localhost:8000", "http://", "http://[::1", "http://127.0.0.1:99999", "http://h:abc",
        "http://127.0.0.1:0", "http://127.0.0.1:8000/?a=1", "http://127.0.0.1:8000#x",
        "http://127.0.0.1:8000?"])
    def test_api_base_that_is_not_an_http_url_is_refused_before_any_call(
            self, tmp_path, capsys, monkeypatch, bench_files, api_base):
        problems_file, _ = bench_files
        out_dir = tmp_path / "runs"
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        config = write_json(tmp_path / "config.json", {
            "api_base": api_base, "decomposer_model": "d", "evaluator_model": "e"})
        argv = ["bench", problems_file, "--config", config, "--out", str(out_dir)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: api_base: {api_base!r} is not an http(s):// URL" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    # An IPv6 host in brackets, and an empty port (the scheme's default), stay valid.
    @pytest.mark.parametrize("api_base", ["http://[::1]:8000", "http://host:"])
    def test_api_base_with_an_ipv6_host_or_an_empty_port_is_accepted(self, api_base):
        config = RunConfig(api_base=api_base, decomposer_model="d", evaluator_model="e")
        assert isinstance(_http_backend(config), HTTPBackend)


class TestRefusals:
    """Each refusal exits with its documented code and a message that names the
    field or the file, before any run directory is made. Paths are relative to
    the test's directory, where the default out_dir "runs" would be made."""

    FILES = {
        "problems.jsonl": '{"id": "p", "question": "How many apples?", "gold_answer": "7"}\n',
        "script.json": json.dumps({"decomposer": ["STEP: Add 3 + 4 = 7 apples."],
                                   "evaluator": ["Score: 3\nFeedback: Correct."]}),
        "config.json": "{}",
    }
    BENCH = ["bench", "problems.jsonl", "--script", "script.json", "--config", "config.json"]
    ROWS = {
        "threshold-out-of-range": (
            {}, BENCH + ["--threshold", "7"], EXIT_CONFIG, "accept_threshold must be within"),
        "max-steps-zero": (
            {"config.json": '{"max_steps": 0}'}, BENCH, EXIT_CONFIG, "max_steps must be positive"),
        "config-not-json": ({"config.json": "{"}, BENCH, EXIT_CONFIG, "config file is not valid"),
        "config-not-object": (
            {"config.json": "[]"}, BENCH, EXIT_CONFIG, "config file must contain a JSON object"),
        "script-not-json": ({"script.json": "{"}, BENCH, EXIT_DATA, "script fixture is not valid"),
        "script-empty": (
            {"script.json": "{}"}, BENCH, EXIT_DATA, "script fixture must be a non-empty"),
        "script-not-object": (
            {"script.json": "[]"}, BENCH, EXIT_DATA, "script fixture must be a non-empty"),
        "script-entry-not-role-keyed": (
            {"script.json": '{"p": ["FINAL_ANSWER: 7"]}'}, BENCH, EXIT_DATA,
            "fixture['p']: expected an object with 'decomposer'/'evaluator' lists"),
        # A string or an object joins as text, so it is refused for not being a
        # list; a reply that is a number, null, a boolean or a list fails the join.
        **{f"script-replies-{name}": (
            {"script.json": f'{{"decomposer": {script}}}'}, argv, EXIT_DATA,
            "fixture: decomposer script must be a list of strings")
           for argv in [BENCH]
           for name, script in [("not-strings", "[7]"), ("a-string", '"STEP: Add 3 + 4."'),
                                ("an-object", '{"STEP: Add 3 + 4.": 1}'), ("null", "[null]"),
                                ("true", '["STEP: Add 3 + 4.", true]'),
                                ("nested-list", '[["STEP: Add 3 + 4."]]')]},
        "live-without-both-models": (
            {"config.json": '{"api_base": "http://127.0.0.1:9", "decomposer_model": "d"}'},
            ["bench", "problems.jsonl", "--config", "config.json"], EXIT_CONFIG,
            "decomposer_model/evaluator_model: required"),
        "budget-not-integer": (
            {}, ["sweep"] + BENCH[1:] + ["--budgets", "100,x"], EXIT_CONFIG,
            "budgets: 'x' is not an integer"),
        "problem-not-object": (
            {"problems.jsonl": "[7]\n"}, BENCH, EXIT_DATA,
            "problems.jsonl:1: record needs 'id' and 'question' fields"),
        "question-not-string": (
            {"problems.jsonl": '{"id": "p", "question": 7, "gold_answer": "7"}\n'}, BENCH,
            EXIT_DATA, "problems.jsonl:1: question must be a string"),
        "solve-step-limit": (
            {"config.json": '{"max_steps": 1}'},
            ["solve", "How many apples?", "--script", "script.json", "--config", "config.json"],
            EXIT_UNSOLVED, "step limit reached after 1 steps"),
        # A socket timeout holds at most threading.TIMEOUT_MAX seconds: a longer
        # one is refused before any call, and that one reaches the endpoint.
        **{f"timeout-{name}": (
            {"config.json": json.dumps({"api_base": "http://127.0.0.1:9", "decomposer_model": "d",
                                        "evaluator_model": "e", "timeout": timeout})},
            ["solve", "How many apples?", "--config", "config.json"], code, message)
           for name, timeout, code, message in [
               ("1e10", 1e10, EXIT_CONFIG,
                f"timeout: must be in (0, {threading.TIMEOUT_MAX}] seconds, got 10000000000.0"),
               ("TIMEOUT_MAX", threading.TIMEOUT_MAX, EXIT_BACKEND, "outcome: backend_failure")]},
        # Python's json reads these tokens, 1e400 as inf, but no setting takes them.
        **{f"{key}-{token}": (
            {"config.json": f'{{{live}"{key}": {token}}}'}, argv, EXIT_CONFIG,
            f"{key}: expected a finite number, got {float(token)!r}")
           for key, live, argv in [
               ("timeout", '"api_base": "http://127.0.0.1:9", "decomposer_model": "d", '
                '"evaluator_model": "e", ', ["sweep", "problems.jsonl", "--config", "config.json"]),
               ("temperature", "", BENCH)]
           for token in ["NaN", "Infinity", "-Infinity", "1e400"]},
        # An integer too large for a float is no finite number either.
        **{f"{key}-integer-past-float": (
            {"config.json": f'{{{live}"{key}": 1{"0" * 400}}}'},
            ["solve", "How many apples?", *argv, "--config", "config.json"], EXIT_CONFIG,
            f"{key}: expected a finite number, got 1{'0' * 400}")
           for key, live, argv in [
               ("timeout", '"api_base": "http://127.0.0.1:9", "decomposer_model": "d", '
                '"evaluator_model": "e", ', []),
               ("temperature", "", ["--script", "script.json"])]},
    }

    @pytest.mark.parametrize("files, argv, code, message", ROWS.values(), ids=ROWS)
    def test_refusal(self, tmp_path, capsys, monkeypatch, files, argv, code, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("DUALTRACK_API_BASE", raising=False)
        monkeypatch.delenv("DUALTRACK_API_KEY", raising=False)
        for name, text in {**self.FILES, **files}.items():
            Path(name).write_text(text, encoding="utf-8")
        assert main(argv) == code
        captured = capsys.readouterr()
        if code in (EXIT_UNSOLVED, EXIT_BACKEND):
            assert f"\n{message}\n" in captured.out
        else:
            kind = "config" if code == EXIT_CONFIG else "data"
            assert captured.err.startswith(f"{kind} error: {message}")
        assert "Traceback" not in captured.err
        assert not Path("runs").exists()


class TestRunConfig:
    """The config layer: file keys, their types, env and flag precedence."""

    FILE = {
        "token_budget": 500,
        "cache_enabled": True,
        "max_retries_per_step": 2,
        "accept_threshold": 2,
        "workers": 3,
        "out_dir": "file-runs",
        "method": "file-method",
    }

    def load(self, tmp_path, file_payload, *flags):
        config_file = write_json(tmp_path / "config.json", file_payload)
        args = build_parser().parse_args(
            ["bench", "problems.jsonl", "--config", config_file, *flags]
        )
        return load_run_config(args.config, args)

    @pytest.mark.parametrize(
        "flags, key, value",
        [
            (["--budget", "900"], "token_budget", 900),
            (["--no-cache"], "cache_enabled", False),
            (["--max-retries", "5"], "max_retries_per_step", 5),
            (["--threshold", "0"], "accept_threshold", 0),
            (["--workers", "4"], "workers", 4),
            (["--out", "flag-runs"], "out_dir", "flag-runs"),
            (["--method", "flag-method"], "method", "flag-method"),
        ],
    )
    def test_flag_overrides_file_key(self, tmp_path, flags, key, value):
        assert getattr(self.load(tmp_path, self.FILE), key) == self.FILE[key]
        assert getattr(self.load(tmp_path, self.FILE, *flags), key) == value

    def test_cache_flag_overrides_file_false(self, tmp_path):
        payload = {"cache_enabled": False}
        assert self.load(tmp_path, payload).cache_enabled is False
        assert self.load(tmp_path, payload, "--cache").cache_enabled is True

    def test_script_flag_sets_script_path(self, tmp_path):
        assert self.load(tmp_path, {}).script_path is None
        assert self.load(tmp_path, {}, "--script", "s.json").script_path == "s.json"

    def test_env_api_base_overrides_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALTRACK_API_BASE", "http://env.example")
        config = self.load(tmp_path, {"api_base": "http://file.example"})
        assert config.api_base == "http://env.example"

    @pytest.mark.parametrize("key", ["temperature", "decomposer_temperature",
                                     "evaluator_temperature"])
    def test_integer_temperature_hashes_like_the_default(self, tmp_path, key):
        # A config that equals the default names the same run, and writes the same config.
        default = self.load(tmp_path, {}).solver_config()
        solver = self.load(tmp_path, {key: 0}).solver_config()
        assert solver == default
        assert solver.to_dict() == default.to_dict()
        assert json.dumps(solver.to_dict()) == json.dumps(default.to_dict())
        assert config_hash(solver, "dual_cot") == config_hash(default, "dual_cot")

    def test_decoding_settings_fall_back_to_both_roles(self, tmp_path):
        shared = {"temperature": 0.5, "max_new_tokens": 64}
        solver = self.load(tmp_path, shared).solver_config()
        for params in (solver.decomposer_params, solver.evaluator_params):
            assert (params.temperature, params.max_new_tokens) == (0.5, 64)
        per_role = {**shared, "evaluator_temperature": 0.25, "decomposer_max_new_tokens": 32}
        solver = self.load(tmp_path, per_role).solver_config()
        assert (solver.decomposer_params.temperature,
                solver.decomposer_params.max_new_tokens) == (0.5, 32)
        assert (solver.evaluator_params.temperature,
                solver.evaluator_params.max_new_tokens) == (0.25, 64)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("token_budget", "lots", "token_budget: expected an integer, got 'lots'"),
            ("max_steps", True, "max_steps: expected an integer, got True"),
            ("temperature", "hot", "temperature: expected a number, got 'hot'"),
            ("timeout", False, "timeout: expected a number, got False"),
            ("cache_enabled", 1, "cache_enabled: expected true/false, got 1"),
            ("method", 3, "method: expected a string, got 3"),
        ],
    )
    def test_type_error_names_key_and_kind(self, tmp_path, key, value, message):
        with pytest.raises(ConfigError) as excinfo:
            self.load(tmp_path, {key: value})
        assert str(excinfo.value) == message

    def test_int_accepted_for_number_key(self, tmp_path):
        assert self.load(tmp_path, {"timeout": 30}).timeout == 30

    @pytest.mark.parametrize("key", ["api_key", "script_path"])
    def test_env_and_flag_only_settings_are_not_file_keys(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"unknown config key\\(s\\): {key}"):
            self.load(tmp_path, {key: "x"})

    def test_defaults_are_the_solver_defaults_with_the_cli_budget(self):
        assert RunConfig().solver_config() == SolverConfig(token_budget=2048)

    def test_known_keys_are_the_run_config_fields(self):
        names = set(RunConfig._fields)
        assert KNOWN_KEYS == names - {"api_key", "script_path"}

    @pytest.mark.parametrize(
        "payload, flags, key",
        [
            ({"workers": -2}, [], "workers"),
            ({}, ["--workers", "0"], "workers"),
            ({"timeout": 0}, [], "timeout"),
            ({"timeout": -1.5}, [], "timeout"),
        ],
    )
    def test_out_of_range_setting_names_key(self, tmp_path, payload, flags, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            self.load(tmp_path, payload, *flags)

    def test_zero_timeout_with_endpoint_is_config_error(self, tmp_path, capsys):
        config_file = write_json(tmp_path / "config.json", {
            "api_base": "http://127.0.0.1:9",
            "decomposer_model": "d",
            "evaluator_model": "e",
            "timeout": 0,
        })
        assert main(["solve", "How many?", "--config", config_file]) == EXIT_CONFIG
        assert "timeout" in capsys.readouterr().err


class TestCommandLineSurface:
    """solve, bench and sweep keep every option string, dest, default and type;
    sweep runs every budget of --budgets with the cache off and on, so it takes
    no --budget or --cache."""

    RUN_FLAGS = {
        "help": (("-h", "--help"), argparse.SUPPRESS, None),
        "config": (("--config",), None, None),
        "script_path": (("--script",), None, None),
        "max_retries_per_step": (("--max-retries",), None, int),
        "accept_threshold": (("--threshold",), None, int),
    }
    ONE_CELL_FLAGS = {
        "token_budget": (("--budget",), None, int),
        "cache_enabled": (("--cache", "--no-cache"), None, None),
    }
    BATCH_FLAGS = {
        **RUN_FLAGS,
        "problems": ((), None, None),
        "workers": (("--workers",), None, int),
        "out_dir": (("--out",), None, None),
        "method": (("--method",), None, None),
    }

    @pytest.mark.parametrize("command, expected", [
        ("solve", {**RUN_FLAGS, **ONE_CELL_FLAGS, "question": ((), None, None)}),
        ("bench", {**BATCH_FLAGS, **ONE_CELL_FLAGS}),
        ("sweep", {**BATCH_FLAGS,
                   "budgets": (("--budgets",), "100,200,300,400,500,600", None)}),
    ])
    def test_each_run_command_keeps_its_flags(self, command, expected):
        (commands,) = (action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
        actions = commands.choices[command]._actions
        surface = {action.dest: (tuple(action.option_strings), action.default, action.type)
                   for action in actions}
        assert len(actions) == len(surface)  # no dest is declared twice
        assert surface == expected

    @pytest.mark.parametrize("flag", [["--budget", "600"], ["--no-cache"], ["--cache"]])
    def test_sweep_refuses_one_cell_flags(self, tmp_path, capsys, monkeypatch, flag):
        # Were flags abbreviated, "--budget 600" would read as "--budgets 600".
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "p.jsonl", *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_strict_prefix_of_every_long_option_is_a_usage_error(self, capsys):
        parser = build_parser()
        (commands,) = (action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
        lines = {None: [], "prep": ["prep", "in.jsonl", "out"], "solve": ["solve", "q"],
                 "bench": ["bench", "p.jsonl"], "sweep": ["sweep", "p.jsonl"]}
        for name, line in lines.items():
            command_parser = parser if name is None else commands.choices[name]
            for action in command_parser._actions:
                value = [] if action.nargs == 0 else ["1"]
                for option in (o for o in action.option_strings if o.startswith("--")):
                    # The full spelling is accepted (help exits 0); each prefix is not.
                    assert parse_outcome(parser.parse_args, line + [option] + value,
                                         capsys)[1] in (None, 0), option
                    for end in range(3, len(option)):
                        argv = line + [option[:end]] + value
                        assert parse_outcome(parser.parse_args, argv, capsys)[1] == 2, argv


def parse_outcome(parse, argv, capsys) -> tuple:
    """A parse's Namespace (None if it exited), exit code, stdout and stderr."""
    try:
        namespace, code = parse(argv), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return namespace, code, captured.out, captured.err


class TestCommandParsers:
    """build_parser's parser is built once and shared, so parsing must leave it
    unchanged: every line parses, prints and exits on it as on a parser built
    fresh. Compared in the same interpreter: argparse's wording differs across
    versions."""

    LINES = [
        ["prep", "in.jsonl", "out"],
        ["prep", "in.jsonl", "out", "--split-ratio", "0.2", "--seed", "3"],
        ["solve", "What is 2 + 2?"],
        ["solve", "q", "--config", "c.json", "--script", "s.json", "--budget", "300",
         "--no-cache", "--max-retries", "2", "--threshold", "0"],
        ["bench", "p.jsonl"],
        ["bench", "p.jsonl", "--workers", "2", "--out", "o", "--method", "m", "--cache"],
        ["sweep", "p.jsonl"],
        ["sweep", "p.jsonl", "--budgets", "100,200", "--workers", "3"],
    ]
    USAGE_ERRORS = [
        [], ["bogus"], ["--bogus"], ["bench", "p.jsonl", "--bogus"], ["sweep", "p", "extra"],
        ["bench"], ["solve"], ["prep", "in.jsonl"], ["bench", "p", "--workers", "x"],
        ["Bench", "p.jsonl"],
        ["sweep", "p.jsonl", "--budgets", "100,200", "--workers", "3", "--budget", "9"],
        ["--he"],
    ]
    # argparse releases may differ on a "--" before the command: only equality is checked.
    SEPARATED = [["--", "bench", "p.jsonl"]]
    HELP = [["--help"], ["-h"], ["-h", "bench"], ["prep", "-h"], ["solve", "--help"],
            ["bench", "--help"], ["sweep", "-h"], ["sweep", "p.jsonl", "--help"]]
    TABLE = LINES + USAGE_ERRORS + HELP + SEPARATED

    @pytest.mark.parametrize("argv", TABLE, ids=" ".join)
    def test_line_parses_and_prints_as_with_every_command_built(self, argv, capsys):
        reference = parse_outcome(build_parser.__wrapped__().parse_args, argv, capsys)
        assert parse_outcome(build_parser().parse_args, argv, capsys) == reference
        namespace, code, out, err = reference
        if argv not in self.SEPARATED:
            assert code == (None if argv in self.LINES else 0 if argv in self.HELP else 2)
        assert (namespace is None) == (code is not None)

    def test_shared_parser_keeps_no_state_across_lines(self, capsys):
        assert build_parser() is build_parser()
        for argv in self.TABLE + self.TABLE[::-1]:
            reference = parse_outcome(build_parser.__wrapped__().parse_args, argv, capsys)
            assert parse_outcome(build_parser().parse_args, argv, capsys) == reference, argv

    # A usage error after a command names all four commands, and so does a line with none.
    @pytest.mark.parametrize("argv", [["bench", "p.jsonl", "--bogus"], []],
                             ids=["bench", "no-command"])
    def test_usage_line_lists_every_command_after_a_one_command_build(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        usage = capsys.readouterr().err.splitlines()[0]
        assert usage == "usage: dualtrack [-h] {prep,solve,bench,sweep} ..."

    def test_line_from_sys_argv(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["dualtrack", "bench", "p.jsonl", "--workers", "2"])
        assert build_parser().parse_args() == build_parser.__wrapped__().parse_args()


class TestRunIdentity:
    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_printed_hash_names_run_dir_and_meta(self, tmp_path, capsys, command):
        problems, fixture = build_sweep_case(count=2)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        extra, prefix = (["--budgets", "200"], "sweep-") if command == "sweep" else ([], "")
        printed = set()
        for workers, out in (("1", "a"), ("2", "b")):
            out_dir = tmp_path / out
            argv = [command, problems_file, "--script", fixture_file, "--workers", workers]
            assert main(argv + ["--out", str(out_dir)] + extra) == EXIT_OK
            (digest,) = re.findall(r"^config_hash: (\S+)$", capsys.readouterr().out, re.M)
            (run_dir,) = out_dir.iterdir()
            assert re.fullmatch(rf"\d{{8}}-\d{{6}}-{prefix}{digest}", run_dir.name)
            meta = json.loads((run_dir / "run_meta.json").read_text(encoding="utf-8"))
            assert meta["config_hash"] == digest
            assert meta["method"] == "dual_cot"
            printed.add(digest)
        assert len(printed) == 1


def run_to_closed_stdout(argv, unbuffered: bool):
    """``python -m dualtrack`` with ``argv``, its stdout a pipe whose read end
    is closed before the command starts; PYTHONUNBUFFERED set only if asked."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "dualtrack", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, check=False)
    finally:
        os.close(write_end)


class TestEntryPoint:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["bench", "sweep"])
    def test_closed_stdout_exits_1_without_a_word(self, tmp_path, command, unbuffered):
        problems, fixture = build_sweep_case(count=2)
        argv = [command, write_problems(tmp_path / "problems.jsonl", problems),
                "--script", write_json(tmp_path / "scripts.json", fixture),
                "--out", str(tmp_path / "runs")]
        result = run_to_closed_stdout(argv, unbuffered)
        assert (result.returncode, result.stderr) == (1, "")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["sweep", "--help"], ["-h"]], ids=" ".join)
    def test_help_to_a_closed_stdout_exits_0_without_a_word(self, argv, unbuffered):
        # argparse ignores a failed write of its help, so the help exits 0.
        result = run_to_closed_stdout(argv, unbuffered)
        assert (result.returncode, result.stderr) == (0, "")

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "dualtrack", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for command in ("prep", "solve", "bench", "sweep"):
            assert command in result.stdout

    def test_help_and_scripted_commands_load_no_http_stack_thread_pool_or_dataclasses(
        self, tmp_path
    ):
        problems, fixture = build_sweep_case(count=2)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})
                        + "\n", encoding="utf-8")
        out = str(tmp_path / "runs")
        commands = [
            ["--help"],
            ["bench", problems_file, "--script", fixture_file, "--out", out],
            ["sweep", problems_file, "--script", fixture_file, "--budgets", "200",
             "--out", out],
            ["prep", str(data), str(tmp_path / "prepped"), "--split-ratio", "0"],
        ]
        # requests loads with an HTTPBackend and concurrent.futures only for
        # --workers above 1; records are NamedTuples, so dataclasses, and the
        # inspect it pulls in, are never needed.
        unneeded = ["requests", "concurrent.futures", "dataclasses", "inspect"]
        # The commands run in turn in a fresh interpreter, with ``requests``
        # importable and with it blocked. The last stdout line reports which
        # unneeded modules the bare interpreter loaded (site's .pth files may
        # import some), then, after each command, its exit code and which are
        # loaded by then.
        program = (
            "import json, sys\n"
            "def loaded():\n"
            "    return [name for name in json.loads(sys.argv[1])\n"
            "            if sys.modules.get(name) is not None]\n"
            "if sys.argv[2] == 'blocked':\n"
            "    sys.modules['requests'] = None\n"
            "report = [[None, loaded()]]\n"
            "from dualtrack.cli import main\n"
            "for argv in json.loads(sys.argv[3]):\n"
            "    try:\n"
            "        code = main(argv)\n"
            "    except SystemExit as exc:  # after the help\n"
            "        code = exc.code\n"
            "    report.append([code, loaded()])\n"
            "print(json.dumps(report))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for mode in ("importable", "blocked"):
            result = subprocess.run(
                [sys.executable, "-c", program, json.dumps(unneeded), mode, json.dumps(commands)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert result.returncode == 0, result.stderr
            (_, bare), *after = json.loads(result.stdout.splitlines()[-1])
            assert [code for code, _ in after] == [EXIT_OK] * 4, result.stderr
            extra = {argv[0]: [name for name in names if name not in bare]
                     for argv, (_, names) in zip(commands, after)}
            assert extra == {argv[0]: [] for argv in commands}
