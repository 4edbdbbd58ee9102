from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
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
    build_parser,
    load_run_config,
    main,
)
from dualtrack.harness import config_hash
from dualtrack.protocol import DECOMPOSER_SYSTEM_PROMPT, CanonicalNumber, Problem
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
        output = capsys.readouterr().out
        assert "budget" in output and "cache" in output
        sweep_dirs = list(out_dir.glob("*-sweep-*"))
        csv_lines = (sweep_dirs[0] / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 5  # header + 2 budgets x cache off/on

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
        names = {field.name for field in fields(RunConfig)}
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


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "dualtrack", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for command in ("prep", "solve", "bench", "sweep"):
            assert command in result.stdout

    def test_scripted_commands_load_no_http_stack_or_thread_pool(self, tmp_path):
        problems, fixture = build_sweep_case(count=2)
        problems_file = write_problems(tmp_path / "problems.jsonl", problems)
        fixture_file = write_json(tmp_path / "scripts.json", fixture)
        data = tmp_path / "gsm8k.jsonl"
        data.write_text(json.dumps({"question": NATALIA_QUESTION, "answer": NATALIA_ANSWER})
                        + "\n", encoding="utf-8")
        out = str(tmp_path / "runs")
        commands = [
            ["bench", problems_file, "--script", fixture_file, "--out", out],
            ["sweep", problems_file, "--script", fixture_file, "--budgets", "200",
             "--out", out],
            ["prep", str(data), str(tmp_path / "prepped"), "--split-ratio", "0"],
        ]
        # Each command in a fresh interpreter, with ``requests`` importable and
        # with it blocked; the last stdout line reports the exit codes and the
        # start-up modules that got loaded.
        program = (
            "import json, sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['requests'] = None\n"
            "from dualtrack.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[2])]\n"
            "loaded = [name for name in ('requests', 'concurrent.futures')\n"
            "          if sys.modules.get(name) is not None]\n"
            "print(json.dumps([codes, loaded]))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for mode in ("importable", "blocked"):
            result = subprocess.run(
                [sys.executable, "-c", program, mode, json.dumps(commands)],
                capture_output=True, text=True, env=env, check=False,
            )
            assert result.returncode == 0, result.stderr
            codes, loaded = json.loads(result.stdout.splitlines()[-1])
            assert codes == [EXIT_OK] * 3, result.stderr
            assert loaded == []
