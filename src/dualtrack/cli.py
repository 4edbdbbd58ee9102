"""Command-line entry point: prep, solve, bench, and sweep.

Configuration comes from an optional JSON config file, environment
variables for endpoint secrets, and command-line flags, with precedence
flags > env > file. Exit codes: 0 success, 2 config/usage error,
3 data error, 4 backend failure, 5 unsolved.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Sequence, get_args, get_type_hints

from .agents import (
    API_BASE_ENV,
    API_KEY_ENV,
    DecodeParams,
    HTTPBackend,
    Role,
    ScriptedBackend,
)
from .dataset import (
    DataError,
    load_gsm8k_examples,
    make_instances,
    split_examples,
    write_instances,
)
from .harness import (
    BackendProvider,
    InvalidCounts,
    SWEEP_BUDGETS,
    budget_sweep,
    config_hash,
    load_problems,
    run_benchmark,
)
from .protocol import Problem
from .solver import EventKind, Outcome, SolverConfig, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4
EXIT_UNSOLVED = 5

_ROLE_KEYS = {role.value for role in Role}


class ConfigError(Exception):
    """Run configuration is invalid; the message names the offending field."""


@dataclass
class RunConfig:
    """Validated run configuration assembled from file, env, and flags.

    Solver and decoding settings default to ``SolverConfig``'s and
    ``DecodeParams``' own defaults; only the token budget is the CLI's.
    """

    api_base: str | None = None
    api_key: str | None = None
    decomposer_model: str | None = None
    evaluator_model: str | None = None
    decomposer_system_prompt: str | None = None
    evaluator_system_prompt: str | None = None
    token_budget: int = 2048
    accept_threshold: int = SolverConfig.accept_threshold
    max_retries_per_step: int = SolverConfig.max_retries_per_step
    max_steps: int = SolverConfig.max_steps
    cache_enabled: bool = SolverConfig.cache_enabled
    cache_bad_threshold: int = SolverConfig.cache_bad_threshold
    temperature: float = DecodeParams.temperature
    max_new_tokens: int = DecodeParams.max_new_tokens
    decomposer_temperature: float | None = None
    decomposer_max_new_tokens: int | None = None
    evaluator_temperature: float | None = None
    evaluator_max_new_tokens: int | None = None
    timeout: float = 60.0
    workers: int = 1
    out_dir: str = "runs"
    method: str = "dual_cot"
    script_path: str | None = field(default=None, repr=False)

    def solver_config(self) -> SolverConfig:
        """The SolverConfig fields this config shares, plus each role's params."""
        settings = vars(self)
        shared = {f.name: settings[f.name] for f in fields(SolverConfig) if f.name in settings}
        try:
            return SolverConfig(
                **shared,
                decomposer_params=self._role_params(Role.DECOMPOSER),
                evaluator_params=self._role_params(Role.EVALUATOR),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def _role_params(self, role: Role) -> DecodeParams:
        """A role's ``<role>_<key>`` decoding settings, falling back to ``<key>``."""

        def pick(key: str):
            value = getattr(self, f"{role.value}_{key}")
            return getattr(self, key) if value is None else value

        return DecodeParams(**{f.name: pick(f.name) for f in fields(DecodeParams)})


# Every RunConfig field is a setting; its annotation (None stripped) is its
# type. The flags whose argparse dest is a field set that field.
_SETTING_TYPES = {
    key: next(kind for kind in get_args(hint) or (hint,) if kind is not type(None))
    for key, hint in get_type_hints(RunConfig).items()
}
# api_key comes only from the environment, script_path only from --script.
KNOWN_KEYS = set(_SETTING_TYPES) - {"api_key", "script_path"}
_EXPECTED = {int: "an integer", float: "a number", bool: "true/false", str: "a string"}


def _check_type(key: str, value) -> None:
    kind = _SETTING_TYPES[key]
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {value!r}")


def load_run_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """Assemble the effective RunConfig with precedence flags > env > file."""
    config = RunConfig()
    if path:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(set(raw) - KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        for key, value in raw.items():
            _check_type(key, value)
            setattr(config, key, value)

    if os.environ.get(API_BASE_ENV):
        config.api_base = os.environ[API_BASE_ENV]
    if os.environ.get(API_KEY_ENV):
        config.api_key = os.environ[API_KEY_ENV]

    for key, value in vars(args).items():
        if key in _SETTING_TYPES and value is not None:
            setattr(config, key, value)

    if config.workers < 1:
        raise ConfigError(f"workers: must be at least 1, got {config.workers}")
    if config.timeout <= 0:
        raise ConfigError(f"timeout: must be positive, got {config.timeout}")
    return config


def _scripted_provider(path: str | Path, problems: Sequence[Problem]) -> BackendProvider:
    """Build per-problem scripted backends from a fixture file.

    Two shapes are accepted: role-keyed (``{"decomposer": [...],
    "evaluator": [...]}``), applied to every problem, or a mapping from
    problem id to role-keyed scripts, which needs an entry per problem.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read script fixture: {exc}") from None
    except ValueError as exc:
        raise DataError(f"script fixture is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not raw:
        raise DataError("script fixture must be a non-empty JSON object")

    def check_role_scripts(entry, where: str) -> None:
        if not isinstance(entry, dict) or not set(entry) <= _ROLE_KEYS:
            raise DataError(
                f"{where}: expected an object with 'decomposer'/'evaluator' lists"
            )
        for role, replies in entry.items():
            if not isinstance(replies, list) or not all(
                isinstance(reply, str) for reply in replies
            ):
                raise DataError(f"{where}: {role} script must be a list of strings")

    if set(raw) <= _ROLE_KEYS:
        check_role_scripts(raw, "fixture")
        scripts_for = {problem.id: raw for problem in problems}
    else:
        for problem_id, entry in raw.items():
            check_role_scripts(entry, f"fixture[{problem_id!r}]")
        missing = [problem.id for problem in problems if problem.id not in raw]
        if missing:
            raise DataError(f"script fixture missing problem id(s): {', '.join(missing)}")
        scripts_for = {problem.id: raw[problem.id] for problem in problems}

    def provider(problem: Problem):
        backend = ScriptedBackend(scripts_for[problem.id])
        return backend, backend

    return provider


def _http_backend(config: RunConfig) -> HTTPBackend:
    if not config.api_base:
        raise ConfigError(
            f"api_base: set it in the config file or via {API_BASE_ENV} "
            "(or pass --script for a scripted run)"
        )
    models = {role: getattr(config, f"{role.value}_model") for role in Role}
    if not all(models.values()):
        raise ConfigError("decomposer_model/evaluator_model: required for live endpoints")
    system_prompts = {
        role: prompt
        for role in Role
        if (prompt := getattr(config, f"{role.value}_system_prompt"))
    }
    return HTTPBackend(
        base_url=config.api_base,
        api_key=config.api_key,
        models=models,
        system_prompts=system_prompts,
        timeout=config.timeout,
    )


def _build_backends(config: RunConfig, problems: Sequence[Problem]) -> BackendProvider:
    if config.script_path:
        return _scripted_provider(config.script_path, problems)
    backend = _http_backend(config)
    return lambda problem: (backend, backend)


def _start_run(args: argparse.Namespace, problems: Sequence[Problem] | None = None):
    """Prelude of solve, bench and sweep: config, solver config, problems
    (``args.problems`` unless given), backends; prints the config hash."""
    config = load_run_config(args.config, args)
    solver_config = config.solver_config()
    if problems is None:
        problems = load_problems(args.problems)
    backends = _build_backends(config, problems)
    print(f"config_hash: {config_hash(solver_config, config.method)}")
    return config, solver_config, problems, backends


def cmd_prep(args: argparse.Namespace) -> int:
    examples = load_gsm8k_examples(args.input)
    if not 0 <= args.split_ratio <= 1:
        raise ConfigError(f"split_ratio: must be within [0, 1], got {args.split_ratio}")
    train, val = split_examples(examples, val_fraction=args.split_ratio, seed=args.seed)
    out_dir = Path(args.output)
    train_count = write_instances(
        (instance for example in train for instance in make_instances(example)),
        out_dir / "train.jsonl",
    )
    val_count = write_instances(
        (instance for example in val for instance in make_instances(example)),
        out_dir / "val.jsonl",
    )
    # Each example yields one instance per solution step plus its final answer.
    instances = train_count + val_count
    mean_steps = (instances - len(examples)) / len(examples) if examples else 0.0
    stats = {
        "examples": len(examples),
        "instances": instances,
        "mean_steps_per_example": mean_steps,
        "train_instances": train_count,
        "val_instances": val_count,
    }
    (out_dir / "stats.json").write_text(
        json.dumps(stats, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"examples: {len(examples)}")
    print(f"instances: {instances} (train {train_count}, val {val_count})")
    print(f"mean steps per example: {mean_steps:.2f}")
    print(f"wrote {out_dir / 'train.jsonl'} and {out_dir / 'val.jsonl'}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        problem = Problem(id="adhoc", question=args.question)
    except ValueError as exc:
        raise ConfigError(f"question: {exc}") from None
    _, solver_config, _, backends = _start_run(args, [problem])
    trace = solve(problem, solver_config, *backends(problem))

    for event in trace.events:
        payload = event.payload
        if event.kind is EventKind.RETRIED:
            print(f"  retry {payload['retries_used']} (hint: {payload['hint']})")
        elif event.kind in (EventKind.ACCEPTED, EventKind.FORCED_ACCEPT):
            forced = " (forced)" if event.kind is EventKind.FORCED_ACCEPT else ""
            label = "FINAL" if payload["kind"] == "final" else f"STEP {payload['index']}"
            print(f"{label} [score {payload['score']}]{forced}: {payload['text']}")
        elif event.kind is EventKind.FINISHED:
            print(f"FINAL_ANSWER: {payload['final_answer']}")
        elif event.kind is EventKind.BUDGET_STOP:
            print(f"budget exhausted: spent {payload['spent']} of {payload['limit']} tokens")
        elif event.kind is EventKind.STEP_LIMIT_STOP:
            print(f"step limit reached after {payload['steps']} steps")
    print(f"outcome: {trace.outcome.value}")
    print(f"tokens: {trace.tokens_spent}")
    if trace.error:
        print(f"error: {trace.error}", file=sys.stderr)

    if trace.outcome is Outcome.SOLVED:
        return EXIT_OK
    if trace.outcome is Outcome.BACKEND_FAILURE:
        return EXIT_BACKEND
    return EXIT_UNSOLVED


def cmd_bench(args: argparse.Namespace) -> int:
    config, solver_config, problems, backends = _start_run(args)
    report = run_benchmark(
        problems,
        solver_config,
        backends,
        method=config.method,
        out_dir=config.out_dir,
        workers=config.workers,
    )
    summary = report.summary
    print(f"accuracy: {summary.accuracy_line()} ({summary.correct}/{summary.n})")
    print(f"mean tokens: {summary.mean_tokens:.2f}")
    print(f"evaluator calls: {summary.evaluator_calls}")
    if report.run_dir is not None:
        print(f"report: {report.run_dir}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    budgets = _parse_budgets(args.budgets)
    config, solver_config, problems, backends = _start_run(args)
    rows = budget_sweep(
        problems,
        budgets,
        solver_config,
        backends,
        method=config.method,
        out_dir=config.out_dir,
        workers=config.workers,
        continue_on_error=True,
    )
    print(f"{'budget':>6}  {'cache':>5}  accuracy")
    for row in rows:
        print(f"{row.budget:>6}  {'on' if row.cache else 'off':>5}  {row.accuracy_line()}")
    return EXIT_OK


def _parse_budgets(spec: str) -> list[int]:
    budgets = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            budget = int(part)
        except ValueError:
            raise ConfigError(f"budgets: {part!r} is not an integer") from None
        if budget <= 0:
            raise ConfigError(f"budgets: {budget} is not positive")
        budgets.append(budget)
    if not budgets:
        raise ConfigError("budgets: at least one budget is required")
    return budgets


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Each dest but ``config`` is the RunConfig key the flag sets (None if not given)."""
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--script", dest="script_path",
                        help="scripted-backend fixture file (JSON)")
    parser.add_argument("--budget", type=int, dest="token_budget",
                        help="token budget per problem")
    parser.add_argument("--cache", action=argparse.BooleanOptionalAction, dest="cache_enabled",
                        help="enable/disable the rejection cache")
    parser.add_argument("--max-retries", type=int, dest="max_retries_per_step")
    parser.add_argument("--threshold", type=int, dest="accept_threshold",
                        help="accept when score > threshold")
    parser.add_argument("--out", dest="out_dir", help="output directory for reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualtrack",
        description="Two-agent stepwise math solver with rejection cache and token budgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prep = sub.add_parser("prep", help="convert GSM8K-format data to next-step instances")
    prep.add_argument("input", help="JSONL file with question/answer records")
    prep.add_argument("output", help="output directory for train/val instance files")
    prep.add_argument("--split-ratio", type=float, default=0.05, dest="split_ratio",
                      help="validation fraction (0 puts everything in train)")
    prep.add_argument("--seed", type=int, default=0)
    prep.set_defaults(handler=cmd_prep)

    solve_cmd = sub.add_parser("solve", help="solve one problem and print the trace")
    solve_cmd.add_argument("question", help="problem text")
    _add_run_flags(solve_cmd)
    solve_cmd.set_defaults(handler=cmd_solve)

    for name, handler, help_text in (
        ("bench", cmd_bench, "run the benchmark over a problem file"),
        ("sweep", cmd_sweep, "benchmark across budgets with cache on/off"),
    ):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("problems", help="JSONL problems file with gold answers")
        _add_run_flags(command)
        command.add_argument("--workers", type=int)
        command.add_argument("--method", help="method label for reports")
        command.set_defaults(handler=handler)
    sub.choices["sweep"].add_argument(
        "--budgets",
        default=",".join(str(budget) for budget in SWEEP_BUDGETS),
        help="comma-separated token budgets",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, InvalidCounts) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
