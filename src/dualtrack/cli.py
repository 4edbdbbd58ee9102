"""Command-line entry point: prep, solve, bench, and sweep.

Configuration comes from an optional JSON config file, environment
variables for endpoint secrets, and command-line flags, with precedence
flags > env > file. Exit codes: 0 success, 1 stdout closed early,
2 config/usage error, 3 data error, 4 backend failure, 5 unsolved.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from threading import TIMEOUT_MAX
from typing import NamedTuple, Sequence, get_args, get_type_hints
from urllib.parse import urlsplit

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
    read_text,
    split_examples,
    write_instances,
)
from .harness import (SWEEP_BUDGETS, BackendPair, BackendProvider, budget_sweep, config_hash,
                      load_problems, run_benchmark)
from .protocol import Problem, is_unicode
from .solver import EventKind, Outcome, SolverConfig, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_BACKEND = 4
EXIT_UNSOLVED = 5

_ROLES = {role.value: role for role in Role}  # a fixture's role keys


class ConfigError(Exception):
    """Run configuration is invalid; the message names the offending field."""


_SOLVER_DEFAULTS, _DECODE_DEFAULTS = SolverConfig._field_defaults, DecodeParams._field_defaults


class RunConfig(NamedTuple):
    """Validated run configuration assembled from file, env, and flags.

    Solver and decoding settings default to ``SolverConfig``'s and
    ``DecodeParams``' own defaults; only the token budget is the CLI's.
    The repr leaves out the ``api_key`` secret and ``script_path``.
    """

    api_base: str | None = None
    api_key: str | None = None
    decomposer_model: str | None = None
    evaluator_model: str | None = None
    decomposer_system_prompt: str | None = None
    evaluator_system_prompt: str | None = None
    token_budget: int = 2048
    accept_threshold: int = _SOLVER_DEFAULTS["accept_threshold"]
    max_retries_per_step: int = _SOLVER_DEFAULTS["max_retries_per_step"]
    max_steps: int = _SOLVER_DEFAULTS["max_steps"]
    cache_enabled: bool = _SOLVER_DEFAULTS["cache_enabled"]
    cache_bad_threshold: int = _SOLVER_DEFAULTS["cache_bad_threshold"]
    temperature: float = _DECODE_DEFAULTS["temperature"]
    max_new_tokens: int = _DECODE_DEFAULTS["max_new_tokens"]
    decomposer_temperature: float | None = None
    decomposer_max_new_tokens: int | None = None
    evaluator_temperature: float | None = None
    evaluator_max_new_tokens: int | None = None
    timeout: float = 60.0
    workers: int = 1
    out_dir: str = "runs"
    method: str = "dual_cot"
    script_path: str | None = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self)
                          if name not in ("api_key", "script_path"))
        return f"RunConfig({shown})"

    def solver_config(self) -> SolverConfig:
        """The SolverConfig fields this config shares, plus each role's params."""
        settings = self._asdict()
        shared = {name: settings[name] for name in SolverConfig._fields if name in settings}
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

        return DecodeParams(**{name: pick(name) for name in DecodeParams._fields})


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
    # json reads NaN, Infinity, 1e400 and ints past any float (math.isfinite overflows on those)
    if kind is float and not -sys.float_info.max <= value <= sys.float_info.max:
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if kind is str and not is_unicode(value):
        raise ConfigError(f"{key}: {value!r} is not valid Unicode")


def load_run_config(path: str | None, args: argparse.Namespace) -> RunConfig:
    """Assemble the effective RunConfig with precedence flags > env > file."""
    settings: dict = {}
    if path:
        try:
            raw = json.loads(read_text(path, "config file"))
        except DataError as exc:
            raise ConfigError(str(exc)) from None
        except ValueError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(set(raw) - KNOWN_KEYS)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        for key, value in raw.items():
            _check_type(key, value)
        settings.update(raw)

    if os.environ.get(API_BASE_ENV):
        settings["api_base"] = os.environ[API_BASE_ENV]
    if os.environ.get(API_KEY_ENV):
        settings["api_key"] = os.environ[API_KEY_ENV]

    settings.update((key, value) for key, value in vars(args).items()
                    if key in _SETTING_TYPES and value is not None)
    config = RunConfig(**settings)
    if not is_unicode(config.method):  # the first column of every CSV report
        raise ConfigError(f"method: {config.method!r} is not valid Unicode")
    if config.workers < 1:
        raise ConfigError(f"workers: must be at least 1, got {config.workers}")
    if not 0 < config.timeout <= TIMEOUT_MAX:  # the longest a socket timeout can hold
        raise ConfigError(f"timeout: must be in (0, {TIMEOUT_MAX}] seconds, got {config.timeout}")
    return config


def _scripted_provider(path: str | Path, problems: Sequence[Problem]) -> BackendProvider:
    """Build per-problem scripted backends from a fixture file.

    Two shapes are accepted: role-keyed (``{"decomposer": [...],
    "evaluator": [...]}``), applied to every problem, or a mapping from
    problem id to role-keyed scripts, which needs an entry per problem.
    """
    text = read_text(path, "script fixture")
    try:
        raw = json.loads(text)
    except ValueError as exc:
        raise DataError(f"script fixture is not valid JSON: {exc}") from None
    if not isinstance(raw, dict) or not raw:
        raise DataError("script fixture must be a non-empty JSON object")

    def role_scripts(entry, where: str) -> dict[Role, list[str]]:
        if not isinstance(entry, dict) or not entry.keys() <= _ROLES.keys():
            raise DataError(
                f"{where}: expected an object with 'decomposer'/'evaluator' lists"
            )
        for role, replies in entry.items():
            try:  # a reply that is not a string fails the join
                text = "".join(replies)
            except TypeError:
                text = None
            if text is None or not isinstance(replies, list):
                raise DataError(f"{where}: {role} script must be a list of strings")
            if not is_unicode(text):
                raise DataError(f"{where}: {role} script holds text that is not valid Unicode")
        return {_ROLES[role]: replies for role, replies in entry.items()}

    if raw.keys() <= _ROLES.keys():
        scripts_for = dict.fromkeys((p.id for p in problems), role_scripts(raw, "fixture"))
    else:
        scripts_for = {problem_id: role_scripts(entry, f"fixture[{problem_id!r}]")
                       for problem_id, entry in raw.items()}
        missing = [problem.id for problem in problems if problem.id not in raw]
        if missing:
            raise DataError(f"script fixture missing problem id(s): {', '.join(missing)}")

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
    # HTTPBackend appends its path to the base, where a query or fragment would hide it.
    try:
        url = urlsplit(config.api_base)
        usable = (url.scheme in ("http", "https") and url.hostname and url.port != 0
                  and not any(mark in config.api_base for mark in "?#"))
    except ValueError:  # an unclosed IPv6 bracket, or a port out of range or not a number
        usable = False
    if not usable:
        raise ConfigError(f"api_base: {config.api_base!r} is not an http(s):// URL with a "
                          "host, a valid port if any, and no query or fragment")
    models = {role: getattr(config, f"{role.value}_model") for role in Role}
    if not all(models.values()):
        raise ConfigError("decomposer_model/evaluator_model: required for live endpoints")
    system_prompts = {
        role: prompt
        for role in Role
        if (prompt := getattr(config, f"{role.value}_system_prompt"))
    }
    try:
        return HTTPBackend(base_url=config.api_base, api_key=config.api_key, models=models,
                           system_prompts=system_prompts, timeout=config.timeout)
    except ValueError as exc:  # an api_key that no HTTP header can carry
        raise ConfigError(str(exc)) from None


def _build_backends(config: RunConfig,
                    problems: Sequence[Problem]) -> BackendPair | BackendProvider:
    """Per-problem scripts from a fixture, or one endpoint shared by every problem."""
    if config.script_path:
        return _scripted_provider(config.script_path, problems)
    backend = _http_backend(config)
    return backend, backend


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


def _check_output_dir(path: str, key: str) -> None:
    """Fail before the command does any work if ``path`` cannot be or become
    its output directory: its nearest existing ancestor must be a writable
    directory."""
    nearest = next(parent for parent in (Path(path), *Path(path).parents) if parent.exists())
    if not (nearest.is_dir() and os.access(nearest, os.W_OK | os.X_OK)):
        raise ConfigError(f"{key}: {path!r} cannot hold a directory "
                          f"({str(nearest)!r} is not a writable directory)")


def _shown(path: Path) -> str:
    """A path as text a UTF-8 stdout can encode: its bytes that are not
    UTF-8 (an argv path is passed through unchecked) become ``\\xff`` escapes."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def cmd_prep(args: argparse.Namespace) -> int:
    if not 0 <= args.split_ratio <= 1:
        raise ConfigError(f"split_ratio: must be within [0, 1], got {args.split_ratio}")
    _check_output_dir(args.output, "output")
    examples = load_gsm8k_examples(args.input)
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
    print(f"wrote {_shown(out_dir / 'train.jsonl')} and {_shown(out_dir / 'val.jsonl')}")
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        problem = Problem(id="adhoc", question=args.question)
    except ValueError as exc:
        raise ConfigError(f"question: {exc}") from None
    _, solver_config, _, backends = _start_run(args, [problem])
    trace = solve(problem, solver_config, *(backends(problem) if callable(backends) else backends))

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
    _check_output_dir(config.out_dir, "out_dir")
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
    print(f"report: {_shown(report.run_dir)}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    budgets = _parse_budgets(args.budgets)
    config, solver_config, problems, backends = _start_run(args)
    _check_output_dir(config.out_dir, "out_dir")
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
    if failed := sum(Outcome.BACKEND_FAILURE._value_ in row.outcomes for row in rows):
        print(f"backend_failure in {failed} of {len(rows)} cells; see errors.txt", file=sys.stderr)
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


# Each command's handler and help, in the order usage lists them.
_COMMANDS = {"prep": (cmd_prep, "convert GSM8K-format data to next-step instances"),
             "solve": (cmd_solve, "solve one problem and print the trace"),
             "bench": (cmd_bench, "run the benchmark over a problem file"),
             "sweep": (cmd_sweep, "benchmark across budgets with cache on/off")}


def _add_command(commands, name: str) -> None:
    command = commands.add_parser(name, help=_COMMANDS[name][1], allow_abbrev=False)
    command.set_defaults(handler=_COMMANDS[name][0])
    if name == "prep":
        command.add_argument("input", help="JSONL file with question/answer records")
        command.add_argument("output", help="output directory for train/val instance files")
        command.add_argument("--split-ratio", type=float, default=0.05, dest="split_ratio",
                             help="validation fraction (0 puts everything in train)")
        command.add_argument("--seed", type=int, default=0)
        return
    # Flags of solve, bench and sweep: each dest but ``config`` is the RunConfig key it sets.
    command.add_argument("--config", help="JSON config file")
    command.add_argument("--script", dest="script_path",
                         help="scripted-backend fixture file (JSON)")
    if name != "sweep":  # a sweep runs every budget of --budgets, cache off and on
        command.add_argument("--budget", type=int, dest="token_budget",
                             help="token budget per problem")
        command.add_argument("--cache", action=argparse.BooleanOptionalAction,
                             dest="cache_enabled", help="enable/disable the rejection cache")
    command.add_argument("--max-retries", type=int, dest="max_retries_per_step")
    command.add_argument("--threshold", type=int, dest="accept_threshold",
                         help="accept when score > threshold")
    if name == "solve":
        command.add_argument("question", help="problem text")
        return
    command.add_argument("problems", help="JSONL problems file with gold answers")
    command.add_argument("--workers", type=int)
    command.add_argument("--out", dest="out_dir", help="output directory for reports")
    command.add_argument("--method", help="method label for reports")
    if name == "sweep":
        command.add_argument("--budgets", default=",".join(map(str, SWEEP_BUDGETS)),
                             help="comma-separated token budgets")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dualtrack`` parser, with every command's parser. Built once per
    process and shared: callers must not change it."""
    parser = argparse.ArgumentParser(prog="dualtrack", allow_abbrev=False, description=(
        "Two-agent stepwise math solver with rejection cache and token budgets."))
    commands = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_command(commands, name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    closed = 1  # the exit code once stdout's reader has gone
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # after the help or a usage error; argparse ignores
            closed = exc.code  # a closed stdout, so its exit code stands
            sys.stdout.flush()
            raise
        code = args.handler(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # as by `| head`: "Note on SIGPIPE" in Python's signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return closed
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
