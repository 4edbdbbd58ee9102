"""Run one pass of the program in a fresh interpreter; print its set-up time
and peak memory as JSON.

Set-up is what ``dualtrack bench`` / ``sweep`` pay before the first solve:
importing ``dualtrack``, parsing the command line, loading the run config
and the problems through the program's loaders, and building the backends
with ``dualtrack.cli._build_backends``. Interpreter start-up is not counted.
The pass then runs as ``cmd_bench`` / ``cmd_sweep`` run it, and the peak is
this process's resident high-water mark. None of the benchmark's own work
(references, recording, checks) runs here. With ``--plans`` the backends are
the benchmark's fake model in process, built after set-up is timed; its
replies are part of the peak.

    python3 bench/probe.py -- bench problems.jsonl --config config.json \
        --script fixture.json --out DIR
    python3 bench/probe.py --plans plans.json -- sweep problems.jsonl \
        --config config.json --out DIR
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
parser = argparse.ArgumentParser(description="time dualtrack set-up, then run one pass")
parser.add_argument("--plans", default=None, help="serve these plans from the fake model")
parser.add_argument("command", nargs=argparse.REMAINDER, help="-- and a dualtrack command line")
args = parser.parse_args()
argv = args.command[1:] if args.command[:1] == ["--"] else args.command

start = time.perf_counter()
from dualtrack import cli  # noqa: E402

run = cli.build_parser().parse_args(argv)
config = cli.load_run_config(run.config, run)
solver_config = config.solver_config()
budgets = cli._parse_budgets(run.budgets) if run.command == "sweep" else None
problems = cli.load_problems(run.problems)
backends = cli._build_backends(config, problems) if args.plans is None else None
setup_s = time.perf_counter() - start
import calibrate  # noqa: E402  (after the timing: it imports json, re and hashlib)

speed = calibrate.speed(rounds=5)
if args.plans is not None:
    from fake_model import FakeModel

    model = FakeModel(json.loads(Path(args.plans).read_text(encoding="utf-8")))
    backends = (model, model)
if budgets is not None:
    rows = cli.budget_sweep(problems, budgets, solver_config, backends, method=config.method,
                            out_dir=config.out_dir, workers=config.workers,
                            continue_on_error=True)
    results = sum(row.n for row in rows)
else:
    report = cli.run_benchmark(problems, solver_config, backends, method=config.method,
                               out_dir=config.out_dir, workers=config.workers)
    results = len(report.results)
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"setup_s": setup_s, "speed": speed, "peak_rss_mb": peak_rss_mb,
                  "results": results}))
