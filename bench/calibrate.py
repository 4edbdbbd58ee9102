"""A fixed piece of pure-Python work that gauges the machine's current speed.

The 2-vCPU machine the benchmark was built on switches between a fast and a
slow speed for spells of seconds to minutes: one ``scripted-bench`` run read
3000 and 5800 problems/s from the same pass. So the benchmark scales its
timings to a reference speed. ``speed`` times a fixed mix of the program's
kind of work (JSON, regular expressions, hashing, string and dict
operations) and returns how much faster than the reference the machine runs
it now. A pass's seconds times the speed next to it are its reference
seconds. Over a minute in which raw pass rates moved 25 %, rates in
reference seconds moved about 1 %.

Imports only the standard library, so that a probe can gauge the speed
after timing the program's imports without having paid for them.
"""

import hashlib
import json
import re
import statistics
import time

# Seconds one ``_work`` takes at the reference speed: about its median on
# the machine the benchmark was built on.
REFERENCE_S = 0.0045
_DOC = {"events": [{"kind": "generated", "tokens_charged": 40 + i,
                    "payload": {"slot": i, "raw": f"STEP: Ava now has {i} + 3 = {i + 3} pens."}}
                   for i in range(12)]}
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _work() -> int:
    total = 0
    for _ in range(30):
        text = json.dumps(_DOC, sort_keys=True)
        total += len(_NUMBER.findall(text))
        total += len(hashlib.sha256(text.encode("utf-8")).hexdigest())
        total += len({word: 1 for word in text.lower().split()})
    return total


def speed(rounds: int = 1) -> float:
    """The machine's speed over the reference speed, median of ``rounds``."""
    seconds = []
    for _ in range(rounds):
        start = time.perf_counter()
        _work()
        seconds.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(seconds)
