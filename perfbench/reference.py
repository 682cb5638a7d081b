"""Reference kernel, timed on the benchmark's CPU while a workload pass runs.

The host this benchmark was written on gives one CPU anywhere from about 0.75x
to 1.0x of its speed, changing over tens of seconds, so host seconds of one
pass spread by 10-20% from run to run.  A fixed pure-Python kernel timed every
REFERENCE_PERIOD_S on the same CPU slows down by the same factor: a pass's CPU
seconds divided by the kernel's mean CPU seconds over the pass is steady.

    python3 perfbench/reference.py

Runs until its standard input is closed, then prints one JSON list of
[monotonic time, kernel CPU seconds] samples.
"""

from __future__ import annotations

import json
import select
import sys
import time

REFERENCE_PERIOD_S = 0.1


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a = 1
        self.b = 2


def _combine(lo: int, hi: int, p: _Pair) -> int:
    return lo * p.a + hi - p.b


def kernel() -> tuple[dict, list]:
    """Calls, tuples, builtins, attribute and dict access, as in the sweeps.

    Of the kernels tried (dict updates alone, integer arithmetic alone, this
    mix), this one's slowdown tracked all three workloads' slowdowns best.
    """
    d: dict[int, int] = {}
    kept = []
    p = _Pair()
    for i in range(6000):
        lo, hi = min(i & 7, 5), max(i & 15, 3)
        t = (lo, hi, i & 511)
        d[t[2]] = d.get(t[2], 0) + _combine(lo, hi, p)
        if not i & 63:
            kept.append(t)
    return d, kept


def main() -> int:
    samples = []
    while True:
        c0 = time.process_time()
        kernel()
        samples.append((time.monotonic(), time.process_time() - c0))
        readable, _, _ = select.select([sys.stdin], [], [], REFERENCE_PERIOD_S)
        if readable:  # end of file: run.py is done
            break
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
