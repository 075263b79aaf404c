"""Machine-speed probe: rescales item times to a fixed reference speed.

The benchmark runs on shared machines whose speed drifts by 20-30 % within
seconds, as neighbours load the caches and memory bus.  A probe is a fixed
piece of work that never touches the library: a little pure-Python object
work (tuples, dicts, a sort), like the interpreter-bound layers, and a
numpy gather over a few MB, like the kernels.  worker.py times one probe
before the first item and one after every item, and divides each item's
time by the mean slowness of the probes on either side of it.  The result
is the item's time at the reference speed, in seconds; a change to the
library moves it, a change in the machine's load largely does not.

Slowness is the mean of the two parts' times over their reference times,
so it is about 1 on the machine the references were taken on (2-core
Intel Xeon VM, Python 3.11.7, numpy 2.4).  Each part is timed three times
and its median kept.  The arrays stay allocated for the whole repetition,
so they add about 4 MB to ``peak_rss_mb``.
"""

from __future__ import annotations

import time

import numpy as np

REF_PY_S = 0.0014
REF_NP_S = 0.0043
TIMINGS = 3
GATHER_SIZE = 1 << 19


def _python_work() -> int:
    table = {}
    rows = [[(i * 7 + j * 13) % 11 for j in range(12)] for i in range(12)]
    for r in range(40):
        for row in rows:
            key = tuple((x * 3 + r) % 11 for x in row)
            table[key] = table.get(key, 0) + 1
        rows.sort(key=lambda row, c=r % 12: row[c])
    return len(table)


class Probe:
    def __init__(self):
        self.values = np.arange(GATHER_SIZE, dtype=np.int32)
        self.index = ((self.values.astype(np.int64) * 2654435761)
                      & (GATHER_SIZE - 1)).astype(np.int32)
        self.slowness()  # first touch of the arrays and the code

    def _numpy_work(self) -> int:
        return int(self.values[self.index].sum())

    @staticmethod
    def _median_time(work) -> float:
        times = []
        for _ in range(TIMINGS):
            t = time.perf_counter()
            work()
            times.append(time.perf_counter() - t)
        return sorted(times)[TIMINGS // 2]

    def slowness(self) -> float:
        return (self._median_time(_python_work) / REF_PY_S
                + self._median_time(self._numpy_work) / REF_NP_S) / 2
