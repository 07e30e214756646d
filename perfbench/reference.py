"""A fixed computation that never touches the program.

``run.py`` times it in a fresh interpreter, next to every set-up probe, to
gauge how fast the shared host is running at that moment.  It starts an
interpreter, imports numpy, and does the kinds of work the workloads do:
an interpreted integer loop, a sort, a histogram and a random gather over
16 MB arrays.  Its inputs are fixed, so its time changes only with the
host, never with the program or the seed.
"""

import numpy as np

N = 2_000_000

rng = np.random.default_rng(20170505)
values = rng.integers(0, 1 << 20, N)
order = rng.integers(0, N, N)
np.sort(values)
np.bincount(values)
int(values[order].sum())
total = 0
for i in range(500_000):
    total += i & 7
