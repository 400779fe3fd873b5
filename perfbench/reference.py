"""Fixed reference task that gauges the machine's current speed.

    python3 perfbench/reference.py

It does the kind of work tccbench does, without tccbench: start an
interpreter, import numpy, walk pairs of bit-mask determinants through
popcounts, dict lookups and float sums, and diagonalize a small dense
matrix. It takes about half a second on one core. run.py times it next to
every command and reports times in reference seconds (see run.py).
"""

from itertools import combinations

import numpy as np

dets = [sum(1 << i for i in occ) for occ in combinations(range(12), 4)]
pos = {mask: i for i, mask in enumerate(dets)}
acc = 0.0
for _ in range(4):
    for a in dets:
        for b in dets[:200]:
            if bin(a ^ b).count("1") <= 4:
                acc += (pos[a] - pos[b]) * 1e-6
m = np.cos(np.outer(np.arange(200), np.arange(200)) * 1e-3)
acc += float(np.linalg.eigvalsh(m + m.T)[0])
if not np.isfinite(acc):
    raise SystemExit("reference task produced a non-finite result")
