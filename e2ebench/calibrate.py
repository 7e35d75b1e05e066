"""Fixed CPU kernel that gauges how fast the machine is right now.

    python3 e2ebench/calibrate.py

The batch workloads run this between the commands they time, each time
in a fresh process, and divide every command's wall time by the mean
of the kernel runs just before and just after it (see ``run.py``).  On
a shared host the speed of the same work wanders by tens of percent
from one minute to the next; the command and the kernel slow down
together, so their ratio holds still while either alone does not.

The kernel imports numpy and mixes the two kinds of work a fit does:
dict counting, sorting and string handling in the interpreter, then
element-wise array arithmetic, grouped sums and sorts.  Every step is
single-threaded: a multi-threaded BLAS product slows far more than the
program does when the other core is busy, so it tracks the program
less well.  The kernel never imports repro, so no change to the
program can change it.  It prints a checksum of what it computed.
"""

import random

import numpy as np

WORDS = [f"w{index}" for index in range(5000)]


def interpreter_work(rng: random.Random) -> int:
    docs = [[rng.choice(WORDS) for _ in range(40)] for _ in range(3000)]
    total = 0
    for _ in range(3):
        counts = {}
        for doc in docs:
            for word in doc:
                counts[word] = counts.get(word, 0) + 1
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        total += sum(len(word) * count for word, count in ranked[:100])
    return total


def array_work(seed: int) -> float:
    rng = np.random.default_rng(seed)
    values = rng.random(400_000)
    groups = rng.integers(0, 4000, 400_000)
    for _ in range(12):
        weighted = np.exp(-values) * values
        totals = np.bincount(groups, weights=weighted, minlength=4000)
        values = weighted / totals[groups]
        values = values / values.max()
        order = np.argsort(values[:100_000])
    return float(values[order[:10]].sum())


if __name__ == "__main__":
    print(interpreter_work(random.Random(7)), f"{array_work(1):.6f}")
