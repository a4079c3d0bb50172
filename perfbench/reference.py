"""A fixed reference kernel that measures how fast a CPU runs Python now.

The kernel does the kind of work the program does (sparse row reduction over
``Fraction`` with dict rows, and building a large integer-keyed dict) but
shares no code with it, so a change to the program never changes the
reference.  While an invocation runs, the benchmark stops it every few
tenths of a second and times one pass of the kernel on the same CPU; the
invocation's wall time divided by the mean of those times cancels most of a
shared host's swings in CPU speed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction


def row_reduce(rows_wanted=200, width=400, seed=7):
    """Insert random sparse rows into a reduced echelon basis; returns its rank."""
    rng = random.Random(seed)
    rows = {}
    for _ in range(rows_wanted):
        v = {rng.randrange(width): Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
             for _ in range(6)}
        for p in sorted(v):
            c = v.get(p)
            if p in rows and c:
                out = dict(v)
                for i, r in rows[p].items():
                    cur = out.get(i)
                    nxt = -c * r if cur is None else cur - c * r
                    if nxt:
                        out[i] = nxt
                    else:
                        out.pop(i, None)
                v = out
        if v:
            p = min(v)
            rows[p] = {i: x / v[p] for i, x in v.items()}
    return len(rows)


def dict_build(size=100_000, modulus=100_003):
    d = {}
    for k in range(size):
        d[k * 7919 % modulus] = k
    return len(d)


def kernel_s():
    """Seconds one pass of the kernel takes here, now."""
    t0 = time.perf_counter()
    row_reduce()
    dict_build()
    return time.perf_counter() - t0
