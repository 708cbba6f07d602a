"""Split one squaring-chain step into big-int squaring, fold and overhead.

The step is `s = fermat_mod(s*s - 2, 2^n)`, as in `s_sequence`.  A probe
draws real residues from the seed-5 chain for F_n, then times three loops
over them: the squarings alone, the folds of the precomputed products
alone, and the full step.  The loops are interleaved, with their order
rotated each round, so that drift in machine speed hits all three alike.
Overhead is step - square - fold per round; its median and spread
(interquartile range) are reported, since a single round can read negative.
"""

from __future__ import annotations

import statistics
from time import perf_counter

PROBE_NS = (10, 12, 13, 14)
ROUNDS = 15


def _loops(n: int) -> int:
    # Steps per timed loop: about 1-7 ms of work at every n.
    return max(16, 1 << (20 - n))


def chain_probe(fermat_mod, n: int) -> dict[str, float]:
    """Median µs per step of square, fold and overhead at F_n, with the overhead IQR."""
    e = 1 << n
    loops = _loops(n)
    s = 5
    for _ in range(n + 4):  # the residue reaches full size after about n steps
        s = fermat_mod(s * s - 2, e)
    residues = []
    for _ in range(loops):
        s = fermat_mod(s * s - 2, e)
        residues.append(s)
    products = [x * x - 2 for x in residues]

    def square():
        for x in residues:
            y = x * x  # noqa: F841  (the product is the work being timed)

    def fold():
        for p in products:
            fermat_mod(p, e)

    def step():
        s = residues[-1]
        for _ in range(loops):
            s = fermat_mod(s * s - 2, e)

    kinds = [("square", square), ("fold", fold), ("step", step)]
    per_round = {name: [] for name, _ in kinds}
    for r in range(ROUNDS):
        for name, loop in kinds[r % 3:] + kinds[:r % 3]:
            t0 = perf_counter()
            loop()
            per_round[name].append((perf_counter() - t0) / loops * 1e6)
    overhead = [st - sq - fo for st, sq, fo in
                zip(per_round["step"], per_round["square"], per_round["fold"])]
    q1, _, q3 = statistics.quantiles(overhead, n=4)
    return {
        "square_us": statistics.median(per_round["square"]),
        "fold_us": statistics.median(per_round["fold"]),
        "overhead_us": statistics.median(overhead),
        "overhead_us_iqr": q3 - q1,
    }
