"""The seed-5 squaring chain deciding primality of F_n = 2^(2^n) + 1.

S_0 = 5, S_i = S_{i-1}^2 - 2; F_n is prime exactly when S_{2^n - 2} == 0
mod F_n.  Below: full traces for the small cases, then verdicts up to n = 9
cross-checked against the independent Pepin oracle.
"""

import time

from fermatlucas import fermat_llt, fermat_number, pepin, s_sequence
from fermatlucas.quadratic import balanced_residue

for n in (2, 3, 4):
    F = fermat_number(n)
    trace = s_sequence(n, keep_trace=True)
    shown = [
        f"{r} = {balanced_residue(r, F)}" if balanced_residue(r, F) != r and abs(balanced_residue(r, F)) < 100 else str(r)
        for r in trace.residues
    ]
    print(f"mod F_{n} = {F}:  " + "  ->  ".join(shown))

print()
for n in range(1, 10):
    t0 = time.perf_counter()
    chain = fermat_llt(n)
    oracle = pepin(n)
    ms = (time.perf_counter() - t0) * 1000
    agree = "agrees" if chain.classification == oracle.classification else "DISAGREES"
    print(f"F_{n:<2} -> {chain.classification:9}  ({ms:7.1f} ms, Pepin {agree})")
