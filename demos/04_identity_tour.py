"""A tour of the structure that makes the chain test work.

1. The symbol triple (D/N), (R/N), (Q/N) over any Fermat number is always
   (-1, -1, +1): the closed form agrees with the generic Jacobi evaluation.
2. v_bar at indices 2, 4, 8, 16, ... reproduces the squaring chain.
3. The multiplication-sum identities hold verbatim in Z[sqrt(7)].
4. The (3, -1) sequence is the (7, 1) sequence with u/v swapped at odd index.
5. The residues at the nine indices flanking a prime F_n repeat one pattern,
   -X(k) at F_n - 1 + k, which congruences 3 and 4 force at n = 1..4.
"""

from fermatlucas import (
    ALTERNATE_PARAMS,
    STANDARD_PARAMS,
    alternate_params_pair,
    appendix_residues,
    fermat_number,
    fermat_symbols_closed_form,
    iter_uv_exact,
    lehmer_pairs_exact,
    s_from_v,
    sum_identity_holds,
    symbol_triple,
)
from fermatlucas.quadratic import balanced_residue

for n in (1, 2, 3, 5):
    F = fermat_number(n)
    closed = fermat_symbols_closed_form(n)
    generic = symbol_triple(STANDARD_PARAMS, F)
    print(f"F_{n}: closed form {closed} == jacobi {generic}: {closed == generic}")

print("\nchain from the v side, mod 10^9 + 7:")
s = 5
for k in range(6):
    v = s_from_v(k, 10**9 + 7)
    print(f"  S_{k} = {s % (10**9 + 7)}  v_bar(2^{k + 1}) = {v}")
    s = s * s - 2

ring = list(iter_uv_exact(STANDARD_PARAMS, 49))  # (n, U_n, V_n); one table for every (m, n)


def sum_identities_hold(m, n):
    _, Un, Vn = ring[n]
    _, Umn, Vmn = ring[m * n]
    u_side = sum_identity_holds(STANDARD_PARAMS, m, Un, Vn, Umn, odd_side=True)
    return u_side and sum_identity_holds(STANDARD_PARAMS, m, Un, Vn, Vmn, odd_side=False)


ok = all(sum_identities_hold(m, n) for m in range(2, 8) for n in range(1, 8))
print(f"\nmultiplication-sum identities, m,n < 8: {ok}")

pairs7 = lehmer_pairs_exact(STANDARD_PARAMS, 9)
pairs3 = lehmer_pairs_exact(ALTERNATE_PARAMS, 9)
swapped = [alternate_params_pair(n, pairs7) for n in range(10)]
print(f"parity swap reproduces the (3,-1) pair for indices 0..9: {swapped == pairs3}")

print("\nresidues flanking F_3 (offsets -5..+3):")
for check in appendix_residues(STANDARD_PARAMS, 3):
    which, off = check.name.split("_at_F3")
    print(
        f"  {which}_bar(F_3{off}) = {balanced_residue(check.actual, 257):>4}   "
        f"expected {balanced_residue(check.expected, 257):>4}   ok={check.passed}"
    )
