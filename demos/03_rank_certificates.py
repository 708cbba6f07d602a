"""Rank of apparition and the rank certificate, with both of its branches.

omega(m) is the least k with m | u_bar(k).  The certificate reads its branch
from sigma*epsilon over N and checks the rank top = N - sigma*epsilon.  If
u_bar(top) == 0 mod N while u_bar(top/q) != 0 for every prime q | top, the
rank is exactly top and N must be prime; a nonzero u_bar(top) proves N
composite.  The N - 1 branch: Fermat numbers with (7, 1), N - 1 = 2^(2^n).
The N + 1 branch: Mersenne numbers with (6, 1), N + 1 = 2^q.  Either way
q = 2 is the only prime factor.
"""

from fermatlucas import (
    STANDARD_PARAMS,
    LucasParams,
    certify_via_rank,
    rank_of_apparition,
    uv_mod,
)

for m in (5, 17, 31, 97, 257):
    print(f"omega({m}) = {rank_of_apparition(STANDARD_PARAMS, m).omega}")

print()
for N in (17, 257, 65537, (1 << 32) + 1):
    verdict = certify_via_rank(STANDARD_PARAMS, N)
    detail = ""
    if verdict.is_prime:
        half = uv_mod(STANDARD_PARAMS, (N - 1) // 2, N).u_bar
        detail = f"  [u_bar(N-1) = 0, u_bar((N-1)/2) = {half} != 0]"
    print(f"N = {N}: {verdict.classification}{detail}")

M127 = (1 << 127) - 1
verdict = certify_via_rank(LucasParams(6, 1), M127)
print(f"M_127 with (6, 1), N + 1 = 2^127: {verdict.classification}")
