"""The rule that sends arithmetic mod 2^m +- 1 to the system's libgmp.

`primality.square_chain` and `lucas.uv_mod` both ask `native_kernel(m, sign)`,
so squaring chains and fast doubling change kernels at the same modulus size.
This module is imported by both and imports neither; `_gmp` (and with it
ctypes) is imported only when a modulus inside the bounds first asks.
"""

from __future__ import annotations

# The two moduli the paper uses (`_gmp.takes`) with GMP_MIN_BITS <= m <=
# GMP_MAX_BITS run on libgmp when it loads; other 2^m +- 1 run on Python
# ints.  A chain step there is two ctypes calls, a ladder doubling four.
# Per step or index bit, int loop / libgmp, best of 15 interleaved runs of
# 2000 steps or one random odd m-bit index (2-vCPU VM, Python 3.11):
#
#     m       Fermat chain   Mersenne chain (q)   ladder
#     1024    2.02 / 1.68    2.04 / 2.17 (1031)    7.24 / 9.10
#     1280    2.70 / 1.83    2.48 / 2.23 (1283)    8.69 / 8.57
#     1536    2.69 / 1.70    3.51 / 2.51 (1543)   11.90 / 9.64
#     2048    4.08 / 1.90    4.54 / 2.40 (2053)   11.56 / 6.32
#
# At 1280 the ladder is a tie (two more runs of 21: 10.73 / 10.69 and
# 10.66 / 10.71), so the bound is the next candidate, 1536, where libgmp
# wins all three.  Smaller moduli (the CLI's warm-up among them) never load
# it.  Above the upper bound a failed allocation inside libgmp would abort()
# the process instead of raising MemoryError.
GMP_MIN_BITS = 1536
GMP_MAX_BITS = 1 << 24


def native_kernel(bits: int, sign: int):
    """The libgmp kernel for arithmetic mod 2^bits + sign, or None for Python ints."""
    if not GMP_MIN_BITS <= bits <= GMP_MAX_BITS:
        return None
    from . import _gmp  # imported with the first large modulus, not with this module

    return _gmp.load() if _gmp.takes(bits, sign) else None
