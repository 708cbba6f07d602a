"""The rule that sends arithmetic mod 2^m +- 1 to the system's libgmp.

`primality.square_chain` and `lucas.uv_mod` both ask `native_kernel(m, sign)`,
so squaring chains and fast doubling change kernels at the same modulus size.
This module is imported by both and imports neither; `_gmp` (and with it
ctypes) is imported only when a modulus inside the bounds first asks.
"""

from __future__ import annotations

# The two moduli the paper uses (`_gmp.takes`) with GMP_MIN_BITS <= m <=
# GMP_MAX_BITS run on libgmp when it loads; other 2^m +- 1 run on Python
# ints.  A chain step there is two or three ctypes calls: at m = 2^10 the
# int loop is still as fast or faster, at 2^11 libgmp wins by 1.3-2.1x (the
# Mersenne chain least, for its extra shift), at 2^12 by 3-4.5x.  Smaller
# moduli (the CLI's warm-up among them) never load it.  Above the upper
# bound a failed allocation inside libgmp would abort() the process instead
# of raising MemoryError.
GMP_MIN_BITS = 1 << 11
GMP_MAX_BITS = 1 << 24


def native_kernel(bits: int, sign: int):
    """The libgmp kernel for arithmetic mod 2^bits + sign, or None for Python ints."""
    if not GMP_MIN_BITS <= bits <= GMP_MAX_BITS:
        return None
    from . import _gmp  # imported with the first large modulus, not with this module

    return _gmp.load() if _gmp.takes(bits, sign) else None
