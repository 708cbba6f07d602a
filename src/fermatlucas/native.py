"""The kernels for arithmetic mod 2^m +- 1, and the rule that picks libgmp.

`square_chain` and `uv_ladder` are the two that ask `native_kernel(m, sign)`,
so squaring chains and fast doubling change kernels at the same modulus size.
This module holds the rule, its size bounds and shape (`takes`), and the int
loops that run where it says None, and imports only `quadratic`; `_gmp` (and
with it ctypes) is imported only when a modulus sent to libgmp first asks.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .quadratic import _int_text, fermat_form_exponent, fermat_mod, mersenne_mod

# The two moduli the paper uses (`takes`) with GMP_MIN_BITS <= m <=
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
LIMB_BITS = 64  # the only limb width the kernel runs on


def takes(m: int, sign: int) -> bool:
    """Whether the kernel takes 2^m + sign: 2^m + 1 with 64 | m, or 2^m - 1 with 64 not dividing m."""
    return m >= 1 and sign == (1 if m % LIMB_BITS == 0 else -1)


def native_kernel(bits: int, sign: int):
    """The libgmp kernel for arithmetic mod 2^bits + sign, or None for Python ints."""
    if not (GMP_MIN_BITS <= bits <= GMP_MAX_BITS and takes(bits, sign)):
        return None
    from . import _gmp  # imported with the first modulus sent there, not with this module

    return _gmp.load()


def square_chain(x: int, steps: int, c: int, m: int, sign: int) -> int:
    """Return x after `steps` rounds of x = x*x - c mod 2^m + sign, sign = +-1.

    The one loop behind every squaring-chain test: the reduction is
    `fermat_mod` for sign = +1 and `mersenne_mod` for sign = -1, so no step
    divides.  `native_kernel(m, sign)` picks libgmp or the int loop here;
    both return the same canonical residue.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {_int_text(sign)}")
    native = native_kernel(m, sign)
    if native is not None:
        return native.square_chain(x, steps, c, m, sign)
    reduce = fermat_mod if sign > 0 else mersenne_mod
    for _ in range(steps):
        x = reduce(x * x - c, m)
    return x


def uv_ladder(params, n: int, N: int) -> tuple[int, int]:
    """`lucas.uv_mod`'s route: (u_bar(n), v_bar(n)) mod odd N coprime to Q, n >= 0, unchecked.

    For N = 2^m + 1 and Q = +-1 the ladder runs on libgmp when
    `native_kernel(m, 1)` takes that modulus; everything else takes the int
    loop `_uv_ladder`, which is also the ladder's oracle in the tests and
    `verify.traces`.  Both walk every bit of n to the same canonical residues.
    """
    m = fermat_form_exponent(N)
    native = native_kernel(m, 1) if m is not None and abs(params.Q) == 1 else None
    if native is not None:
        return native.uv_ladder(params, n, m)
    return _uv_ladder(params, n, N)


# The int ladder reduces mod 2^m + 1 by `_FermatFold` when N has more than
# FOLD_MIN_BITS bits, and by `%` otherwise; testing the bit length first
# costs the congruence suite's small primes one int comparison a walk.
# Per index bit, `%` / fold in µs, best of 15 interleaved walks to (F_n - 1)/2
# and to one random odd 2^n-bit index (2-vCPU Intel Xeon VM, Python 3.11.7):
#
#     F_n    to (F_n - 1)/2             random index
#     F_8    0.97 / 1.22 (0.79x)       1.21 / 1.75 (0.69x)
#     F_9    2.50 / 1.80 (1.39x)       2.89 / 2.43 (1.19x)
#     F_10   6.37 / 2.92 (2.18x)       7.01 / 3.84 (1.83x)
#     F_11   22.2 / 8.16 (2.72x)       23.9 / 10.2 (2.34x)
#     F_12   79.0 / 24.2 (3.26x)       82.5 / 27.9 (2.95x)
#     F_13   294 / 73.8 (3.99x)        306 / 82.5 (3.70x)
#
# Walks to (F_n - 1)/2 read 0.25-0.40x at F_3..F_7 in an earlier pass: `%` takes
# F_n up to n = 8 (257 bits), the fold n >= 9 (513 bits).
FOLD_MIN_BITS = 512


class _FermatFold(NamedTuple):
    """2^m + 1 on the right of `%`: `x % _FermatFold(m)` folds instead of dividing."""

    m: int

    def __rmod__(self, x: int) -> int:
        return fermat_mod(x, self.m)


#: The exact (index, u_bar, v_bar) at index 0 for every (R, Q): the int ladder's default start table.
_LADDER_START = ((0, 0, 2),)


def _uv_ladder(
    params, n: int, N: int, start: Sequence[tuple[int, int, int]] = _LADDER_START
) -> tuple[int, int]:
    """`uv_ladder`'s int loop, unchecked: (u_bar(n), v_bar(n)) mod odd N coprime to Q, n >= 0.

    `x % M` reduces mod N: M is `_FermatFold(m)` for N = 2^m + 1 above FOLD_MIN_BITS, else N.  The walk
    starts at the index k of n's top t bits in `start`, the exact pairs at 0..2^t - 1 (t >= 0) from
    `lucas.lehmer_pairs_exact(params, 2^t - 1)`, so many walks share one table.  Doubling k subtracts
    2Q^k, so Q = +-1 has a loop of its own with no Q^k (2Q at odd k, 2 at even k): one loop lost that gain.
    A step to 2k + 1 halves R*u + v into u and takes v as that u less 2Q times the old u, which is
    (D*u + v)/2 as D = R - 4Q: one halving, and no D.
    """
    s = n.bit_length() - len(start).bit_length() + 1  # bitlen(n) - t: the bits the walk doubles over
    if s <= 0:  # n < 2^t: the table holds the pair
        _, u, v = start[n]
        return u % N, v % N
    R, Q = params
    q2 = 2 * Q
    M = N if N.bit_length() <= FOLD_MIN_BITS or (m := fermat_form_exponent(N)) is None else _FermatFold(m)
    k = n >> s
    _, u, v = start[k]
    u, v, k_odd = u % M, v % M, k & 1  # the pair at k and k's parity
    if Q * Q == 1:
        for bit in bin(n)[-s:]:
            u, v = u * v % M, (R * v * v - q2 if k_odd else v * v - 2) % M
            if k_odd := bit == "1":  # k <- 2k + 1
                x = (R * u + v) % M
                x = (x + N if x & 1 else x) >> 1
                u, v = x, (x - q2 * u) % M
        return u, v
    qk = Q**k % M  # Q^k, k < 2^t
    for bit in bin(n)[-s:]:
        u, v = u * v % M, ((R * v * v if k_odd else v * v) - 2 * qk) % M
        qk, k_odd = qk * qk % M, False
        if bit == "1":
            x = (R * u + v) % M
            x = (x + N if x & 1 else x) >> 1
            u, v = x, (x - q2 * u) % M
            qk, k_odd = qk * Q, True  # reduced with the next square
    return u, v
