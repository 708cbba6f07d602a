"""Exact arithmetic on elements a + b*sqrt(R) of Z[sqrt(R)], and fast reductions.

Representing sqrt(R) as the pair (0, 1) keeps every computation in integer
arithmetic; no irrational numbers ever appear.  Only `qmul` needs R, so only
it takes it.  Modular work runs on the integer Lehmer pair instead (see
`lucas.uv_mod`).

Reduction modulo numbers of the form 2^m + 1 (and 2^q - 1) has a dedicated
shift-and-fold path, cross-checked against plain division in the test suite.
"""

from __future__ import annotations

import math
from typing import NamedTuple


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


class QuadInt(NamedTuple):
    """The element a + b*sqrt(R); R is passed to the products, not stored."""

    a: int
    b: int

    # On a tuple these would concatenate or repeat; ring ops are qadd / qmul.
    __add__ = __radd__ = __mul__ = __rmul__ = None


ZERO = QuadInt(0, 0)
ONE = QuadInt(1, 0)
SQRT = QuadInt(0, 1)


def fermat_form_exponent(n: int) -> int | None:
    """Return m if n == 2^m + 1 with m >= 1, else None."""
    if n < 3:
        return None
    m = (n - 1).bit_length() - 1
    return m if (1 << m) + 1 == n else None


def fermat_mod(x: int, m: int) -> int:
    """x mod (2^m + 1) by folding: x1*2^m + x0 == x0 - x1 (mod 2^m + 1).

    Two or three folds suffice for any product of canonical residues; no
    division is performed.  Accepts negative x.
    """
    neg = x < 0
    if neg:
        x = -x
    mask = (1 << m) - 1
    while x.bit_length() > m:
        lo = x & mask
        hi = x >> m
        if lo >= hi:
            x = lo - hi
        else:
            x = hi - lo
            neg = not neg
    if neg and x:
        return ((1 << m) + 1) - x
    return x


def mersenne_mod(x: int, q: int) -> int:
    """x mod (2^q - 1) by folding: x1*2^q + x0 == x0 + x1 (mod 2^q - 1)."""
    M = (1 << q) - 1
    if x < 0:
        x %= M
    while x.bit_length() > q:
        x = (x & M) + (x >> q)
    return 0 if x == M else x


def balanced_residue(r: int, N: int) -> int:
    """Map a canonical residue to its representative in (-N/2, N/2]."""
    return r - N if r > N // 2 else r


def qadd(x: QuadInt, y: QuadInt) -> QuadInt:
    return QuadInt(x.a + y.a, x.b + y.b)


def qsub(x: QuadInt, y: QuadInt) -> QuadInt:
    return QuadInt(x.a - y.a, x.b - y.b)


def qmul(R: int, x: QuadInt, y: QuadInt) -> QuadInt:
    # (a + b*sqrt(R))(c + d*sqrt(R)) = (ac + bdR) + (ad + bc)*sqrt(R)
    return QuadInt(x.a * y.a + x.b * y.b * R, x.a * y.b + x.b * y.a)


def qscale(k: int, x: QuadInt) -> QuadInt:
    return QuadInt(k * x.a, k * x.b)
