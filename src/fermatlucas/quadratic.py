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


# Here, in the one module that imports none of the package's others, so that every module's refusals can use it.
def _int_text(x) -> str:
    """repr(x), but an int past Python's int-to-str digit limit in hex, a valid literal too: safe in any message."""
    try:
        return repr(x)
    except ValueError:
        return f"{x:#x}"


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
    if n < 3 or (n - 1) & (n - 2):  # n - 1 is not a power of two
        return None
    return (n - 1).bit_length() - 1


def fermat_mod(x: int, m: int) -> int:
    """x mod (2^m + 1) by folding: x1*2^m + x0 == x0 - x1 (mod 2^m + 1).

    Fold until 0 <= x <= 2^m, the canonical range.  Python's >> floors, so a
    negative x folds by the same rule with no sign to track.  Two or three
    folds suffice for any product of canonical residues; no division is
    performed.
    """
    if m < 1:  # 2^0 + 1 = 2 folds x to -x and back, forever
        raise ValueError(f"m must be >= 1, got {_int_text(m)}")
    top = 1 << m
    mask = top - 1
    while x < 0 or x > top:
        x = (x & mask) - (x >> m)
    return x


def mersenne_mod(x: int, q: int) -> int:
    """x mod (2^q - 1) by folding: x1*2^q + x0 == x0 + x1 (mod 2^q - 1).

    As in `fermat_mod`, Python's >> floors, so a negative x needs no division.
    """
    if q < 1:  # 2^0 - 1 = 0: the fold would never move x
        raise ValueError(f"q must be >= 1, got {_int_text(q)}")
    M = (1 << q) - 1
    while x < 0 or x > M:
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
