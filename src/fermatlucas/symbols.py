"""Jacobi symbols and the (epsilon, sigma, tau) triple attached to a sequence.

For parameters (R, Q) with discriminant D = R - 4Q, the triple over an odd
modulus n is (D/n), (R/n), (Q/n).  Jacobi rather than Legendre throughout:
candidate moduli may well be composite, and the two coincide on primes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .quadratic import _int_text

if TYPE_CHECKING:
    from .lucas import LucasParams


class SymbolTriple(NamedTuple):
    epsilon: int  # (D/n)
    sigma: int    # (R/n)
    tau: int      # (Q/n)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by the binary algorithm.

    Negative or oversized numerators are reduced mod n first; (0/1) = 1.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs an odd positive denominator, got {_int_text(n)}")
    a %= n
    result = 1
    while a:
        while a & 1 == 0:
            a >>= 1
            if n & 7 in (3, 5):  # (2/n) = -1 iff n == +-3 (mod 8)
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:  # reciprocity flip
            result = -result
        a %= n
    return result if n == 1 else 0


def jacobi_period(a: int) -> list[int]:
    """(a/r) for r = 0..4|a| - 1 and nonzero a, so that (a/n) = table[n % 4|a|] on odd n > 0.

    The Jacobi symbol (a/n) over odd n > 0 has a period dividing 4|a|.
    Write a = +-2^e b with b odd and positive: (-1/n) depends on n mod 4,
    (2/n) on n mod 8, needed only when e >= 1 and then 8 divides 4|a|, and
    (b/n) = (n/b) (-1)^((b-1)/2 (n-1)/2) on n mod b and n mod 4.  Entries
    at even r are 0; no odd n reads them.
    """
    return [jacobi(a, r) if r % 2 else 0 for r in range(4 * abs(a))]


def symbol_table(params: LucasParams) -> list[SymbolTriple | None]:
    """The triple at each r = 0..P - 1, P the lcm of the periods of (D/n), (R/n) and (Q/n).

    On odd n >= 3, table[n % P] is symbol_triple(params, n), or None where
    that triple holds a 0 (n shares a factor with QRD); even r hold None.
    One `jacobi_period` per numerator: P = 84 for (7, 1) and (3, -1).
    """
    d, r, q = (jacobi_period(a) for a in (params.D, params.R, params.Q))
    period = math.lcm(len(d), len(r), len(q))
    triples = (SymbolTriple(d[i % len(d)], r[i % len(r)], q[i % len(q)]) for i in range(period))
    return [None if 0 in triple else triple for triple in triples]


def symbol_triple(params: LucasParams, n: int) -> SymbolTriple:
    """(epsilon, sigma, tau) for the given parameters over odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {_int_text(n)}")
    return SymbolTriple(jacobi(params.D, n), jacobi(params.R, n), jacobi(params.Q, n))


def fermat_symbols_closed_form(n: int) -> SymbolTriple:
    """Symbol triple of the (7, 1) parameters over F_n = 2^(2^n) + 1, n >= 1: (-1, -1, +1).

    D = 3, so the triple is (3/F_n), (7/F_n), (1/F_n), and no Jacobi
    algorithm is run:
    - F_n = 4^(2^(n-1)) + 1 == 2 (mod 3), and 2 is not a square mod 3.
    - ord(2) mod 7 is 3 and 2^n == 1 or 2 (mod 3) for even or odd n, so
      F_n == 3 or 5 (mod 7); the squares mod 7 are 1, 2 and 4.
    - (F_n - 1)/2 = 2^(2^n - 1) is even, so reciprocity flips no sign:
      (3/F_n) = (F_n/3) = -1 and (7/F_n) = (F_n/7) = -1.
    - (1/F_n) = +1.
    """
    if n < 1:
        raise ValueError(f"Fermat index must be >= 1, got {_int_text(n)}")
    return SymbolTriple(-1, -1, 1)
