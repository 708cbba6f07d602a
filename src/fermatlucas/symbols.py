"""Jacobi symbols and the (epsilon, sigma, tau) triple attached to a sequence.

For parameters (R, Q) with discriminant D = R - 4Q, the triple over an odd
modulus n is (D/n), (R/n), (Q/n).  Jacobi rather than Legendre throughout:
candidate moduli may well be composite, and the two coincide on primes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

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
        raise ValueError(f"Jacobi symbol needs an odd positive denominator, got {n}")
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


def symbol_triple(params: LucasParams, n: int) -> SymbolTriple:
    """(epsilon, sigma, tau) for the given parameters over odd n >= 3."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {n}")
    return SymbolTriple(jacobi(params.D, n), jacobi(params.R, n), jacobi(params.Q, n))


# Non-zero squares modulo 3 and modulo 7, for the closed-form derivation.
_SQUARES_MOD3 = frozenset({1})
_SQUARES_MOD7 = frozenset({1, 2, 4})


def fermat_symbols_closed_form(n: int) -> SymbolTriple:
    """Symbol triple of the (7, 1) parameters over F_n = 2^(2^n) + 1, n >= 1.

    Derived from the residue of F_n modulo 3 and modulo 7 plus reciprocity,
    not by running the generic Jacobi algorithm; the result is always
    (-1, -1, +1).  For the reciprocity sign, note (F_n - 1)/2 = 2^(2^n - 1)
    is even for every n >= 1, so both flips vanish.
    """
    if n < 1:
        raise ValueError(f"Fermat index must be >= 1, got {n}")

    # F_n = 4^(2^(n-1)) + 1 == 1 + 1 = 2 (mod 3) for every n >= 1.
    f_mod3 = (pow(4, 1 << (n - 1), 3) + 1) % 3
    if f_mod3 != 2:
        raise AssertionError("residue chain mod 3 broke")
    # (F_n/3) = (2/3): 2 is not a square mod 3.
    sym_over_3 = 1 if f_mod3 in _SQUARES_MOD3 else -1
    epsilon = sym_over_3  # * (-1)^(1 * (F_n-1)/2) = * 1

    # ord(2) mod 7 is 3, so only 2^n mod 3 matters: 1 for even n, 2 for odd n.
    # Hence F_n == 2^1 + 1 = 3 (mod 7) for even n and 2^2 + 1 = 5 (mod 7) for odd n.
    exp_mod3 = pow(2, n, 3)
    f_mod7 = (pow(2, exp_mod3, 7) + 1) % 7
    if f_mod7 != (3 if n % 2 == 0 else 5):
        raise AssertionError("residue chain mod 7 broke")
    sym_over_7 = 1 if f_mod7 in _SQUARES_MOD7 else -1
    sigma = sym_over_7  # * (-1)^(3 * (F_n-1)/2) = * 1

    tau = 1  # (1/F_n)
    return SymbolTriple(epsilon, sigma, tau)
