import math
import random

import pytest

from fermatlucas.lucas import ALTERNATE_PARAMS, STANDARD_PARAMS, LucasParams
from fermatlucas.primality import fermat_number
from fermatlucas.symbols import (
    SymbolTriple,
    fermat_symbols_closed_form,
    jacobi,
    jacobi_period,
    symbol_table,
    symbol_triple,
)


def _sieve(limit):
    flags = bytearray([1]) * limit
    flags[:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return [i for i, f in enumerate(flags) if f]


def test_jacobi_examples():
    assert jacobi(2, 3) == -1
    assert jacobi(3, 5) == -1  # squares mod 5 are {1, 4}
    for n in range(1, 200, 2):
        assert jacobi(1, n) == 1
    assert jacobi(0, 1) == 1
    assert jacobi(0, 15) == 0
    assert jacobi(6, 15) == 0  # shared factor 3


def test_jacobi_validation():
    with pytest.raises(ValueError):
        jacobi(2, 4)
    with pytest.raises(ValueError):
        jacobi(2, 0)
    with pytest.raises(ValueError):
        jacobi(2, -7)


def test_jacobi_reduces_the_numerator():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(-(10**9), 10**9)
        assert jacobi(a, n) == jacobi(a % n, n) == jacobi(a + n, n)


def test_jacobi_euler_criterion():
    rng = random.Random(1930)
    for p in _sieve(10_000):
        if p == 2:
            continue
        for a in (2, 3, 5, 7, p - 1, rng.randrange(1, p)):
            euler = pow(a, (p - 1) // 2, p)
            expected = 0 if a % p == 0 else (1 if euler == 1 else -1)
            if euler not in (0, 1, p - 1):
                raise AssertionError("Euler criterion broke; p is not prime?")
            assert jacobi(a, p) == expected


def test_jacobi_period_covers_every_odd_denominator():
    # Numerators of every shape +-2^e b, including the suite's D, R and Q.
    for a in [*range(-24, 0), *range(1, 25), 96, -80]:
        table = jacobi_period(a)
        assert len(table) == 4 * abs(a)
        for n in range(1, 12 * abs(a), 2):
            assert table[n % len(table)] == jacobi(a, n), (a, n)


@pytest.mark.parametrize("params", [LucasParams(7, 1), LucasParams(3, -1), LucasParams(5, 2), LucasParams(11, -3)],
                         ids=["R7_Q1", "R3_Q-1", "R5_Q2", "R11_Q-3"])
def test_symbol_table_holds_each_triple_at_n_mod_its_period(params):
    # One table over the lcm of the three Jacobi periods: 84 classes for the suite's
    # (7, 1) and (3, -1), 120 for (5, 2) and 3036 for (11, -3).
    table = symbol_table(params)
    assert len(table) == math.lcm(4 * abs(params.D), 4 * abs(params.R), 4 * abs(params.Q))
    for n in range(3, 4 * len(table), 2):
        triple = symbol_triple(params, n)
        entry = table[n % len(table)]
        assert entry == (None if 0 in triple else triple), n
    assert all(entry is None for entry in table[::2])


def test_jacobi_multiplicative_in_numerator():
    rng = random.Random(42)
    for _ in range(1000):
        n = rng.randrange(3, 1 << 40) | 1
        a = rng.randrange(1 << 40)
        b = rng.randrange(1 << 40)
        assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)


def test_jacobi_reciprocity_with_3():
    # jacobi(3, N) * jacobi(N, 3) = (-1)^((3-1)/2 * (N-1)/2) for odd N coprime to 3
    for N in range(5, 10_000, 2):
        if N % 3 == 0:
            continue
        sign = -1 if (N - 1) // 2 % 2 else 1
        assert jacobi(3, N) * jacobi(N, 3) == sign


def test_symbol_triple_examples():
    assert symbol_triple(STANDARD_PARAMS, 17) == SymbolTriple(-1, -1, 1)
    assert symbol_triple(STANDARD_PARAMS, 65537) == SymbolTriple(-1, -1, 1)
    assert symbol_triple(STANDARD_PARAMS, 7).sigma == 0  # R == 0 mod 7
    with pytest.raises(ValueError):
        symbol_triple(STANDARD_PARAMS, 10)


def test_symbol_triple_alternate_params():
    # (3, -1) has D = 7; over 17 that gives the same -1, -1 pattern with tau = +1.
    assert symbol_triple(ALTERNATE_PARAMS, 17) == SymbolTriple(-1, -1, 1)
    # tau = (-1/p) = -1 when p == 3 (mod 4)
    assert symbol_triple(ALTERNATE_PARAMS, 11).tau == -1


def test_closed_form_values_and_branches():
    assert fermat_symbols_closed_form(1) == SymbolTriple(-1, -1, 1)
    assert fermat_symbols_closed_form(2) == SymbolTriple(-1, -1, 1)
    assert fermat_number(1) % 7 == 5  # odd-n branch
    assert fermat_number(2) % 7 == 3  # even-n branch
    assert fermat_number(1) % 3 == 2
    with pytest.raises(ValueError):
        fermat_symbols_closed_form(0)


def test_closed_form_agrees_with_jacobi():
    for n in range(1, 21):  # F_20 has 315653 digits; jacobi is fast
        F = fermat_number(n)
        assert fermat_symbols_closed_form(n) == symbol_triple(STANDARD_PARAMS, F)
