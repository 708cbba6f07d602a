"""Third-party oracle: `is_prime` (trial division and Miller-Rabin) and the
Jacobi symbol against sympy.
"""

import random

import sympy

from fermatlucas.primality import is_prime
from fermatlucas.symbols import jacobi


def test_is_prime_below_20000():
    assert [n for n in range(20000) if is_prime(n)] == list(sympy.primerange(20000))


def test_is_prime_random_40_bit():
    rng = random.Random(40)
    draws = [rng.randrange(1 << 39, 1 << 40) for _ in range(40)]
    # Half the draws are moved to the next prime, so both verdicts are tested.
    draws[::2] = [sympy.nextprime(n) for n in draws[::2]]
    for n in draws:
        assert is_prime(n) == sympy.isprime(n), n


def test_factor_check_random_80_bit():
    # Miller-Rabin territory: trial division cannot run at 80 bits.
    rng = random.Random(80)
    draws = [rng.randrange(1 << 79, 1 << 80) for _ in range(40)]
    draws[::2] = [sympy.nextprime(n) for n in draws[::2]]
    for n in draws:
        assert is_prime(n) == sympy.isprime(n), n


def test_jacobi_random_odd_moduli():
    rng = random.Random(10**12)
    for _ in range(2000):
        n = rng.randrange(1, 10**12, 2)
        a = rng.randrange(-n, 2 * n)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)
