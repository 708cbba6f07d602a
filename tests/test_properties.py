"""Property tests: fast paths against their plain definitions.

Skipped when hypothesis is not installed (`pip install -e .[test]` brings it).
"""

import itertools

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fermatlucas.lucas import ALTERNATE_PARAMS, STANDARD_PARAMS, LehmerPair, iter_pairs, uv_mod
from fermatlucas.quadratic import fermat_mod, mersenne_mod
from fermatlucas.symbols import jacobi

ODD_PRIMES = [p for p in range(3, 5000, 2) if all(p % d for d in range(3, int(p**0.5) + 1, 2))]
# Fermat-form moduli take uv_mod's fold reduction; the rest plain `%`.
ODD_MODULI = st.sampled_from([5, 17, 257, 65537]) | st.integers(1, 10**9).map(lambda k: 2 * k + 1)
# Small values reach the sign and boundary cases that wide draws rarely hit.
ANY_INT = st.integers(-300, 300) | st.integers(-(1 << 300), 1 << 300)


@settings(deadline=None)
@given(
    params=st.sampled_from([STANDARD_PARAMS, ALTERNATE_PARAMS]),
    n=st.integers(0, 400),
    N=ODD_MODULI,
)
def test_uv_mod_matches_stepping(params, n, N):
    pair = uv_mod(params, n, N)
    assert isinstance(pair, LehmerPair)
    assert pair == next(itertools.islice(iter_pairs(params, N), n, None))


@given(x=ANY_INT, m=st.integers(1, 200))
def test_fermat_mod_matches_percent(x, m):
    assert fermat_mod(x, m) == x % ((1 << m) + 1)


@given(x=ANY_INT, q=st.integers(1, 200))
def test_mersenne_mod_matches_percent(x, q):
    assert mersenne_mod(x, q) == x % ((1 << q) - 1)


@given(a=ANY_INT, p=st.sampled_from(ODD_PRIMES))
def test_jacobi_matches_euler_criterion(a, p):
    assert jacobi(a, p) % p == pow(a, (p - 1) // 2, p)
