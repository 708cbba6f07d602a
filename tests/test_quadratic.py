import itertools
import random

import pytest

from conftest import deadline
from fermatlucas.quadratic import (
    QuadInt,
    balanced_residue,
    fermat_form_exponent,
    fermat_mod,
    is_perfect_square,
    mersenne_mod,
    qadd,
    qmul,
    qscale,
    qsub,
)


def test_qadd_examples():
    assert qadd(QuadInt(1, 2), QuadInt(3, 4)) == QuadInt(4, 6)
    assert qadd(QuadInt(0, 0), QuadInt(9, -3)) == QuadInt(9, -3)


@pytest.mark.parametrize("op", [
    lambda: QuadInt(1, 2) + QuadInt(3, 4),
    lambda: QuadInt(1, 2) * 2,
    lambda: 2 * QuadInt(1, 2),
    lambda: (0,) + QuadInt(1, 2),
], ids=["add", "mul", "rmul", "radd"])
def test_quadint_refuses_tuple_arithmetic(op):
    # On a tuple these would concatenate or repeat a ring element.
    with pytest.raises(TypeError):
        op()


def test_qmul_examples():
    root = QuadInt(0, 1)
    assert qmul(7, root, root) == QuadInt(7, 0)
    assert qmul(7, root, QuadInt(5, 0)) == QuadInt(0, 5)
    assert qmul(7, QuadInt(0, 4), QuadInt(0, 4)) == QuadInt(112, 0)  # (4*sqrt7)^2 = 16*7


def test_ring_axioms_random():
    rng = random.Random(20050927)
    for _ in range(1000):
        x = QuadInt(rng.randrange(1 << 64), rng.randrange(1 << 64))
        y = QuadInt(rng.randrange(1 << 64), rng.randrange(1 << 64))
        z = QuadInt(rng.randrange(1 << 64), rng.randrange(1 << 64))
        assert qadd(x, y) == qadd(y, x)
        assert qmul(7, x, y) == qmul(7, y, x)
        assert qadd(qadd(x, y), z) == qadd(x, qadd(y, z))
        assert qmul(7, qmul(7, x, y), z) == qmul(7, x, qmul(7, y, z))
        assert qmul(7, x, qadd(y, z)) == qadd(qmul(7, x, y), qmul(7, x, z))
        assert qsub(qadd(x, y), y) == x


def test_reduction_is_a_homomorphism():
    # Reducing both components mod N commutes with the ring product.
    rng = random.Random(74)
    for _ in range(500):
        N = rng.randrange(3, 1 << 48) | 1
        red = lambda q: QuadInt(q.a % N, q.b % N)  # noqa: E731
        x = QuadInt(rng.randrange(1 << 64), rng.randrange(1 << 64))
        y = QuadInt(rng.randrange(1 << 64), rng.randrange(1 << 64))
        assert red(qmul(7, x, y)) == red(qmul(7, red(x), red(y)))


def test_qsub_qscale():
    assert qsub(QuadInt(1, 1), QuadInt(3, 5)) == QuadInt(-2, -4)
    assert qscale(4, QuadInt(3, 9)) == QuadInt(12, 36)
    assert qscale(-1, QuadInt(3, -9)) == QuadInt(-3, 9)


def test_is_perfect_square():
    squares = {n * n for n in range(100)}
    for n in range(2000):
        assert is_perfect_square(n) == (n in squares)
    assert not is_perfect_square(-4)


def test_fermat_form_exponent():
    assert fermat_form_exponent(3) == 1
    assert fermat_form_exponent(5) == 2
    assert fermat_form_exponent(17) == 4
    assert fermat_form_exponent(65537) == 16
    assert fermat_form_exponent((1 << 128) + 1) == 128
    assert fermat_form_exponent(9) == 3  # any 2^m + 1 qualifies, not only Fermat numbers
    for n in (2, 4, 7, 15, 100):
        assert fermat_form_exponent(n) is None


def test_fermat_mod_matches_division_small():
    for m in range(1, 12):
        N = (1 << m) + 1
        for x in range(-3 * N, 3 * N + 7):
            assert fermat_mod(x, m) == x % N


def test_fermat_mod_matches_division_random():
    rng = random.Random(527)
    for m in (5, 16, 64, 256):
        N = (1 << m) + 1
        for _ in range(500):
            x = rng.getrandbits(2 * m + 8)
            if rng.random() < 0.25:
                x = -x
            assert fermat_mod(x, m) == x % N
        for edge in (0, 1, N - 1, N, N + 1, 1 << m, N * N, -(N * N) - 3):
            assert fermat_mod(edge, m) == edge % N


def test_mersenne_mod_matches_division():
    rng = random.Random(127)
    for q in (3, 7):
        M = (1 << q) - 1
        for x in range(-2 * M, 2 * M + 5):
            assert mersenne_mod(x, q) == x % M
    for q in (13, 61):
        M = (1 << q) - 1
        for edge in (0, 1, M - 1, M, M + 1, 2 * M, M * M, -1, -M, -(M * M), -(1 << 2 * q),
                     -(1 << q)):
            assert mersenne_mod(edge, q) == edge % M
        for _ in range(300):
            x = rng.getrandbits(2 * q + 6)
            assert mersenne_mod(x, q) == x % M


@pytest.mark.parametrize("fold", [fermat_mod, mersenne_mod])
def test_folds_refuse_exponents_below_one(fold):
    # 2^0 + 1 = 2 and 2^0 - 1 = 0 are no moduli to fold by: the Fermat fold
    # maps x to -x and back, and the Mersenne fold never moves x.
    for x in (5, -5, 1 << 70, 0, 1):
        for m in (0, -1):
            with deadline(5), pytest.raises(ValueError, match=f"must be >= 1, got {m}"):
                fold(x, m)


@pytest.mark.parametrize("m, sign", [(63, 1), (65, 1), (127, 1), (4097, 1), (64, -1), (128, -1), (4096, -1)])
def test_folds_on_the_moduli_libgmp_leaves_to_ints(m, sign):
    # libgmp takes only 2^m + 1 with 64 | m and 2^m - 1 with 64 not dividing
    # m, so these moduli run on the int folds at every size.
    reduce = fermat_mod if sign > 0 else mersenne_mod
    N = (1 << m) + sign
    # Products and sums of 0, 1 and N - 1, as a chain step or a doubling forms them.
    for a, b, c in itertools.product((0, 1, N - 1), (0, 1, N - 1), (0, 1, 2, N - 1, -1, -2, 1 - N)):
        assert reduce(a * b + c, m) == (a * b + c) % N, (a, b, c)
    # The values around 2^m, the top of a product of residues, and below 0.
    top = N << m if sign > 0 else (1 << 2 * m) - 1
    for z in (N, (1 << m) - 1, 1 << m, (1 << m) + 1, (N << m) - 1, N << m, top, N * N, -1, -N,
              -(N * N) - 3):
        assert reduce(z, m) == z % N, z


def test_balanced_residue():
    assert balanced_residue(197, 257) == -60
    assert balanced_residue(15, 17) == -2
    assert balanced_residue(60, 257) == 60
    assert balanced_residue(128, 257) == 128  # N//2 stays positive
    assert balanced_residue(129, 257) == -128
    assert balanced_residue(0, 257) == 0
