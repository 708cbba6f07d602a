"""The libgmp kernel against the int routes, and the choice between them.

The int kernels are the oracles: `quadratic.fermat_mod` / `mersenne_mod` in a
Python loop for the squaring chain, and `lucas.uv_mod`'s int loop for the
doubling ladder.  Tests that call libgmp are skipped when it does not load;
the dispatch tests use a stand-in kernel and run everywhere.
"""

import collections
import copy
import ctypes
import gc
import itertools
import random
import subprocess
import sys
import types

import pytest

from conftest import cli_env, deadline
from fermatlucas import _gmp
from fermatlucas.lucas import (
    ALTERNATE_PARAMS,
    STANDARD_PARAMS,
    LehmerPair,
    LucasParams,
    _Params,
    iter_pairs,
    uv_mod,
)
from fermatlucas.native import GMP_MAX_BITS, GMP_MIN_BITS, native_kernel, square_chain, uv_ladder
from fermatlucas.primality import (
    fermat_llt,
    is_prime,
    mersenne_llt,
    pepin,
)
from fermatlucas.quadratic import fermat_mod, is_perfect_square, mersenne_mod

needs_gmp = pytest.mark.skipif(_gmp.load() is None, reason="libgmp did not load")

# Exponents q <= 4423 with 2^q - 1 prime.
MERSENNE_PRIME_EXPONENTS = (3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279,
                            2203, 2281, 3217, 4253, 4423)


def takes(m, sign):
    """Whether libgmp takes 2^m + sign: 2^m + 1 with 64 | m, or 2^m - 1 with 64 not dividing m."""
    return sign == (1 if m % 64 == 0 else -1)


def int_chain(x, steps, c, m, sign):
    reduce = fermat_mod if sign > 0 else mersenne_mod
    for _ in range(steps):
        x = reduce(x * x - c, m)
    return x


def pct_chain(x, steps, c, m, sign):
    """The chain on plain `%`: the oracle for the moduli libgmp refuses."""
    N = (1 << m) + sign
    for _ in range(steps):
        x = (x * x - c) % N
    return x


def chain_route(native, m, sign):
    """(chain, oracle) mod 2^m + sign, both called as square_chain is.

    Where libgmp takes the modulus, its chain against the int loop.  Where it
    does not, the kernel must raise ValueError, and `square_chain`, which then
    runs the int loop, is checked against plain `%`.
    """
    if takes(m, sign):
        return native.square_chain, int_chain
    with pytest.raises(ValueError):
        native.square_chain(5, 1, 2, m, sign)
    return square_chain, pct_chain


def edge_starts(m, sign, rng):
    """0, 1, 2^m (-1 mod 2^m + 1, 1 mod 2^m - 1), N - 1, and a random residue."""
    N = (1 << m) + sign
    return (0, 1, 1 << m, N - 1, rng.randrange(N))


@needs_gmp
@pytest.mark.parametrize("k", range(1, 14))
def test_fermat_form_matches_int_kernel(k):
    m = 1 << k  # libgmp takes it from k = 6 on, where 64 | m
    chain, oracle = chain_route(_gmp.load(), m, 1)
    rng = random.Random(k)
    for c in (0, 2):
        for x in edge_starts(m, 1, rng):
            assert chain(x, 12, c, m, 1) == oracle(x, 12, c, m, 1)
    # The whole seed-5 chain, whose final residue decides F_k.
    assert chain(5, m - 2, 2, m, 1) == oracle(5, m - 2, 2, m, 1)


@needs_gmp
def test_mersenne_form_matches_int_kernel():
    native = _gmp.load()
    rng = random.Random(4423)
    for q in (q for q in range(3, 4424) if is_prime(q)):
        for c in (0, 2):
            for x in edge_starts(q, -1, rng):
                assert native.square_chain(x, 3, c, q, -1) == int_chain(x, 3, c, q, -1)
    for q in (89, 97, 1277, 1279, 4253, 4271):
        residue = native.square_chain(4, q - 2, 2, q, -1)
        assert residue == int_chain(4, q - 2, 2, q, -1)
        assert (residue == 0) == (q in MERSENNE_PRIME_EXPONENTS)


@needs_gmp
def test_no_steps_returns_the_start_unreduced():
    native = _gmp.load()
    for x in (-7, 0, (1 << 64) + 5):
        for steps in (0, -1):
            assert native.square_chain(x, steps, 2, 64, 1) == x == int_chain(x, steps, 2, 64, 1)
    for m, sign in ((0, 1), (64, 0), (64, 2), (65, 1), (64, -1)):
        for steps in (1, 0):
            with pytest.raises(ValueError):
                native.square_chain(5, steps, 2, m, sign)


@needs_gmp
def test_property_random_x_and_m():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    native = _gmp.load()

    @settings(deadline=None, max_examples=200)
    @given(
        # Aligned m as often as any other, so both signs meet both shapes.
        m=st.integers(1, 5000) | st.integers(1, 78).map(lambda k: 64 * k),
        sign=st.sampled_from((1, -1)),
        x=st.integers(-300, 300) | st.integers(-(1 << 10000), 1 << 10000),
        c=st.sampled_from((0, 2)) | st.integers(-(1 << 5100), 1 << 5100),
        steps=st.integers(0, 4),
    )
    def check(m, sign, x, c, steps):
        if takes(m, sign):
            assert native.square_chain(x, steps, c, m, sign) == int_chain(x, steps, c, m, sign)
        else:
            with pytest.raises(ValueError):
                native.square_chain(x, steps, c, m, sign)

    check()


def folded(native, m, sign, z, c=0):
    """(z - c) mod 2^m + sign through one fold of the kernel, as a chain or the ladder makes it.

    Both folds take one contract, and leave the canonical residue in dst, a
    register of 2*ml limbs as a chain's.
    """
    ring = _gmp._Ring(native, m, sign)
    src = ring.array(max(2 * ring.ml, -(-z.bit_length() // 64)), z)
    dst = ring.array(2 * ring.ml, ring.N - 1)  # a stale residue, 2^m mod 2^m + 1 (its own top limb)
    (ring.folder if sign > 0 else ring.mersenne_folder)(dst, src, c)()
    return ring.get(dst)


# libgmp takes 2^m + 1 at m = 64, 128, 192 and 4096 (one, two, three and 64
# limbs), and 2^m - 1 at the others: in one limb and across a partial top limb.
EDGE_M = (1, 2, 3, 5, 63, 64, 65, 127, 128, 192, 4096, 4097)


@needs_gmp
@pytest.mark.parametrize("sign", (1, -1))
def test_fold_on_edge_operands(sign):
    native = _gmp.load()
    for m in EDGE_M:
        if not takes(m, sign):  # `test_quadratic` checks the int folds on these
            with pytest.raises(ValueError):
                _gmp._Ring(native, m, sign)
            continue
        N = (1 << m) + sign
        # Products and R*u + v sums of 0, 1 and N - 1 (2^m = -1 for 2^m + 1);
        # for 2^m + 1, (N - 1)*(N - 1) + (N - 1) = 2^m * N tops the fold's bound.
        # Each sum is folded whole, as the ladder folds R*u + v, and as the
        # product with -c taken off by the fold, as a chain's c and the
        # ladder's 2Q are.
        for a, b, c in itertools.product((0, 1, N - 1), (0, 1, N - 1), (0, 1, N - 1, -1, 1 - N)):
            if a * b + c >= 0:
                assert folded(native, m, sign, a * b + c) == (a * b + c) % N, (m, a, b, c)
            assert folded(native, m, sign, a * b, -c) == (a * b + c) % N, (m, a, b, c)
        # Both ends of the bound, [0, 2^m * N] for 2^m + 1 and [0, 2^(2m)) for
        # 2^m - 1, the values around 2^m, and (-N, 0) reached through c.
        top = N << m if sign > 0 else (1 << 2 * m) - 1
        for z in (0, 1, N, (1 << m) - 1, 1 << m, (1 << m) + 1, (N << m) - 1, N << m, top):
            if z <= top:
                assert folded(native, m, sign, z) == z % N, (m, z)
        for c in (1, N - 1, 1 << 64, (1 << 64) - 1, -(1 << 64)):
            assert folded(native, m, sign, 0, c) == -c % N, (m, c)
        if m < 64:
            continue
        # A seeded sweep over the bound, through the common path and the
        # fallback together: z of every size and within 2^m of the top (hi >=
        # 2^m for 2^m + 1), limb 0 near 0 or 2^64 - 1, and c near 0 or +-2^64.
        rng = random.Random(m)
        for _ in range(300):
            low = rng.choice((rng.randrange(4), _gmp.MAX_LIMB - rng.randrange(4)))
            rest = (top - low) >> 64  # the largest z >> 64 with z <= top
            rest = rng.choice((rng.randint(0, rest >> rng.randrange(2 * m)), rest - rng.randint(0, rest >> m)))
            z, c = rest << 64 | low, rng.choice((*range(-3, 4), 1 << 64, -(1 << 64)))
            assert folded(native, m, sign, z, c) == (z - c) % N, (m, z, c)


@needs_gmp
@pytest.mark.parametrize("m", EDGE_M)
def test_chain_on_limb_edges(m):
    # 2^m + 1 squares ml = m/64 limbs and keeps 2^m (-1) in a limb of its
    # own; 2^m - 1 folds hi onto lo times 2^t, t = 64*ml - m from 1 to 63.
    native = _gmp.load()
    rng = random.Random(m)
    for sign in (1, -1):
        chain, oracle = chain_route(native, m, sign)
        N = (1 << m) + sign
        for x in edge_starts(m, sign, rng):
            for c in (0, 2, 3, -1, (1 << 64) + 5, N - 2):
                assert chain(x, 6, c, m, sign) == oracle(x, 6, c, m, sign), (x, c)


@needs_gmp
def test_mersenne_fold_carries_into_limb_2(monkeypatch):
    # At t = 63 the two low limbs carry out on about 1 fold in 12 (298 of
    # these 4000); limb 2 takes the carry, so the fold stays off Python ints.
    native, puts = _gmp.load(), []
    put = _gmp._Ring.put
    monkeypatch.setattr(_gmp._Ring, "put", lambda ring, a, value: puts.append(value) or put(ring, a, value))
    assert native.square_chain(4, 4000, 2, 2113, -1) == int_chain(4, 4000, 2, 2113, -1)
    assert len(puts) < 5  # two of them store the start and the result
    # A carry out of limbs 0 and 1 (all ones, plus cy*2^t from hi's top limb)
    # and a borrow from limb 2, through one fold each; `folded` stores z and
    # dst's stale residue, and the fold the canonical result.
    puts.clear()
    for z, c in (((1 << 128) - 1 | _gmp.MAX_LIMB << 64 * 67, 0), (1 << 128, 1)):
        assert folded(native, 2113, -1, z, c) == (z - c) % ((1 << 2113) - 1)
    assert len(puts) == 6


@needs_gmp
@pytest.mark.parametrize("q", (61, 127, 191, 2113))
def test_mersenne_chain_ends_in_either_array(q):
    # A chain squares each array into the other, so an odd step count ends in
    # the scratch array and an even one in the register; the result is stored
    # canonical in the register either way.  61, 127 and 191 fold on L = 1, 2
    # and 3 limbs; 2113 has t = 63 bits above 2^q in the top limb.
    native = _gmp.load()
    N = (1 << q) - 1
    for x in (4, N - 1, 1 << q):
        for c in (2, 0, (1 << 64) + 5):
            for steps in range(6):
                assert native.square_chain(x, steps, c, q, -1) == int_chain(x, steps, c, q, -1), (x, c, steps)


@needs_gmp
def test_mersenne_chain_stores_only_its_start_and_result(monkeypatch):
    # The LLT chain of M_2203 settles every fold on the limbs: its two stores
    # are the start and the canonical result.
    native, puts = _gmp.load(), []
    put = _gmp._Ring.put
    monkeypatch.setattr(_gmp._Ring, "put", lambda ring, a, value: puts.append(value) or put(ring, a, value))
    residue = native.square_chain(4, 2000, 2, 2203, -1)
    assert residue == int_chain(4, 2000, 2, 2203, -1)
    assert puts == [4, residue]


@needs_gmp
def test_fermat_fold_has_one_python_fallback(monkeypatch):
    # The F_12 chains, LLT (c = 2) and Pepin (c = 0), settle every fold on
    # the limbs: their one store is the start.
    native, puts = _gmp.load(), []
    put = _gmp._Ring.put
    monkeypatch.setattr(_gmp._Ring, "put", lambda ring, a, value: puts.append(value) or put(ring, a, value))
    for x, steps, c in ((5, 4094, 2), (3, 4095, 0)):
        puts.clear()
        assert native.square_chain(x, steps, c, 4096, 1) == int_chain(x, steps, c, 4096, 1)
        assert puts == [x]
    # What the limbs cannot settle takes one store more, the fallback's: the
    # top of the bound, z = 2^m * N (with c = 1, b - c = 0 leaves limb 0 as
    # it is), a borrow below limb 0 and a carry out of it.  `folded` stores
    # dst's stale residue, and z unless it is 0.
    N = (1 << 4096) + 1
    for z, c in ((N << 4096, 1), (0, 2), (_gmp.MAX_LIMB, -1)):
        puts.clear()
        assert folded(native, 4096, 1, z, c) == (z - c) % N
        assert len(puts) == 2 + (z > 0), (z, c)
    # A square fold reads only the 2*ml limbs it writes: the ladder squares
    # into the z its products use, which keeps limb 2m/64 of the last one.
    ring = _gmp._Ring(native, 4096, 1)
    for x in (0, 5):  # the fallback (a borrow) and the common path
        dst, src = ring.array(ring.pl, x), ring.array(2 * ring.pl, 1 << 2 * 4096)
        ring.folder(dst, src, 2, square=True)()
        assert ring.get(dst) == (x * x - 2) % N, x


@needs_gmp
@pytest.mark.parametrize("m", (64, 128, 4096, 65, 4097))
def test_fermat_chain_enters_and_leaves_minus_one(m):
    chain, oracle = chain_route(_gmp.load(), m, 1)
    N = (1 << m) + 1
    # 3 with c = 10 steps to 2^m = -1 and on to -9.  For even m, 2^(m/2)
    # squares to -1, which squares to 1; for 4 | m, the square root of 2
    # (2^(3m/4) - 2^(m/4)) steps to -1 with c = 3, and on to -2.  1 with
    # c = 2 stays at -1 (1 - 2 = -1 = (-1)^2 - 2), and 0 steps to -2, 2, 2.
    starts = [(3, 10), (1, 2), (0, 2)]
    if m % 2 == 0:
        starts.append((1 << (m // 2), 0))
    if m % 4 == 0:
        starts.append(((1 << (3 * m // 4)) - (1 << (m // 4)), 3))
    for x, c in starts:
        residues = [x]
        for steps in range(1, 5):
            residues.append(chain(x, steps, c, m, 1))
            assert residues[-1] == oracle(x, steps, c, m, 1), (x, c, steps)
        if c != 2 and x:
            assert (N - 1) in residues[1:-1] and residues[-1] != N - 1


@needs_gmp
@pytest.mark.parametrize("m", EDGE_M)
def test_ladder_on_limb_edges(m, monkeypatch):
    ladder, oracle = ladder_route(_gmp.load(), m)
    monkeypatch.setattr(_gmp, "load", lambda: None)
    N = (1 << m) + 1
    rng = random.Random(m)
    # R = -1 mod N (with u = v = -1 the sum R*u + v tops the fold's bound).
    minus_one = next(LucasParams(k * N - 1, q) for k in itertools.count(1) for q in (1, -1)
                     if not is_perfect_square(k * N - 1) and k * N - 1 != 4 * q)
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS, minus_one, LucasParams((1 << 64) + 13, -1)):
        for n in ladder_indices(m, rng)[1:7] + [(1 << 70) - 1, N - 2]:
            assert ladder(params, n) == oracle(params, n), n


@needs_gmp
@pytest.mark.parametrize("k", range(4))
def test_view_shares_and_keeps_its_array(k):
    ring = _gmp._Ring(_gmp.load(), 64, 1)
    a = ring.array(4, random.Random(k).getrandbits(256))
    view = ring.view(a, k)
    assert len(view) == 4 - k
    a[k] = 7  # a store into a reads back through the view
    assert view[0] == 7
    view[-1] = 9  # and a store through the view reads back in a
    assert a[3] == 9
    value = ring.get(a)
    del a
    gc.collect()
    assert ring.get(view) == value >> 64 * k  # the view keeps the memory of a alive


def counting(native):
    """A copy of the kernel whose libgmp calls are counted, by function name.

    It also checks that every argument is a ctypes array (a limb operand, or
    a view of one), size, limb or shift count: no raw address is passed.
    The functions have no argtypes, so a Python int would be passed as a C
    int, silently cut to 32 bits.
    """
    counts = collections.Counter()
    counted = copy.copy(native)
    for name, fn in vars(native).items():
        if callable(fn) and hasattr(fn, "argtypes"):
            def call(*args, fn=fn, name=name):
                counts[name.lstrip("_")] += 1
                for arg in args:
                    assert isinstance(arg, (ctypes.Array, ctypes.c_long, ctypes.c_uint64,
                                            ctypes.c_uint)), (name, arg)
                return fn(*args)
            setattr(counted, name, call)
    return counted, counts


@needs_gmp
def test_foreign_calls_per_step():
    native, counts = counting(_gmp.load())
    # A step mod 2^m + 1, 64 | m: one square and one fold.  Carries and
    # borrows are settled in Python, so no step makes a third call.
    for c in (0, 2):
        counts.clear()
        assert native.square_chain(5, 1000, c, 4096, 1) == int_chain(5, 1000, c, 4096, 1)
        assert counts == {"sqr": 1000, "sub_n": 1000}
    # 2^q - 1 with 64 not dividing q: one square and one mpn_addmul_1 fold.
    counts.clear()
    assert native.square_chain(4, 1000, 2, 4423, -1) == int_chain(4, 1000, 2, 4423, -1)
    assert counts == {"sqr": 1000, "addmul_1": 1000}
    # A ladder doubling: u*v and v^2 - 2, each folded.  The walk from index
    # 0 doubles to 0, steps +1 (R*u + v and D*u + v: two mul, two add, two
    # sub_n folds, and a halving rshift each; 2 and 2 are even, so no add_n),
    # and doubles from the odd index 1, which also multiplies v^2 by R and
    # folds that: one mul, one sub_n.
    counts.clear()
    native.uv_ladder(LucasParams(5, 1), 1 << 1000, 4096)
    assert counts == {"mul_n": 1001, "sqr": 1001, "sub_n": 2 * 1001 + 3, "mul": 3, "add": 2, "rshift": 2}
    # R = 2^64 + 2 = 1 mod 2^64 + 1 takes v to 1 - 2 = -1 at index 2, where
    # v^2 - 2 keeps it, and u to +-1: u*v multiplies 2^m (-1) on libgmp at
    # every doubling from index 2 on, u = v = -1 among them.
    counts.clear()
    N = (1 << 64) + 1
    with_minus_one = native.uv_ladder(LucasParams(N + 1, 1), 1 << 10, 64)
    assert counts["mul_n"] == 11 and with_minus_one[1] == N - 1
    pair = uv_mod(LucasParams(N + 1, 1), 1 << 10, N)  # below GMP_MIN_BITS: the int loop
    assert with_minus_one == (pair.u_bar, pair.v_bar)


def stand_in_gmp(limb_bits=64, missing=None):
    """A `ctypes.PyDLL` whose every library is a libgmp as the loader sees it.

    Its limbs are `limb_bits` bits wide, no code is behind its functions,
    and it has no symbol named `missing`.
    """
    bits = ctypes.c_int(limb_bits)

    class StandInGmp:
        def __init__(self, name, *args, **kwargs):
            pass

        def __getitem__(self, name):
            if name == missing:
                raise AttributeError(f"{name}: undefined symbol")
            return ctypes.pointer(bits) if name == "__gmp_bits_per_limb" else types.SimpleNamespace()

    return StandInGmp


def test_loader_refuses_32_bit_limbs(monkeypatch):
    monkeypatch.setattr(ctypes, "PyDLL", stand_in_gmp(32))
    assert _gmp.load.__wrapped__() is None
    monkeypatch.setattr(ctypes, "PyDLL", stand_in_gmp(64))
    assert isinstance(_gmp.load.__wrapped__(), _gmp.GmpKernel)


def test_loader_refuses_a_library_without_a_symbol(monkeypatch):
    monkeypatch.setattr(ctypes, "PyDLL", stand_in_gmp(missing="__gmpn_addmul_1"))
    assert _gmp.load.__wrapped__() is None


def ladder_route(native, m):
    """(ladder, oracle) mod N = 2^m + 1, both called with (params, n) for (u_bar, v_bar).

    As `chain_route`: where libgmp takes N, its ladder against `uv_mod`'s int
    loop (the caller hides libgmp from `uv_mod`).  Where it does not, the
    kernel must raise ValueError, and `uv_mod`, whose int loop folds mod N,
    is checked against `uv_mod` mod 3N, which reduces by plain `%`.
    """
    N = (1 << m) + 1

    def int_loop(params, n):
        pair = uv_mod(params, n, N)
        return pair.u_bar, pair.v_bar

    def wide(params, n):
        pair = uv_mod(params, n, 3 * N)
        return pair.u_bar % N, pair.v_bar % N

    if takes(m, 1):
        return (lambda params, n: native.uv_ladder(params, n, m)), int_loop
    with pytest.raises(ValueError):
        native.uv_ladder(STANDARD_PARAMS, 5, m)
    return int_loop, wide


def ladder_indices(m, rng):
    """0, 1, 2, N - 1, N, N + 1, all-ones and random odd indices (halving bits).

    The int route costs about 50 us an index bit at m = 2^12 and 140 us at
    2^13, so from 2^12 on the other indices stop at 256 bits, and at 2^13
    N - 1, N and N + 1 are left out too.
    """
    N = (1 << m) + 1
    bits = m + 1 if m < 1 << 12 else 256
    indices = [0, 1, 2, (1 << bits) - 1, (1 << (bits // 2)) - 1]
    indices += [rng.getrandbits(bits) | 1 for _ in range(2)]
    return indices + ([N - 1, N, N + 1] if m < 1 << 13 else [])


@needs_gmp
@pytest.mark.parametrize("k", range(1, 14))
def test_ladder_matches_int_uv_mod(k, monkeypatch):
    m = 1 << k  # libgmp takes 2^m + 1 from k = 6 on, where 64 | m
    ladder, oracle = ladder_route(_gmp.load(), m)
    monkeypatch.setattr(_gmp, "load", lambda: None)  # uv_mod below takes its int loop
    rng = random.Random(k)
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        for n in ladder_indices(m, rng):
            assert ladder(params, n) == oracle(params, n), n


@needs_gmp
def test_ladder_reduces_large_r_and_negative_d(monkeypatch):
    routes = {m: ladder_route(_gmp.load(), m) for m in (1, 2, 3, 5, 64, 100, 1000, 1024)}
    monkeypatch.setattr(_gmp, "load", lambda: None)
    rng = random.Random(64)
    # R >= 2^64 would be cut to its low limb by a c_ulong argument; D = -1
    # for (3, 1).  m = 2 with unreduced R = 7 broke a one-correction fold.
    for params in (LucasParams(3, 1), LucasParams((1 << 64) + 13, 1),
                   LucasParams((1 << 64) + 13, -1), LucasParams(7, 1), LucasParams(5, -1)):
        for m, (ladder, oracle) in routes.items():
            for n in ladder_indices(m, rng) + [rng.getrandbits(200) | 1]:
                assert ladder(params, n) == oracle(params, n), (m, n)


@needs_gmp
def test_ladder_rejects_what_it_cannot_compute():
    native = _gmp.load()
    # LucasParams refuses Q = 0 itself; the unchecked tuple it extends does not.
    for params, n, m in ((LucasParams(7, 2), 5, 64), (_Params(7, 0), 5, 64), (STANDARD_PARAMS, -1, 64),
                         (STANDARD_PARAMS, 5, 0), (STANDARD_PARAMS, 5, 65), (STANDARD_PARAMS, 0, 4097)):
        with pytest.raises(ValueError):
            native.uv_ladder(params, n, m)


@needs_gmp
def test_failed_loader_gives_the_same_verdicts(monkeypatch):
    F12 = (1 << 4096) + 1
    with_gmp = (fermat_llt(12), pepin(12), mersenne_llt(4253),
                uv_mod(STANDARD_PARAMS, (1 << 4095) - 1, F12))
    assert native_kernel(1 << 12, 1) is _gmp.load()
    monkeypatch.setattr(_gmp, "load", lambda: None)
    assert native_kernel(1 << 12, 1) is None
    assert (fermat_llt(12), pepin(12), mersenne_llt(4253),
            uv_mod(STANDARD_PARAMS, (1 << 4095) - 1, F12)) == with_gmp
    assert with_gmp[0].witness is not None and with_gmp[2].classification == "prime"


def test_loader_returns_none_without_libgmp(monkeypatch):
    # Only the soname the suite runs against is opened: no search for a
    # libgmp of another name (another ABI, or a non-ELF build).
    import ctypes.util

    opened = []

    def no_library(name, *args, **kwargs):
        opened.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    def no_search(name):
        pytest.fail(f"the loader searched for {name!r}")

    monkeypatch.setattr(ctypes, "PyDLL", no_library)
    monkeypatch.setattr(ctypes.util, "find_library", no_search)
    assert _gmp.load.__wrapped__() is None
    assert opened == ["libgmp.so.10"]


class RecordingKernel:
    def __init__(self):
        self.calls = []

    def square_chain(self, x, steps, c, m, sign):
        self.calls.append((m, sign))
        return -1

    def uv_ladder(self, params, n, m):
        self.calls.append(("uv", m, params.Q))
        return -1, -1


def test_dispatch_by_modulus_size(monkeypatch):
    kernel = RecordingKernel()
    monkeypatch.setattr(_gmp, "load", lambda: kernel)
    # Both bounds are multiples of 64: libgmp takes 2^m + 1 there and
    # 2^m - 1 one bit inside them.
    assert native_kernel(GMP_MIN_BITS, 1) is native_kernel(GMP_MAX_BITS, 1) is kernel
    assert native_kernel(GMP_MIN_BITS + 1, -1) is native_kernel(GMP_MAX_BITS - 1, -1) is kernel
    assert native_kernel(GMP_MIN_BITS - 1, -1) is native_kernel(GMP_MAX_BITS + 1, -1) is None
    assert native_kernel(GMP_MIN_BITS - 64, 1) is native_kernel(GMP_MAX_BITS + 64, 1) is None
    # The other shapes inside the bounds.
    assert native_kernel(GMP_MIN_BITS + 1, 1) is native_kernel(GMP_MIN_BITS, -1) is None
    assert native_kernel(GMP_MAX_BITS - 1, 1) is native_kernel(GMP_MAX_BITS, -1) is None

    below, unaligned = GMP_MIN_BITS - 1, GMP_MIN_BITS + 1
    assert square_chain(5, 3, 2, below, 1) == int_chain(5, 3, 2, below, 1)
    assert square_chain(4, 3, 2, below, -1) == int_chain(4, 3, 2, below, -1)
    assert square_chain(5, 1, 2, GMP_MAX_BITS + 1, 1) == 23
    assert square_chain(5, 3, 2, unaligned, 1) == int_chain(5, 3, 2, unaligned, 1)
    assert square_chain(4, 3, 2, GMP_MIN_BITS, -1) == int_chain(4, 3, 2, GMP_MIN_BITS, -1)
    assert kernel.calls == []

    assert square_chain(5, 3, 2, GMP_MIN_BITS, 1) == -1
    assert square_chain(4, 3, 2, GMP_MAX_BITS - 1, -1) == -1
    assert kernel.calls == [(GMP_MIN_BITS, 1), (GMP_MAX_BITS - 1, -1)]

    # Only 2^m + 1 and 2^m - 1 are chain moduli, on either kernel.
    for m in (below, GMP_MIN_BITS):
        with pytest.raises(ValueError, match="sign must be"):
            square_chain(5, 1, 2, m, 0)
    assert len(kernel.calls) == 2

    monkeypatch.setattr(_gmp, "load", lambda: None)
    assert native_kernel(GMP_MIN_BITS, 1) is native_kernel(GMP_MIN_BITS + 1, -1) is None


def test_uv_mod_dispatch_by_modulus_form_size_and_q(monkeypatch):
    kernel = RecordingKernel()
    monkeypatch.setattr(_gmp, "load", lambda: kernel)
    for m in (GMP_MIN_BITS, GMP_MAX_BITS):
        for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
            assert uv_mod(params, 5, (1 << m) + 1) == LehmerPair(5, -1, -1)
    assert kernel.calls == [("uv", GMP_MIN_BITS, 1), ("uv", GMP_MIN_BITS, -1),
                            ("uv", GMP_MAX_BITS, 1), ("uv", GMP_MAX_BITS, -1)]
    kernel.calls.clear()

    fermat = (1 << GMP_MIN_BITS) + 1
    # Index 0 takes the kernel too, on a modulus it takes.
    assert uv_mod(STANDARD_PARAMS, 0, fermat) == LehmerPair(0, -1, -1)
    assert kernel.calls == [("uv", GMP_MIN_BITS, 1)]
    kernel.calls.clear()
    int_route = [
        (STANDARD_PARAMS, (1 << (GMP_MIN_BITS - 1)) + 1),   # below the lower bound
        (ALTERNATE_PARAMS, (1 << (GMP_MAX_BITS + 1)) + 1),  # above the upper bound
        (STANDARD_PARAMS, (1 << (GMP_MIN_BITS + 1)) + 1),   # 2^m + 1 with 64 not dividing m
        (STANDARD_PARAMS, (1 << GMP_MIN_BITS) - 1),         # not 2^m + 1
        (STANDARD_PARAMS, fermat + 2),
        (LucasParams(7, 3), fermat),                        # |Q| != 1
        (LucasParams(5, -2), fermat),
    ]
    for params, N in int_route:
        for n in (0, 5, 6):
            expected = next(itertools.islice(iter_pairs(params, N), n, None))
            assert uv_mod(params, n, N) == expected
    assert kernel.calls == []


def test_uv_ladder_routes_by_modulus_form_size_and_q(monkeypatch):
    # The route `uv_mod` calls, called without `uv_mod`'s checks: the kernel
    # gets the parameters themselves and m, at every index, 0 included.
    kernel = RecordingKernel()
    monkeypatch.setattr(_gmp, "load", lambda: kernel)
    for m in (GMP_MIN_BITS, GMP_MAX_BITS):
        for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
            for n in (0, 5):
                assert uv_ladder(params, n, (1 << m) + 1) == (-1, -1)
    assert kernel.calls == [("uv", m, Q) for m in (GMP_MIN_BITS, GMP_MAX_BITS) for Q in (1, 1, -1, -1)]
    kernel.calls.clear()

    fermat = (1 << GMP_MIN_BITS) + 1
    for params, N in [
        (STANDARD_PARAMS, (1 << (GMP_MIN_BITS - 1)) + 1),   # below the lower bound
        (ALTERNATE_PARAMS, (1 << (GMP_MAX_BITS + 1)) + 1),  # above the upper bound
        (STANDARD_PARAMS, (1 << (GMP_MIN_BITS + 1)) + 1),   # 2^m + 1 with 64 not dividing m
        (STANDARD_PARAMS, (1 << GMP_MIN_BITS) - 1),         # not 2^m + 1
        (STANDARD_PARAMS, fermat + 2),
        (LucasParams(7, 3), fermat),                        # |Q| != 1
        (LucasParams(5, -2), fermat),
    ]:
        for n in (0, 5, 6):
            assert uv_ladder(params, n, N) == next(itertools.islice(iter_pairs(params, N), n, None))[1:]
    assert kernel.calls == []


@pytest.mark.parametrize("sign", [1, -1])
def test_chain_refuses_an_exponent_below_one(sign):
    # Mod 2^0 + sign neither fold moves toward a residue, so the int loop
    # refuses at its first step instead of running forever; no step, no fold.
    for m in (0, -1):
        with deadline(5), pytest.raises(ValueError, match=f"must be >= 1, got {m}"):
            square_chain(5, 1, 2, m, sign)
    assert square_chain(5, 0, 2, 0, sign) == 5


def test_short_chains_never_import_the_native_module():
    # The CLI's import, its short chains and its uv-mod tables below the
    # lower bound, and chains on the two shapes libgmp declines inside the
    # bounds, do not even import the module that loads ctypes and libgmp.
    n = max(n for n in range(GMP_MIN_BITS.bit_length()) if 1 << n < GMP_MIN_BITS)
    q = max(q for q in range(3, GMP_MIN_BITS) if is_prime(q))
    code = (
        "import contextlib, io, sys\n"
        "from fermatlucas import cli\n"
        "from fermatlucas.native import square_chain\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main(['test', 'fermat', '{n}'])\n"
        f"    cli.main(['test', 'mersenne', '{q}'])\n"
        f"    cli.main(['table', 'uv-mod', '--modulus-fermat', '{n}', '--max', '16'])\n"
        f"square_chain(5, 3, 2, {GMP_MIN_BITS + 1}, 1)\n"  # 2^m + 1 with 64 not dividing m
        f"square_chain(4, 3, 2, {GMP_MIN_BITS}, -1)\n"     # 2^m - 1 with 64 | m
        "print('fermatlucas._gmp' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
