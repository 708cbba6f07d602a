import itertools
import math
import random

import pytest

from fermatlucas import native, verify
from fermatlucas.lucas import (
    ALTERNATE_PARAMS,
    EXACT_INDEX_CAP,
    LehmerPair,
    LucasParams,
    STANDARD_PARAMS,
    _sum_identity_step,
    alternate_params_pair,
    iter_pairs,
    iter_uv_exact,
    lehmer_pairs_exact,
    s_from_v,
    sum_identity_holds,
    uv_mod,
)
from fermatlucas.native import FOLD_MIN_BITS, _LADDER_START, _uv_ladder
from fermatlucas.quadratic import ONE, ZERO, QuadInt, fermat_mod, qadd, qmul, qscale

P7 = STANDARD_PARAMS
P3 = ALTERNATE_PARAMS


def test_params_validation():
    with pytest.raises(ValueError):
        LucasParams(9, 1)  # square R
    with pytest.raises(ValueError):
        LucasParams(-7, 1)
    with pytest.raises(ValueError):
        LucasParams(7, 0)
    with pytest.raises(ValueError):
        LucasParams(6, 4)  # not coprime
    assert P7.D == 3
    assert P3.D == 7
    # No accepted pair has D = 0; the comment in LucasParams.__new__ says why.
    for R, Q in itertools.product(range(1, 201), range(-50, 51)):
        try:
            params = LucasParams(R, Q)
        except ValueError:
            continue
        assert params.D != 0, params


@pytest.mark.parametrize("R, Q", [(9, 1), (-7, 1), (7, 0), (6, 4)])
def test_params_validation_through_make_and_replace(R, Q):
    # A tuple's own _make and _replace bypass __new__; LucasParams routes both through it.
    with pytest.raises(ValueError):
        LucasParams._make((R, Q))
    with pytest.raises(ValueError):
        P7._replace(R=R, Q=Q)


def test_params_are_a_plain_pair():
    assert P7 == (7, 1) and tuple(P3) == (3, -1)
    assert P7._replace(Q=-1) == LucasParams(7, -1) and type(P7._make((3, -1))) is LucasParams
    assert repr(P7) == "LucasParams(R=7, Q=1)"


def test_uv_exact_first_values():
    ring = list(iter_uv_exact(P7, 3))
    assert ring[0] == (0, QuadInt(0, 0), QuadInt(2, 0))
    assert ring[2] == (2, QuadInt(0, 1), QuadInt(5, 0))  # U_2 = sqrt7, V_2 = 5
    assert ring[3] == (3, QuadInt(6, 0), QuadInt(0, 4))  # U_3 = 6, V_3 = 4 sqrt7


def test_uv_exact_cap():
    # Exact pairs no longer come from the ring, but keep its cap and messages.
    for exact in (lehmer_pairs_exact, lambda params, n: list(iter_uv_exact(params, n))):
        with pytest.raises(ValueError, match=f"^exact evaluation is capped at index {EXACT_INDEX_CAP}, got 10001$"):
            exact(P7, EXACT_INDEX_CAP + 1)
        with pytest.raises(ValueError, match="^index must be >= 0, got -1$"):
            exact(P7, -1)
    assert lehmer_pairs_exact(P3, 0) == [LehmerPair(0, 0, 2)]
    assert len(lehmer_pairs_exact(P7, EXACT_INDEX_CAP)) == EXACT_INDEX_CAP + 1


def test_iter_uv_exact_steps_every_index():
    steps = list(iter_uv_exact(P7, 40))
    assert [n for n, _, _ in steps] == list(range(41))
    assert list(iter_uv_exact(P3, 0)) == [(0, QuadInt(0, 0), QuadInt(2, 0))]


def test_normalize_examples():
    # The index-40 golden as the ring's kept components (acceptance criterion 3 checks the stepped pair).
    _, U, V = list(iter_uv_exact(P7, 40))[40]
    assert (U, V) == (QuadInt(0, 8870244889325), QuadInt(40648568638127, 0))
    assert lehmer_pairs_exact(P7, 1)[1] == LehmerPair(1, 1, 1)


@pytest.mark.parametrize("params", [P7, P3], ids=["R7Q1", "R3Qm1"])
def test_parity_structure(params):
    # The component the normalization discards is zero, and the kept one is
    # not (apart from index 0), for every index up to 200.
    for i, u, v in iter_uv_exact(params, 200):
        if i % 2 == 0:
            assert u.a == 0 and v.b == 0
            assert v.a != 0 and (i == 0 or u.b != 0)
        else:
            assert u.b == 0 and v.a == 0
            assert u.a != 0 and v.b != 0


def test_uv_mod_examples():
    assert uv_mod(P7, 16, 17) == LehmerPair(16, 0, 15)  # 15 displays as -2
    assert uv_mod(P7, 128, 257) == LehmerPair(128, 33, 0)
    assert uv_mod(P7, 1, 65537) == LehmerPair(1, 1, 1)
    assert uv_mod(P7, 0, 17) == LehmerPair(0, 0, 2)


def test_uv_mod_validation():
    with pytest.raises(ValueError):
        uv_mod(P7, 5, 16)  # even modulus
    with pytest.raises(ValueError):
        uv_mod(P7, 5, 1)
    with pytest.raises(ValueError):
        uv_mod(LucasParams(7, 3), 5, 9)  # modulus shares a factor with Q
    with pytest.raises(ValueError):
        uv_mod(P7, -1, 17)


def test_uv_mod_cross_evaluation():
    rng = random.Random(8441)
    exact = [
        (p.u_bar, p.v_bar)
        for p in lehmer_pairs_exact(P7, 5000)
    ]
    for _ in range(500):
        n = rng.randrange(0, 5001)
        N = rng.randrange(3, 1 << 31) | 1
        got = uv_mod(P7, n, N)
        eu, ev = exact[n]
        assert (got.u_bar - eu) % N == 0
        assert (got.v_bar - ev) % N == 0
    # The Fermat moduli F_1..F_5 take uv_mod's fold reduction.
    for k in range(1, 6):
        N = (1 << (1 << k)) + 1
        near_n = [n for n in (N - 1, N, N + 1) if n <= 5000]
        for n in [0, 1, 2, 5000, *near_n] + [rng.randrange(0, 5001) for _ in range(50)]:
            eu, ev = exact[n]
            assert uv_mod(P7, n, N) == (n, eu % N, ev % N)


def test_uv_mod_huge_index():
    # Index far beyond 64 bits; value checked against the doubling identity
    # v(2k) = v(k)^2 - 2 at an even k (Q = 1).
    N = 1000003
    k = 1 << 200
    vk = uv_mod(P7, k, N).v_bar
    v2k = uv_mod(P7, 2 * k, N).v_bar
    assert v2k == (vk * vk - 2) % N


def test_s_from_v_examples():
    assert s_from_v(0, 257) == 5
    assert s_from_v(1, 257) == 23
    assert s_from_v(2, 10**9 + 7) == 527


def test_s_from_v_bridges_the_squaring_chain():
    N = 257
    s = 5 % N
    for k in range(13):
        assert s_from_v(k, N) == s
        s = (s * s - 2) % N


def test_s_from_v_validation():
    with pytest.raises(ValueError):
        s_from_v(-1, 257)
    with pytest.raises(ValueError):
        s_from_v(2, 10**9)  # even modulus: fast doubling halves


def test_sum_identity_examples():
    # Acceptance criterion 6 checks that the identities hold; a wrong U_{mn} or V_{mn} fails.
    ring = list(iter_uv_exact(P7, 3))
    _, U1, V1 = ring[1]
    assert not sum_identity_holds(P7, 2, U1, V1, ring[3][1], odd_side=True)
    assert not sum_identity_holds(P7, 2, U1, V1, ring[3][2], odd_side=False)


def test_sum_identity_refuses_m_below_one():
    # The identities are stated for m >= 1: at m = 0 the odd side is an empty sum.
    _, U1, V1 = list(iter_uv_exact(P7, 1))[1]
    for m in (0, -1):
        for odd_side in (True, False):
            with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
                sum_identity_holds(P7, m, U1, V1, V1, odd_side=odd_side)


def binomial_sides(params, m, U, V):
    """The sums written term by term: C(m, k) D^(k//2) U^k V^(m-k) over odd k and over even k."""
    R, D = params.R, params.D
    odd, even = ZERO, ZERO
    for k in range(m + 1):
        term = ONE
        for x in [U] * k + [V] * (m - k):
            term = qmul(R, term, x)
        term = qscale(math.comb(m, k) * D ** (k // 2), term)
        if k % 2:
            odd = qadd(odd, term)
        else:
            even = qadd(even, term)
    return odd, even


@pytest.mark.parametrize("params", [P7, P3, LucasParams(5, 2), LucasParams(2, -3)], ids=lambda p: f"R{p.R}_Q{p.Q}")
def test_sum_identity_step_matches_the_binomial_sums(params):
    # Random ring values, not sequence values, so the step is checked as ring
    # algebra; the suite and `sum_identity_holds` both take the step, so
    # comparing them with each other checks neither.
    rng = random.Random(params.R)
    for _ in range(20):
        U, V = (QuadInt(rng.randrange(-10**6, 10**6), rng.randrange(-10**6, 10**6)) for _ in range(2))
        u_side, v_side = ZERO, ONE
        for m in range(1, 13):
            u_side, v_side = _sum_identity_step(params, u_side, v_side, U, V)
            assert (u_side, v_side) == binomial_sides(params, m, U, V), (m, U, V)


def test_sum_identity_cap():
    # One exact ring table to index m*n serves the sum identities; over the
    # cap the suite refuses before checking anything.
    with pytest.raises(ValueError, match=f"capped at index {EXACT_INDEX_CAP}, got 10201"):
        list(verify.identities(m_max=101, n_max=101))


def test_gcd_uv_examples():
    pairs = lehmer_pairs_exact(P7, 6)
    assert math.gcd(pairs[4].u_bar, pairs[4].v_bar) == 1  # gcd(5, 23)
    assert math.gcd(pairs[1].u_bar, pairs[1].v_bar) == 1
    assert math.gcd(pairs[6].u_bar, pairs[6].v_bar) == 2  # gcd(24, 110), divides 2*Q^6


@pytest.mark.parametrize("params", [P7, P3], ids=["R7Q1", "R3Qm1"])
def test_norm_identity(params):
    # V_n^2 - D U_n^2 = 4 Q^n, which in normalized terms reads
    # v^2 - D*R*u^2 (n even) or R*v^2 - D*u^2 (n odd); this is the identity
    # that bounds gcd(u, v)^2 by 4 Q^n.
    R, Q, D = params.R, params.Q, params.D
    q_pow = 1
    for pair in lehmer_pairs_exact(params, 200):
        u, v = pair.u_bar, pair.v_bar
        if pair.index % 2 == 0:
            assert v * v - D * R * u * u == 4 * q_pow
        else:
            assert R * v * v - D * u * u == 4 * q_pow
        q_pow *= Q


def test_alternate_params_pair_examples():
    pairs = lehmer_pairs_exact(P7, 8)
    assert alternate_params_pair(3, pairs).u_bar == 4   # swapped from v_bar(3)
    assert alternate_params_pair(2, pairs).v_bar == 5   # even index carries over
    assert alternate_params_pair(5, pairs).u_bar == 19


def test_alternate_params_pair_missing_index():
    with pytest.raises(ValueError):
        alternate_params_pair(9, lehmer_pairs_exact(P7, 8))
    with pytest.raises(ValueError):
        alternate_params_pair(3, lehmer_pairs_exact(P7, 8)[1:])  # not indexed by index
    with pytest.raises(ValueError, match="index must be >= 0"):
        alternate_params_pair(-1, [])  # refused by name, not left to an IndexError


def test_odd_index_u_recurrence():
    # The odd-index u_bar values for (7, 1) satisfy x_{j+1} = 5 x_j - x_{j-1}
    # starting from 1, 6 (step-two recurrence; 5 = v_bar(2), Q^2 = 1).
    pairs = lehmer_pairs_exact(P7, 199)
    expected = [p.u_bar for p in pairs if p.index % 2 == 1]
    x_prev, x = 1, 6
    got = [x_prev, x]
    while len(got) < len(expected):
        x_prev, x = x, 5 * x - x_prev
        got.append(x)
    assert got == expected


def test_iter_pairs_exact_matches_ring_path():
    # The stepped pair is the ring's kept components: (U.b, V.a) at even
    # index, (U.a, V.b) at odd index.
    for params in (P7, P3):
        ring = list(iter_uv_exact(params, 200))
        stepped = iter_pairs(params)
        for i, U, V in ring:
            assert next(stepped) == ((i, U.b, V.a) if i % 2 == 0 else (i, U.a, V.b))


@pytest.mark.parametrize("params", [P7, P3, LucasParams(2, 1), LucasParams(2, -3), LucasParams(1000000007, 1)],
                         ids=["7,1", "3,-1", "2,1", "2,-3", "1000000007,1"])
def test_iter_pairs_steps_in_the_number_type_of_one(params):
    # Library callers get ints; from Decimal(1), under a context that cannot round, the same values in decimal.
    import decimal

    ints = list(itertools.islice(iter_pairs(params), 301))
    assert lehmer_pairs_exact(params, 300) == ints
    assert all(type(x) is int for pair in ints for x in pair)
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded])
    with decimal.localcontext(exact):
        decimals = list(itertools.islice(iter_pairs(params, one=decimal.Decimal(1)), 301))
    assert all(type(x) is decimal.Decimal for pair in decimals for x in pair[1:])
    assert [(i, str(u), str(v)) for i, u, v in decimals] == [(i, str(u), str(v)) for i, u, v in ints]


def test_iter_pairs_modular():
    it = iter_pairs(P7, modulus=17)
    seq = [next(it) for _ in range(25)]
    assert seq[16] == LehmerPair(16, 0, 15)
    with pytest.raises(ValueError):
        next(iter_pairs(P7, modulus=1))


@pytest.mark.parametrize("N", [3, 9, 17, 31], ids=["fermat3", "fermat9", "fermat17", "generic31"])
def test_uv_mod_agrees_with_stepping_small_moduli(N):
    # N = 3, 9, 17 are of the 2^m + 1 form, which `%` reduces below FOLD_MIN_BITS; 31 is generic.
    it = iter_pairs(P7, modulus=N)
    for _ in range(64):
        pair = next(it)
        assert uv_mod(P7, pair.index, N) == pair


def test_uv_mod_fold_route_off_limb_boundaries():
    # 2^4097 + 1 is of Fermat form but not limb-aligned, so libgmp leaves it
    # to the int loop's fold; 3N is not of Fermat form and reduces by `%`.
    N = (1 << 4097) + 1
    rng = random.Random(4097)
    for params in (P7, P3):
        for n in [rng.getrandbits(256) | 1 | 1 << 255 for _ in range(3)] + [(1 << 256) - 1]:
            pair, wide = uv_mod(params, n, N), uv_mod(params, n, 3 * N)
            assert pair == (n, wide.u_bar % N, wide.v_bar % N), n


# 2^m + 1 moduli (Fermat numbers, 2^10 + 1 = 5^2 * 41 and F_7) and others,
# all reduced by `%` (below FOLD_MIN_BITS) and coprime to the Q values below.
NON_UNIT_Q_MODULI = [5, 17, 257, 65537, 1025, (1 << 128) + 1, 7, 31, 1001, 10**9 + 7, (1 << 61) - 1]


@pytest.mark.parametrize("params", [LucasParams(7, 3), LucasParams(5, 2), LucasParams(11, -3)],
                         ids=["R7_Q3", "R5_Q2", "R11_Q-3"])
def test_uv_mod_agrees_with_stepping_for_non_unit_q(params):
    # Q^k is a tracked residue here, not a sign; stepping never forms it.
    for N in NON_UNIT_Q_MODULI:
        for pair in itertools.islice(iter_pairs(params, N), 301):
            assert uv_mod(params, pair.index, N) == pair, (N, pair.index)


# Odd moduli and 2^m + 1 moduli: reduced by `%` up to FOLD_MIN_BITS, by the
# fold above it (2^512 + 1 and 2^1024 + 1).  A test takes those coprime to its Q.
START_TABLE_MODULI = [3, 7, 15, 1001, 65535, (1 << 61) - 1] + [(1 << m) + 1 for m in (1, 2, 5, 16, 64, 512, 1024)]


@pytest.mark.parametrize("params", [P7, P3, LucasParams(5, 2), LucasParams(11, -3)],
                         ids=["R7_Q1", "R3_Q-1", "R5_Q2", "R11_Q-3"])
def test_ladder_from_exact_start_tables_matches_the_default_start(params):
    # The default start is the exact table of 2^0 entries.
    assert lehmer_pairs_exact(params, 0) == list(_LADDER_START)
    rng = random.Random(14)
    # An index below 2^t walks no bit from a table of 2^t pairs.
    indices = [*range(20), 255, 256, 257, (1 << 14) - 1, 1 << 14] + [rng.randrange(1 << 14) for _ in range(40)]
    moduli = [N for N in START_TABLE_MODULI if math.gcd(N, params.Q) == 1]
    # Up to t = 10, the tallest table `verify.congruences` builds.  The walk starts
    # from Q^k mod N with k < 2^t; with Q = -3 those powers are not +-1.
    for t in range(11):
        start = lehmer_pairs_exact(params, (1 << t) - 1)
        for N in moduli:
            for n in indices:
                assert _uv_ladder(params, n, N, start) == _uv_ladder(params, n, N), (t, N, n)


def assert_ladder_matches_stepped_pairs_at_every_start_height(params, moduli):
    """The int ladder from each start table (t = 0..10) against `iter_pairs`, not against the ladder itself."""
    rng = random.Random(48)
    for N in moduli:
        stepped = list(itertools.islice(iter_pairs(params, N), 1 << 12))
        for t in range(11):
            start, top = lehmer_pairs_exact(params, (1 << t) - 1), 1 << t
            # Below 2^t the table holds the pair; from 2^t on the walk doubles over t + 1 bits or more.
            indices = {0, top - 1, top, top + 1, 2 * top - 1, 2 * top, 4 * top - 1, rng.randrange(top)}
            indices |= {rng.randrange(top, 1 << 12) for _ in range(6)}
            for n in sorted(indices):
                assert _uv_ladder(params, n, N, start) == stepped[n][1:], (t, N, n)


@pytest.mark.parametrize("params", [P7, P3], ids=["R7_Q1", "R3_Q-1"])
def test_unit_q_ladder_matches_stepped_pairs_at_every_start_height(params):
    # The Q = +-1 loop: with Q = -1 a doubling subtracts 2Q at odd k and 2 at even k,
    # with Q = 1 both are 2.
    assert_ladder_matches_stepped_pairs_at_every_start_height(params, START_TABLE_MODULI)


@pytest.mark.parametrize("params", [LucasParams(5, 2), LucasParams(11, -3)], ids=["R5_Q2", "R11_Q-3"])
def test_general_q_ladder_matches_stepped_pairs_at_every_start_height(params):
    # The loop that carries Q^k, from Q^k mod N at the table's index k < 2^t, on the moduli
    # coprime to Q; stepping never forms Q^k.
    moduli = [N for N in START_TABLE_MODULI if math.gcd(N, params.Q) == 1]
    assert_ladder_matches_stepped_pairs_at_every_start_height(params, moduli)


@pytest.mark.parametrize("params", [P7, P3, LucasParams(5, 2)], ids=["R7_Q1", "R3_Q-1", "R5_Q2"])
def test_ladder_folds_only_fermat_moduli_above_the_bound(monkeypatch, params):
    # 2^256 + 1 has FOLD_MIN_BITS bits or fewer and reduces by `%`; 2^512 + 1
    # has more and folds.  Both sides give the stepped residues.
    calls = []

    def counted(x, m):
        calls.append(m)
        return fermat_mod(x, m)

    monkeypatch.setattr(native, "fermat_mod", counted)
    for m, folds in ((256, False), (512, True)):
        N = (1 << m) + 1
        assert (N.bit_length() > FOLD_MIN_BITS) == folds
        calls.clear()
        for pair in itertools.islice(iter_pairs(params, N), 301):
            assert uv_mod(params, pair.index, N) == pair, (m, pair.index)
        assert bool(calls) == folds and set(calls) <= {m}, m
