import math
import time
from itertools import islice

import pytest

from fermatlucas import _gmp, primality, verify

from fermatlucas.lucas import (
    ALTERNATE_PARAMS,
    EXACT_INDEX_CAP,
    STANDARD_PARAMS,
    LehmerPair,
    LucasParams,
    alternate_params_pair,
    iter_pairs,
    lehmer_pairs_exact,
    s_from_v,
    sum_identity_holds,
    uv_mod,
)
from fermatlucas.native import square_chain
from fermatlucas.primality import (
    MR_BASES,
    MR_EXACT_BOUND,
    InconclusiveError,
    MAX_FERMAT_INDEX,
    ResidueCheck,
    SSequenceTrace,
    TRACE_INDEX_LIMIT,
    Verdict,
    appendix_residues,
    certify_via_rank,
    fermat_exponent,
    fermat_llt,
    fermat_number,
    is_prime,
    lehmer_congruence_checks,
    mersenne_llt,
    pepin,
    rank_of_apparition,
    s_sequence,
    trial_division,
    _u_zeros,
)
from fermatlucas.quadratic import ONE, ZERO, fermat_mod, mersenne_mod
from fermatlucas.symbols import fermat_symbols_closed_form, jacobi, symbol_table, symbol_triple

from golden_data import TRACES

P7 = STANDARD_PARAMS


def percent_chain(seed, c, steps, modulus):
    """Division-based reference for the fold chains: reduce every step with %."""
    x = seed % modulus
    for _ in range(steps):
        x = (x * x - c) % modulus
    return x


def test_fermat_number():
    assert fermat_number(1) == 5
    assert fermat_number(2) == 17
    assert fermat_number(3) == 257
    assert fermat_number(4) == 65537
    with pytest.raises(ValueError, match="^Fermat index must be >= 1, got 0$"):
        fermat_number(0)
    # fermat_exponent states the index rule once and builds no F_n.
    assert [fermat_exponent(n) for n in (1, 2, 3, 4, MAX_FERMAT_INDEX)] == [2, 4, 8, 16, 1 << 32]
    for n, bound in ((0, ">= 1"), (-1, ">= 1"), (MAX_FERMAT_INDEX + 1, "<= 32")):
        with pytest.raises(ValueError, match=f"^Fermat index must be {bound}, got {n}$"):
            fermat_exponent(n)


def test_fermat_index_cap():
    # F_33 is the first Fermat number of unknown character; from there on the
    # value alone exceeds 1 GiB, so the index is refused before allocating.
    assert MAX_FERMAT_INDEX == 32
    for n in (MAX_FERMAT_INDEX + 1, 40):
        with pytest.raises(ValueError, match=f"^Fermat index must be <= 32, got {n}$"):
            fermat_number(n)


def test_s_sequence_traces_golden():
    # Acceptance criterion 5 checks the residues; the traced final is the last of them.
    for n, expected in TRACES.items():
        assert s_sequence(n, keep_trace=True).final == expected[-1]


def test_s_sequence_smallest_index():
    trace = s_sequence(1, keep_trace=True)
    assert trace.residues == (0,)  # 5 == 0 mod F_1, zero squarings
    assert trace.final == 0


def test_s_sequence_trace_limit():
    with pytest.raises(ValueError):
        s_sequence(TRACE_INDEX_LIMIT + 1, keep_trace=True)
    # untraced runs stay legal at any index
    assert s_sequence(TRACE_INDEX_LIMIT + 1).residues is None


def test_s_sequence_seed_override():
    trace = s_sequence(2, keep_trace=True, seed=6)
    assert trace.residues == (6, 0, 15)


@pytest.mark.parametrize("n", [5, 6])
def test_s_sequence_chain_property(n):
    F = fermat_number(n)
    trace = s_sequence(n, keep_trace=True)
    assert trace.residues[0] == 5 % F
    for prev, cur in zip(trace.residues, trace.residues[1:]):
        assert cur == (prev * prev - 2) % F
    assert trace.final == trace.residues[-1]


def test_fermat_llt_small():
    # Acceptance criterion 1 checks the classifications and the composites' witnesses.
    for n in (1, 2, 3, 4):
        verdict = fermat_llt(n)
        assert verdict.witness is None
        assert verdict.proven


def test_fermat_llt_experimental_seed():
    with pytest.raises(ValueError):
        fermat_llt(2, seed=6)
    verdict = fermat_llt(2, seed=6, experimental=True)
    assert not verdict.proven
    assert verdict.classification == "composite"  # seed 6 chain does not vanish here


def test_pepin():
    # Acceptance criterion 2 checks the classifications.
    with pytest.raises(ValueError):
        pepin(0)


def test_oracles_agree_small():
    for n in range(1, 13):
        # Pepin runs on the fold kernel; pow() is its division-based
        # reference, compared on the full residue, not just the verdict.
        F = fermat_number(n)
        r = pow(3, (F - 1) // 2, F)
        verdict = pepin(n)
        assert (verdict.witness if verdict.witness is not None else F - 1) == r, n


def test_chains_build_no_fermat_number(monkeypatch):
    # The chains check the index with fermat_exponent and reduce by folding,
    # so they give the same results with fermat_number unusable.
    seeds = (5, 6, -3, 1 << 70)
    expected = ([fermat_llt(n) for n in range(1, 13)], [pepin(n) for n in range(1, 13)],
                [s_sequence(n, keep_trace=True, seed=s) for n in range(1, 7) for s in seeds])
    assert all(t.residues[0] == s % fermat_number(t.n) for t, s in zip(expected[2], seeds * 6))

    def refused(n):
        raise AssertionError(f"F_{n} was built")

    monkeypatch.setattr(primality, "fermat_number", refused)
    assert ([fermat_llt(n) for n in range(1, 13)], [pepin(n) for n in range(1, 13)],
            [s_sequence(n, keep_trace=True, seed=s) for n in range(1, 7) for s in seeds]) == expected


def test_s_sequence_final_against_percent():
    for n in range(1, 11):
        F = fermat_number(n)
        assert s_sequence(n).final == percent_chain(5, 2, (1 << n) - 2, F)


def test_mersenne_llt_witness_against_percent():
    for q in (3, 7, 11, 23, 29, 31, 61, 67, 521, 523):
        r = percent_chain(4, 2, q - 2, (1 << q) - 1)
        verdict = mersenne_llt(q)
        assert verdict.witness == (r or None)
        assert verdict.is_prime == (r == 0)


def test_mersenne_llt():
    assert mersenne_llt(3).classification == "prime"    # 4 -> 14 == 0 mod 7
    assert mersenne_llt(7).classification == "prime"
    assert trial_division(127) is None
    v11 = mersenne_llt(11)
    assert v11.classification == "composite"
    assert trial_division(2047) == 23
    for bad in (2, 4, 9, 15):
        with pytest.raises(ValueError):
            mersenne_llt(bad)
    # Refused before q is tested: 2^32 + 15 is prime, and testing 2^100 + 277,
    # past MR_EXACT_BOUND, would raise "cannot be proven" instead.
    for q in ((1 << MAX_FERMAT_INDEX) + 15, 2**100 + 277):
        with pytest.raises(ValueError, match=f"Mersenne exponent must be <= 2\\^{MAX_FERMAT_INDEX}, got {q}$"):
            mersenne_llt(q)


def test_trial_division():
    assert trial_division(527) == 17
    assert trial_division(2047) == 23
    assert trial_division(65537) is None
    assert trial_division(2) is None
    assert trial_division(91) == 7
    assert trial_division(289) == 17  # the square of a prime: d * d == N
    with pytest.raises(ValueError):
        trial_division(1)


def test_rank_of_apparition_examples():
    # Acceptance criterion 8 checks omega(5), omega(17) and omega(257).
    assert rank_of_apparition(P7, 31).omega == 16  # 31 divides v_bar(8) = 527


def test_rank_of_apparition_cap_and_errors():
    assert rank_of_apparition(P7, 17, cap=10).omega is None
    with pytest.raises(ValueError):
        rank_of_apparition(P7, 1)
    with pytest.raises(ValueError):
        rank_of_apparition(LucasParams(7, 3), 9)  # gcd(m, Q) = 3
    with pytest.raises(ValueError):
        rank_of_apparition(P7, 17, cap=0)


def test_u_only_loop_matches_iter_pairs():
    # The rank search and the `verify rank` sweep step u_bar alone; here it is
    # held against the whole-pair stepper, which the suite no longer runs.
    cases = [(P7, m) for m in range(3, 201, 2)]
    cases += [(params, m) for params in (ALTERNATE_PARAMS, LucasParams(5, 2)) for m in range(2, 60)
              if math.gcd(m, params.Q) == 1]
    for params, m in cases:
        zeros = [p.index for p in islice(iter_pairs(params, modulus=m), 2001) if p.index and p.u_bar == 0]
        assert _u_zeros(params, m, 2000) == zeros, (params, m)
        assert _u_zeros(params, m, 1999) == [k for k in zeros if k <= 1999], (params, m)
        assert _u_zeros(params, m, 2000, first=True) == zeros[:1], (params, m)
        assert rank_of_apparition(params, m, cap=2000).omega == (zeros[0] if zeros else None)


# (params, m, P): P is the least even index with (u_bar(P), u_bar(P + 1)) = (0, 1) mod m,
# where the u-only loop stops.  P = 4008 for m = 2003 lies past the sweep's limit of 2000.
U_PERIODS = [(P7, 45, 72), (P7, 189, 756), (LucasParams(5, 2), 53, 104), (P7, 2003, 4008)]


def test_u_only_loop_tiles_its_zeros_past_the_period():
    for params, m, period in U_PERIODS:
        u = [p.u_bar for p in islice(iter_pairs(params, modulus=m), max(2 * period + 2, 2000) + 1)]
        assert [k for k in range(2, period + 1, 2) if u[k:k + 2] == [0, 1]] == [period], (params, m)
        for limit in (period - 1, period, period + 1, 2 * period + 1, 2000):
            zeros = [k for k in range(1, limit + 1) if u[k] == 0]
            assert _u_zeros(params, m, limit) == zeros, (params, m, limit)
            assert _u_zeros(params, m, limit, first=True) == zeros[:1], (params, m, limit)


class CountingModulus(int):
    """A modulus that counts the reductions by it: Python tries a subclass's reflected `%` first."""

    reductions = 0

    def __rmod__(self, other):
        self.reductions += 1
        return other % int(self)


def test_u_only_loop_stops_after_one_period():
    # m = 189 has the longest period of the `verify rank` sweep, 756: R % m and
    # Q % m, then one reduction per index up to P, where a full walk makes 2000.
    m = CountingModulus(189)
    assert _u_zeros(P7, m, 2000) == _u_zeros(P7, 189, 2000)
    assert m.reductions <= 756 + 2


def test_rank_of_apparition_at_an_odd_cap():
    # omega(5) = 4: the loop's second index of a turn lands on the cap or past it.
    assert rank_of_apparition(P7, 5, cap=4).omega == 4
    assert rank_of_apparition(P7, 5, cap=3).omega is None
    assert rank_of_apparition(P7, 17, cap=15).omega is None


def test_certify_via_rank_primes():
    # Acceptance criterion 8 checks the classifications.
    for N in (17, 257, 65537):
        assert certify_via_rank(P7, N).method == "rank-certificate"


def test_certify_via_rank_composite():
    F5 = (1 << 32) + 1
    verdict = certify_via_rank(P7, F5)
    assert verdict.witness not in (None, 0)
    assert verdict.classification == pepin(5).classification


# D = 2, so (D/M_q) = +1 and (R/M_q) = (3/M_q) = -1 for every odd prime q:
# the certificate takes its N + 1 branch with N + 1 = 2^q, as the LLT's class.
P6 = LucasParams(6, 1)


def test_certify_via_rank_n_plus_1_branch_agrees_with_mersenne_llt():
    for q in range(3, 1300, 2):
        if is_prime(q):
            N = (1 << q) - 1
            triple = symbol_triple(P6, N)
            assert triple.sigma * triple.epsilon == -1, q
            assert certify_via_rank(P6, N).classification == mersenne_llt(q).classification, q


def test_certify_via_rank_proves_m2203_as_the_mersenne_chain_does():
    # uv_mod mod 2^q - 1 always walks the int ladder, while from 1536 bits the
    # chain runs libgmp's Mersenne fold when libgmp loads: two kernels agree.
    assert certify_via_rank(P6, (1 << 2203) - 1).classification == "prime"
    assert mersenne_llt(2203).classification == "prime"


def test_certify_via_rank_refutes_a_composite_at_sigma_epsilon_minus_1():
    # M_11 = 23 * 89: u_bar(M_11 + 1) = u_bar(2^11) != 0 mod M_11 refutes it.
    N = (1 << 11) - 1
    verdict = certify_via_rank(P6, N)
    assert verdict.classification == "composite" == mersenne_llt(11).classification
    assert verdict.witness == uv_mod(P6, N + 1, N).u_bar != 0


def test_certify_via_rank_supplied_factors():
    # Each outcome with the factors of N - sigma*eps supplied.
    # The rank of 41 is 40 = 2^3 * 5 and that of 43 is 42 = 2 * 3 * 7.
    assert certify_via_rank(P7, 41, factors=(2, 5)).classification == "prime"
    assert certify_via_rank(P7, 43, factors=(2, 3, 7)).classification == "prime"
    # 25 - 1 = 2^3 * 3 and sigma*eps = +1 over 25, so u_bar(24) != 0 refutes it.
    verdict = certify_via_rank(P7, 25, factors=(2, 3))
    assert verdict.classification == "composite" and verdict.witness
    # sigma*eps = -1 over 13, and the rank of 13 is 13 + 1 = 14 = 2 * 7.
    assert certify_via_rank(P7, 13, factors=(2, 7)).classification == "prime"


@pytest.mark.parametrize("N", [551, 1807, 2071])
def test_certify_via_rank_rejects_composite_factor(N):
    # Lehmer pseudoprimes with u_bar(N-1) == 0: taking q = N - 1 as the only
    # "prime" factor used to certify them as prime.  sigma*eps = -1 over 2071,
    # so there the lone "factor" is N + 1.
    assert not is_prime(N) and uv_mod(P7, N - 1, N).u_bar == 0
    triple = symbol_triple(P7, N)
    with pytest.raises(ValueError, match="not prime"):
        certify_via_rank(P7, N, factors=(N - triple.sigma * triple.epsilon,))


def test_certify_via_rank_with_a_20_digit_factor_is_fast():
    # Trial division of this factor would take about 10^10 divisions.
    q = 10000000000000000097
    N = 8 * q + 1
    t0 = time.perf_counter()
    verdict = certify_via_rank(P7, N, factors=(2, q))
    assert time.perf_counter() - t0 < 1.0
    assert verdict.classification == "prime"


def test_certify_via_rank_rejects_a_strong_pseudoprime_factor(monkeypatch):
    # 3825123056546413051 = 149491 * 747451 * 34233211 passes Miller-Rabin on
    # every prime base up to 23 (and 29, 31); only the bases 37 and 41 expose it.
    q = 3825123056546413051
    assert q > 1 << 32 and trial_division(q) == 149491
    with pytest.raises(ValueError, match="not prime"):
        certify_via_rank(P7, 4 * q + 1, factors=(2, q))
    monkeypatch.setattr(primality, "MR_BASES", MR_BASES[:9])  # bases 2..23 only
    assert is_prime(q)


def test_certify_via_rank_refuses_factors_above_the_exact_bound(monkeypatch):
    q = 3317044064679887385962123  # the least prime above MR_EXACT_BOUND
    with pytest.raises(ValueError, match="cannot be proven"):
        certify_via_rank(P7, 4 * q - 1, factors=(2, q))  # sigma*eps = -1, so N + 1 = 4q
    # The bound itself is a strong pseudoprime to all 13 bases, so it must be
    # refused, not tested: with a larger bound, Miller-Rabin calls it prime.
    with pytest.raises(ValueError, match="cannot be proven"):
        is_prime(MR_EXACT_BOUND)
    monkeypatch.setattr(primality, "MR_EXACT_BOUND", MR_EXACT_BOUND + 1)
    assert is_prime(MR_EXACT_BOUND)


def test_factor_check_at_the_trial_division_edge():
    # is_prime switches from trial division to Miller-Rabin at 2^20; trial
    # division is the independent reference on both sides, and at 2^32,
    # well inside Miller-Rabin's range.
    for edge in (1 << 20, 1 << 32):
        for q in range(edge - 200, edge + 200):
            assert is_prime(q) == (trial_division(q) is None), q


def test_is_prime_of_a_61_bit_prime_is_fast():
    # Trial division alone would take about 40 s here.
    t0 = time.perf_counter()
    assert is_prime(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


def test_certify_via_rank_errors():
    with pytest.raises(ValueError):
        certify_via_rank(P7, 21)  # shares factor with QRD
    with pytest.raises(ValueError):
        certify_via_rank(P7, 13)  # N + 1 = 14 not a power of two, no factors given
    with pytest.raises(ValueError):
        certify_via_rank(P7, 13, factors=(2,))  # incomplete factor list
    with pytest.raises(ValueError, match="N must be >= 3"):
        certify_via_rank(P7, 2)
    with pytest.raises(ValueError, match="5 is not a divisor"):
        certify_via_rank(P7, 13, factors=(2, 7, 5))
    # sigma*eps = -1 over 11 and 55 = 5 * 11, so both read u_bar(N + 1): it
    # vanishes mod the prime 11, and u_bar(56) = 5 mod 55 refutes 55.
    assert certify_via_rank(P7, 11, factors=(2, 3)).classification == "prime"
    verdict = certify_via_rank(P7, 55, factors=(2, 7))
    assert (verdict.classification, verdict.witness) == ("composite", 5)
    # For the prime 37, u_bar(36/2) = 0: the rank is a proper divisor of N - 1.
    assert uv_mod(P7, 18, 37).u_bar == 0
    with pytest.raises(InconclusiveError, match="proper divisor"):
        certify_via_rank(P7, 37, factors=(2, 3))


@pytest.mark.parametrize(
    "params, N", [(P7, 16), (P7, 9), (P7, 49), (LucasParams(5, 3), 9)],
    ids=["even", "D=3", "R=7", "Q=3"],
)
def test_certify_via_rank_refuses_each_factor_of_2qrd(params, N):
    # N is refused when it is even or shares a factor with D, R or Q.
    with pytest.raises(ValueError, match=r"shares a factor with 2\*Q\*R\*D"):
        certify_via_rank(params, N)


def test_congruence_checks_examples():
    # Acceptance criterion 7 checks that each report passes.
    r17 = lehmer_congruence_checks(P7, 17)
    assert (r17.sigma, r17.tau) == (-1, 1)  # sigma = -tau branch: v_bar(8) == 0
    assert any(c.name == "v_vanishes_at_half" and c.index == 8 for c in r17.checks)

    r257 = lehmer_congruence_checks(P7, 257)
    assert any(c.name == "v_vanishes_at_half" and c.index == 128 for c in r257.checks)

    assert uv_mod(P7, 4, 5).u_bar == 0  # p - sigma*eps = 4 for p = 5


def test_congruence_checks_errors():
    with pytest.raises(ValueError):
        lehmer_congruence_checks(P7, 9)  # not prime
    with pytest.raises(ValueError):
        lehmer_congruence_checks(P7, 7)  # divides QRD
    with pytest.raises(ValueError):
        lehmer_congruence_checks(P7, 2)


@pytest.mark.parametrize(
    "params, p", [(P7, 3), (P7, 7), (LucasParams(5, 3), 3)],
    ids=["D=3", "R=7", "Q=3"],
)
def test_congruence_checks_refuse_each_factor_of_qrd(params, p):
    with pytest.raises(ValueError, match="divides QRD"):
        lehmer_congruence_checks(params, p)


def test_congruence_checks_at_large_p():
    # Miller-Rabin, not trial division to sqrt(p) ~ 1.5e9, decides that p is prime.
    t0 = time.perf_counter()
    assert lehmer_congruence_checks(P7, 2**61 - 1).ok
    assert time.perf_counter() - t0 < 1.0
    # 2^61 + 1 = 3 * 768614336404564651; the second is a strong pseudoprime
    # to the bases 2..23 (see the certificate test above).
    for p in (2**61 + 1, 3825123056546413051):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            lehmer_congruence_checks(P7, p)


def three_walk_report(params, p):
    """The congruence report from three `uv_mod` walks, at p, p - se and (p - se)/2."""
    eps, sig, tau = jacobi(params.D, p), jacobi(params.R, p), jacobi(params.Q, p)
    se = sig * eps
    idx = p - se
    at_p, at_idx, at_half = (uv_mod(params, i, p) for i in (p, idx, idx // 2))
    v_expected = 2 * sig * params.Q ** ((1 - se) // 2)
    checks = (
        ResidueCheck("u_at_p", p, eps % p, at_p.u_bar, (at_p.u_bar - eps) % p == 0),
        ResidueCheck("v_at_p", p, sig % p, at_p.v_bar, (at_p.v_bar - sig) % p == 0),
        ResidueCheck("u_vanishes", idx, 0, at_idx.u_bar, at_idx.u_bar == 0),
        ResidueCheck("v_at_even_index", idx, v_expected % p, at_idx.v_bar,
                     (at_idx.v_bar - v_expected) % p == 0),
        ResidueCheck("v_vanishes_at_half", idx // 2, 0, at_half.v_bar, at_half.v_bar == 0)
        if sig == -tau else
        ResidueCheck("u_vanishes_at_half", idx // 2, 0, at_half.u_bar, at_half.u_bar == 0),
    )
    return p, params, eps, sig, tau, checks


@pytest.mark.parametrize("R, Q", [(7, 1), (3, -1), (7, 3), (5, 2), (11, -3)])
def test_one_walk_congruence_report_matches_three_walks(R, Q):
    params = LucasParams(R, Q)
    signs = set()
    for p in range(3, 3000, 2):
        if not is_prime(p) or (params.Q * params.R * params.D) % p == 0:
            continue
        r = lehmer_congruence_checks(params, p)
        assert (r.p, r.params, r.epsilon, r.sigma, r.tau, r.checks) == three_walk_report(params, p)
        assert all(type(c) is ResidueCheck for c in r.checks)
        signs.add(r.sigma * r.epsilon)
    assert signs == {1, -1}


@pytest.mark.parametrize("R, Q", [(7, 1), (3, -1), (5, 2), (11, -3)])
def test_core_residues_decide_what_the_rows_decide(R, Q):
    # The suite's core yields two tuples per prime and passes it when they are equal;
    # the report's rows must hold the same residues and decide the same way.  (5, 2)
    # and (11, -3) take the core's pow route for Q^h and 1/(2Q).
    params = LucasParams(R, Q)
    primes = [p for p in range(3, 3000, 2) if is_prime(p)]
    kept = [p for p in primes if (params.Q * params.R * params.D) % p]
    table, start = symbol_table(params), lehmer_pairs_exact(params, 63)
    out = list(primality._congruence_residues(params, primes, table, start))
    assert [p for p, _, _ in out] == kept  # the core skips a prime whose class is None itself
    for p, actual, expected in out:
        report = lehmer_congruence_checks(params, p)
        assert (actual == expected) == report.ok
        assert tuple(c.actual for c in report.checks) == actual
        assert tuple(c.expected for c in report.checks) == expected
        names = [c.name for c in report.checks]
        for row in range(5):
            wrong = tuple((a + 1) % p if i == row else a for i, a in enumerate(actual))
            checks = primality._residue_checks(p, *table[p % len(table)], wrong, expected)
            assert wrong != expected
            assert [c.name for c in checks if not c.passed] == [names[row]]
    # Every prime below 20000 passes, from the start table the suite builds there (exact pairs to 2^9 - 1).
    primes = [p for p in range(3, 20000, 2) if is_prime(p)]
    out = list(primality._congruence_residues(params, primes, table, lehmer_pairs_exact(params, 511)))
    assert len(out) > 2000 and all(actual == expected for _, actual, expected in out)


BIG = 10**4400  # past Python's default int-to-str limit of 4300 digits


def uninformative_uv_mod(params, n, N):
    return LehmerPair(n, 0, 0)  # every u_bar zero: the certificate cannot conclude


@pytest.mark.parametrize("call, message", [
    (lambda: uv_mod(LucasParams(5, 3), 1, 3 * 10**5000 + 3), "modulus 0x.* shares a factor with Q = 3"),
    (lambda: uv_mod(P7, 1, 2 * BIG), "modulus must be an odd integer >= 3, got 0x"),
    (lambda: uv_mod(P7, -BIG, 5), "index must be >= 0, got -0x"),
    (lambda: next(iter_pairs(P7, -BIG)), "modulus must be >= 2, got -0x"),
    (lambda: certify_via_rank(P7, -BIG), "N must be >= 3, got -0x"),
    (lambda: certify_via_rank(P7, 3 * BIG + 3), r"N = 0x.* shares a factor with 2\*Q\*R\*D"),
    (lambda: certify_via_rank(P7, BIG + 1), r"N - sigma\*epsilon = 0x.* is not a power of two"),
    (lambda: certify_via_rank(P7, BIG + 1, factors=(-BIG,)), r"-0x.* is not a divisor of N - sigma\*epsilon = 0x"),
    (lambda: certify_via_rank(P7, BIG + 1, factors=(2,)), r"do not cover N - sigma\*epsilon = 0x"),
    (lambda: is_prime(BIG), "0x.* is not below"),
    (lambda: lehmer_congruence_checks(P7, -BIG), "p must be an odd prime, got -0x"),
    (lambda: fermat_exponent(-BIG), "Fermat index must be >= 1, got -0x"),
    (lambda: fermat_exponent(BIG), f"Fermat index must be <= {MAX_FERMAT_INDEX}, got 0x"),
    (lambda: rank_of_apparition(P7, -BIG), "m must be >= 2, got -0x"),
    (lambda: rank_of_apparition(P7, 5, cap=-BIG), "cap must be >= 1, got -0x"),
    (lambda: symbol_triple(P7, 2 * BIG), "modulus must be an odd integer >= 3, got 0x"),
    (lambda: jacobi(1, 2 * BIG), "odd positive denominator, got 0x"),
    (lambda: lehmer_pairs_exact(P7, BIG), f"capped at index {EXACT_INDEX_CAP}, got 0x"),
    (lambda: mersenne_llt(BIG), rf"Mersenne exponent must be <= 2\^{MAX_FERMAT_INDEX}, got 0x"),
    (lambda: s_sequence(BIG, keep_trace=True), f"tracing is limited to n <= {TRACE_INDEX_LIMIT}, got 0x"),
    (lambda: fermat_llt(5, seed=BIG), "seed 0x.* has no correctness proof"),
    (lambda: trial_division(-BIG), "N must be >= 2, got -0x"),
    (lambda: s_from_v(-BIG, 7), "chain index must be >= 0, got -0x"),
    (lambda: alternate_params_pair(-BIG, []), "index must be >= 0, got -0x"),
    (lambda: fermat_mod(1, -BIG), "m must be >= 1, got -0x"),
    (lambda: mersenne_mod(1, -BIG), "q must be >= 1, got -0x"),
    (lambda: LucasParams(-BIG, 1), "R must be a positive non-square, got -0x"),
    (lambda: LucasParams(2 * BIG, 2), r"R and Q must be coprime, got \(0x.*, 2\)"),
    (lambda: uv_mod(LucasParams(7, 3 * BIG), 1, 3), "modulus 3 shares a factor with Q = 0x"),
    (lambda: lehmer_pairs_exact(P7, -BIG), "index must be >= 0, got -0x"),
    (lambda: sum_identity_holds(P7, -BIG, ZERO, ONE, ZERO, True), "m must be >= 1, got -0x"),
    (lambda: alternate_params_pair(BIG, []), "no pair with index 0x.* at position 0x"),
    (lambda: square_chain(1, 1, 2, 5, BIG), r"sign must be \+-1, got 0x"),
    (lambda: mersenne_llt(-BIG), "exponent must be an odd prime, got -0x"),
    (lambda: rank_of_apparition(LucasParams(7, 3 * BIG), 3 * BIG), "m = 0x.* shares a factor with Q = 0x"),
    (lambda: appendix_residues(P7, BIG), "n in 1..4, got 0x"),
    (lambda: fermat_symbols_closed_form(-BIG), "Fermat index must be >= 1, got -0x"),
    (lambda: next(verify.identities(m_max=-BIG)), "m_max must be >= 2, got -0x"),
    (lambda: next(verify.identities(n_max=-BIG)), "n_max must be >= 1, got -0x"),
    (lambda: next(verify.congruences(p_max=BIG)), "p_max must be <= .*, got 0x"),
    (lambda: next(verify.traces(max_n=-BIG)), "max_n must be >= 1, got -0x"),
    # libgmp's own checks, reached before any call into libgmp, so they run without it too.
    (lambda: _gmp._Ring(None, -BIG, 1), r"libgmp does not take 2\^m \+ sign for m = -0x.*, sign = 1"),
    (lambda: _gmp.GmpKernel.uv_ladder(None, LucasParams(7, 2), -BIG, 64),
     r"need Q = \+-1 and n >= 0, got Q = 2, n = -0x"),
], ids=["uv_mod_Q", "uv_mod_parity", "uv_mod_index", "iter_pairs", "certify_size", "certify_2qrd",
        "certify_top", "certify_divisor", "certify_cover", "is_prime", "congruence_checks",
        "fermat_exponent_low", "fermat_exponent_high", "rank_m", "rank_cap", "symbol_triple", "jacobi",
        "pairs_exact_cap", "mersenne_bound", "trace_bound", "llt_seed", "trial_division", "s_from_v",
        "alternate_index", "fermat_mod", "mersenne_mod", "params_R", "params_coprime", "uv_mod_big_Q",
        "pairs_exact_index", "sum_identity_m", "alternate_position", "square_chain_sign", "mersenne_prime",
        "rank_shared_Q", "appendix_n", "closed_form_n", "identities_m", "identities_n", "congruences_p",
        "traces_n", "gmp_ring", "gmp_uv_ladder"])
def test_refusals_write_ints_past_the_digit_limit_in_hex(call, message, default_digit_limit):
    # Under the default limit a refusal must still be the refusal, not the
    # ValueError that str() raises on the caller's int.
    with pytest.raises(ValueError, match=message):
        call()


def test_inconclusive_certificate_writes_ints_past_the_digit_limit_in_hex(monkeypatch, default_digit_limit):
    # F_14 has 4933 digits; with every u_bar zero the certificate reaches its InconclusiveError.
    monkeypatch.setattr(primality, "uv_mod", uninformative_uv_mod)
    with pytest.raises(InconclusiveError, match=r"u_bar\(0x1(0{4096})/2\) == 0 mod 0x1(0{4095})1:"):
        certify_via_rank(P7, fermat_number(14))


@pytest.mark.parametrize("params", [STANDARD_PARAMS, ALTERNATE_PARAMS], ids=["R7_Q1", "R3_Q-1"])
def test_unit_q_congruence_report_matches_three_walks_at_large_p(params):
    # For Q = +-1 the core reads Q^h from the parity of h = (p - se)/2 and takes
    # 1/(2Q) as Q*(p + 1)/2, which must hold at any size of p, not only below 3000.
    primes = [2**61 - 1] + [p for p in range(10**12 + 1, 10**12 + 400, 2) if is_prime(p)]
    cases = set()
    for p in primes:
        r = lehmer_congruence_checks(params, p)
        assert r.ok, p
        assert (r.p, r.params, r.epsilon, r.sigma, r.tau, r.checks) == three_walk_report(params, p)
        se = r.sigma * r.epsilon
        cases.add((se, (p - se) // 2 % 2))
    assert cases == {(1, 0), (1, 1), (-1, 0), (-1, 1)}  # both signs of se, with h even and odd


def test_appendix_residues():
    # Acceptance criterion 9 checks that the 18 residues pass at n = 2, 3 and 4.
    by_name = {c.name: c for c in appendix_residues(P7, 3)}
    assert by_name["u_at_F3+3"].actual == (257 - 5) % 257  # -5 mod F_3


def test_appendix_residues_errors():
    with pytest.raises(ValueError):
        appendix_residues(P7, 5)
    with pytest.raises(ValueError):
        appendix_residues(ALTERNATE_PARAMS, 3)


# The residues at offsets -5..+3 from F_n that `appendix_residues` once held as
# constants, observed at n = 2, 3 and 4: the oracle for the derived values.
FLANK_U_RESIDUES = (5, 6, 1, 1, 0, -1, -1, -6, -5)
FLANK_V_RESIDUES = (-23, -4, -5, -1, -2, -1, -5, -4, -23)


def test_appendix_residues_equal_the_observed_table():
    for n in (1, 2, 3, 4):
        F = fermat_number(n)
        checks = appendix_residues(P7, n)
        assert all(c.passed for c in checks), n
        assert [c.index - F for c in checks] == [off for off in range(-5, 4) for _ in "uv"]
        assert [c.expected for c in checks[0::2]] == [x % F for x in FLANK_U_RESIDUES]
        assert [c.expected for c in checks[1::2]] == [x % F for x in FLANK_V_RESIDUES]


def test_flank_pattern_fails_where_f_n_is_composite():
    # The derivation needs F_n prime; at n = 5..8 not one of the 18 residues holds.
    for n in range(5, 9):
        F = fermat_number(n)
        pairs = [uv_mod(P7, F + off, F) for off in range(-5, 4)]
        assert not any((p.u_bar - eu) % F == 0 or (p.v_bar - ev) % F == 0
                       for p, eu, ev in zip(pairs, FLANK_U_RESIDUES, FLANK_V_RESIDUES)), n


def test_gcd_step_at_the_half_index():
    # Exact: gcd(u_bar, v_bar) at index 2^(2^n - 1) divides 2 (Q = 1), checked
    # where the exact values are readable (n <= 4 means index <= 32768).
    for n in (1, 2, 3, 4):
        idx = 1 << ((1 << n) - 1)
        it = iter_pairs(P7)
        pair = next(p for p in it if p.index == idx)
        assert math.gcd(pair.u_bar, pair.v_bar) in (1, 2)
    # Modular consequence for n = 1..8: no prime factor of F_n divides both,
    # so gcd(u, v, F_n) = 1; when F_n is prime, v vanishes and u does not.
    for n in range(1, 9):
        F = fermat_number(n)
        idx = (F - 1) // 2
        pair = uv_mod(P7, idx, F)
        assert math.gcd(math.gcd(pair.u_bar, pair.v_bar), F) == 1
        if n <= 4:
            assert pair.v_bar == 0 and pair.u_bar != 0


def test_repr_writes_ints_past_the_digit_limit_in_hex(default_digit_limit):
    # Residues mod F_14 have about 4933 digits, past Python's default limit of 4300,
    # which only the CLI lifts; a library caller's repr must not raise on them.
    F = fermat_number(14)
    pair = uv_mod(STANDARD_PARAMS, (1 << 200) + 12345, F)
    big = pair.v_bar
    values = (pair, Verdict("composite", "llt-fermat", witness=big), SSequenceTrace(14, 5, big))
    with pytest.raises(ValueError):
        str(big)
    for value in values:
        text = repr(value)
        assert f"={big:#x}" in text
        assert eval(text, {type(value).__name__: type(value)}) == value  # hex is still a literal
    # Everything else reads as NamedTuple's own repr.
    assert repr(LehmerPair(3, 6, 18)) == "LehmerPair(index=3, u_bar=6, v_bar=18)"
    assert repr(STANDARD_PARAMS) == "LucasParams(R=7, Q=1)"
    assert repr(Verdict("prime", "pepin")) == "Verdict(classification='prime', method='pepin', witness=None, proven=True)"
    assert repr(SSequenceTrace(3, 5, 0, (5, 23, 0))) == "SSequenceTrace(n=3, seed=5, final=0, residues=(5, 23, 0))"
    small = Verdict("composite", "pepin", witness=-(10**4299), proven=False)
    assert repr(small) == f"Verdict(classification='composite', method='pepin', witness={-(10**4299)}, proven=False)"
