import math
import time
from itertools import islice

import pytest

from fermatlucas import primality

from fermatlucas.lucas import (
    ALTERNATE_PARAMS,
    STANDARD_PARAMS,
    LucasParams,
    iter_pairs,
    uv_mod,
)
from fermatlucas.primality import (
    MR_BASES,
    MR_EXACT_BOUND,
    FermatNumber,
    InconclusiveError,
    MAX_FERMAT_INDEX,
    ResidueCheck,
    TRACE_INDEX_LIMIT,
    appendix_residues,
    certify_via_rank,
    fermat_llt,
    is_prime,
    lehmer_congruence_checks,
    mersenne_llt,
    pepin,
    rank_of_apparition,
    s_sequence,
    trial_division,
    _u_zeros,
)
from fermatlucas.symbols import jacobi

from golden_data import TRACES

P7 = STANDARD_PARAMS


def percent_chain(seed, c, steps, modulus):
    """Division-based reference for the fold chains: reduce every step with %."""
    x = seed % modulus
    for _ in range(steps):
        x = (x * x - c) % modulus
    return x


def test_fermat_number():
    assert FermatNumber(1).value == 5
    assert FermatNumber(2).value == 17
    assert FermatNumber(3).value == 257
    assert FermatNumber(4).value == 65537
    with pytest.raises(ValueError):
        FermatNumber(0)


def test_fermat_index_cap():
    # F_33 is the first Fermat number of unknown character; from there on the
    # value alone exceeds 1 GiB, so the index is refused before allocating.
    assert MAX_FERMAT_INDEX == 32
    for n in (MAX_FERMAT_INDEX + 1, 40):
        with pytest.raises(ValueError, match="must be <= 32"):
            FermatNumber(n)


def test_s_sequence_traces_golden():
    for n, expected in TRACES.items():
        trace = s_sequence(n, keep_trace=True)
        assert trace.residues == expected
        assert trace.final == expected[-1]
        assert len(trace.residues) == (1 << n) - 1


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
    F = FermatNumber(n).value
    trace = s_sequence(n, keep_trace=True)
    assert trace.residues[0] == 5 % F
    for prev, cur in zip(trace.residues, trace.residues[1:]):
        assert cur == (prev * prev - 2) % F
    assert trace.final == trace.residues[-1]


def test_fermat_llt_small():
    for n in (1, 2, 3, 4):
        verdict = fermat_llt(n)
        assert verdict.classification == "prime"
        assert verdict.witness is None
        assert verdict.proven
    for n in (5, 6):
        verdict = fermat_llt(n)
        assert verdict.classification == "composite"
        assert verdict.witness not in (None, 0)


def test_fermat_llt_experimental_seed():
    with pytest.raises(ValueError):
        fermat_llt(2, seed=6)
    verdict = fermat_llt(2, seed=6, experimental=True)
    assert not verdict.proven
    assert verdict.classification == "composite"  # seed 6 chain does not vanish here


def test_pepin():
    assert pepin(1).classification == "prime"   # 3^2 = 4 = F_1 - 1 mod 5
    assert pepin(2).classification == "prime"   # 3^8 = 16 mod 17
    assert pow(3, 8, 17) == 16
    assert pepin(5).classification == "composite"
    with pytest.raises(ValueError):
        pepin(0)


def test_oracles_agree_small():
    for n in range(1, 13):
        # Pepin runs on the fold kernel; pow() is its division-based
        # reference, compared on the full residue, not just the verdict.
        F = FermatNumber(n).value
        r = pow(3, (F - 1) // 2, F)
        verdict = pepin(n)
        assert (verdict.witness if verdict.witness is not None else F - 1) == r, n
        assert verdict.classification == fermat_llt(n).classification, n


def test_s_sequence_final_against_percent():
    for n in range(1, 11):
        F = FermatNumber(n).value
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


def test_is_prime_matches_naive():
    def naive(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(2, 600):
        assert is_prime(n) == naive(n)


def test_rank_of_apparition_examples():
    assert rank_of_apparition(P7, 5).omega == 4
    assert rank_of_apparition(P7, 17).omega == 16
    assert rank_of_apparition(P7, 257).omega == 256
    assert rank_of_apparition(P7, 31).omega == 16  # 31 divides v_bar(8) = 527


def test_rank_of_apparition_cap_and_errors():
    assert rank_of_apparition(P7, 17, cap=10).omega is None
    with pytest.raises(ValueError):
        rank_of_apparition(P7, 1)
    with pytest.raises(ValueError):
        rank_of_apparition(LucasParams(7, 3), 9)  # gcd(m, Q) = 3
    with pytest.raises(ValueError):
        rank_of_apparition(P7, 17, cap=0)


def test_rank_exists_for_coprime_m():
    for m in range(2, 120):
        assert rank_of_apparition(P7, m, cap=10**5).omega is not None


def test_rank_divisibility():
    # m | u_bar(k) exactly when omega(m) | k
    for m in (3, 5, 9, 11, 17, 25, 31, 45):
        omega = rank_of_apparition(P7, m).omega
        for pair in iter_pairs(P7, modulus=m):
            if pair.index > 300:
                break
            if pair.index >= 1:
                assert (pair.u_bar == 0) == (pair.index % omega == 0)


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


def test_rank_of_apparition_at_an_odd_cap():
    # omega(5) = 4: the loop's second index of a turn lands on the cap or past it.
    assert rank_of_apparition(P7, 5, cap=4).omega == 4
    assert rank_of_apparition(P7, 5, cap=3).omega is None
    assert rank_of_apparition(P7, 17, cap=15).omega is None


def test_certify_via_rank_primes():
    for N in (17, 257, 65537):
        verdict = certify_via_rank(P7, N)
        assert verdict.classification == "prime"
        assert verdict.method == "rank-certificate"


def test_certify_via_rank_composite():
    F5 = (1 << 32) + 1
    verdict = certify_via_rank(P7, F5)
    assert verdict.classification == "composite"
    assert verdict.witness not in (None, 0)
    assert verdict.classification == pepin(5).classification


def test_certify_via_rank_supplied_factors():
    # Each outcome of the N - 1 branch with the factors of N - 1 supplied.
    # The rank of 41 is 40 = 2^3 * 5 and that of 43 is 42 = 2 * 3 * 7.
    assert certify_via_rank(P7, 41, factors=(2, 5)).classification == "prime"
    assert certify_via_rank(P7, 43, factors=(2, 3, 7)).classification == "prime"
    # 25 - 1 = 2^3 * 3 and sigma*eps = +1 over 25, so u_bar(24) != 0 refutes it.
    verdict = certify_via_rank(P7, 25, factors=(2, 3))
    assert verdict.classification == "composite" and verdict.witness
    # u_bar(12) = 1 mod 13, but sigma*eps = -1 over 13: a prime need not
    # have rank dividing N - 1, so nothing follows.
    with pytest.raises(InconclusiveError):
        certify_via_rank(P7, 13, factors=(2, 3))


@pytest.mark.parametrize("N", [551, 1807, 2071])
def test_certify_via_rank_rejects_composite_factor(N):
    # Lehmer pseudoprimes with u_bar(N-1) == 0: taking q = N - 1 as the only
    # "prime" factor used to certify them as prime.
    assert not is_prime(N) and uv_mod(P7, N - 1, N).u_bar == 0
    with pytest.raises(ValueError, match="not prime"):
        certify_via_rank(P7, N, factors=(N - 1,))


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
        certify_via_rank(P7, 2 * q + 1, factors=(2, q))
    # The bound itself is a strong pseudoprime to all 13 bases, so it must be
    # refused, not tested: with a larger bound, Miller-Rabin calls it prime.
    with pytest.raises(ValueError, match="cannot be proven"):
        is_prime(MR_EXACT_BOUND)
    monkeypatch.setattr(primality, "MR_EXACT_BOUND", MR_EXACT_BOUND + 1)
    assert is_prime(MR_EXACT_BOUND)


def test_factor_check_at_the_trial_division_edge():
    # is_prime switches from trial division to Miller-Rabin at 2^32; trial
    # division is the independent reference on both sides.
    for q in range((1 << 32) - 200, (1 << 32) + 200):
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
        certify_via_rank(P7, 13)  # N-1 not a power of two, no factors given
    with pytest.raises(ValueError):
        certify_via_rank(P7, 13, factors=(2,))  # incomplete factor list
    with pytest.raises(ValueError, match="N must be >= 3"):
        certify_via_rank(P7, 2)
    with pytest.raises(ValueError, match="5 is not a divisor"):
        certify_via_rank(P7, 13, factors=(2, 3, 5))
    # u_bar(N-1) != 0 with sigma*eps = -1 gives no conclusion, for the prime
    # 11 and for 55 = 5 * 11 (u_bar(54) = 24 mod 55) alike.
    for N, factors in ((11, (2, 5)), (55, (2, 3))):
        with pytest.raises(InconclusiveError, match="sigma\\*epsilon"):
            certify_via_rank(P7, N, factors=factors)
    # For the prime 37, u_bar(36/2) = 0: the rank is a proper divisor of N - 1.
    assert uv_mod(P7, 18, 37).u_bar == 0
    with pytest.raises(InconclusiveError, match="proper divisor"):
        certify_via_rank(P7, 37, factors=(2, 3))


def test_congruence_checks_examples():
    r17 = lehmer_congruence_checks(P7, 17)
    assert r17.ok
    assert (r17.sigma, r17.tau) == (-1, 1)  # sigma = -tau branch: v_bar(8) == 0
    assert any(c.name == "v_vanishes_at_half" and c.index == 8 for c in r17.checks)

    r257 = lehmer_congruence_checks(P7, 257)
    assert r257.ok
    assert any(c.name == "v_vanishes_at_half" and c.index == 128 for c in r257.checks)

    r5 = lehmer_congruence_checks(P7, 5)
    assert r5.ok
    assert uv_mod(P7, 4, 5).u_bar == 0  # p - sigma*eps = 4


def test_congruence_checks_errors():
    with pytest.raises(ValueError):
        lehmer_congruence_checks(P7, 9)  # not prime
    with pytest.raises(ValueError):
        lehmer_congruence_checks(P7, 7)  # divides QRD
    with pytest.raises(ValueError):
        lehmer_congruence_checks(P7, 2)


@pytest.mark.parametrize("params", [P7, ALTERNATE_PARAMS], ids=["R7Q1", "R3Qm1"])
def test_congruence_sweep_small(params):
    qrd = params.Q * params.R * params.D
    for p in range(3, 200, 2):
        if not is_prime(p) or qrd % p == 0:
            continue
        report = lehmer_congruence_checks(params, p)
        assert report.ok, (p, [c for c in report.checks if not c.passed])


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


def test_appendix_residues():
    for n in (2, 3, 4):
        checks = appendix_residues(P7, n)
        assert len(checks) == 18
        assert all(c.passed for c in checks)
    by_name = {c.name: c for c in appendix_residues(P7, 3)}
    assert by_name["u_at_F3+3"].actual == (257 - 5) % 257  # -5 mod F_3


def test_appendix_residues_errors():
    with pytest.raises(ValueError):
        appendix_residues(P7, 5)
    with pytest.raises(ValueError):
        appendix_residues(ALTERNATE_PARAMS, 3)


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
        F = FermatNumber(n).value
        idx = (F - 1) // 2
        pair = uv_mod(P7, idx, F)
        assert math.gcd(math.gcd(pair.u_bar, pair.v_bar), F) == 1
        if n <= 4:
            assert pair.v_bar == 0 and pair.u_bar != 0
