"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the slow entries (the n = 13, 14 chains and their oracle runs) are
computed once and shared.
"""

import json
import math
import random
import subprocess
import sys
import time

import pytest

from fermatlucas.lucas import (
    ALTERNATE_PARAMS,
    STANDARD_PARAMS,
    alternate_params_pair,
    iter_pairs,
    iter_uv_exact,
    lehmer_pairs_exact,
    sum_identity_holds,
    uv_mod,
)
from fermatlucas.primality import (
    appendix_residues,
    certify_via_rank,
    fermat_llt,
    is_prime,
    lehmer_congruence_checks,
    pepin,
    rank_of_apparition,
    s_sequence,
)
from fermatlucas.quadratic import balanced_residue, fermat_mod

from conftest import cli_env
from golden_data import EXACT_ROWS, MOD_ROWS, TRACES

P7 = STANDARD_PARAMS
P3 = ALTERNATE_PARAMS
FERMAT_VALUES = {1: 5, 2: 17, 3: 257, 4: 65537}


@pytest.fixture(scope="module")
def llt_runs():
    """`test fermat n` through the real CLI surface, for n = 1..14."""
    records, codes, times = {}, {}, {}
    for n in range(1, 15):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fermatlucas", "test", "fermat", str(n)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        times[n] = time.perf_counter() - t0
        codes[n] = proc.returncode
        records[n] = json.loads(proc.stdout)
    return records, codes, times


def test_criterion_1_classification(llt_runs):
    records, codes, times = llt_runs
    for n in range(1, 5):
        assert records[n]["result"]["classification"] == "prime", n
        assert codes[n] == 0, n
    for n in range(5, 15):
        assert records[n]["result"]["classification"] == "composite", n
        assert codes[n] == 1, n
        assert records[n]["result"]["witness"] not in (None, 0)
    small_total = sum(times[n] for n in range(1, 13))
    assert small_total < 5.0, f"n <= 12 took {small_total:.2f}s"
    assert times[14] < 60.0, f"n = 14 took {times[14]:.2f}s"
    print(
        f"\ncriterion 1 PASS: prime for n=1..4, composite for n=5..14 "
        f"(n<=12 in {small_total:.2f}s, n=14 in {times[14]:.2f}s)"
    )


def test_criterion_2_oracle_agreement(llt_runs):
    records, _, _ = llt_runs
    for n in range(1, 15):
        assert pepin(n).classification == records[n]["result"]["classification"], n
    # library route agrees with itself as well at the largest index
    assert fermat_llt(14).classification == "composite"
    print("\ncriterion 2 PASS: Pepin agrees with the squaring chain for n=1..14")


def test_criterion_3_exact_table_golden():
    def render(i, u, u_rad, v, v_rad):
        return f"{i}|{u}{'*s7' if u_rad else ''}|{v}{'*s7' if v_rad else ''}"

    pairs = lehmer_pairs_exact(P7, 40)
    got = [render(p.index, p.u_bar, p.index % 2 == 0, p.v_bar, p.index % 2 == 1) for p in pairs]
    want = [render(i, u, i % 2 == 0, v, i % 2 == 1) for i, u, v in EXACT_ROWS]
    assert got == want
    assert pairs[40].u_bar == 8870244889325
    assert pairs[40].v_bar == 40648568638127
    print("\ncriterion 3 PASS: all 41 exact rows render identically")


def test_criterion_4_mod_tables_golden():
    total = 0
    for n, rows in MOD_ROWS.items():
        F = FERMAT_VALUES[n]
        for i, gu, gv in rows:
            pair = uv_mod(P7, i, F)
            assert (pair.u_bar - gu) % F == 0, (n, i)
            assert (pair.v_bar - gv) % F == 0, (n, i)
            total += 1
    assert uv_mod(P7, 8, 17).v_bar == 0
    assert uv_mod(P7, 128, 257).v_bar == 0
    assert uv_mod(P7, 32768, 65537).v_bar == 0
    assert uv_mod(P7, 256, 257).u_bar == 0
    print(f"\ncriterion 4 PASS: {total} reference residues mod F_1..F_4 match")


def test_criterion_5_traces_golden():
    for n, expected in TRACES.items():
        trace = s_sequence(n, keep_trace=True)
        assert trace.residues == expected, n
    assert balanced_residue(197, 257) == -60
    t4 = s_sequence(4, keep_trace=True).residues
    assert len(t4) == 15 and t4[-2:] == (4080, 0)
    print("\ncriterion 5 PASS: the three printed chains reproduce exactly")


def test_criterion_6_identity_suites():
    t0 = time.perf_counter()
    for params in (P7, P3):
        pairs = lehmer_pairs_exact(params, 200)
        q_pow = 1
        for n in range(0, 101):
            assert pairs[2 * n].u_bar == pairs[n].u_bar * pairs[n].v_bar
            c = params.R if n % 2 else 1
            assert pairs[2 * n].v_bar == c * pairs[n].v_bar ** 2 - 2 * q_pow
            q_pow *= params.Q
        for n in range(1, 201):
            g = math.gcd(pairs[n].u_bar, pairs[n].v_bar)
            assert (2 * abs(params.Q) ** n) % g == 0
    ring = list(iter_uv_exact(P7, 81))
    for m in range(2, 10):
        for n in range(1, 10):
            _, Un, Vn = ring[n]
            _, Umn, Vmn = ring[m * n]
            assert sum_identity_holds(P7, m, Un, Vn, Umn, odd_side=True), (m, n)
            assert sum_identity_holds(P7, m, Un, Vn, Vmn, odd_side=False), (m, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"identity suites took {elapsed:.2f}s"
    print(f"\ncriterion 6 PASS: doubling, multiplication-sum and gcd identities ({elapsed:.2f}s)")


def test_criterion_7_congruence_suites():
    count = 0
    for params in (P7, P3):
        qrd = params.Q * params.R * params.D
        for p in range(3, 2000, 2):
            if not is_prime(p) or qrd % p == 0:
                continue
            report = lehmer_congruence_checks(params, p)
            assert report.ok, (params, p, [c for c in report.checks if not c.passed])
            count += 1
    print(f"\ncriterion 7 PASS: all five congruences hold at {count} (params, p) pairs")


def test_criterion_8_rank_machinery():
    assert rank_of_apparition(P7, 5).omega == 4
    assert rank_of_apparition(P7, 17).omega == 16
    assert rank_of_apparition(P7, 257).omega == 256

    # divisibility: m | u_bar(k) iff omega(m) | k, for odd m <= 200, k <= 2000
    for m in range(3, 201, 2):
        omega = rank_of_apparition(P7, m, cap=5000).omega
        assert omega is not None, m
        for pair in iter_pairs(P7, modulus=m):
            if pair.index > 2000:
                break
            if pair.index >= 1:
                assert (pair.u_bar == 0) == (pair.index % omega == 0), (m, pair.index)

    # exact divisibility of values: k | n implies u_bar(k) | u_bar(n)
    pairs = lehmer_pairs_exact(P7, 60)
    for k in range(1, 61):
        for n in range(k, 61, k):
            assert pairs[n].u_bar % pairs[k].u_bar == 0, (k, n)

    # existence below the cap for every m <= 500 coprime to Q
    for m in range(2, 501):
        assert rank_of_apparition(P7, m, cap=10**6).omega is not None, m

    for N in (17, 257, 65537):
        assert certify_via_rank(P7, N).classification == "prime"
    assert certify_via_rank(P7, (1 << 32) + 1).classification == "composite"
    print("\ncriterion 8 PASS: ranks 4/16/256, divisibility sweeps, certificates")


def test_criterion_9_appendix():
    for n in (2, 3, 4):
        checks = appendix_residues(P7, n)
        assert len(checks) == 18
        assert all(c.passed for c in checks), n
    pairs7 = lehmer_pairs_exact(P7, 60)
    pairs3 = lehmer_pairs_exact(P3, 60)
    for n in range(61):
        assert alternate_params_pair(n, pairs7) == pairs3[n]
    print("\ncriterion 9 PASS: 18 flanking congruences for n=2,3,4; parity swap to (3,-1)")


def test_criterion_10_cross_reduction():
    rng = random.Random(16384)
    for n in (5, 10, 14):
        m = 1 << n
        N = (1 << m) + 1
        for edge in (0, 1, N - 1, N, N + 1, 1 << m, (N - 1) ** 2, N * N, -1, -(N * N) - 5):
            assert fermat_mod(edge, m) == edge % N
        for _ in range(10_000):
            x = rng.getrandbits(2 * m + 8)
            if rng.random() < 0.2:
                x = -x
            assert fermat_mod(x, m) == x % N
    print("\ncriterion 10 PASS: fold reduction == division on 3x10^4 random inputs")
