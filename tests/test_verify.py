import subprocess
import sys

import pytest

from conftest import cli_env, deadline
from fermatlucas import _gmp, primality, symbols, verify
from fermatlucas.lucas import ALTERNATE_PARAMS, LehmerPair, iter_uv_exact, sum_identity_holds
from fermatlucas.lucas import STANDARD_PARAMS as P7
from fermatlucas.primality import is_prime, lehmer_congruence_checks, rank_of_apparition
from fermatlucas.quadratic import QuadInt


def sum_identity_checks(checks):
    return [(c["name"], c["pass"]) for c in checks if c["name"].startswith("sum_identity_")]


def test_identity_table_matches_per_pair_checks():
    # Each (m, n) checked on its own ring table to index m*n, against the
    # suite's one shared table.
    expected = []
    for m in range(2, 9):
        for n in range(1, 9):
            ring = list(iter_uv_exact(P7, m * n))
            _, Un, Vn = ring[n]
            _, Umn, Vmn = ring[m * n]
            expected.append((f"sum_identity_u_m{m}_n{n}", sum_identity_holds(P7, m, Un, Vn, Umn, True)))
            expected.append((f"sum_identity_v_m{m}_n{n}", sum_identity_holds(P7, m, Un, Vn, Vmn, False)))
    assert all(holds for _, holds in expected)
    assert sum_identity_checks(verify.identities(m_max=8, n_max=8)) == expected


def test_identities_at_m_max_2000_finish_in_seconds():
    # m * n = 10000 is inside the exact-index cap, so the suite must finish
    # here: each (m, n) costs one step of a running ring power.
    with deadline(20):
        checks = list(verify.identities(m_max=2000, n_max=5))
    assert len(checks) == 10 + 2 * 1999 * 5
    assert all(c["pass"] for c in checks)


def test_corrupted_table_entry_fails_sum_identities(monkeypatch):
    exact = verify.iter_uv_exact
    j = 6  # U_j or V_j of the (7, 1) table gets one more sqrt(R)
    for side in "uv":
        def corrupted(params, max_index, side=side):
            for n, U, V in exact(params, max_index):
                if params == P7 and n == j:
                    U, V = (QuadInt(U.a, U.b + 1), V) if side == "u" else (U, QuadInt(V.a, V.b + 1))
                yield n, U, V

        monkeypatch.setattr(verify, "iter_uv_exact", corrupted)
        failed = {c["name"] for c in verify.identities(m_max=8, n_max=8) if not c["pass"]}
        # It enters both sides as X_n at n = j, its own side as X_{mn} at
        # m*n = j, and the (7, 1) parity check, which reads the same table;
        # no other suite part reads it.
        expected = {f"sum_identity_{s}_m{m}_n{j}" for m in range(2, 9) for s in "uv"}
        expected |= {f"sum_identity_{side}_m{m}_n{j // m}" for m in range(2, 9) if j % m == 0}
        expected.add("parity_structure_R7_Q1")
        assert failed == expected, side


def test_perturbed_pair_fails_parity_structure(monkeypatch):
    exact = verify.lehmer_pairs_exact

    def perturbed(params, max_index):
        pairs = exact(params, max_index)
        u, v = pairs[151].u_bar, pairs[151].v_bar
        pairs[151] = LehmerPair(151, u, v + u)  # same gcd(u, v)
        return pairs

    monkeypatch.setattr(verify, "lehmer_pairs_exact", perturbed)
    checks = {c["name"]: c for c in verify.identities(m_max=2, n_max=2)}
    # Of the other checks only the gcd one reads v_bar(151), and it cannot tell.
    for label in ("R7_Q1", "R3_Q-1"):
        check = checks[f"parity_structure_{label}"]
        assert not check["pass"] and check.get("detail") == "indices [151]"
    assert [name for name, c in checks.items() if not c["pass"]] == [
        "parity_structure_R7_Q1", "parity_structure_R3_Q-1"]


def test_perturbed_omega_fails_the_divisibility_sweep(monkeypatch):
    omega_45 = rank_of_apparition(P7, 45).omega

    def perturbed(params, m, cap=10**6):
        result = rank_of_apparition(params, m, cap=cap)
        return result._replace(omega=result.omega + 1) if m == 45 else result

    monkeypatch.setattr(verify, "rank_of_apparition", perturbed)
    checks = {c["name"]: c for c in verify.rank()}
    # omega_45 divides u_bar's first zero index but omega_45 + 1 does not.
    check = checks["divisibility_iff_rank_divides"]
    assert not check["pass"] and check.get("detail") == f"first [(45, {omega_45})]"
    assert [name for name, c in checks.items() if not c["pass"]] == ["divisibility_iff_rank_divides"]


def test_missing_late_zero_fails_the_divisibility_sweep(monkeypatch):
    u_zeros = verify._u_zeros

    def perturbed(params, m, limit, first=False):
        zeros = u_zeros(params, m, limit, first)
        return zeros[:-1] if m == 45 and not first else zeros

    monkeypatch.setattr(verify, "_u_zeros", perturbed)
    check = next(c for c in verify.rank() if c["name"] == "divisibility_iff_rank_divides")
    last = u_zeros(P7, 45, 2000)[-1]
    assert not check["pass"] and check.get("detail") == f"first [(45, {last})]"


def test_rank_without_omega_fails_both_sweeps(monkeypatch):
    def no_omega_at_9(params, m, cap=10**6):
        result = rank_of_apparition(params, m, cap=cap)
        return result._replace(omega=None) if m == 9 else result

    monkeypatch.setattr(verify, "rank_of_apparition", no_omega_at_9)
    checks = {c["name"]: c for c in verify.rank()}  # returned, not raised
    assert checks["omega_exists_to_500"].get("detail") == "missing [9]"
    assert checks["divisibility_iff_rank_divides"].get("detail") == "first [(9, 'no omega')]"
    assert [name for name, c in checks.items() if not c["pass"]] == [
        "omega_exists_to_500", "divisibility_iff_rank_divides"]


def test_rank_searches_each_modulus_once(monkeypatch):
    searched = []

    def counted(params, m, cap=10**6):
        searched.append(m)
        return rank_of_apparition(params, m, cap=cap)

    monkeypatch.setattr(verify, "rank_of_apparition", counted)
    checks = list(verify.rank())
    assert searched == list(range(2, 501))  # 499 searches, one per modulus
    assert checks == [{"name": name, "pass": True} for name in (
        "omega_5_is_4", "omega_17_is_16", "omega_257_is_256", "omega_exists_to_500",
        "divisibility_iff_rank_divides", "u_divides_u_at_multiples",
        "certify_17", "certify_257", "certify_65537", "certify_F5_composite")]


def test_congruence_suite_matches_per_prime_reports():
    # Up to 50 the suite's start tables hold 4, 8, 16 and 32 pairs, so each
    # walk reads its pair from the table; up to 5 the suite is empty.  At 3000
    # (256 pairs) and 2^16 (1024 pairs, the height's cap) the walks double
    # over up to 3 and 6 bits.
    for p_max in [*range(51), 3000, 1 << 16]:
        expected = []
        for params in (P7, ALTERNATE_PARAMS):
            qrd = params.Q * params.R * params.D
            for p in range(3, p_max, 2):
                if is_prime(p) and qrd % p:
                    assert lehmer_congruence_checks(params, p).ok, (params, p)
                    expected.append({"name": f"congruences_R{params.R}_Q{params.Q}_p{p}", "pass": True})
        assert list(verify.congruences(p_max=p_max)) == expected, p_max


def test_congruence_suite_reads_its_symbols_from_one_period(monkeypatch):
    # One table over 4|a| per numerator D, R and Q: for (7, 1) and (3, -1)
    # alike, 6 + 14 + 2 odd residues, however many primes the suite checks.
    calls = []
    jacobi = symbols.jacobi

    def counted(a, n):
        calls.append((a, n))
        return jacobi(a, n)

    monkeypatch.setattr(symbols, "jacobi", counted)  # `primality` calls it only through symbol_triple
    counts = []
    for p_max in (3000, 20000):
        calls.clear()
        list(verify.congruences(p_max=p_max))
        counts.append(len(calls))
    assert counts == [44, 44]


def test_wrong_ladder_residue_fails_exactly_that_prime(monkeypatch):
    ladder = primality._uv_ladder
    bad_p = 1009

    def perturbed(params, n, N, start):
        u, v = ladder(params, n, N, start)
        return ((u + 1) % N, v) if N == bad_p else (u, v)

    monkeypatch.setattr(primality, "_uv_ladder", perturbed)
    checks = verify.congruences(p_max=3000)
    failed = [c for c in checks if not c["pass"]]
    assert [c["name"] for c in failed] == [f"congruences_R7_Q1_p{bad_p}", f"congruences_R3_Q-1_p{bad_p}"]
    for check, params in zip(failed, (P7, ALTERNATE_PARAMS)):
        report = lehmer_congruence_checks(params, bad_p)
        assert check.get("detail") == ", ".join(c.name for c in report.checks if not c.passed)
        # A wrong u at (p - se)/2 reaches u_idx, u_p and v_p, never v_idx.
        assert "u_vanishes" in check.get("detail") and "v_at_even_index" not in check.get("detail")


def test_wrong_ladder_v_fails_the_even_index_row(monkeypatch):
    # A wrong v at (p - se)/2 reaches v_idx, so each set's prime fails v_at_even_index with the rest.
    ladder = primality._uv_ladder
    bad_p = 1009

    def perturbed(params, n, N, start):
        u, v = ladder(params, n, N, start)
        return (u, (v + 1) % N) if N == bad_p else (u, v)

    monkeypatch.setattr(primality, "_uv_ladder", perturbed)
    failed = [c for c in verify.congruences(p_max=3000) if not c["pass"]]
    assert [c["name"] for c in failed] == [f"congruences_R7_Q1_p{bad_p}", f"congruences_R3_Q-1_p{bad_p}"]
    assert all("v_at_even_index" in c["detail"].split(", ") for c in failed), failed


@pytest.mark.parametrize("row", range(5))
def test_any_one_failed_row_fails_its_prime(monkeypatch, row):
    # The suite compares all five residues with their expected values: a prime
    # fails on any one of them alone, and its detail names that row.
    core, bad_p = verify._congruence_residues, 1009

    def one_row_failed(params, primes, table, start):
        for p, actual, expected in core(params, primes, table, start):
            if p == bad_p:
                actual = tuple((a + 1) % p if i == row else a for i, a in enumerate(actual))
            yield p, actual, expected

    monkeypatch.setattr(verify, "_congruence_residues", one_row_failed)
    failed = [c for c in verify.congruences(p_max=1100) if not c["pass"]]
    assert failed == [
        {"name": f"congruences_R{params.R}_Q{params.Q}_p{bad_p}", "pass": False,
         "detail": lehmer_congruence_checks(params, bad_p).checks[row].name}
        for params in (P7, ALTERNATE_PARAMS)
    ]


@pytest.mark.parametrize("suite, bounds", [
    ("identities", {"m_max": 1}), ("identities", {"n_max": 0}), ("identities", {"m_max": 101, "n_max": 101}),
    ("traces", {"max_n": 0}), ("traces", {"max_n": 33}),
    ("congruences", {"p_max": sys.maxsize + 1}),
    ("appendix", {"n": 5}), ("appendix", {"n": 0}),
])
def test_suite_refuses_its_bounds_before_its_first_check(suite, bounds):
    # A record streamed check by check can exit 2 cleanly only before its
    # first check is written, so every refusal comes before the first yield.
    with pytest.raises(ValueError):
        next(iter(getattr(verify, suite)(**bounds)))


def test_traces_refuse_max_n_without_building_f_n():
    # F_32 alone takes 512 MiB: a range check that built it would raise
    # MemoryError under this limit before the first check.
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from fermatlucas import verify\n"
        "print(next(verify.traces(max_n=32)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{'name': 'trace_special_vs_generic_F1', 'pass': True}\n"


def test_prime_sieve_matches_trial_division():
    # 0..6 and 20000 as the suite uses it; up to 50 reaches n - 1 = 9, 25 and 49.
    for p_max in [*range(51), 20000]:
        assert list(verify._odd_primes(verify._odd_prime_flags(p_max))) == [p for p in range(3, p_max, 2) if is_prime(p)]


@pytest.mark.skipif(_gmp.load() is None, reason="libgmp did not load")
def test_traces_check_the_libgmp_chain_against_the_int_ladder(monkeypatch):
    # A defect both libgmp routes share: each returns residues one too high.
    # From F_11 on the chain runs on libgmp and the v-route on ints, so only
    # the F_11 final residue can see it.
    chain, ladder = _gmp.GmpKernel.square_chain, _gmp.GmpKernel.uv_ladder
    monkeypatch.setattr(_gmp.GmpKernel, "square_chain", lambda self, *args: chain(self, *args) + 1)
    monkeypatch.setattr(_gmp.GmpKernel, "uv_ladder",
                        lambda self, *args: tuple(x + 1 for x in ladder(self, *args)))
    checks = list(verify.traces(max_n=11))
    assert len(checks) == 19
    assert [c["name"] for c in checks if not c["pass"]] == ["final_matches_v_route_F11"]
