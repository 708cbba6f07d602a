from fermatlucas import verify
from fermatlucas.lucas import STANDARD_PARAMS as P7
from fermatlucas.lucas import LehmerPair, iter_uv_exact, sum_identity_holds
from fermatlucas.primality import is_prime, rank_of_apparition
from fermatlucas.quadratic import QuadInt


def sum_identity_checks(checks):
    return [(c.name, c.passed) for c in checks if c.name.startswith("sum_identity_")]


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
    assert sum_identity_checks(verify.identities(8, 8)) == expected


def test_corrupted_table_entry_fails_sum_identities(monkeypatch):
    exact = verify.iter_uv_exact

    def corrupted(params, max_index):
        for n, U, V in exact(params, max_index):
            if max_index == 64 and n == 6:  # the 8 x 8 sum-identity table
                U = QuadInt(U.a, U.b + 1)
            yield n, U, V

    monkeypatch.setattr(verify, "iter_uv_exact", corrupted)
    failed = {c.name for c in verify.identities(8, 8) if not c.passed}
    # U_6 enters as U_{mn} at (2, 3) and as U_n at (2, 6); no other suite part reads it.
    assert {"sum_identity_u_m2_n3", "sum_identity_u_m2_n6"} <= failed
    assert all(name.startswith("sum_identity_") for name in failed)


def test_perturbed_pair_fails_parity_structure(monkeypatch):
    exact = verify.lehmer_pairs_exact

    def perturbed(params, max_index):
        pairs = exact(params, max_index)
        u, v = pairs[151].u_bar, pairs[151].v_bar
        pairs[151] = LehmerPair(151, u, v + u)  # same gcd(u, v)
        return pairs

    monkeypatch.setattr(verify, "lehmer_pairs_exact", perturbed)
    checks = {c.name: c for c in verify.identities(2, 2)}
    # Of the other checks only the gcd one reads v_bar(151), and it cannot tell.
    for label in ("R7_Q1", "R3_Q-1"):
        check = checks[f"parity_structure_{label}"]
        assert not check.passed and check.detail == "indices [151]"
    assert [name for name, c in checks.items() if not c.passed] == [
        "parity_structure_R7_Q1", "parity_structure_R3_Q-1"]


def test_perturbed_omega_fails_the_divisibility_sweep(monkeypatch):
    omega_45 = rank_of_apparition(P7, 45).omega

    def perturbed(params, m, cap=10**6):
        result = rank_of_apparition(params, m, cap=cap)
        return result._replace(omega=result.omega + 1) if m == 45 else result

    monkeypatch.setattr(verify, "rank_of_apparition", perturbed)
    checks = {c.name: c for c in verify.rank(20, 10**4)}
    # omega_45 divides u_bar's first zero index but omega_45 + 1 does not.
    check = checks["divisibility_iff_rank_divides"]
    assert not check.passed and check.detail == f"first [(45, {omega_45})]"
    assert [name for name, c in checks.items() if not c.passed] == ["divisibility_iff_rank_divides"]


def test_missing_late_zero_fails_the_divisibility_sweep(monkeypatch):
    u_zeros = verify._u_zeros

    def perturbed(params, m, limit, first=False):
        zeros = u_zeros(params, m, limit, first)
        return zeros[:-1] if m == 45 and not first else zeros

    monkeypatch.setattr(verify, "_u_zeros", perturbed)
    check = next(c for c in verify.rank(20, 10**4) if c.name == "divisibility_iff_rank_divides")
    last = u_zeros(P7, 45, 2000)[-1]
    assert not check.passed and check.detail == f"first [(45, {last})]"


def test_prime_sieve_matches_trial_division():
    # 0..6 and 20000 as the suite uses it; up to 50 reaches n - 1 = 9, 25 and 49.
    for p_max in [*range(51), 20000]:
        assert verify._odd_primes_below(p_max) == [p for p in range(3, p_max, 2) if is_prime(p)]
