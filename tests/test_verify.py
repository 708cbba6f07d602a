from fermatlucas import verify
from fermatlucas.lucas import STANDARD_PARAMS as P7
from fermatlucas.lucas import check_sum_identity_u, check_sum_identity_v
from fermatlucas.quadratic import QuadInt


def sum_identity_checks(checks):
    return [(c.name, c.passed) for c in checks if c.name.startswith("sum_identity_")]


def test_identity_table_matches_per_pair_checks():
    expected = []
    for m in range(2, 9):
        for n in range(1, 9):
            expected.append((f"sum_identity_u_m{m}_n{n}", check_sum_identity_u(P7, m, n)))
            expected.append((f"sum_identity_v_m{m}_n{n}", check_sum_identity_v(P7, m, n)))
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
