"""Verification suites: the paper's claims checked over bounded ranges.

Each suite is a function of its bounds that returns a list of `Check`
records; the CLI's `verify` command only renders them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .lucas import (
    ALTERNATE_PARAMS,
    STANDARD_PARAMS,
    alternate_params_pair,
    iter_uv_exact,
    lehmer_pairs_exact,
    s_from_v,
    sum_identity_holds,
    uv_mod,
)
from .primality import (
    FermatNumber,
    _u_zeros,
    appendix_residues,
    certify_via_rank,
    lehmer_congruence_checks,
    rank_of_apparition,
    s_sequence,
)


class Check(NamedTuple):
    """One named check; `detail` says what went wrong and is None on a pass."""

    name: str
    passed: bool
    detail: str | None = None


def _check(name: str, ok: bool, detail: str | None = None) -> Check:
    return Check(name, bool(ok), detail if detail and not ok else None)


def identities(m_max: int, n_max: int) -> list[Check]:
    """Parity structure, doubling, gcd, sum identities and the parity swap."""
    # One exact table serves every sum identity; building it first checks
    # m_max*n_max against the exact-index cap before any other work.
    ring = list(iter_uv_exact(STANDARD_PARAMS, m_max * n_max)) if m_max >= 2 and n_max >= 1 else []
    checks = []
    tables = {}
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        label = f"R{params.R}_Q{params.Q}"
        pairs = tables[params] = lehmer_pairs_exact(params, 200)

        # Against the ring: zero components vanish, kept ones are the pair.
        bad = []
        for i, u, v in iter_uv_exact(params, 200):
            if i % 2 == 0:
                ok = u.a == 0 and v.b == 0 and v.a != 0 and (i == 0 or u.b != 0)
                kept = (u.b, v.a)
            else:
                ok = u.b == 0 and v.a == 0 and u.a != 0 and v.b != 0
                kept = (u.a, v.b)
            if not ok or kept != pairs[i][1:]:
                bad.append(i)
        checks.append(_check(f"parity_structure_{label}", not bad, f"indices {bad[:5]}"))

        # u_bar(2n) = u_bar(n)*v_bar(n), v_bar(2n) = c*v_bar(n)^2 - 2Q^n, c = R for odd n
        bad_u = [n for n in range(101) if pairs[2 * n].u_bar != pairs[n].u_bar * pairs[n].v_bar]
        bad_v = [n for n in range(101) if pairs[2 * n].v_bar
                 != (params.R if n % 2 else 1) * pairs[n].v_bar ** 2 - 2 * params.Q**n]
        checks.append(_check(f"doubling_u_{label}", not bad_u, f"n {bad_u[:5]}"))
        checks.append(_check(f"doubling_v_{label}", not bad_v, f"n {bad_v[:5]}"))

        bad = [n for n in range(201) if (2 * abs(params.Q) ** n) % math.gcd(pairs[n].u_bar, pairs[n].v_bar) != 0]
        checks.append(_check(f"gcd_divides_2Qn_{label}", not bad, f"n {bad[:5]}"))

    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            _, Un, Vn = ring[n]
            _, Umn, Vmn = ring[m * n]
            for side, Xmn in (("u", Umn), ("v", Vmn)):
                holds = sum_identity_holds(STANDARD_PARAMS, m, Un, Vn, Xmn, odd_side=side == "u")
                checks.append(_check(f"sum_identity_{side}_m{m}_n{n}", holds))

    # Odd-index subsequence of u_bar for (7, 1) obeys x_{j+1} = 5 x_j - x_{j-1}
    # (the step-two recurrence, since v_bar(2) = 5 and Q^2 = 1).
    pairs7 = tables[STANDARD_PARAMS]
    x_prev, x = 1, 6  # u_bar(1), u_bar(3)
    ok = pairs7[1].u_bar == x_prev and pairs7[3].u_bar == x
    for j in range(2, 100):
        x_prev, x = x, 5 * x - x_prev
        ok = ok and pairs7[2 * j + 1].u_bar == x
    checks.append(_check("odd_index_recurrence", ok))

    pairs3 = tables[ALTERNATE_PARAMS]
    swapped = all(alternate_params_pair(n, pairs7) == pairs3[n] for n in range(61))
    checks.append(_check("alternate_params_swap", swapped))
    return checks


def _odd_primes_below(n: int) -> list[int]:
    """The odd primes 3 <= p < n, from one bytearray sieve of Eratosthenes."""
    if n <= 3:
        return []
    sieve = bytearray([1]) * n
    for i in range(3, math.isqrt(n - 1) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, n, 2 * i)))
    return [p for p in range(3, n, 2) if sieve[p]]


def congruences(p_max: int) -> list[Check]:
    """The five classical congruences at every odd prime below p_max not dividing QRD."""
    primes = _odd_primes_below(p_max)
    checks = []
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        label = f"R{params.R}_Q{params.Q}"
        qrd = params.Q * params.R * params.D
        for p in primes:
            if qrd % p == 0:
                continue
            report = lehmer_congruence_checks(params, p)
            failed = [c.name for c in report.checks if not c.passed]
            checks.append(_check(f"congruences_{label}_p{p}", not failed, ", ".join(failed)))
    return checks


def appendix(n: int | None) -> list[Check]:
    """The 18 flanking residues around F_n; n = None checks n = 2, 3 and 4."""
    checks = []
    for k in (n,) if n is not None else (2, 3, 4):
        for c in appendix_residues(STANDARD_PARAMS, k):
            checks.append(_check(c.name, c.passed, f"expected {c.expected}, got {c.actual}"))
    return checks


def rank(sweep_max: int, cap: int) -> list[Check]:
    """Rank examples, existence up to sweep_max, divisibility, and certificates."""
    if sweep_max < 2:  # the existence sweep would test no modulus
        raise ValueError(f"sweep_max must be >= 2, got {sweep_max}")
    checks = []
    for m, expected in ((5, 4), (17, 16), (257, 256)):
        got = rank_of_apparition(STANDARD_PARAMS, m).omega
        checks.append(_check(f"omega_{m}_is_{expected}", got == expected, f"got {got}"))

    missing = [
        m for m in range(2, sweep_max + 1)
        if math.gcd(m, STANDARD_PARAMS.Q) == 1 and rank_of_apparition(STANDARD_PARAMS, m, cap=cap).omega is None
    ]
    checks.append(_check(f"omega_exists_to_{sweep_max}", not missing, f"missing {missing[:5]}"))

    bad = []
    for m in range(3, 201, 2):
        omega = rank_of_apparition(STANDARD_PARAMS, m, cap=5000).omega
        if omega is None:
            bad.append((m, "no omega"))
            continue
        zeros, multiples = _u_zeros(STANDARD_PARAMS, m, 2000), range(omega, 2001, omega)
        if zeros != list(multiples):
            bad.append((m, min(set(zeros).symmetric_difference(multiples))))
    checks.append(_check("divisibility_iff_rank_divides", not bad, f"first {bad[:3]}"))

    pairs = lehmer_pairs_exact(STANDARD_PARAMS, 60)
    bad = [(k, n) for k in range(1, 61) for n in range(k, 61, k) if pairs[n].u_bar % pairs[k].u_bar != 0]
    checks.append(_check("u_divides_u_at_multiples", not bad, f"first {bad[:3]}"))

    for N, name in ((17, "certify_17"), (257, "certify_257"), (65537, "certify_65537")):
        verdict = certify_via_rank(STANDARD_PARAMS, N)
        checks.append(_check(name, verdict.classification == "prime"))
    f5 = certify_via_rank(STANDARD_PARAMS, (1 << 32) + 1)
    checks.append(_check("certify_F5_composite", f5.classification == "composite"))
    return checks


def traces(max_n: int) -> list[Check]:
    """Chain traces against plain `%` and the v-side bridge; final residues to max_n."""
    if max_n >= 1:
        FermatNumber(max_n)  # refuse an index out of range before any chain runs
    checks = []
    for n in (1, 2, 3, 4):
        F = FermatNumber(n).value
        trace = s_sequence(n, keep_trace=True).residues
        s = 5 % F
        generic = [s]
        for _ in range((1 << n) - 2):
            s = (s * s - 2) % F
            generic.append(s)
        checks.append(_check(f"trace_special_vs_generic_F{n}", list(trace) == generic))
        bridge = all(s_from_v(STANDARD_PARAMS, k, F) == trace[k] for k in range(len(trace)))
        checks.append(_check(f"trace_bridge_F{n}", bridge))
    for n in range(1, max_n + 1):
        F = FermatNumber(n).value
        v_route = uv_mod(STANDARD_PARAMS, (F - 1) // 2, F).v_bar
        checks.append(_check(f"final_matches_v_route_F{n}", v_route == s_sequence(n).final))
    return checks
