"""Verification suites: the paper's claims checked over bounded ranges.

Each suite takes keyword-only bounds, whose defaults are the CLI's, and yields
the CLI's check records, refusing a bad bound before the first; the CLI writes
them as they come.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, count
from typing import Iterator

from .lucas import (
    ALTERNATE_PARAMS,
    STANDARD_PARAMS,
    _sum_identity_step,
    alternate_params_pair,
    iter_uv_exact,
    lehmer_pairs_exact,
    s_from_v,
)
from .native import _uv_ladder
from .primality import (
    _congruence_residues,
    _residue_checks,
    _u_zeros,
    appendix_residues,
    certify_via_rank,
    fermat_exponent,
    fermat_number,
    rank_of_apparition,
    s_sequence,
)
from .quadratic import _int_text, qscale
from .symbols import symbol_table


def _check(name: str, ok: bool, detail: str | None = None) -> dict:
    """One check record, `{"name", "pass"}`, plus `"detail"` (what went wrong) only on a failure that has one."""
    if ok:
        return {"name": name, "pass": True}
    return {"name": name, "pass": False, "detail": detail} if detail else {"name": name, "pass": False}


def identities(*, m_max: int = 9, n_max: int = 9) -> Iterator[dict]:
    """Parity structure, doubling, gcd, sum identities and the parity swap."""
    # Below these bounds no sum identity would be checked.
    if m_max < 2:
        raise ValueError(f"m_max must be >= 2, got {_int_text(m_max)}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {_int_text(n_max)}")
    # One exact (7, 1) table serves the parity check and every sum identity; building
    # it first checks m_max*n_max against the exact-index cap before any other work.
    ring = list(iter_uv_exact(STANDARD_PARAMS, max(200, m_max * n_max)))
    tables = {}
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        label = f"R{params.R}_Q{params.Q}"
        pairs = tables[params] = lehmer_pairs_exact(params, 200)

        # Against the ring: zero components vanish, kept ones are the pair.
        bad = []
        rows = ring[:201] if params is STANDARD_PARAMS else iter_uv_exact(params, 200)
        for i, u, v in rows:
            if i % 2 == 0:
                ok = u.a == 0 and v.b == 0 and v.a != 0 and (i == 0 or u.b != 0)
                kept = (u.b, v.a)
            else:
                ok = u.b == 0 and v.a == 0 and u.a != 0 and v.b != 0
                kept = (u.a, v.b)
            if not ok or kept != pairs[i][1:]:
                bad.append(i)
        yield _check(f"parity_structure_{label}", not bad, f"indices {bad[:5]}")

        # u_bar(2n) = u_bar(n)*v_bar(n), v_bar(2n) = c*v_bar(n)^2 - 2Q^n, c = R for odd n
        bad_u = [n for n in range(101) if pairs[2 * n].u_bar != pairs[n].u_bar * pairs[n].v_bar]
        bad_v = [n for n in range(101) if pairs[2 * n].v_bar
                 != (params.R if n % 2 else 1) * pairs[n].v_bar ** 2 - 2 * params.Q**n]
        yield _check(f"doubling_u_{label}", not bad_u, f"n {bad_u[:5]}")
        yield _check(f"doubling_v_{label}", not bad_v, f"n {bad_v[:5]}")

        bad = [n for n in range(201) if (2 * abs(params.Q) ** n) % math.gcd(pairs[n].u_bar, pairs[n].v_bar) != 0]
        yield _check(f"gcd_divides_2Qn_{label}", not bad, f"n {bad[:5]}")

    # One running power (V_n + U_n sqrt(D))^m per n, as (u_side, v_side), from m = 1.
    sides = {n: ring[n][1:] for n in range(1, n_max + 1)}
    for m in range(2, m_max + 1):
        for n in range(1, n_max + 1):
            u_side, v_side = sides[n] = _sum_identity_step(STANDARD_PARAMS, *sides[n], *ring[n][1:])
            _, Umn, Vmn = ring[m * n]
            yield _check(f"sum_identity_u_m{m}_n{n}", qscale(1 << (m - 1), Umn) == u_side)
            yield _check(f"sum_identity_v_m{m}_n{n}", qscale(1 << (m - 1), Vmn) == v_side)

    # Odd-index subsequence of u_bar for (7, 1) obeys x_{j+1} = 5 x_j - x_{j-1}
    # (the step-two recurrence, since v_bar(2) = 5 and Q^2 = 1).
    pairs7 = tables[STANDARD_PARAMS]
    x_prev, x = 1, 6  # u_bar(1), u_bar(3)
    ok = pairs7[1].u_bar == x_prev and pairs7[3].u_bar == x
    for j in range(2, 100):
        x_prev, x = x, 5 * x - x_prev
        ok = ok and pairs7[2 * j + 1].u_bar == x
    yield _check("odd_index_recurrence", ok)

    pairs3 = tables[ALTERNATE_PARAMS]
    swapped = all(alternate_params_pair(n, pairs7) == pairs3[n] for n in range(61))
    yield _check("alternate_params_swap", swapped)


# The sieve marks composites with 1; translated, its flags mark primes, as `compress` wants.
_PRIME_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _odd_prime_flags(n: int) -> bytes:
    """Entry j is 1 when 2j + 1 < n is prime, from one sieve of Eratosthenes over the odd numbers."""
    if n <= 3:
        return b""
    # Composites are marked, so the sieve starts as `bytearray(n // 2)`.  On
    # CPython 3.11 a failed `bytearray([1]) * n` also prints a SystemError to
    # stderr beside its MemoryError.
    composite = bytearray(n // 2)
    composite[0] = 1  # the number 1
    for i in range(3, math.isqrt(n - 1) + 1, 2):
        if not composite[i // 2]:
            composite[i * i // 2::i] = b"\x01" * len(range(i * i // 2, n // 2, i))
    return composite.translate(_PRIME_FLAGS)


def _odd_primes(flags: bytes) -> Iterator[int]:
    """The primes that `_odd_prime_flags` marks, taken lazily at C speed."""
    return compress(count(1, 2), flags)


def congruences(*, p_max: int = 2000) -> Iterator[dict]:
    """The five classical congruences at every odd prime below p_max not dividing QRD."""
    if p_max > sys.maxsize:  # past any index: refused by name, before the sieve
        raise ValueError(f"p_max must be <= {sys.maxsize}, got {_int_text(p_max)}")
    flags = _odd_prime_flags(p_max)
    # Every walk starts from the exact pairs at its index's top t bits.  The suite in ms
    # by t, median of 15-31 round-robin calls (2-CPU sandbox, Python 3.11.7), * the rule's t:
    #     p_max     t = 7   8      9      10     11     12
    #     20,000    17.1    16.3   16.0*  16.4   20.8   31.0
    #     200,000   181     164    153    154*   166    196
    #     10^6      861     817    785    785*   804    932
    # This rule picks the best t or ties it within 1% at each; built after the sieve, which refuses a huge p_max.
    t = min(p_max.bit_length() // 2 + 2, 10)
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        prefix = f"congruences_R{params.R}_Q{params.Q}_p"
        table, start = symbol_table(params), lehmer_pairs_exact(params, (1 << t) - 1)
        # Sieved, so prime by construction; the core skips a p whose class is None (p divides QRD).
        for p, actual, expected in _congruence_residues(params, _odd_primes(flags), table, start):
            if actual == expected:  # a pass builds no row
                yield _check(prefix + str(p), True)
            else:
                checks = _residue_checks(p, *table[p % len(table)], actual, expected)
                yield _check(prefix + str(p), False, ", ".join(c.name for c in checks if not c.passed))


def appendix(*, n: int | None = None) -> Iterator[dict]:
    """The 18 flanking residues around a prime F_n, n in 1..4; n = None checks n = 2, 3 and 4."""
    for k in (n,) if n is not None else (2, 3, 4):
        for c in appendix_residues(STANDARD_PARAMS, k):
            yield _check(c.name, c.passed, f"expected {c.expected}, got {c.actual}")


def rank() -> Iterator[dict]:
    """Rank examples, existence up to 500, divisibility, and certificates."""
    # One search per modulus answers every check below.  The largest omega
    # below 501 is 882 (m = 441), far under the default cap.
    omegas = {m: rank_of_apparition(STANDARD_PARAMS, m).omega for m in range(2, 501)}
    for m, expected in ((5, 4), (17, 16), (257, 256)):
        yield _check(f"omega_{m}_is_{expected}", omegas[m] == expected, f"got {omegas[m]}")
    missing = [m for m, omega in omegas.items() if omega is None]
    yield _check("omega_exists_to_500", not missing, f"missing {missing[:5]}")

    bad = []
    for m in range(3, 201, 2):
        omega = omegas[m]
        if omega is None:
            bad.append((m, "no omega"))
            continue
        zeros, multiples = _u_zeros(STANDARD_PARAMS, m, 2000), range(omega, 2001, omega)
        if zeros != list(multiples):
            bad.append((m, min(set(zeros).symmetric_difference(multiples))))
    yield _check("divisibility_iff_rank_divides", not bad, f"first {bad[:3]}")

    pairs = lehmer_pairs_exact(STANDARD_PARAMS, 60)
    bad = [(k, n) for k in range(1, 61) for n in range(k, 61, k) if pairs[n].u_bar % pairs[k].u_bar != 0]
    yield _check("u_divides_u_at_multiples", not bad, f"first {bad[:3]}")

    for N, name, expected in ((17, "certify_17", "prime"), (257, "certify_257", "prime"),
                              (65537, "certify_65537", "prime"),
                              ((1 << 32) + 1, "certify_F5_composite", "composite")):
        yield _check(name, certify_via_rank(STANDARD_PARAMS, N).classification == expected)


def traces(*, max_n: int = 8) -> Iterator[dict]:
    """Chain traces against plain `%` and the v-side bridge; final residues to max_n on the int ladder."""
    if max_n < 1:  # no final residue would be checked
        raise ValueError(f"max_n must be >= 1, got {_int_text(max_n)}")
    fermat_exponent(max_n)  # refuse an index out of range before any chain runs
    for n in (1, 2, 3, 4):
        F = fermat_number(n)
        trace = s_sequence(n, keep_trace=True).residues
        s = 5 % F
        generic = [s]
        for _ in range((1 << n) - 2):
            s = (s * s - 2) % F
            generic.append(s)
        yield _check(f"trace_special_vs_generic_F{n}", list(trace) == generic)
        bridge = all(s_from_v(k, F) == trace[k] for k in range(len(trace)))
        yield _check(f"trace_bridge_F{n}", bridge)
    for n in range(1, max_n + 1):
        F = fermat_number(n)
        v_route = _uv_ladder(STANDARD_PARAMS, (F - 1) // 2, F)[1]
        yield _check(f"final_matches_v_route_F{n}", v_route == s_sequence(n).final)
