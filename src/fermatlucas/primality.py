"""Primality tests for Fermat numbers and the rank-of-apparition machinery.

The headline test: F_n = 2^(2^n) + 1 (n >= 1) is prime exactly when it
divides the last term of the chain S_0 = 5, S_i = S_{i-1}^2 - 2, i.e. when
S_{2^n - 2} == 0 (mod F_n).  Everything else here either proves pieces of
that statement at small scale (congruence and rank checks on the Lehmer
pair) or serves as an independent oracle (Pepin, trial division, the
classical Mersenne squaring chain).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lucas import STANDARD_PARAMS, LehmerPair, LucasParams, lehmer_pairs_exact, uv_mod
from .native import _LADDER_START, _uv_ladder, square_chain
from .quadratic import _int_text, fermat_mod
from .symbols import symbol_triple

# Full traces are only kept for small indices; 2^n - 1 residues of 2^n bits
# each get out of hand quickly.
TRACE_INDEX_LIMIT = 6

RANK_SEARCH_CAP = 10**6

PROVEN_SEED = 5

# F_33 is the smallest Fermat number whose character is unknown, and from
# n = 33 on the value alone takes more than 1 GiB, so larger indices are
# refused up front instead of failing in the allocator.
MAX_FERMAT_INDEX = 32


class InconclusiveError(Exception):
    """The rank certificate neither proved nor refuted primality."""


def fermat_exponent(n: int) -> int:
    """e = 2^n, so F_n = 2^e + 1, for 1 <= n <= MAX_FERMAT_INDEX: the one index check, building no F_n."""
    if n < 1:
        raise ValueError(f"Fermat index must be >= 1, got {_int_text(n)}")
    if n > MAX_FERMAT_INDEX:
        raise ValueError(f"Fermat index must be <= {MAX_FERMAT_INDEX}, got {_int_text(n)}")
    return 1 << n


def fermat_number(n: int) -> int:
    """F_n = 2^(2^n) + 1 for an index 1 <= n <= MAX_FERMAT_INDEX."""
    return (1 << fermat_exponent(n)) + 1


class SSequenceTrace(NamedTuple):
    """Squaring-chain residues mod F_n; `residues` is kept only when traced."""

    n: int
    seed: int
    final: int
    residues: tuple[int, ...] | None = None
    __repr__ = LehmerPair.__repr__


class RankResult(NamedTuple):
    """omega = least k >= 1 with m | u_bar(k), or None if not found below cap."""

    m: int
    omega: int | None
    cap: int


class Verdict(NamedTuple):
    classification: str  # "prime" | "composite"
    method: str          # "llt-fermat" | "pepin" | "llt-mersenne" | "rank-certificate"
    witness: int | None = None
    proven: bool = True
    __repr__ = LehmerPair.__repr__

    @property
    def is_prime(self) -> bool:
        return self.classification == "prime"


def _verdict(method: str, residue: int, target: int, proven: bool = True) -> Verdict:
    """Prime when a chain's last residue equals its target; else composite, that residue the witness."""
    if residue == target:
        return Verdict("prime", method, proven=proven)
    return Verdict("composite", method, witness=residue, proven=proven)


class ResidueCheck(NamedTuple):
    """One residue compared with its expected value; a tuple, cheap to build."""

    name: str
    index: int
    expected: int
    actual: int
    passed: bool


class CongruenceReport(NamedTuple):
    p: int
    params: LucasParams
    epsilon: int
    sigma: int
    tau: int
    checks: tuple[ResidueCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def s_sequence(n: int, keep_trace: bool = False, seed: int = PROVEN_SEED) -> SSequenceTrace:
    """Run S_0 = seed, S_i = S_{i-1}^2 - 2 for 2^n - 2 steps mod F_n.

    Without `keep_trace` only the final residue is retained, so memory stays
    constant (one residue of 2^n bits) no matter how large n is.  Tracing is
    limited to n <= TRACE_INDEX_LIMIT.
    """
    if keep_trace and n > TRACE_INDEX_LIMIT:
        raise ValueError(f"tracing is limited to n <= {TRACE_INDEX_LIMIT}, got {_int_text(n)}")
    e = fermat_exponent(n)
    s = fermat_mod(seed, e)
    if not keep_trace:
        return SSequenceTrace(n, seed, square_chain(s, e - 2, 2, e, 1))
    trace = [s]
    for _ in range(e - 2):
        trace.append(square_chain(trace[-1], 1, 2, e, 1))
    return SSequenceTrace(n, seed, trace[-1], tuple(trace))


def fermat_llt(n: int, seed: int = PROVEN_SEED, experimental: bool = False) -> Verdict:
    """Classify F_n by the squaring chain: prime iff the final residue is 0.

    Only seed 5 carries a proof; any other seed (including the historical 6)
    needs experimental=True and yields an unproven verdict.
    """
    if seed != PROVEN_SEED and not experimental:
        raise ValueError(
            f"seed {_int_text(seed)} has no correctness proof; pass experimental=True to run it anyway"
        )
    return _verdict("llt-fermat", s_sequence(n, seed=seed).final, 0, proven=seed == PROVEN_SEED)


def pepin(n: int) -> Verdict:
    """Pepin's oracle: F_n is prime iff 3^((F_n-1)/2) == -1 (mod F_n).

    (F_n - 1)/2 = 2^(2^n - 1), so the power is 2^n - 1 squarings of 3 on
    the fold kernel; the tests check it against pow().
    """
    e = fermat_exponent(n)
    return _verdict("pepin", square_chain(3, e - 1, 0, e, 1), 1 << e)


def mersenne_llt(q: int) -> Verdict:
    """Classical squaring chain for M_q = 2^q - 1: seed 4, q - 2 steps.

    q is refused above 2^MAX_FERMAT_INDEX, before it is tested: M_q alone
    would take 512 MiB there, and its q - 2 steps could not finish.
    """
    if q > 1 << MAX_FERMAT_INDEX:
        raise ValueError(f"Mersenne exponent must be <= 2^{MAX_FERMAT_INDEX}, got {_int_text(q)}")
    if q < 3 or not is_prime(q):
        raise ValueError(f"exponent must be an odd prime, got {_int_text(q)}")
    return _verdict("llt-mersenne", square_chain(4, q - 2, 2, q, -1), 0)


def trial_division(N: int) -> int | None:
    """Smallest prime factor of a composite N, or None when N is prime."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {_int_text(N)}")
    for d in (2, 3):
        if d * d > N:
            return None
        if N % d == 0:
            return d
    d = 5
    while d * d <= N:
        if N % d == 0:
            return d
        if N % (d + 2) == 0:
            return d + 2
        d += 6
    return None


# Miller-Rabin on the first 13 prime bases is exact below MR_EXACT_BOUND
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality of n: the one test behind every prime check here.

    Trial division below 2^20, deterministic Miller-Rabin on MR_BASES up to
    MR_EXACT_BOUND, a ValueError above, where no test here is proven exact.
    On a prime, trial division / Miller-Rabin take 15 / 26 us near 2^18,
    33 / 31 us near 2^20, 119 / 38 us near 2^24 and 2094 / 115 us near 2^32
    (best of 7 interleaved runs, 2-vCPU VM, Python 3.11).
    """
    if n < 1 << 20:
        return n >= 2 and trial_division(n) is None
    if n >= MR_EXACT_BOUND:
        raise ValueError(f"{_int_text(n)} is not below {MR_EXACT_BOUND}; its primality cannot be proven here")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _u_zeros(params: LucasParams, m: int, limit: int, first: bool = False) -> list[int]:
    """Indices 1 <= k <= limit with m | u_bar(k), stepping u_bar alone mod m.

    Two indices a turn (odd k, then k + 1) put R on the even-to-odd step with
    no parity branch: the zero test is the only one.  `first` stops at a zero.

    The walk stops after one period P: the state (u_bar(P), u_bar(P + 1))
    can equal (u_bar(0), u_bar(1)) = (0, 1) only at a zero of even index P,
    so the test costs one comparison per zero.  From there the recurrence
    repeats every term, and the zeros found in 1..P are tiled up to limit:
    the list is the full walk's.  With Q a unit mod m the sequence is purely
    periodic (Wall, Amer. Math. Monthly 67, 1960); for (7, 1) and odd m
    below 200, P is at most 756 (m = 189).
    """
    R, Q = params.R % m, params.Q % m
    zeros = []
    even, odd = 0, 1  # u_bar(k - 1), u_bar(k) at the top of each turn
    for k in range(1, limit + 1, 2):
        if odd == 0:
            zeros.append(k)
            if first:
                break
        even = (odd - Q * even) % m
        odd = (R * even - Q * odd) % m
        if even == 0:
            zeros.append(k + 1)
            if first:
                break
            if odd == 1:  # u_bar at k + 1, k + 2 is u_bar at 0, 1: period k + 1
                return [z + j for j in range(0, limit, k + 1) for z in zeros if z + j <= limit]
    return zeros[:-1] if zeros and zeros[-1] > limit else zeros  # k + 1 overshot an odd limit


def rank_of_apparition(params: LucasParams, m: int, cap: int = RANK_SEARCH_CAP) -> RankResult:
    """Least k >= 1 with m | u_bar(k), searched index by index up to cap.

    Requires gcd(m, Q) = 1, which guarantees the rank exists (the cap is a
    resource bound, not a theory bound).  Stepping needs every index, so a
    first-order recurrence beats fast doubling here.  This and the
    `verify rank` divisibility sweep share one u-only loop, `_u_zeros`, which
    runs about 6x faster than taking whole pairs from `iter_pairs`.  Only the
    sweep stops at the period P: omega <= P, so the search ends first.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {_int_text(m)}")
    if math.gcd(m, params.Q) != 1:
        raise ValueError(f"m = {_int_text(m)} shares a factor with Q = {_int_text(params.Q)}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {_int_text(cap)}")
    zeros = _u_zeros(params, m, cap, first=True)
    return RankResult(m, zeros[0] if zeros else None, cap)


def certify_via_rank(
    params: LucasParams, N: int, factors: tuple[int, ...] | None = None
) -> Verdict:
    """Primality certificate from the rank of apparition, its branch read from sigma*epsilon.

    With (eps, sig, tau) the symbols over N, top = N - sig*eps: N - 1 for F_n
    with (7, 1), N + 1 = 2^q for M_q with (6, 1).  At a prime N, u_bar(top) == 0
    mod N (congruence 3 of `lehmer_congruence_checks`), so a nonzero u_bar(top)
    proves N composite.  If u_bar(top) == 0 and u_bar(top/q) != 0 for each
    distinct prime q | top, N has rank exactly top, which no composite N prime
    to 2QRD has (Lehmer, Ann. of Math. 31, 1930), so N is prime.  `factors`
    lists those q, each checked by `is_prime` (a ValueError from MR_EXACT_BOUND
    up); omitted, it is (2,) when top is a power of two.  A collapsed top/q
    check raises InconclusiveError.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {_int_text(N)}")
    if N % 2 == 0 or 0 in (triple := symbol_triple(params, N)):  # (a/N) = 0 iff gcd(a, N) > 1
        raise ValueError(f"N = {_int_text(N)} shares a factor with 2*Q*R*D")
    top = N - triple.sigma * triple.epsilon
    if factors is None and top & (top - 1):
        raise ValueError(f"N - sigma*epsilon = {_int_text(top)} is not a power of two; "
                         "supply its distinct prime factors")
    primes = sorted(set((2,) if factors is None else factors))
    remaining = top
    for q in primes:
        if q < 2 or top % q != 0:
            raise ValueError(f"{_int_text(q)} is not a divisor of N - sigma*epsilon = {_int_text(top)}")
        if not is_prime(q):
            raise ValueError(f"{q} is not prime; the certificate needs the prime factors of N - sigma*epsilon")
        while remaining % q == 0:
            remaining //= q
    if remaining != 1:
        raise ValueError(f"supplied factors do not cover N - sigma*epsilon = {_int_text(top)} completely")

    u_top = uv_mod(params, top, N).u_bar
    if u_top != 0:
        return Verdict("composite", "rank-certificate", witness=u_top)
    for q in primes:
        if uv_mod(params, top // q, N).u_bar == 0:
            raise InconclusiveError(
                f"u_bar({_int_text(top)}/{q}) == 0 mod {_int_text(N)}: "
                "rank is a proper divisor candidate, no conclusion"
            )
    return Verdict("prime", "rank-certificate")


def lehmer_congruence_checks(params: LucasParams, p: int) -> CongruenceReport:
    """The five classical congruences of the pair at an odd prime p.

    With e = (D/p), s = (R/p), t = (Q/p), all of +-1 since p does not divide
    QRD:

      1. u_bar(p)    == e     (mod p)
      2. v_bar(p)    == s     (mod p)
      3. u_bar(p-se) == 0     (mod p)
      4. v_bar(p-se) == 2*s*Q^((1-se)/2)  (mod p)   (the index p-se is even)
      5. p divides v_bar((p-se)/2) when s = -t, u_bar((p-se)/2) when s = t

    One ladder walk to h = (p-se)/2 serves all three indices.  From the pair
    (u, v) at h, a doubling step gives u' = u*v and v' = c*v^2 - 2*Q^h at the
    even index 2h = p-se, with c = R for odd h and 1 for even h.  One more step
    gives p: for se = +1 it is `uv_mod`'s +1 step, ((R*u' + v')/2,
    (D*u' + v')/2); for se = -1, 2Q*U_{k-1} = P*U_k - V_k and
    2Q*V_{k-1} = P*V_k - D*U_k give ((R*u' - v')/(2Q), (v' - D*u')/(2Q)).
    2Q is a unit mod p, as p is odd and does not divide Q.
    `_congruence_residues` takes that walk; p's triple is its table of one class.
    """
    if p < 3 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {_int_text(p)}")
    triple = symbol_triple(params, p)
    if 0 in triple:  # p is prime, so (a/p) = 0 exactly when p divides a
        raise ValueError(f"p = {p} divides QRD")
    [(_, actual, expected)] = _congruence_residues(params, [p], [triple])
    return CongruenceReport(p, params, *triple, _residue_checks(p, *triple, actual, expected))


def _congruence_residues(
    params: LucasParams, primes: Iterable[int], table: Sequence, start: Sequence[LehmerPair] = _LADDER_START
) -> Iterator[tuple[int, tuple, tuple]]:
    """(p, actual, expected) per odd prime p in `primes` whose class p % len(table) is not None, unchecked.

    `table` (a `symbols.symbol_table`) and the ladder's `start` table are for one parameter set.  `actual`
    holds the residues mod p of rows 1-5 of `lehmer_congruence_checks`, from the one walk its docstring
    derives, and `expected` their reduced right sides: p passes exactly when `actual == expected`, the
    one place the congruences are decided.
    """
    R, Q, D = params.R, params.Q, params.D
    unit = Q * Q == 1  # then Q^h = Q^(h % 2) and 1/(2Q) = Q*(p + 1)/2, with no pow
    period = len(table)
    for p in primes:
        if (triple := table[p % period]) is None:
            continue
        eps, sig, tau = triple
        se = sig * eps
        half = (p - se) >> 1
        u, v = _uv_ladder(params, half, p, start)
        u_idx = u * v % p
        q_half = (Q if half & 1 else 1) if unit else pow(Q, half, p)
        v_idx = ((R if half & 1 else 1) * v * v - 2 * q_half) % p
        if se == 1:
            inv = (p + 1) >> 1
            u_p, v_p, v_expected = (R * u_idx + v_idx) * inv % p, (D * u_idx + v_idx) * inv % p, 2 * sig
        else:
            inv = Q * (p + 1) // 2 if unit else pow(2 * Q, -1, p)
            u_p, v_p, v_expected = (R * u_idx - v_idx) * inv % p, (v_idx - D * u_idx) * inv % p, 2 * sig * Q
        yield p, (u_p, v_p, u_idx, v_idx, v if sig == -tau else u), (eps % p, sig % p, 0, v_expected % p, 0)


def _residue_checks(p: int, eps: int, sig: int, tau: int, actual: tuple, expected: tuple) -> tuple[ResidueCheck, ...]:
    """The rows of `lehmer_congruence_checks` at p, from p's triple and `_congruence_residues`' two tuples for p."""
    names = "u_at_p", "v_at_p", "u_vanishes", "v_at_even_index", f"{'v' if sig == -tau else 'u'}_vanishes_at_half"
    idx = p - sig * eps
    passed = map(int.__eq__, actual, expected)
    return tuple(map(ResidueCheck, names, (p, p, idx, idx, idx >> 1), expected, actual, passed))


def appendix_residues(params: LucasParams, n: int) -> tuple[ResidueCheck, ...]:
    """Check the 18 flanking congruences of the pair around F_n, n in 1..4.

    Over F_n, (7, 1) has sig = eps = -1 (`fermat_symbols_closed_form`), so at
    a prime F_n congruences 3 and 4 give u_bar(F_n - 1) == 0, v_bar(F_n - 1)
    == -2, and so alpha^(F_n-1) == beta^(F_n-1) == -1.  F_n - 1 is even, so
    X(F_n - 1 + k) == -X(k) for X = u_bar, v_bar and any integer k, where
    Q = 1 gives u_bar(-k) = -u_bar(k) and v_bar(-k) = v_bar(k).  Here k =
    -4..4 (offsets -5..+3), read from the exact pairs at 0..4.
    """
    if params != STANDARD_PARAMS:
        raise ValueError("the flanking pattern is stated only for parameters (7, 1)")
    if n not in (1, 2, 3, 4):
        raise ValueError(f"the pattern needs F_n prime and prime to QRD, n in 1..4, got {_int_text(n)}")
    F = fermat_number(n)
    pairs = lehmer_pairs_exact(params, 4)
    checks = []
    for k in range(-4, 5):
        exact, pair = pairs[abs(k)], uv_mod(params, F - 1 + k, F)
        u_sign = 1 if k < 0 else -1
        for side, expected, actual in (("u", u_sign * exact.u_bar, pair.u_bar), ("v", -exact.v_bar, pair.v_bar)):
            checks.append(ResidueCheck(f"{side}_at_F{n}{k - 1:+d}", F - 1 + k, expected % F, actual,
                                       (actual - expected) % F == 0))
    return tuple(checks)
