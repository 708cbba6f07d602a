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
from typing import NamedTuple

from .lucas import LucasParams, uv_mod
from .native import GMP_MAX_BITS, GMP_MIN_BITS, native_kernel  # noqa: F401 (the bounds are re-exported)
from .quadratic import fermat_mod, mersenne_mod
from .symbols import jacobi

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


class FermatNumber:
    """F = 2^(2^n) + 1 for an index 1 <= n <= MAX_FERMAT_INDEX."""

    __slots__ = ("n", "value")

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"Fermat index must be >= 1, got {n}")
        if n > MAX_FERMAT_INDEX:
            raise ValueError(f"Fermat index must be <= {MAX_FERMAT_INDEX}, got {n}")
        self.n = n
        self.value = (1 << (1 << n)) + 1

    def __repr__(self) -> str:
        return f"FermatNumber(n={self.n})"


class SSequenceTrace(NamedTuple):
    """Squaring-chain residues mod F_n; `residues` is kept only when traced."""

    n: int
    seed: int
    final: int
    residues: tuple[int, ...] | None = None


class RankResult(NamedTuple):
    """omega = least k >= 1 with m | u_bar(k), or None if not found below cap."""

    m: int
    omega: int | None
    cap: int


class Verdict(NamedTuple):
    classification: str  # "prime" | "composite"
    method: str          # "llt-fermat" | "pepin" | "llt-mersenne" | "rank-certificate" | "trial-division"
    witness: int | None = None
    proven: bool = True

    @property
    def is_prime(self) -> bool:
        return self.classification == "prime"


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


def chain_kernel(bits: int) -> str:
    """The kernel `square_chain` uses mod 2^bits +- 1: "gmp" (libgmp) or "int".

    One size rule (`native.native_kernel`) serves the chains and `uv_mod`'s
    fast doubling mod 2^bits + 1, so this names the kernel of both.
    """
    return "int" if native_kernel(bits) is None else "gmp"


def square_chain(x: int, steps: int, c: int, m: int, sign: int) -> int:
    """Return x after `steps` rounds of x = x*x - c mod 2^m + sign, sign = +-1.

    The one loop behind every squaring-chain test here: the reduction is
    `fermat_mod` for sign = +1 and `mersenne_mod` for sign = -1, so no step
    divides.  `chain_kernel(m)` picks libgmp or this module's int loop; both
    return the same canonical residue.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    native = native_kernel(m)
    if native is not None:
        return native.square_chain(x, steps, c, m, sign)
    reduce = fermat_mod if sign > 0 else mersenne_mod
    for _ in range(steps):
        x = reduce(x * x - c, m)
    return x


def s_sequence(n: int, keep_trace: bool = False, seed: int = PROVEN_SEED) -> SSequenceTrace:
    """Run S_0 = seed, S_i = S_{i-1}^2 - 2 for 2^n - 2 steps mod F_n.

    Without `keep_trace` only the final residue is retained, so memory stays
    constant (one residue of 2^n bits) no matter how large n is.  Tracing is
    limited to n <= TRACE_INDEX_LIMIT.
    """
    if keep_trace and n > TRACE_INDEX_LIMIT:
        raise ValueError(f"tracing is limited to n <= {TRACE_INDEX_LIMIT}, got {n}")
    fermat = FermatNumber(n)
    e = 1 << n  # F_n = 2^e + 1
    s = seed % fermat.value
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
            f"seed {seed} has no correctness proof; pass experimental=True to run it anyway"
        )
    proven = seed == PROVEN_SEED
    final = s_sequence(n, seed=seed).final
    if final == 0:
        return Verdict("prime", "llt-fermat", proven=proven)
    return Verdict("composite", "llt-fermat", witness=final, proven=proven)


def pepin(n: int) -> Verdict:
    """Pepin's oracle: F_n is prime iff 3^((F_n-1)/2) == -1 (mod F_n).

    (F_n - 1)/2 = 2^(2^n - 1), so the power is 2^n - 1 squarings of 3 on
    the fold kernel; the tests check it against pow().
    """
    F = FermatNumber(n).value
    r = square_chain(3, (1 << n) - 1, 0, 1 << n, 1)
    if r == F - 1:
        return Verdict("prime", "pepin")
    return Verdict("composite", "pepin", witness=r)


def mersenne_llt(q: int) -> Verdict:
    """Classical squaring chain for M_q = 2^q - 1: seed 4, q - 2 steps."""
    if q < 3 or q % 2 == 0 or not is_prime(q):
        raise ValueError(f"exponent must be an odd prime, got {q}")
    s = square_chain(4, q - 2, 2, q, -1)
    if s == 0:
        return Verdict("prime", "llt-mersenne")
    return Verdict("composite", "llt-mersenne", witness=s)


def trial_division(N: int, bound: int | None = None) -> int | None:
    """Smallest prime factor of N that is <= bound, or None.

    The default bound is isqrt(N), which decides primality.  None only means
    no factor up to the bound; it is not a primality claim for other bounds.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if bound is None:
        bound = math.isqrt(N)
    for d in (2, 3):
        if d > bound:
            return None
        if N % d == 0:
            return d
    d = 5
    while d <= bound and d * d <= N:
        if N % d == 0:
            return d
        if N % (d + 2) == 0 and d + 2 <= bound:
            return d + 2
        d += 6
    if d * d > N and N <= bound:
        return N  # N itself is prime and within the bound
    return None


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; intended for small n."""
    if n < 2:
        return False
    return trial_division(n) is None


# Miller-Rabin on the first 13 prime bases is exact below MR_EXACT_BOUND
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BOUND = 3317044064679887385961981


def _factor_is_prime(q: int) -> bool:
    """Exact primality of a certificate factor without long trial division.

    Trial division below 2^32; deterministic Miller-Rabin on MR_BASES up to
    MR_EXACT_BOUND; a ValueError above, where no test here is proven exact.
    """
    if q < 1 << 32:
        return is_prime(q)
    if q >= MR_EXACT_BOUND:
        raise ValueError(f"factor {q} is not below {MR_EXACT_BOUND}; its primality cannot be proven here")
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s, d odd
    d = (q - 1) >> s
    for a in MR_BASES:
        x = pow(a, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _u_zeros(params: LucasParams, m: int, limit: int, first: bool = False) -> list[int]:
    """Indices 1 <= k <= limit with m | u_bar(k), stepping u_bar alone mod m.

    Two indices a turn (odd k, then k + 1) put R on the even-to-odd step with
    no parity branch: the zero test is the only one.  `first` stops at a zero.
    """
    R, Q = params.R % m, params.Q % m
    zeros = []
    u_prev, u = 0, 1  # u_bar(0), u_bar(1)
    for k in range(1, limit + 1, 2):
        if u == 0:
            zeros.append(k)
            if first:
                break
        u_prev, u = u, (u - Q * u_prev) % m
        if u == 0:
            zeros.append(k + 1)
            if first:
                break
        u_prev, u = u, (R * u - Q * u_prev) % m
    return zeros[:-1] if zeros and zeros[-1] > limit else zeros  # k + 1 overshot an odd limit


def rank_of_apparition(params: LucasParams, m: int, cap: int = RANK_SEARCH_CAP) -> RankResult:
    """Least k >= 1 with m | u_bar(k), searched index by index up to cap.

    Requires gcd(m, Q) = 1, which guarantees the rank exists (the cap is a
    resource bound, not a theory bound).  Stepping needs every index, so a
    first-order recurrence beats fast doubling here.  This and the
    `verify rank` divisibility sweep share one u-only loop, `_u_zeros`, which
    runs about 6x faster than taking whole pairs from `iter_pairs`.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if math.gcd(m, params.Q) != 1:
        raise ValueError(f"m = {m} shares a factor with Q = {params.Q}")
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    zeros = _u_zeros(params, m, cap, first=True)
    return RankResult(m, zeros[0] if zeros else None, cap)


def certify_via_rank(
    params: LucasParams, N: int, factors: tuple[int, ...] | None = None
) -> Verdict:
    """Primality certificate from the rank of apparition, N - 1 branch.

    N is prime if u_bar(N-1) == 0 and u_bar((N-1)/q) != 0 mod N for every
    distinct prime q | N - 1: the rank is then exactly N - 1, which forces
    primality.  `factors` lists those primes, each checked by trial division
    below 2^32 and by deterministic Miller-Rabin up to MR_EXACT_BOUND (a
    ValueError above); omitted, it is inferred only when N - 1 is a power of
    two (the Fermat case).

    A nonzero u_bar(N-1) refutes primality only when sigma*epsilon = +1
    (otherwise a prime N need not have rank dividing N - 1); failing that,
    or when some (N-1)/q check collapses, InconclusiveError is raised.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    if math.gcd(N, 2 * params.Q * params.R * params.D) != 1:
        raise ValueError(f"N = {N} shares a factor with 2*Q*R*D")
    if factors is None:
        if (N - 1) & (N - 2) == 0:  # N - 1 is a power of two
            factors = (2,)
        else:
            raise ValueError("N - 1 is not a power of two; supply its distinct prime factors")
    remaining = N - 1
    for q in set(factors):
        if q < 2 or (N - 1) % q != 0:
            raise ValueError(f"{q} is not a divisor of N - 1")
        if not _factor_is_prime(q):
            raise ValueError(f"{q} is not prime; the certificate needs the prime factors of N - 1")
        while remaining % q == 0:
            remaining //= q
    if remaining != 1:
        raise ValueError("supplied factors do not cover N - 1 completely")

    u_top = uv_mod(params, N - 1, N).u_bar
    if u_top != 0:
        if jacobi(params.R, N) * jacobi(params.D, N) == 1:
            return Verdict("composite", "rank-certificate", witness=u_top)
        raise InconclusiveError(
            f"u_bar(N-1) = {u_top} != 0 but sigma*epsilon != +1: no conclusion for N = {N}"
        )
    for q in sorted(set(factors)):
        if uv_mod(params, (N - 1) // q, N).u_bar == 0:
            raise InconclusiveError(
                f"u_bar((N-1)/{q}) == 0 mod {N}: rank is a proper divisor candidate, no conclusion"
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

    One `uv_mod` walk to h = (p-se)/2 serves all three indices.  From the pair
    (u, v) at h, a doubling step gives u' = u*v and v' = c*v^2 - 2*Q^h at the
    even index 2h = p-se, with c = R for odd h and 1 for even h.  One more step
    gives p: for se = +1 it is `uv_mod`'s +1 step, ((R*u' + v')/2,
    (D*u' + v')/2); for se = -1, 2Q*U_{k-1} = P*U_k - V_k and
    2Q*V_{k-1} = P*V_k - D*U_k give ((R*u' - v')/(2Q), (v' - D*u')/(2Q)).
    2Q is a unit mod p, as p is odd and does not divide Q.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    R, Q, D = params.R, params.Q, params.D
    if (Q * R * D) % p == 0:
        raise ValueError(f"p = {p} divides QRD")
    eps, sig, tau = jacobi(D, p), jacobi(R, p), jacobi(Q, p)
    se = sig * eps
    idx, half = p - se, (p - se) // 2
    _, u, v = uv_mod(params, half, p)
    u_idx = u * v % p
    v_idx = ((R if half % 2 else 1) * v * v - 2 * pow(Q, half, p)) % p
    if se == 1:
        u_p, v_p, inv = R * u_idx + v_idx, D * u_idx + v_idx, (p + 1) // 2
    else:
        u_p, v_p, inv = R * u_idx - v_idx, v_idx - D * u_idx, pow(2 * Q, -1, p)
    u_p, v_p = u_p * inv % p, v_p * inv % p
    v_expected = 2 * sig * Q ** ((1 - se) // 2)

    checks = [
        ResidueCheck("u_at_p", p, eps % p, u_p, (u_p - eps) % p == 0),
        ResidueCheck("v_at_p", p, sig % p, v_p, (v_p - sig) % p == 0),
        ResidueCheck("u_vanishes", idx, 0, u_idx, u_idx == 0),
        ResidueCheck("v_at_even_index", idx, v_expected % p, v_idx, (v_idx - v_expected) % p == 0),
    ]
    name, x = ("v_vanishes_at_half", v) if sig == -tau else ("u_vanishes_at_half", u)
    checks.append(ResidueCheck(name, half, 0, x, x == 0))
    return CongruenceReport(p, params, eps, sig, tau, tuple(checks))


# Observed residue pattern at the nine indices flanking F_n (offsets -5..+3),
# for the (7, 1) parameters.  Empirical for n in {2, 3, 4}; not a theorem.
FLANK_OFFSETS = tuple(range(-5, 4))
FLANK_U_RESIDUES = (5, 6, 1, 1, 0, -1, -1, -6, -5)
FLANK_V_RESIDUES = (-23, -4, -5, -1, -2, -1, -5, -4, -23)


def appendix_residues(params: LucasParams, n: int) -> tuple[ResidueCheck, ...]:
    """Check the 18 flanking congruences of the pair around F_n, n in {2,3,4}."""
    if (params.R, params.Q) != (7, 1):
        raise ValueError("the flanking pattern is stated only for parameters (7, 1)")
    if n not in (2, 3, 4):
        raise ValueError(f"the pattern is asserted only for n in {{2, 3, 4}}, got {n}")
    F = FermatNumber(n).value
    checks = []
    for off, eu, ev in zip(FLANK_OFFSETS, FLANK_U_RESIDUES, FLANK_V_RESIDUES):
        pair = uv_mod(params, F + off, F)
        checks.append(
            ResidueCheck(f"u_at_F{n}{off:+d}", F + off, eu % F, pair.u_bar,
                         (pair.u_bar - eu) % F == 0)
        )
        checks.append(
            ResidueCheck(f"v_at_F{n}{off:+d}", F + off, ev % F, pair.v_bar,
                         (pair.v_bar - ev) % F == 0)
        )
    return tuple(checks)
