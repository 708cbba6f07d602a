"""Lucas sequences for P = sqrt(R) and their integer Lehmer pairs.

U and V obey X_{n+1} = P*X_n - Q*X_{n-1} with U_0 = 0, U_1 = 1, V_0 = 2,
V_1 = P.  With P = sqrt(R) the raw terms live in Z[sqrt(R)] and alternate
between pure integers and pure sqrt(R)-multiples; dividing the radical
component out gives the always-integer pair

    u_bar(n) = U_n / sqrt(R)  if n even, else U_n
    v_bar(n) = V_n            if n even, else V_n / sqrt(R)

`iter_pairs` steps the pair's own integer recurrence, exactly or mod N,
and exact tables come from it; the ring iterator `iter_uv_exact` is the
independent reference for the parity structure and the sum identities.
Fast doubling (`uv_mod`) handles indices like 2^16384 mod N.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .native import native_kernel
from .quadratic import (
    ONE,
    SQRT,
    ZERO,
    QuadInt,
    fermat_form_exponent,
    fermat_mod,
    is_perfect_square,
    qadd,
    qmul,
    qscale,
    qsub,
)

# Exact values grow geometrically (~1.13 bits per index for R=7); the cap
# keeps exact mode comfortably in memory.  Modular mode has no cap.
EXACT_INDEX_CAP = 10_000


class _Params(NamedTuple):
    R: int
    Q: int

    @property
    def D(self) -> int:
        return self.R - 4 * self.Q


class LucasParams(_Params):
    """The pair (R, Q) defining a sequence; the discriminant is D = R - 4Q.

    `_make`, and through it `_replace`, validates like the constructor.
    """

    __slots__ = ()

    def __new__(cls, R: int, Q: int):
        if R <= 0 or is_perfect_square(R):
            raise ValueError(f"R must be a positive non-square, got {R}")
        if Q == 0:
            raise ValueError("Q must be nonzero")
        if math.gcd(R, Q) != 1:
            raise ValueError(f"R and Q must be coprime, got ({R}, {Q})")
        if R - 4 * Q == 0:
            raise ValueError("discriminant R - 4Q must be nonzero")
        return super().__new__(cls, R, Q)

    @classmethod
    def _make(cls, iterable) -> LucasParams:
        return cls(*iterable)


#: Parameters whose V-sequence at indices 2^(k+1) is the seed-5 squaring chain.
STANDARD_PARAMS = LucasParams(7, 1)
#: The companion parameter choice; related to the standard one by a parity swap.
ALTERNATE_PARAMS = LucasParams(3, -1)


class LehmerPair(NamedTuple):
    """The normalized integer pair (u_bar, v_bar) at one index.

    A tuple, so cheap to build in the stepping loops; it compares equal to a
    plain tuple with the same values.
    """

    index: int
    u_bar: int
    v_bar: int


def _check_exact_index(max_index: int) -> None:
    if max_index < 0:
        raise ValueError(f"index must be >= 0, got {max_index}")
    if max_index > EXACT_INDEX_CAP:
        raise ValueError(f"exact evaluation is capped at index {EXACT_INDEX_CAP}, got {max_index}")


def iter_uv_exact(params: LucasParams, max_index: int) -> Iterator[tuple[int, QuadInt, QuadInt]]:
    """Yield (n, U_n, V_n) as ring elements for n = 0..max_index.

    The one place the ring recurrence X_{n+1} = sqrt(R)*X_n - Q*X_{n-1} is
    stepped; max_index is capped at EXACT_INDEX_CAP.
    """
    _check_exact_index(max_index)
    R, Q = params.R, params.Q
    u, v = ZERO, QuadInt(2, 0)
    u1, v1 = ONE, SQRT
    for n in range(max_index + 1):
        yield n, u, v
        u, u1 = u1, qsub(qmul(R, SQRT, u1), qscale(Q, u))
        v, v1 = v1, qsub(qmul(R, SQRT, v1), qscale(Q, v))


def lehmer_pairs_exact(params: LucasParams, max_index: int) -> list[LehmerPair]:
    """Exact pairs for indices 0..max_index, stepped by `iter_pairs`."""
    _check_exact_index(max_index)
    return list(islice(iter_pairs(params), max_index + 1))


def iter_pairs(params: LucasParams, modulus: int | None = None) -> Iterator[LehmerPair]:
    """Yield the normalized pair at 0, 1, 2, ... by first-order stepping.

    The radical never appears: stepping k -> k+1 multiplies by R on the side
    the parity of k dictates,

        u_bar(k+1) = (R if k even else 1) * u_bar(k) - Q * u_bar(k-1)
        v_bar(k+1) = (1 if k even else R) * v_bar(k) - Q * v_bar(k-1)

    Works for any modulus >= 2 (or exactly when modulus is None), two
    multiplications per step.
    """
    R, Q = params.R, params.Q
    up, vp = 0, 2  # index 0
    u, v = 1, 1    # index 1
    if modulus is not None:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {modulus}")
        R, Q, vp = R % modulus, Q % modulus, vp % modulus  # 0 and 1 are already reduced
    yield LehmerPair(0, up, vp)
    k = 1
    while True:
        yield LehmerPair(k, u, v)
        if k % 2 == 0:
            un, vn = R * u - Q * up, v - Q * vp
        else:
            un, vn = u - Q * up, R * v - Q * vp
        if modulus is not None:
            un %= modulus
            vn %= modulus
        up, vp, u, v = u, v, un, vn
        k += 1


def uv_mod(params: LucasParams, n: int, N: int) -> LehmerPair:
    """(u_bar(n), v_bar(n)) mod N by binary fast doubling.

    N must be odd (halving is a shift of x or x + N) and coprime to Q.  The
    doubling step is u(2k) = u(k)*v(k) and v(2k) = c*v(k)^2 - 2*Q^k with
    c = R for odd k, 1 for even k; the +1 step halves (R*u + v, D*u + v).

    For N = 2^m + 1 and Q = +-1 the ladder runs on libgmp under the size rule
    `square_chain` uses (`native.native_kernel(m)`, reported by
    `primality.chain_kernel`); every other modulus and Q, and every modulus
    when libgmp does not load, takes the int loop here, which is also the
    tests' oracle for the ladder.  Both return the same canonical residues.
    """
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {N}")
    if math.gcd(N, params.Q) != 1:
        raise ValueError(f"modulus {N} shares a factor with Q = {params.Q}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    R, Q, D = params.R, params.Q, params.D
    unit_q = abs(Q) == 1  # Q^k is just a sign; skip the modular bookkeeping
    m = fermat_form_exponent(N)
    native = native_kernel(m) if m is not None and unit_q else None
    if native is not None:
        return LehmerPair(n, *native.uv_ladder(R, Q, n, m))
    red = N.__rmod__ if m is None else partial(fermat_mod, m=m)
    if n == 0:
        return LehmerPair(0, 0, red(2))
    u, v = red(1), red(1)
    k_odd = True
    qk = Q if unit_q else red(Q)
    for bit in bin(n)[3:]:
        u, v = red(u * v), red((R * v * v if k_odd else v * v) - 2 * qk)
        qk = 1 if unit_q else red(qk * qk)
        k_odd = False
        if bit == "1":
            u, v = red(R * u + v), red(D * u + v)
            u = (u + N if u & 1 else u) >> 1
            v = (v + N if v & 1 else v) >> 1
            qk = qk * Q if unit_q else red(qk * Q)
            k_odd = True
    return LehmerPair(n, u, v)


def s_from_v(params: LucasParams, k: int, N: int) -> int:
    """v_bar at index 2^(k+1) mod odd N: term k of the seed-5 squaring chain.

    Requires the standard (7, 1) parameters; evaluated by fast doubling.
    """
    if (params.R, params.Q) != (7, 1):
        raise ValueError("the squaring-chain bridge holds only for parameters (7, 1)")
    if k < 0:
        raise ValueError(f"chain index must be >= 0, got {k}")
    return uv_mod(params, 1 << (k + 1), N).v_bar


def sum_identity_holds(
    params: LucasParams, m: int, Un: QuadInt, Vn: QuadInt, Xmn: QuadInt, odd_side: bool
) -> bool:
    """The sum identity for U_{mn} (odd_side) or V_{mn}, given ring values.

    Un, Vn are U_n, V_n and Xmn is U_{mn} or V_{mn}; a caller holding one
    exact table checks every (m, n) without re-stepping the recurrence.
    """
    R = params.R
    u_pows, v_pows = [ONE], [ONE]  # U_n^k and V_n^k for k = 0..m
    for _ in range(m):
        u_pows.append(qmul(R, u_pows[-1], Un))
        v_pows.append(qmul(R, v_pows[-1], Vn))
    total = ZERO
    for i in range(m // 2 + 1):
        k = 2 * i + 1 if odd_side else 2 * i
        c = math.comb(m, k)
        if c == 0:
            continue  # C(m, m+1) term: present in the formal sum, zero here
        term = qmul(R, u_pows[k], v_pows[m - k])
        total = qadd(total, qscale(c * params.D**i, term))
    return qscale(1 << (m - 1), Xmn) == total


def alternate_params_pair(n: int, pairs: Sequence[LehmerPair]) -> LehmerPair:
    """Pair at index n for the (3, -1) parameters, built from (7, 1) pairs.

    Even indices carry over unchanged; odd indices swap u_bar and v_bar.
    `pairs` is indexed by index, as `lehmer_pairs_exact` returns it, and must
    reach index n.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    if n >= len(pairs) or pairs[n].index != n:
        raise ValueError(f"no pair with index {n} at position {n}")
    p = pairs[n]
    if n % 2:
        return LehmerPair(n, p.v_bar, p.u_bar)
    return p
