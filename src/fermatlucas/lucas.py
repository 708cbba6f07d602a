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
from itertools import islice
from typing import Iterator, NamedTuple, Sequence

from .native import uv_ladder
from .quadratic import (
    ONE,
    SQRT,
    ZERO,
    QuadInt,
    _int_text,
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
            raise ValueError(f"R must be a positive non-square, got {_int_text(R)}")
        if Q == 0:
            raise ValueError("Q must be nonzero")
        # This also keeps D = R - 4Q nonzero: R = 4Q with gcd(R, Q) = 1 forces
        # Q = +-1, and R = 4 is a square, R = -4 not positive.
        if math.gcd(R, Q) != 1:
            raise ValueError(f"R and Q must be coprime, got ({_int_text(R)}, {_int_text(Q)})")
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

    def __repr__(self) -> str:  # also `Verdict`'s and `SSequenceTrace`'s: their ints can be residues mod F_14
        return f"{type(self).__name__}({', '.join(f'{n}={_int_text(x)}' for n, x in zip(self._fields, self))})"


def _check_exact_index(max_index: int) -> None:
    if max_index < 0:
        raise ValueError(f"index must be >= 0, got {_int_text(max_index)}")
    if max_index > EXACT_INDEX_CAP:
        raise ValueError(f"exact evaluation is capped at index {EXACT_INDEX_CAP}, got {_int_text(max_index)}")


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


def iter_pairs(params: LucasParams, modulus: int | None = None, one=1) -> Iterator[LehmerPair]:
    """Yield the normalized pair at 0, 1, 2, ... by first-order stepping.

    The radical never appears: stepping k -> k+1 multiplies by R on the side
    the parity of k dictates,

        u_bar(k+1) = (R if k even else 1) * u_bar(k) - Q * u_bar(k-1)
        v_bar(k+1) = (1 if k even else R) * v_bar(k) - Q * v_bar(k-1)

    Works for any modulus >= 2 (or exactly when modulus is None), two
    multiplications per step.  Exact pairs take the number type of `one`: ints,
    or from `Decimal(1)` decimals (exact under a context that cannot round).
    """
    R, Q = params.R * one, params.Q * one
    up, vp = 0 * one, 2 * one  # index 0
    u, v = one, one            # index 1
    if modulus is not None:
        if modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {_int_text(modulus)}")
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


def _check_modulus(params: LucasParams, N: int) -> None:
    """Refuse a modulus `uv_mod` cannot take: even, below 3, or sharing a factor with Q."""
    if N < 3 or N % 2 == 0:
        raise ValueError(f"modulus must be an odd integer >= 3, got {_int_text(N)}")
    if math.gcd(N, params.Q) != 1:
        raise ValueError(f"modulus {_int_text(N)} shares a factor with Q = {_int_text(params.Q)}")


def uv_mod(params: LucasParams, n: int, N: int) -> LehmerPair:
    """(u_bar(n), v_bar(n)) mod N by binary fast doubling.

    N must be odd (halving is a shift of x or x + N) and coprime to Q.  From
    index 0, doubling takes u(2k) = u(k)*v(k) and v(2k) = c*v(k)^2 - 2*Q^k,
    c = R for odd k and 1 for even k, and a +1 step halves (R*u + v, D*u + v).
    `native.uv_ladder` picks the kernel, libgmp or the int loop.
    """
    _check_modulus(params, N)
    if n < 0:
        raise ValueError(f"index must be >= 0, got {_int_text(n)}")
    return LehmerPair(n, *uv_ladder(params, n, N))


def s_from_v(k: int, N: int) -> int:
    """v_bar at index 2^(k+1) mod odd N: term k of the seed-5 squaring chain.

    For the standard (7, 1) parameters, the only ones the chain rides;
    evaluated by fast doubling.
    """
    if k < 0:
        raise ValueError(f"chain index must be >= 0, got {_int_text(k)}")
    return uv_mod(STANDARD_PARAMS, 1 << (k + 1), N).v_bar


def _sum_identity_step(
    params: LucasParams, u: QuadInt, v: QuadInt, Un: QuadInt, Vn: QuadInt
) -> tuple[QuadInt, QuadInt]:
    """(v + u sqrt(D)) * (V_n + U_n sqrt(D)) over Z[sqrt(R)], as its sqrt(D) and rational parts.

    From (u, v) = (0, 1), m steps give (V_n + U_n sqrt(D))^m, whose parts are the binomial sums
    over odd and even k of C(m, k) D^(k//2) U_n^k V_n^(m-k): 2^(m-1) U_{mn} and 2^(m-1) V_{mn}.
    """
    R = params.R
    return qadd(qmul(R, v, Un), qmul(R, u, Vn)), qadd(qmul(R, v, Vn), qscale(params.D, qmul(R, u, Un)))


def sum_identity_holds(
    params: LucasParams, m: int, Un: QuadInt, Vn: QuadInt, Xmn: QuadInt, odd_side: bool
) -> bool:
    """The sum identity for U_{mn} (odd_side) or V_{mn}, given ring values.

    Un, Vn are U_n, V_n and Xmn is U_{mn} or V_{mn}; a caller holding one
    exact table checks every (m, n) without re-stepping the recurrence.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {_int_text(m)}")
    u_side, v_side = ZERO, ONE
    for _ in range(m):
        u_side, v_side = _sum_identity_step(params, u_side, v_side, Un, Vn)
    return qscale(1 << (m - 1), Xmn) == (u_side if odd_side else v_side)


def alternate_params_pair(n: int, pairs: Sequence[LehmerPair]) -> LehmerPair:
    """Pair at index n for the (3, -1) parameters, built from (7, 1) pairs.

    Even indices carry over unchanged; odd indices swap u_bar and v_bar.
    `pairs` is indexed by index, as `lehmer_pairs_exact` returns it, and must
    reach index n.
    """
    if n < 0:
        raise ValueError(f"index must be >= 0, got {_int_text(n)}")
    if n >= len(pairs) or pairs[n].index != n:
        raise ValueError(f"no pair with index {_int_text(n)} at position {_int_text(n)}")
    p = pairs[n]
    if n % 2:
        return LehmerPair(n, p.v_bar, p.u_bar)
    return p
