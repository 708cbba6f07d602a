"""Squaring chains and Lucas fast doubling mod 2^m +- 1 on the system's libgmp, via ctypes.

GMP multiplies residues of a thousand bits or more faster than CPython's
Karatsuba.  The kernel runs on GMP's documented low-level `mpn` functions
over arrays of 64-bit limbs, least significant first, for the two moduli
the paper uses (`native.takes`).  A chain step is two foreign calls, one
`mpn_sqr` and one fold: an `mpn_sub_n` mod 2^m + 1 with 64 | m (every F_n
it tests), or an `mpn_addmul_1` mod 2^m - 1 with 64 not dividing m (the
Mersenne oracle, m prime).  Both folds are shift-and-folds, as in
`quadratic.fermat_mod` and `quadratic.mersenne_mod`, so no step divides;
built to one contract (`_Ring`), each runs a chain's steps itself and
leaves the same canonical residues.  Carries and borrows that stop in the
low limbs are settled in Python, and each fold has one fallback to Python
ints for the rest.  Each limb operand is passed as the ctypes array that
holds it, a high half as a view of it (`_Ring.view`); sizes are c_long,
limbs c_uint64 and shift counts c_uint.

libgmp is opened only by its ELF soname, `libgmp.so.10`, the library the
tests compare against the int route; a system without it runs on Python
ints.  It is loaded with `ctypes.PyDLL`, so its calls keep the GIL: each
takes microseconds, and the program runs one thread.

Importing this module loads no library: libgmp is loaded by the first call
to `load()`.  `native.native_kernel` imports this module, and with it
ctypes, only for moduli large enough to gain.
"""

from __future__ import annotations

import ctypes
import functools

from .native import LIMB_BITS, takes
from .quadratic import _int_text

MAX_LIMB = (1 << LIMB_BITS) - 1


@functools.cache
def load() -> GmpKernel | None:
    """The libgmp chain kernel, or None if `libgmp.so.10` does not load or is not usable.

    A libgmp whose limbs are not 64 bits wide, or that lacks a symbol used
    here, is not usable.  The outcome is cached for the life of the process.
    """
    try:
        # The ELF soname; Debian and Ubuntu install it with coreutils.
        lib = ctypes.PyDLL("libgmp.so.10")
    except OSError:
        return None
    try:
        limb_bits = ctypes.cast(lib["__gmp_bits_per_limb"], ctypes.POINTER(ctypes.c_int))[0]
        return GmpKernel(lib) if limb_bits == LIMB_BITS else None
    except AttributeError:  # a library without the symbols used here
        return None


class GmpKernel:
    """Squaring chains and the Lucas doubling ladder on the mpn functions of one libgmp.

    Both run on one core.  A `_Ring` per computation builds its limb arrays
    and its folds.
    """

    def __init__(self, lib):
        # Every argument is a ctypes instance built once per computation
        # (arrays, c_long sizes as mp_size_t, c_uint64 limbs, c_uint shift
        # counts), so the functions have a restype and no argtypes: ctypes
        # passes each as it is, an array by its address.  With the GIL kept
        # too, a one-limb mpn_sub_n or mpn_add_n call takes about 245 ns,
        # against 292-297 ns with c_void_p addresses (best of 15 timeit
        # batches of 20,000, 2-vCPU VM, Python 3.11.7) and more with argtypes.
        def bind(name, restype=ctypes.c_uint64):
            fn = lib["__gmpn_" + name]
            fn.restype = restype
            return fn

        self._sqr = bind("sqr", None)
        self._mul_n = bind("mul_n", None)
        self._mul = bind("mul")
        self._add = bind("add")
        self._add_n = bind("add_n")
        self._sub_n = bind("sub_n")
        self._rshift = bind("rshift")
        self._addmul_1 = bind("addmul_1")

    def square_chain(self, x: int, steps: int, c: int, m: int, sign: int) -> int:
        """x after `steps` rounds of x <- x^2 - c mod N = 2^m + sign, sign = +-1.

        Returns the canonical residue `fermat_mod` (0..2^m) or `mersenne_mod`
        (0..N-1) returns; with steps <= 0, x itself, as the int loop does.
        The folds settle any c.  ValueError unless `takes(m, sign)`; the
        caller keeps m within what libgmp can allocate.
        """
        ring = _Ring(self, m, sign)
        if steps <= 0:
            return x
        x = ring.array(2 * ring.ml, x % ring.N)
        (ring.folder if sign > 0 else ring.mersenne_folder)(x, ring.array(2 * ring.ml), c, square=True)(steps)
        return ring.get(x)

    def uv_ladder(self, params, n: int, m: int) -> tuple[int, int]:
        """(u_bar(n), v_bar(n)) mod N = 2^m + 1 for `params` (R, Q), Q = +-1, n >= 0.

        The binary fast doubling of `lucas.uv_mod` over every bit of n from
        index 0, (u, v) = (0, 2), folded after every product: from index k,
        u <- u*v and v <- c*v^2 - 2*Q^k with c = R for odd k, 1 for even k;
        a 1 bit then halves (R*u + v, D*u + v), D = `params.D`, by a shift.  R
        and D are held reduced mod N, so every product and sum stays inside
        the fold's bound, and one `mpn_mul` multiplies by either whatever its
        size.  Returns canonical residues, or ValueError unless `takes(m, 1)`;
        the caller keeps m within what libgmp can allocate.
        """
        ring = _Ring(self, m, 1)
        if (Q := params.Q) not in (1, -1) or n < 0:
            raise ValueError(f"need Q = +-1 and n >= 0, got Q = {_int_text(Q)}, n = {_int_text(n)}")
        N, ml, pl = ring.N, ring.ml, ring.pl
        R, D = params.R % N, params.D % N
        u, v, n_limbs = (ring.array(pl, value) for value in (0, 2, N))
        r, d = ring.constant(R), ring.constant(D)
        # u*v (over all pl limbs, so 2^m = -1 needs no case of its own) and
        # v^2 go to z; R*v and R*u + v to w, D*u + v to y, whose limbs above
        # what their products write stay zero.
        z = ring.array(2 * pl)
        w = ring.array(max(2 * ml, pl + len(r)))
        y = ring.array(max(2 * ml, pl + len(d)))
        npl, nrl, ndl, nwl, nyl = map(ctypes.c_long, (pl, len(r), len(d), pl + len(r), pl + len(d)))
        one = ctypes.c_uint(1)
        fold_uv = ring.folder(u, z)
        square_v, square_v2 = ring.folder(v, z, square=True), ring.folder(v, z, 2, square=True)
        fold_rv, fold_ru, fold_du = ring.folder(v, w, 2 * Q), ring.folder(u, w), ring.folder(v, y)
        mul_n, mul, add = self._mul_n, self._mul, self._add
        add_n, rshift = self._add_n, self._rshift
        k_odd = False
        for bit in bin(n)[2:]:
            mul_n(z, u, v, npl)
            fold_uv()
            if k_odd:  # Q^k = Q; R*v^2 needs the square folded first
                square_v()
                mul(w, v, npl, r, nrl)
                fold_rv()
            else:
                square_v2()
            k_odd = bit == "1"
            if k_odd:  # (R*u + v, D*u + v) / 2; both sums are taken before either fold
                mul(w, u, npl, r, nrl)
                add(w, w, nwl, v, npl)
                mul(y, u, npl, d, ndl)
                add(y, y, nyl, v, npl)
                fold_ru()
                fold_du()
                for x in (u, v):  # x/2 mod N: x >> 1, or (x + N) >> 1 for odd x
                    if x[0] & 1:  # x + N <= 2^(m+1) + 1 fits in the pl = m/64 + 1 limbs
                        add_n(x, x, n_limbs, npl)
                    rshift(x, x, npl, one)
        return ring.get(u), ring.get(v)


class _Ring:
    """Residues mod N = 2^m + sign in arrays of 64-bit limbs, for the moduli `takes` names.

    `folder` (2^m + 1) and `mersenne_folder` (2^m - 1) build the folds to one
    contract: from (dst, src, c=0, square=False), fold(steps=1) takes z - c
    mod N for the z in src `steps` times, with `square` each time first
    squaring the last residue, and leaves the canonical residue in dst.  A
    chain of either sign is one fold(steps) on a register of 2*ml limbs.

    Mod 2^m + 1, a residue array has pl = ml + 1 limbs or more, ml = m/64,
    and the operands of a product are its low ml limbs.  That leaves out one
    residue, 2^m (-1): it is stored in limb ml, set to 1 and the rest 0.  A
    chain's fold steps it itself, and a product that may meet it multiplies
    all pl limbs.  Mod 2^m - 1, L = ml = ceil(m / 64) limbs hold a residue.

    Both folds split z = hi*2^k + lo, 0 <= lo < 2^k, and take z == lo -
    sign*hi*2^(k-m), as 2^m == -sign; k is m for 2^m + 1, and 64L for
    2^m - 1.  What the fold adds or takes off the low limbs (a carry or
    borrow it returns, and -c) is settled in Python while it stays inside
    them.  Otherwise each fold has one fallback, which stores (z - c) % N
    from Python ints: for low limbs below c (as 0 and 1 give with c = 2),
    mod 2^m + 1 for |c| >= 2^64, mod 2^m - 1 with a single limb, and
    otherwise rarely (about once in 2^64 folds; `folder` and
    `mersenne_folder` say when).
    """

    def __init__(self, kernel: GmpKernel, m: int, sign: int):
        if not takes(m, sign):
            raise ValueError(f"libgmp does not take 2^m + sign for m = {_int_text(m)}, sign = {_int_text(sign)}")
        self.kernel = kernel
        self.N = (1 << m) + sign
        self.ml = -(-m // LIMB_BITS)
        self.t = LIMB_BITS * self.ml - m  # the bits above 2^m in the top limb, 0 for 2^m + 1
        self.pl = self.ml + 1

    def array(self, limbs: int, value: int = 0):
        """A fresh array of `limbs` limbs holding 0 <= value < 2^(64 * limbs)."""
        a = (ctypes.c_uint64 * limbs)()
        if value:
            self.put(a, value)
        return a

    def constant(self, value: int):
        """A fresh array of as few limbs as hold value >= 0, and at least one."""
        return self.array(max(1, -(-value.bit_length() // LIMB_BITS)), value)

    def view(self, a, k: int):
        """Limbs k.. of the array a, as an array on a's memory that keeps a alive."""
        return (ctypes.c_uint64 * (len(a) - k)).from_buffer(a, 8 * k)

    def get(self, a, limbs: int | None = None) -> int:
        """The value of the first `limbs` limbs of a (all of them by default)."""
        data = bytes(a)
        return int.from_bytes(data if limbs is None else data[:8 * limbs], "little")

    def put(self, a, value: int) -> None:
        """Store 0 <= value < 2^(64 * len(a)) in a."""
        data = value.to_bytes(8 * len(a), "little")
        ctypes.memmove(a, data, len(data))

    def folder(self, dst, src, c: int = 0, square: bool = False):
        """fold(steps=1) mod 2^m + 1: `steps` times, dst <- (z - c) mod N for the z in src.

        src has at least 2*ml limbs, and the fold overwrites it.  With
        `square`, each time first squares dst into src, so fold(k) is k steps
        of a chain.  The fold needs z in [0, 2^m * N], and returns a
        canonical residue.  While hi = z >> m < 2^m, `mpn_sub_n` over the ml
        limbs leaves dst = lo - hi + b*2^m with borrow b, and as 2^m == -1,
        dst + b - c is the residue, in [0, 2^m) when b - c neither carries
        nor borrows out of limb 0.  Two cases are folded on Python ints:
        - 2^m (-1), outside the limbs squared: its square is 1;
        - whatever the limbs cannot settle, that carry or borrow, or hi >=
          2^m (limb 2m/64 set, which only the top of the bound reaches):
          dst <- (z - c) % N, read from src.
        """
        ml, N, nml = self.ml, self.N, ctypes.c_long(self.ml)
        get, put, hi = self.get, self.put, self.view(src, ml)
        sqr, sub_n = self.kernel._sqr, self.kernel._sub_n
        zl = 2 * ml if square else len(src)  # a square writes 2*ml limbs; src's others may be stale
        hi_top = 2 * ml if zl > 2 * ml else 0  # limb 2m/64, set only when hi >= 2^m

        def fold(steps=1):
            while steps:  # cheaper than range() for the ladder's single folds
                steps -= 1
                if square:
                    if dst[ml]:  # 2^m = -1
                        put(dst, (1 - c) % N)
                        continue
                    sqr(src, dst, nml)
                else:
                    dst[ml] = 0
                delta = sub_n(dst, src, hi, nml) - c
                if delta or hi_top:  # at delta 0, only a product at the top needs a test
                    low = dst[0] + delta
                    if 0 <= low <= MAX_LIMB and not (hi_top and src[hi_top]):
                        dst[0] = low
                    else:
                        put(dst, (get(src, zl) - c) % N)

        return fold

    def mersenne_folder(self, dst, src, c: int = 0, square: bool = False):
        """fold(steps=1) mod 2^m - 1, to `folder`'s contract, on dst and src of 2L limbs, L = ml.

        A fold takes any z in [0, 2^(128L)) to a value in [0, 2^(64L)) in the
        low L limbs of its own array, whose high L limbs are scratch; a square
        step squares the other array into it, so a chain alternates between
        src and dst.  A call ends with dst <- z % N.  2^(64L) == 2^t with t =
        64L - m, so z == lo + hi*2^t, and one `mpn_addmul_1` adds hi*2^t onto
        lo.  The carry cy it returns is another cy*2^(64L) == cy*2^t, and cy
        <= 2^t, so cy*2^t - c is below 2^126 for |c| < 2^64, and is settled
        on the two low limbs.  They carry out in about 1 fold of 3*2^(128 -
        2t) (1 in 12 at t = 63), and limb 2 takes that carry or a borrow; the
        fold finishes on Python ints only when limb 2 passes it on, about once
        in 2^64, or when L <= 2.
        """
        ml, t, N = self.ml, self.t, self.N
        addmul_1, sqr, get, put = self.kernel._addmul_1, self.kernel._sqr, self.get, self.put
        nml, scale = ctypes.c_long(ml), ctypes.c_uint64(1 << t)
        low_end = 1 << 2 * LIMB_BITS if ml > 1 else 0  # one limb: every delta goes to Python ints
        # Each fold works on (z, hi); a square step first swaps it with (w, w_hi), and squares w into z.
        start = [(a, self.view(a, ml)) for a in ((dst, src) if square else (src, dst))]

        def fold(steps=1):
            (z, hi), (w, w_hi) = start
            for _ in range(steps):
                if square:
                    z, hi, w, w_hi = w, w_hi, z, hi
                    sqr(z, w, nml)
                delta = (addmul_1(z, hi, nml, scale) << t) - c
                low = z[0] + (z[1] << LIMB_BITS) + delta
                if 0 <= low < low_end:
                    z[0] = low & MAX_LIMB
                    z[1] = low >> LIMB_BITS
                elif ml > 2 and 0 <= (top := z[2] + (low >> 2 * LIMB_BITS)) <= MAX_LIMB:
                    z[0], z[1], z[2] = low & MAX_LIMB, (low >> LIMB_BITS) & MAX_LIMB, top
                else:
                    put(z, (get(z, ml) + delta) % N)
            put(dst, get(z, ml) % N)

        return fold
