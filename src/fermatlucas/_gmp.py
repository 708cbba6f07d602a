"""Squaring chains and Lucas fast doubling mod 2^m +- 1 on the system's libgmp, via ctypes.

GMP multiplies residues of a thousand bits or more faster than CPython's
Karatsuba.  The kernel runs on GMP's documented low-level `mpn` functions
over arrays of 64-bit limbs, least significant first, for the two moduli
the paper uses (`takes`).  A chain step is two foreign calls, one
`mpn_sqr` and one fold: an `mpn_sub_n` mod 2^m + 1 with 64 | m (every F_n
it tests), or an `mpn_addmul_1` mod 2^m - 1 with 64 not dividing m (the
Mersenne oracle, m prime).  Both folds are shift-and-folds, as in
`quadratic.fermat_mod` and `quadratic.mersenne_mod`, so no step divides,
and the results are the same canonical residues.  Carries and borrows
that stop in the low limbs are settled in Python.

libgmp is loaded with `ctypes.PyDLL`, so its calls keep the GIL: each
takes microseconds, and the program runs one thread.

Importing this module loads nothing: ctypes and libgmp are loaded by the
first call to `load()`, and `native.native_kernel` calls it only for moduli
large enough to gain.
"""

from __future__ import annotations

import functools

LIMB_BITS = 64
MAX_LIMB = (1 << LIMB_BITS) - 1


def takes(m: int, sign: int) -> bool:
    """Whether the kernel takes 2^m + sign: 2^m + 1 with 64 | m, or 2^m - 1 with 64 not dividing m."""
    return m >= 1 and sign == (1 if m % LIMB_BITS == 0 else -1)


@functools.cache
def load() -> GmpKernel | None:
    """The libgmp chain kernel, or None if no usable libgmp loads.

    A libgmp whose limbs are not 64 bits wide is not usable.  The outcome is
    cached for the life of the process.
    """
    import ctypes

    try:
        # The ELF soname; Debian and Ubuntu install it with coreutils.
        lib = ctypes.PyDLL("libgmp.so.10")
    except OSError:
        import ctypes.util  # find_library may start subprocesses

        name = ctypes.util.find_library("gmp")
        if name is None:
            return None
        try:
            lib = ctypes.PyDLL(name)
        except OSError:
            return None
    try:
        limb_bits = ctypes.cast(lib["__gmp_bits_per_limb"], ctypes.POINTER(ctypes.c_int))[0]
        return GmpKernel(ctypes, lib) if limb_bits == LIMB_BITS else None
    except AttributeError:  # a library without the symbols used here
        return None


class GmpKernel:
    """Squaring chains and the Lucas doubling ladder on the mpn functions of one libgmp.

    Both run on one core.  A `_Ring` per computation holds its limb arrays
    and builds its folds.
    """

    def __init__(self, ctypes, lib):
        # Every argument is a ctypes instance built once per computation
        # (pointers c_void_p, sizes c_long as mp_size_t, limbs c_uint64), so
        # the functions have a restype and no argtypes: ctypes passes each
        # argument as it is, with no conversion.  With the GIL kept too, a
        # call costs about 0.37 us against 0.47 us with argtypes on CDLL
        # (timeit on a one-limb mpn_add_n, 2-vCPU VM, Python 3.11).
        def bind(name, restype=ctypes.c_uint64):
            fn = lib["__gmpn_" + name]
            fn.restype = restype
            return fn

        self._ctypes = ctypes
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
        ValueError unless `takes(m, sign)`; the caller keeps m within what
        libgmp can allocate.
        """
        ring = _Ring(self, m, sign)
        if steps <= 0:
            return x
        N = ring.N
        c %= N
        if c > N >> 1:  # the fold takes c off the low limbs, so keep it small either way
            c -= N
        if sign < 0:  # each step squares one array into the other and folds it there
            sqr, nml = self._sqr, ring.size(ring.ml)
            a, b = ring.array(2 * ring.ml, x % N), ring.array(2 * ring.ml)
            pa, pb = ring.ptr(a), ring.ptr(b)
            fold_a, fold_b = ring.mersenne_folder(a, c), ring.mersenne_folder(b, c)
            for _ in range(steps >> 1):
                sqr(pb, pa, nml)
                fold_b()
                sqr(pa, pb, nml)
                fold_a()
            if steps & 1:
                sqr(pb, pa, nml)
                fold_b()
                a = b
            return ring.get(a, ring.ml) % N
        x = ring.array(ring.pl, x % N)
        ring.folder(x, ring.array(2 * ring.ml), c, square=True)(steps)
        return ring.get(x)

    def uv_ladder(self, R: int, Q: int, n: int, m: int) -> tuple[int, int]:
        """(u_bar(n), v_bar(n)) mod N = 2^m + 1 for the parameters (R, Q), Q = +-1.

        The binary fast doubling of `lucas.uv_mod`, folded after every
        product: from index k, u <- u*v and v <- c*v^2 - 2*Q^k with c = R
        for odd k, 1 for even k; a 1 bit then halves (R*u + v, D*u + v),
        D = R - 4Q, by a shift.  R and D are held reduced mod N, so every
        product and sum stays inside the fold's bound, and one `mpn_mul`
        multiplies by either whatever its size.  Returns canonical residues,
        or ValueError unless `takes(m, 1)`; the caller keeps m within what
        libgmp can allocate.
        """
        ring = _Ring(self, m, 1)
        if Q not in (1, -1) or n < 0:
            raise ValueError(f"need Q = +-1 and n >= 0, got Q = {Q}, n = {n}")
        if n == 0:
            return 0, 2  # N >= 3
        N, ml, pl = ring.N, ring.ml, ring.pl
        R, D = R % N, (R - 4 * Q) % N
        u, v, n_limbs = (ring.array(pl, value) for value in (1, 1, N))
        r, d = ring.constant(R), ring.constant(D)
        # u*v (over all pl limbs, so 2^m = -1 needs no case of its own) and
        # v^2 go to z; R*v and R*u + v to w, D*u + v to y, whose limbs above
        # what their products write stay zero.
        z = ring.array(2 * pl)
        w = ring.array(max(2 * ml, pl + len(r)))
        y = ring.array(max(2 * ml, pl + len(d)))
        pu, pv, pr, pd, pn, pz, pw, py = map(ring.ptr, (u, v, r, d, n_limbs, z, w, y))
        npl, nrl, ndl, nwl, nyl = map(ring.size, (pl, len(r), len(d), pl + len(r), pl + len(d)))
        one = self._ctypes.c_uint(1)
        fold_uv = ring.folder(u, z)
        square_v, square_v2 = ring.folder(v, z, square=True), ring.folder(v, z, 2, square=True)
        fold_rv, fold_ru, fold_du = ring.folder(v, w, 2 * Q), ring.folder(u, w), ring.folder(v, y)
        mul_n, mul, add = self._mul_n, self._mul, self._add
        add_n, rshift = self._add_n, self._rshift
        k_odd = True
        for bit in bin(n)[3:]:
            mul_n(pz, pu, pv, npl)
            fold_uv()
            if k_odd:  # Q^k = Q; R*v^2 needs the square folded first
                square_v()
                mul(pw, pv, npl, pr, nrl)
                fold_rv()
            else:
                square_v2()
            k_odd = bit == "1"
            if k_odd:  # (R*u + v, D*u + v) / 2; both sums are taken before either fold
                mul(pw, pu, npl, pr, nrl)
                add(pw, pw, nwl, pv, npl)
                mul(py, pu, npl, pd, ndl)
                add(py, py, nyl, pv, npl)
                fold_ru()
                fold_du()
                for x, px in ((u, pu), (v, pv)):  # x/2 mod N: x >> 1, or (x + N) >> 1 for odd x
                    if x[0] & 1:  # x + N <= 2^(m+1) + 1 fits in the pl = m/64 + 1 limbs
                        add_n(px, px, pn, npl)
                    rshift(px, px, npl, one)
        return ring.get(u), ring.get(v)


class _Ring:
    """Residues mod N = 2^m + sign in arrays of 64-bit limbs, for the moduli `takes` names.

    Mod 2^m + 1, a residue array has pl = m // 64 + 1 limbs, and the
    operands of a product are its low ml = m/64 limbs.  That leaves out one
    residue, 2^m (-1): it is stored in limb q = m/64, set to 1 and the rest
    0.  A chain's fold steps it itself, and a product that may meet it
    multiplies all pl limbs.  `folder` builds the fold.

    Mod 2^m - 1, a chain keeps a redundant residue: any value below 2^(64L)
    in the L = ml = ceil(m / 64) low limbs of a 2L-limb array, made
    canonical once, at the end.  `mersenne_folder` builds the fold.

    Both folds split z = hi*2^k + lo, 0 <= lo < 2^k, and take z == lo -
    sign*hi*2^(k-m), as 2^m == -sign; k is m for 2^m + 1, and 64L for
    2^m - 1.  What the fold adds or takes off the low limbs (a carry or
    borrow it returns, and -c) is settled in Python while it stays inside
    them; otherwise the fold finishes on Python ints: for |c| >= 2^64, for
    low limbs below c (as 0 and 1 give with c = 2), with a single limb, and
    otherwise rarely (about once in 2^64 folds mod 2^m + 1; see
    `mersenne_folder` for 2^m - 1).
    """

    def __init__(self, kernel: GmpKernel, m: int, sign: int):
        if not takes(m, sign):
            raise ValueError(f"libgmp does not take 2^m + sign for m = {m}, sign = {sign}")
        self.kernel = kernel
        self.N = (1 << m) + sign
        self.q = m // LIMB_BITS
        self.ml = -(-m // LIMB_BITS)
        self.t = LIMB_BITS * self.ml - m  # the bits above 2^m in the top limb, 0 for 2^m + 1
        self.pl = self.q + 1
        ctypes = kernel._ctypes
        self.size, self.limb = ctypes.c_long, ctypes.c_uint64
        self._void_p = ctypes.c_void_p
        self._memmove, self._addressof = ctypes.memmove, ctypes.addressof
        self._arrays = []

    def ptr(self, a, offset: int = 0):
        """The address of limb `offset` of the array a, as a c_void_p argument."""
        return self._void_p(self._addressof(a) + 8 * offset)

    def array(self, limbs: int, value: int = 0):
        """A fresh array of `limbs` limbs holding 0 <= value < 2^(64 * limbs).

        The ring keeps every array it makes, so the addresses its folds
        hold stay valid while any fold or the ring is alive.
        """
        a = (self.limb * limbs)()
        self._arrays.append(a)
        if value:
            self.put(a, value)
        return a

    def constant(self, value: int):
        """A fresh array of as few limbs as hold value >= 0, and at least one."""
        return self.array(max(1, -(-value.bit_length() // LIMB_BITS)), value)

    def get(self, a, limbs: int | None = None) -> int:
        """The value of the first `limbs` limbs of a (all of them by default)."""
        data = bytes(a)
        return int.from_bytes(data if limbs is None else data[:8 * limbs], "little")

    def put(self, a, value: int) -> None:
        """Store 0 <= value < 2^(64 * len(a)) in a."""
        data = value.to_bytes(8 * len(a), "little")
        self._memmove(a, data, len(data))

    def folder(self, dst, src, c: int = 0, square: bool = False):
        """fold(steps=1) mod 2^m + 1: `steps` times, dst <- (z - c) mod N for the z in src.

        src has at least 2*ml limbs, and the fold overwrites it.  With
        `square`, each time first squares dst into src, so fold(k) is k steps
        of a chain; it then steps 2^m (-1) to 1 - c itself.  The fold needs
        z in [0, 2^m * N], and returns a canonical residue.
        Why one correction is enough: hi = z >> m <= N, and hi = N only with
        lo = 0, so lo - hi lies in [-N, 2^m), and adding N to a negative
        difference lands in [0, 2^m].  hi >= 2^m sets limb 2m/64, which only
        the top of the bound reaches; that rare z is folded on Python ints.
        Below it hi < 2^m, so on a borrow `mpn_sub_n` over the ml limbs
        leaves W = lo - hi + 2^m in [1, 2^m), and W + 1 is the residue.  The
        +1 and the -c go to the low limb together, which keeps the result
        canonical unless that limb carries or borrows.
        """
        q, N, nml = self.q, self.N, self.size(self.ml)
        ptr, get, put = self.ptr, self.get, self.put
        sqr, sub_n = self.kernel._sqr, self.kernel._sub_n
        pd, pz, ph = ptr(dst), ptr(src), ptr(src, q)
        hi_top = 2 * q if len(src) > 2 * q else 0  # set only when hi >= 2^m

        def fold(steps=1):
            while steps:  # cheaper than range() for the ladder's single folds
                steps -= 1
                if square:
                    if dst[q]:  # 2^m = -1 is outside the limbs squared; its square is 1
                        put(dst, (1 - c) % N)
                        continue
                    sqr(pz, pd, nml)
                elif hi_top and src[hi_top]:
                    put(dst, (get(src) - c) % N)
                    continue
                else:
                    dst[q] = 0
                delta = sub_n(pd, pz, ph, nml) - c
                if delta:
                    low = dst[0] + delta
                    if 0 <= low <= MAX_LIMB:
                        dst[0] = low
                    else:  # the residue is dst's ml limbs + delta, up to a multiple of N
                        put(dst, (get(dst, q) + delta) % N)

        return fold

    def mersenne_folder(self, z, c: int):
        """fold() mod 2^m - 1: the low L = ml limbs of z <- z - c mod N, not canonical.

        z has 2L limbs, and its value is any z in [0, 2^(128L)); the fold
        leaves a value in [0, 2^(64L)), and the high L limbs are scratch.
        2^(64L) == 2^t with t = 64L - m, so z == lo + hi*2^t, and one
        `mpn_addmul_1` adds hi*2^t onto lo.  The carry cy it returns is
        another cy*2^(64L) == cy*2^t, and cy <= 2^t, so cy*2^t - c is below
        2^126 for |c| < 2^64, and is settled on the two low limbs.  In a
        chain they carry out about once in 3*2^(128 - 2t) folds, as cy
        averages 2^t/3: rare but for t = 63 and 61 (m = 1 and 3 mod 64),
        about 1 in 12 and 1 in 190 (298 of 4000 steps for 2^2113 - 1).
        """
        ml, t, N = self.ml, self.t, self.N
        addmul_1, get, put = self.kernel._addmul_1, self.get, self.put
        pz, ph, nml, scale = self.ptr(z), self.ptr(z, ml), self.size(ml), self.limb(1 << t)
        low_end = 1 << 2 * LIMB_BITS if ml > 1 else 0  # one limb: every delta goes to Python ints

        def fold():
            delta = (addmul_1(pz, ph, nml, scale) << t) - c
            low = z[0] + (z[1] << LIMB_BITS) + delta
            if 0 <= low < low_end:
                z[0] = low & MAX_LIMB
                z[1] = low >> LIMB_BITS
            else:
                put(z, (get(z, ml) + delta) % N)

        return fold
