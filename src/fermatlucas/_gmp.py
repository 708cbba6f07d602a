"""Squaring chains and Lucas fast doubling mod 2^m +- 1 on the system's libgmp, via ctypes.

GMP multiplies residues of a few thousand bits or more several times faster
than CPython's Karatsuba.  The kernel runs on GMP's documented low-level
`mpn` functions over arrays of 64-bit limbs, least significant first, for
the two moduli the paper uses (`takes`).  A chain step is one `mpn_sqr`
and one fold: an `mpn_sub_n` mod 2^m + 1 with 64 | m (every F_n it tests),
or an `mpn_rshift` and an `mpn_add_n` mod 2^m - 1 with 64 not dividing m
(the Mersenne oracle, m prime).  The fold is the shift-and-fold of
`quadratic.fermat_mod` and `quadratic.mersenne_mod`, so no step divides,
and the results are the same canonical residues.  Carries and borrows
that stop in the low limb are settled in Python.

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
        lib = ctypes.CDLL("libgmp.so.10")
    except OSError:
        import ctypes.util  # find_library may start subprocesses

        name = ctypes.util.find_library("gmp")
        if name is None:
            return None
        try:
            lib = ctypes.CDLL(name)
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
        # Typed argtypes, and every argument a ctypes instance built once per
        # computation: a call then costs about 0.42 us, against 0.54 us with
        # int arguments (2-vCPU VM, Python 3.11).  mp_size_t is a C long.
        ptr, size, limb = ctypes.c_void_p, ctypes.c_long, ctypes.c_uint64

        def bind(name, restype, *argtypes):
            fn = lib["__gmpn_" + name]
            fn.restype = restype
            fn.argtypes = argtypes
            return fn

        self._ctypes = ctypes
        self._sqr = bind("sqr", None, ptr, ptr, size)
        self._mul_n = bind("mul_n", None, ptr, ptr, ptr, size)
        self._mul = bind("mul", limb, ptr, ptr, size, ptr, size)
        self._add = bind("add", limb, ptr, ptr, size, ptr, size)
        self._add_n = bind("add_n", limb, ptr, ptr, ptr, size)
        self._sub_n = bind("sub_n", limb, ptr, ptr, ptr, size)
        self._rshift = bind("rshift", limb, ptr, ptr, size, ctypes.c_uint)

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
        if c > N >> 1:  # the fold takes c off the low limb, so keep it small either way
            c -= N
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

    A residue array has pl = m // 64 + 1 limbs, and the operands of a
    product are its low ml = ceil(m / 64) limbs.  For 2^m + 1 that leaves
    out one residue, 2^m (-1): it is stored in limb `top` = m/64, set to 1
    and the rest 0.  A chain's fold steps it itself, and a product that may
    meet it multiplies all pl limbs.  `top` is None for 2^m - 1.

    `folder(dst, src, c)` builds a fold: dst <- (z - c) mod N for the value
    z of the whole array src (at least 2*ml limbs), which it overwrites; in
    a chain z is dst^2, squared into src first.  The fold needs z in
    [0, 2^m * N] for 2^m + 1, or in [0, 2^(2m)) for 2^m - 1.
    Why one correction is enough: split z = hi*2^m + lo, 0 <= lo < 2^m;
    then z == lo - sign*hi, as 2^m == -sign.
      - 2^m + 1: hi <= N, and hi = N only with lo = 0, so lo - hi lies in
        [-N, 2^m), and adding N to a negative difference lands in [0, 2^m].
        hi >= 2^m sets limb 2m/64, which only the top of the bound
        reaches; that rare z is folded on Python ints.  Below it hi < 2^m,
        so on a borrow `mpn_sub_n` over the ml limbs leaves
        W = lo - hi + 2^m in [1, 2^m), and W + 1 is the residue.
      - 2^m - 1: hi, lo < 2^m, so lo + hi <= 2^(m+1) - 2.  A carry into
        bit m is 2^m == 1: take it off and add 1.  That leaves at most
        2^m - 1 = N, whose residue is 0.
    The +1 and the -c go to the low limb together, which keeps the result
    canonical unless that limb carries or borrows (or, as the only limb,
    passes N - 1).  Then the fold finishes on Python ints: for |c| >= 2^64,
    for a low limb below c (as 0 and 1 give with c = 2), and otherwise
    about once in 2^64 folds.
    """

    def __init__(self, kernel: GmpKernel, m: int, sign: int):
        if not takes(m, sign):
            raise ValueError(f"libgmp does not take 2^m + sign for m = {m}, sign = {sign}")
        self.kernel, self.sign = kernel, sign
        self.N = (1 << m) + sign
        self.q, self.s = divmod(m, LIMB_BITS)
        self.ml = -(-m // LIMB_BITS)
        self.pl = self.q + 1
        self.top = self.q if sign > 0 else None
        ctypes = kernel._ctypes
        self.size, self.limb = ctypes.c_long, ctypes.c_uint64
        self._void_p, self._uint = ctypes.c_void_p, ctypes.c_uint
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
        """fold(steps=1): `steps` times, dst <- (z - c) mod N for the z in src.

        With `square`, each time first squares dst into src, so fold(k) is k
        steps of a chain; for 2^m + 1 it then steps 2^m (-1) to 1 - c
        itself.  See the class docstring for the rest.
        """
        kernel, q, s, ml, N, top = self.kernel, self.q, self.s, self.ml, self.N, self.top
        ptr, get, put = self.ptr, self.get, self.put
        pd, pz, nml = ptr(dst), ptr(src), self.size(ml)
        sqr = kernel._sqr
        # The largest low limb a residue can have with its other limbs as they are.
        low_max = MAX_LIMB if ml > 1 else min(N - 1, MAX_LIMB)

        def slow(delta):  # the residue is dst's ml limbs + delta, up to a multiple of N
            put(dst, (get(dst, ml) + delta) % N)

        if self.sign < 0:  # hi = src >> m, in the low ml limbs of its own array
            add_n, rshift, n_low = kernel._add_n, kernel._rshift, N & MAX_LIMB
            shift, mask, hi_limbs = self._uint(s), (1 << s) - 1, len(src) - q
            ph, pzq, nzq = ptr(self.array(hi_limbs)), ptr(src, q), self.size(hi_limbs)

            def fold(steps=1):
                while steps:  # cheaper than range() for the ladder's single folds
                    steps -= 1
                    if square:
                        sqr(pz, pd, nml)
                    rshift(ph, pzq, nzq, shift)
                    src[q] &= mask
                    add_n(pd, pz, ph, nml)  # lo + hi < 2^(m+1) carries out of no limb
                    t = dst[q]
                    carry = t >> s  # bit m
                    if carry:
                        dst[q] = t & mask
                    delta = carry - c
                    if delta:
                        low = dst[0] + delta
                        if 0 <= low <= low_max:
                            dst[0] = low
                        else:
                            slow(delta)
                            continue
                    if dst[0] == n_low and get(dst) == N:
                        put(dst, 0)

        else:  # hi is the limbs of src from q up
            sub_n, ph = kernel._sub_n, ptr(src, q)
            hi_top = 2 * q if len(src) > 2 * q else 0  # set only when hi >= 2^m

            def fold(steps=1):
                while steps:
                    steps -= 1
                    if square:
                        if dst[top]:  # 2^m = -1 is outside the limbs squared; its square is 1
                            put(dst, (1 - c) % N)
                            continue
                        sqr(pz, pd, nml)
                    elif hi_top and src[hi_top]:
                        put(dst, (get(src) - c) % N)
                        continue
                    else:
                        dst[top] = 0
                    delta = sub_n(pd, pz, ph, nml) - c
                    if delta:
                        low = dst[0] + delta
                        if 0 <= low <= low_max:
                            dst[0] = low
                        else:
                            slow(delta)

        return fold
