"""Squaring chains and Lucas fast doubling mod 2^m +- 1 on the system's libgmp, via ctypes.

GMP multiplies residues of a few thousand bits or more several times faster
than CPython's Karatsuba.  The reduction is the same shift-and-fold as
`quadratic.fermat_mod` and `quadratic.mersenne_mod`, done in place on mpz
buffers, so no step divides, and the results are the same canonical residues.

Importing this module loads nothing: ctypes and libgmp are loaded by the
first call to `load()`, and `native.native_kernel` calls it only for moduli
large enough to gain.
"""

from __future__ import annotations

import contextlib
import functools


@functools.cache
def load() -> GmpKernel | None:
    """The libgmp chain kernel, or None if no usable libgmp loads.

    The outcome is cached for the life of the process.
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
        return GmpKernel(ctypes, lib)
    except AttributeError:  # a library without the mpz entry points
        return None


class GmpKernel:
    """Squaring chains and the Lucas doubling ladder on the mpz functions of one libgmp.

    Both run on one core: `_registers` creates and clears the mpz registers
    of a computation, and `_folder` reduces a register mod 2^m + sign.
    """

    def __init__(self, ctypes, lib):
        # Every mpz argument is passed as a plain address (c_void_p): a
        # ctypes call with int arguments costs about 0.35 us against 0.9 us
        # with typed pointers, and a chain step makes five calls.
        ptr, size, bits = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_ulong

        def bind(name, restype, *argtypes):
            fn = lib["__gmpz_" + name]
            fn.restype = restype
            fn.argtypes = argtypes
            return fn

        class Mpz(ctypes.Structure):
            # GMP's __mpz_struct; the sign of `size` is the sign of the value.
            _fields_ = [("alloc", ctypes.c_int), ("size", ctypes.c_int), ("d", ptr)]

        self._ctypes = ctypes
        self._mpz = Mpz
        self._init = bind("init", None, ptr)
        self._clear = bind("clear", None, ptr)
        self._import = bind("import", None, ptr, size, ctypes.c_int, size, ctypes.c_int,
                            size, ptr)
        self._export = bind("export", ptr, ptr, ctypes.POINTER(size), ctypes.c_int, size,
                            ctypes.c_int, size, ptr)
        self._mul = bind("mul", None, ptr, ptr, ptr)
        self._add = bind("add", None, ptr, ptr, ptr)
        self._sub = bind("sub", None, ptr, ptr, ptr)
        self._cmp = bind("cmp", ctypes.c_int, ptr, ptr)
        self._high = bind("tdiv_q_2exp", None, ptr, ptr, bits)
        self._low = bind("tdiv_r_2exp", None, ptr, ptr, bits)
        self._tstbit = bind("tstbit", ctypes.c_int, ptr, bits)

    def _set(self, z: int, value: int) -> None:
        """Store a non-negative `value` in the mpz at address z."""
        data = value.to_bytes((value.bit_length() + 7) // 8, "little")
        self._import(z, len(data), -1, 1, 0, 0, data)

    def _get(self, z) -> int:
        """The value of the non-negative mpz `z`."""
        ctypes = self._ctypes
        # A limb has at most 8 bytes, so the buffer holds every limb of z.
        buf = ctypes.create_string_buffer(8 * abs(z.size) + 1)
        count = ctypes.c_size_t()
        self._export(buf, ctypes.byref(count), -1, 1, 0, 0, ctypes.addressof(z))
        return int.from_bytes(buf.raw[:count.value], "little")

    @contextlib.contextmanager
    def _registers(self, *values: int):
        """One fresh mpz register per non-negative value, set to it; cleared on exit.

        Yields a (struct, address) pair per register: libgmp takes the
        address, and the struct's `size` gives the sign without a call.
        """
        addressof = self._ctypes.addressof
        structs = [self._mpz() for _ in values]
        addresses = [addressof(z) for z in structs]
        for z in addresses:
            self._init(z)
        try:
            for z, value in zip(addresses, values):
                self._set(z, value)
            yield list(zip(structs, addresses))
        finally:
            for z in addresses:
                self._clear(z)

    def _folder(self, m: int, sign: int, scratch: int, pn: int):
        """fold(z, pz): reduce the register z (at pz) to its residue mod N = 2^m + sign.

        `scratch` is a register address the fold may overwrite, and pn holds
        N.  The input must lie in (-N, 2^m * N]; the result is canonical, in
        0..N-1 (0..2^m for sign = +1, as `fermat_mod` returns).

        Why one correction is enough: truncating shifts split z = hi*2^m + lo
        with hi and lo of z's sign and |lo| < 2^m, and 2^m == -sign (mod N),
        so z == lo - sign*hi.
          - z >= 0: hi <= N, and hi = N only with lo = 0.  So for sign = +1
            lo - hi lies in [-N, 2^m), and for sign = -1 lo + hi lies in
            [0, 2N - 1].
          - z < 0: |z| < N < 2^(m+1) gives hi = 0 or (sign = +1 only)
            z = -2^m with lo = 0; so lo - sign*hi is z itself or 1.
        Adding N to a negative result, or (sign = -1) subtracting it from one
        >= N, lands in 0..N-1.  The bound is the one to keep: an unreduced
        operand (say R = 7 at m = 2) can leave lo - hi < -N, which this one
        correction would not repair.
        """
        high, low, add, sub, cmp = self._high, self._low, self._add, self._sub, self._cmp
        fold_high = sub if sign > 0 else add

        def fold(z, pz):
            high(scratch, pz, m)
            low(pz, pz, m)
            fold_high(pz, pz, scratch)
            if z.size < 0:
                add(pz, pz, pn)
            elif sign < 0 and cmp(pz, pn) >= 0:
                sub(pz, pz, pn)

        return fold

    def square_chain(self, x: int, steps: int, c: int, m: int, sign: int) -> int:
        """x after `steps` rounds of x <- x^2 - c mod N = 2^m + sign, sign = +-1.

        Returns the canonical residue `fermat_mod` (0..2^m) or `mersenne_mod`
        (0..N-1) returns; with steps <= 0, x itself, as the int loop does.
        The caller keeps m within what libgmp can allocate.
        """
        if m < 1 or sign not in (1, -1):
            raise ValueError(f"need m >= 1 and sign +-1, got m = {m}, sign = {sign}")
        if steps <= 0:
            return x
        N = (1 << m) + sign
        with self._registers(x % N, N, c % N, 0) as ((v, pv), (_, pn), (_, pc), (_, phi)):
            fold = self._folder(m, sign, phi, pn)
            mul, sub = self._mul, self._sub
            # 0 <= x, c < N gives x <= 2^m, so x^2 - c is inside the fold's bound.
            for _ in range(steps):
                mul(pv, pv, pv)
                if c:
                    sub(pv, pv, pc)
                fold(v, pv)
            return self._get(v)

    def uv_ladder(self, R: int, Q: int, n: int, m: int) -> tuple[int, int]:
        """(u_bar(n), v_bar(n)) mod N = 2^m + 1 for the parameters (R, Q), Q = +-1.

        The binary fast doubling of `lucas.uv_mod`, folded after every
        product: from index k, u <- u*v and v <- c*v^2 - 2*Q^k with c = R
        for odd k, 1 for even k; a 1 bit then halves (R*u + v, D*u + v),
        D = R - 4Q, by a shift.  R and D are held reduced mod N, so every
        operand of a product is at most 2^m and every sum stays inside the
        fold's bound.  Returns canonical residues; the caller keeps m within
        what libgmp can allocate.
        """
        if m < 1 or Q not in (1, -1) or n < 0:
            raise ValueError(f"need m >= 1, Q = +-1 and n >= 0, got m = {m}, Q = {Q}, n = {n}")
        if n == 0:
            return 0, 2  # N >= 3
        N = (1 << m) + 1
        registers = self._registers(1, 1, 0, N, R % N, (R - 4 * Q) % N, 2, 2 * Q % N, 0)
        with registers as ((u, pu), (v, pv), (t, pt), (_, pn), (_, pr), (_, pd), (_, p2),
                           (_, p2q), (_, phi)):
            fold = self._folder(m, 1, phi, pn)
            mul, add, sub, tstbit, shift = self._mul, self._add, self._sub, self._tstbit, self._high
            k_odd = True
            for bit in bin(n)[3:]:
                mul(pu, pu, pv)
                fold(u, pu)
                mul(pv, pv, pv)
                if k_odd:  # Q^k = Q; R*v^2 needs the square folded first
                    fold(v, pv)
                    mul(pv, pv, pr)
                    sub(pv, pv, p2q)
                else:
                    sub(pv, pv, p2)
                fold(v, pv)
                k_odd = bit == "1"
                if k_odd:
                    mul(pt, pr, pu)
                    add(pt, pt, pv)
                    fold(t, pt)
                    mul(pu, pd, pu)
                    add(pu, pu, pv)
                    fold(u, pu)
                    for z in (pt, pu):  # x/2 mod N: x >> 1, or (x + N) >> 1 for odd x
                        if tstbit(z, 0):
                            add(z, z, pn)
                        shift(z, z, 1)
                    (u, pu), (v, pv), (t, pt) = (t, pt), (u, pu), (v, pv)
            return self._get(u), self._get(v)
