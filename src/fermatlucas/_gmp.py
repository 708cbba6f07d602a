"""Squaring chains mod 2^m + 1 and 2^m - 1 on the system's libgmp, via ctypes.

GMP squares a residue of a few thousand bits or more several times faster
than CPython's Karatsuba.  The reduction is the same shift-and-fold as
`quadratic.fermat_mod` and `quadratic.mersenne_mod`, done in place on mpz
buffers, so no step divides, and the result is the same canonical residue.

Importing this module loads nothing: ctypes and libgmp are loaded by the
first call to `load()`, and `primality.square_chain` calls it only for
chains long enough to gain.
"""

from __future__ import annotations

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
    """`x <- x^2 - c mod 2^m + sign` chains on the mpz functions of one libgmp."""

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
        ctypes = self._ctypes
        v, hi, n, cz = self._mpz(), self._mpz(), self._mpz(), self._mpz()
        pv, phi, pn, pc = (ctypes.addressof(z) for z in (v, hi, n, cz))
        for z in (pv, phi, pn, pc):
            self._init(z)
        try:
            self._set(pv, x % N)
            self._set(pn, N)
            self._set(pc, c % N)
            mul, sub, add, high, low = self._mul, self._sub, self._add, self._high, self._low
            cmp = self._cmp
            fold = sub if sign > 0 else add
            # With 0 <= x, c < N, v = x^2 - c lies in (-N, N^2).  Truncating
            # shifts split v = hi*2^m + lo with hi and lo of v's sign, and
            # 2^m == -sign (mod N), so v == lo - sign*hi; that lands in
            # (-N, N) for 2^m + 1 and (-N, 2N) for 2^m - 1, and one
            # correction makes it canonical.
            for _ in range(steps):
                mul(pv, pv, pv)
                if c:
                    sub(pv, pv, pc)
                high(phi, pv, m)
                low(pv, pv, m)
                fold(pv, pv, phi)
                if v.size < 0:
                    add(pv, pv, pn)
                elif sign < 0 and cmp(pv, pn) >= 0:
                    sub(pv, pv, pn)
            return self._get(v)
        finally:
            for z in (pv, phi, pn, pc):
                self._clear(z)
