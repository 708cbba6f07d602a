"""The libgmp chain kernel against the int kernel, and the choice between them.

The int kernel (`quadratic.fermat_mod` / `mersenne_mod` in a Python loop) is
the oracle.  Tests that call libgmp are skipped when it does not load; the
dispatch tests use a stand-in kernel and run everywhere.
"""

import random
import subprocess
import sys

import pytest

from conftest import cli_env
from fermatlucas import _gmp
from fermatlucas.primality import (
    GMP_MAX_BITS,
    GMP_MIN_BITS,
    chain_kernel,
    fermat_llt,
    is_prime,
    mersenne_llt,
    pepin,
    square_chain,
)
from fermatlucas.quadratic import fermat_mod, mersenne_mod

needs_gmp = pytest.mark.skipif(_gmp.load() is None, reason="libgmp did not load")

# Exponents q <= 4423 with 2^q - 1 prime.
MERSENNE_PRIME_EXPONENTS = (3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279,
                            2203, 2281, 3217, 4253, 4423)


def int_chain(x, steps, c, m, sign):
    reduce = fermat_mod if sign > 0 else mersenne_mod
    for _ in range(steps):
        x = reduce(x * x - c, m)
    return x


def edge_starts(m, sign, rng):
    """0, 1, 2^m (-1 mod 2^m + 1, 1 mod 2^m - 1), N - 1, and a random residue."""
    N = (1 << m) + sign
    return (0, 1, 1 << m, N - 1, rng.randrange(N))


@needs_gmp
@pytest.mark.parametrize("k", range(1, 14))
def test_fermat_form_matches_int_kernel(k):
    m = 1 << k
    native = _gmp.load()
    rng = random.Random(k)
    for c in (0, 2):
        for x in edge_starts(m, 1, rng):
            assert native.square_chain(x, 12, c, m, 1) == int_chain(x, 12, c, m, 1)
    # The whole seed-5 chain, whose final residue decides F_k.
    assert native.square_chain(5, m - 2, 2, m, 1) == int_chain(5, m - 2, 2, m, 1)


@needs_gmp
def test_mersenne_form_matches_int_kernel():
    native = _gmp.load()
    rng = random.Random(4423)
    for q in (q for q in range(3, 4424) if is_prime(q)):
        for c in (0, 2):
            for x in edge_starts(q, -1, rng):
                assert native.square_chain(x, 3, c, q, -1) == int_chain(x, 3, c, q, -1)
    for q in (89, 97, 1277, 1279, 4253, 4271):
        residue = native.square_chain(4, q - 2, 2, q, -1)
        assert residue == int_chain(4, q - 2, 2, q, -1)
        assert (residue == 0) == (q in MERSENNE_PRIME_EXPONENTS)


@needs_gmp
def test_no_steps_returns_the_start_unreduced():
    native = _gmp.load()
    for x in (-7, 0, (1 << 64) + 5):
        for steps in (0, -1):
            assert native.square_chain(x, steps, 2, 64, 1) == x == int_chain(x, steps, 2, 64, 1)
    for m, sign in ((0, 1), (64, 0), (64, 2)):
        with pytest.raises(ValueError):
            native.square_chain(5, 1, 2, m, sign)


@needs_gmp
def test_property_random_x_and_m():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    native = _gmp.load()

    @settings(deadline=None, max_examples=200)
    @given(
        m=st.integers(1, 5000),
        sign=st.sampled_from((1, -1)),
        x=st.integers(-300, 300) | st.integers(-(1 << 10000), 1 << 10000),
        c=st.sampled_from((0, 2)) | st.integers(-(1 << 5100), 1 << 5100),
        steps=st.integers(0, 4),
    )
    def check(m, sign, x, c, steps):
        assert native.square_chain(x, steps, c, m, sign) == int_chain(x, steps, c, m, sign)

    check()


@needs_gmp
def test_failed_loader_gives_the_same_verdicts(monkeypatch):
    with_gmp = (fermat_llt(12), pepin(12), mersenne_llt(4253))
    assert chain_kernel(1 << 12) == "gmp"
    monkeypatch.setattr(_gmp, "load", lambda: None)
    assert chain_kernel(1 << 12) == "int"
    assert (fermat_llt(12), pepin(12), mersenne_llt(4253)) == with_gmp
    assert with_gmp[0].witness is not None and with_gmp[2].classification == "prime"


def test_loader_returns_none_without_libgmp(monkeypatch):
    import ctypes
    import ctypes.util

    def no_library(name, *args, **kwargs):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_library)
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: None)
    assert _gmp.load.__wrapped__() is None
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: "libgmp.so")
    assert _gmp.load.__wrapped__() is None


class RecordingKernel:
    def __init__(self):
        self.calls = []

    def square_chain(self, x, steps, c, m, sign):
        self.calls.append((m, sign))
        return -1


def test_dispatch_by_modulus_size(monkeypatch):
    kernel = RecordingKernel()
    monkeypatch.setattr(_gmp, "load", lambda: kernel)
    assert chain_kernel(GMP_MIN_BITS - 1) == "int"
    assert chain_kernel(GMP_MIN_BITS) == chain_kernel(GMP_MAX_BITS) == "gmp"
    assert chain_kernel(GMP_MAX_BITS + 1) == "int"

    below = GMP_MIN_BITS - 1
    assert square_chain(5, 3, 2, below, 1) == int_chain(5, 3, 2, below, 1)
    assert square_chain(4, 3, 2, below, -1) == int_chain(4, 3, 2, below, -1)
    assert square_chain(5, 1, 2, GMP_MAX_BITS + 1, 1) == 23
    assert kernel.calls == []

    assert square_chain(5, 3, 2, GMP_MIN_BITS, 1) == -1
    assert square_chain(4, 3, 2, GMP_MAX_BITS, -1) == -1
    assert kernel.calls == [(GMP_MIN_BITS, 1), (GMP_MAX_BITS, -1)]

    # Only 2^m + 1 and 2^m - 1 are chain moduli, on either kernel.
    for m in (below, GMP_MIN_BITS):
        with pytest.raises(ValueError, match="sign must be"):
            square_chain(5, 1, 2, m, 0)
    assert len(kernel.calls) == 2

    monkeypatch.setattr(_gmp, "load", lambda: None)
    assert chain_kernel(GMP_MIN_BITS) == "int"


def test_short_chains_never_import_the_native_module():
    # The CLI's import and its short chains do not even import the module
    # that loads ctypes and libgmp.
    code = (
        "import contextlib, io, sys\n"
        "from fermatlucas import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['test', 'fermat', '11'])\n"
        "    cli.main(['test', 'mersenne', '4093'])\n"
        "print('fermatlucas._gmp' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
