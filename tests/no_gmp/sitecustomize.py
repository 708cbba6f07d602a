"""Hide libgmp from every Python process started with this directory on PYTHONPATH.

    PYTHONPATH=tests/no_gmp:src python -m pytest -q

`ctypes.CDLL` raises OSError for any library name containing "gmp", as on a
system without libgmp, so the squaring chains run on the int kernel in the
suite and in the CLI subprocesses it starts alike.
"""

import ctypes


class _CDLLWithoutGmp(ctypes.CDLL):
    def __init__(self, name, *args, **kwargs):
        if name is not None and "gmp" in str(name):
            raise OSError(f"{name}: hidden by tests/no_gmp/sitecustomize.py")
        super().__init__(name, *args, **kwargs)


ctypes.CDLL = _CDLLWithoutGmp
