"""Hide libgmp from every Python process started with this directory on PYTHONPATH.

    PYTHONPATH=tests/no_gmp:src python -m pytest -q

`ctypes.CDLL` and `ctypes.PyDLL` raise OSError for any library name
containing "gmp", as on a system without libgmp, so the squaring chains run
on the int kernel in the suite and in the CLI subprocesses it starts alike.
"""

import ctypes


def _without_gmp(loader):
    class Loader(loader):
        def __init__(self, name, *args, **kwargs):
            if name is not None and "gmp" in str(name):
                raise OSError(f"{name}: hidden by tests/no_gmp/sitecustomize.py")
            super().__init__(name, *args, **kwargs)

    return Loader


ctypes.CDLL = _without_gmp(ctypes.CDLL)
ctypes.PyDLL = _without_gmp(ctypes.PyDLL)
