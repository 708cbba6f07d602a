import contextlib
import os
import signal
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from fermatlucas import _gmp  # noqa: E402

# The suite round-trips multi-thousand-digit integers (witness residues).
sys.set_int_max_str_digits(0)

needs_gmp = pytest.mark.skipif(_gmp.load() is None, reason="libgmp did not load")


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str digit limit for one test, and the suite's lifted limit back after it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(limit)


def cli_env() -> dict:
    """Environment for CLI subprocesses that works without an installed package."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@contextlib.contextmanager
def deadline(seconds: int):
    """Raise TimeoutError inside the block after `seconds`, so a hang fails the test instead of stalling it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
