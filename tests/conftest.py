import contextlib
import os
import signal
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# The suite round-trips multi-thousand-digit integers (witness residues).
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


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
