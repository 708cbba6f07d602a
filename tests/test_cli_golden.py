"""Byte gate on the CLI: each command's exit code and stdout, frozen in cli_golden.json.

`timing_ms` is the one field allowed to differ between runs, so it is cut out
before comparing.  Outputs over 4 KB are stored as a sha256 of the stripped
text.  Regenerate (only when an output change is intended, and say so in the
change log) with

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "cli_golden.json"
README_PATH = HERE.parent / "README.md"
INLINE_LIMIT = 4096

# Every command in README's CLI block, the two heavy jobs of the benchmark,
# uv-mod rows on F_12, whose fast doubling runs on libgmp (as from F_11 on),
# and the congruence, rank and identity suites at scale, in human form and with
# zero checks.
COMMANDS = (
    "test fermat 4",
    "test fermat 5",
    "test fermat 14",
    "test mersenne 7",
    "test pepin 5",
    "test fermat 3 --seed 6 --experimental",
    "--human table uv-exact --max 40",
    "--human table uv-mod --modulus-fermat 3 --max 16",
    "table uv-mod --modulus-fermat 4 --indices 2048,16384,32768",
    "table uv-exact --params 3,-1 --max 10",
    "verify traces",
    "verify identities --m-max 9 --n-max 9",
    "verify congruences",
    "verify appendix --n 3",
    "verify rank",
    "rank 17",
    "rank 17 --cap 10",
    "table uv-exact --max 2000",
    "verify identities --m-max 20 --n-max 20",
    "table uv-mod --modulus-fermat 12 --indices 0,1,2,4095,65535,170141183460469231731687303715884105727",
    "table uv-mod --modulus-fermat 12 --indices 0,1,2,4095,65535,170141183460469231731687303715884105727 --params 3,-1",
    "table uv-mod --modulus-fermat 12 --indices 0,1,2,4095,65535,170141183460469231731687303715884105727 --params 18446744073709551629,1",
    "verify congruences --p-max 20000",
    "--human verify congruences",
    "--human verify rank",
    "--human verify identities --m-max 9 --n-max 9",
    "verify congruences --p-max 3",
)

_TIMING = re.compile(r', "timing_ms": [-+.0-9eE]+\}$', re.MULTILINE)


def capture(command: str) -> dict:
    """Run one command in-process and reduce it to its golden entry."""
    from fermatlucas.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(shlex.split(command))
    out = _TIMING.sub("}", buf.getvalue())
    entry = {"command": command, "exit": code}
    if len(out.encode()) > INLINE_LIMIT:
        entry["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    else:
        entry["stdout"] = out
    return entry


def _golden() -> dict:
    entries = json.loads(GOLDEN_PATH.read_text())["commands"]
    return {e["command"]: e for e in entries}


def _readme_commands() -> list[str]:
    block = README_PATH.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        line.split("#", 1)[0].strip().removeprefix("fermatlucas ")
        for line in block.splitlines()
        if line.startswith("fermatlucas ")
    ]


def test_golden_covers_every_command():
    assert list(_golden()) == list(COMMANDS)
    assert set(_readme_commands()) <= set(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(command):
    assert capture(command) == _golden()[command]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --write")
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    payload = {"commands": [capture(c) for c in COMMANDS]}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {GOLDEN_PATH.name}")
