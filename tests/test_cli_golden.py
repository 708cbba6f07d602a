"""Byte gate on the CLI: each command's exit code and stdout, frozen in cli_golden.json.

`timing_ms` is the one field allowed to differ between runs, so it is cut out
before comparing.  Outputs over 4 KB are stored as a sha256 of the stripped
text.  The goldens are frozen from the libgmp kernel, and tier-1 replays them
twice: with `PYTHONPATH=src`, and with `PYTHONPATH=tests/no_gmp:src`, where
every chain and ladder runs on Python ints.  Those two replays are the check
that the kernels agree.  Regenerate (only when an output change is intended,
and say so in the change log) with

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
# the congruence, rank and identity suites at scale (the congruences also
# from the tallest start table, t = 10), in human form and with zero checks,
# and libgmp paths the rows above leave out: chains mod 2^m - 1 with 64 not
# dividing m (M_4423 prime, M_4093 composite, M_1999, and M_2111
# and M_2113, where the fold multiplies the high part by 2^t with t = 1 and
# t = 63), Pepin mod F_12, verify traces to F_12, a full uv_mod ladder
# mod F_12 whose all-ones index halves at every bit, and each --human line
# the rows above leave out: the witness, the unproven tag, M_q, a rank not
# found, a ×√3 tag and a plain --modulus heading.
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
    "rank 1000033",
    "table uv-exact --max 2000",
    "verify identities --m-max 20 --n-max 20",
    "table uv-mod --modulus-fermat 12 --indices 0,1,2,4095,65535,170141183460469231731687303715884105727",
    "table uv-mod --modulus-fermat 12 --indices 0,1,2,4095,65535,170141183460469231731687303715884105727 --params 3,-1",
    "table uv-mod --modulus-fermat 12 --indices 0,1,2,4095,65535,170141183460469231731687303715884105727 --params 18446744073709551629,1",
    "verify congruences --p-max 20000",
    "verify congruences --p-max 200000",
    "--human verify congruences",
    "--human verify rank",
    "--human verify identities --m-max 9 --n-max 9",
    "verify congruences --p-max 3",
    "test mersenne 4423",
    "test mersenne 4093",
    "test mersenne 1999",
    "test mersenne 2111",
    "test mersenne 2113",
    "test pepin 12",
    "verify traces --max-n 12",
    f"table uv-mod --modulus-fermat 12 --indices {(1 << 4095) - 1}",
    "--human test fermat 5",
    "--human test fermat 3 --seed 6 --experimental",
    "--human test mersenne 7",
    "--human rank 1000033",
    "--human table uv-exact --params 3,-1 --max 5",
    "--human table uv-mod --modulus 17 --max 16",
)

_TIMING = re.compile(r', "timing_ms": [-+.0-9eE]+\}$', re.MULTILINE)


def capture(command: str) -> dict:
    """Run one command in-process and reduce it to its golden entry.

    A JSON record (not `--human`, exit other than 2) must end in exactly one
    `timing_ms`, which is cut; the rest of the record is the golden's bytes.
    """
    from fermatlucas.cli import main

    argv = shlex.split(command)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out, timings = _TIMING.subn("}", buf.getvalue())
    assert timings == int("--human" not in argv and code != 2), f"{command!r} wrote {timings} timing_ms fields"
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
    sys.set_int_max_str_digits(0)
    payload = {"commands": [capture(c) for c in COMMANDS]}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(COMMANDS)} commands to {GOLDEN_PATH.name}")
