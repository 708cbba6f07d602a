"""Workloads, in-process job execution and the correctness gate.

A job is one CLI invocation, run in this process through
`fermatlucas.cli.main(argv)` with stdout captured.  Its record is reduced to
a fingerprint (exit code, classification, res64 of the witness or table
values, verify counts, rank) and compared with the frozen value in
expected.json.  README.md says why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

WORKLOADS = ("fermat-14", "oracles-13", "many-small")

RES64_MASK = (1 << 64) - 1


# Small Mersenne exponents: the primes among them give exit 0 and a zero
# residue, the rest a witness.  Fixed, so chain_steps_per_s does not depend
# on the seed.
MERSENNE_EXPONENTS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 61, 89, 107, 127,
                      521, 607, 1279, 1999, 2203, 2281)

# Seeded inputs are drawn from fixed pools, so that every job a seed can
# produce has a frozen expected value.  The pools themselves come from a
# fixed generator seed.
_POOL_RNG = random.Random(7053664)
RANK_POOL = tuple(sorted(_POOL_RNG.sample(range(3, 10**5, 2), 64)))
MODULUS_POOL = tuple(sorted(_POOL_RNG.randrange(3, 1 << 61, 2) for _ in range(16)))
RANK_DRAWS = 6
MODULUS_DRAWS = 2


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    steps: int = 0  # modular squarings, for chain jobs only
    # The part of the speed clock's kernel (clock.PARTS) that matches the
    # work dominating this job; see chain_job.
    kernel: str = "fold"


@dataclass(frozen=True)
class JobRun:
    start: float
    seconds: float
    code: int | None
    out: str
    error: str | None


def chain_job(kind: str, index: int) -> Job:
    steps = {"fermat": (1 << index) - 2, "pepin": (1 << index) - 1, "mersenne": index - 2}[kind]
    # Pepin's pow() reduces by long division, and from F_10 on it is most of
    # the job (3/4 at n = 10); below that the CLI's own work of about 1 ms,
    # interpreter-bound like everything else, dominates.
    kernel = "division" if kind == "pepin" and index >= 10 else "fold"
    return Job(f"test {kind} {index}", ("test", kind, str(index)), steps, kernel)


def cmd_job(text: str) -> Job:
    return Job(text, tuple(text.split()))


# v_bar(2^8191) mod F_13 is the last term of the F_13 chain, so this row must
# equal the `test fermat 13` witness (checked when the values are frozen).
UV_MOD_F13 = Job(
    "table uv-mod --modulus-fermat 13 --indices 2^8191",
    ("table", "uv-mod", "--modulus-fermat", "13", "--indices", str(1 << 8191)),
)

VERIFY_JOBS = tuple(
    cmd_job(text)
    for text in (
        "verify traces",
        "verify identities --m-max 20 --n-max 20",
        "verify congruences --p-max 20000",
        "verify appendix",
        "verify rank",
    )
)


def rank_job(m: int) -> Job:
    return cmd_job(f"rank {m}")


def uv_mod_job(modulus: int) -> Job:
    return cmd_job(f"table uv-mod --modulus {modulus} --max 256")


def _many_small_fixed() -> list[Job]:
    jobs = [chain_job("fermat", n) for n in range(1, 13)]
    jobs += [chain_job("pepin", n) for n in range(1, 12)]
    jobs += [chain_job("mersenne", q) for q in MERSENNE_EXPONENTS]
    jobs += VERIFY_JOBS
    jobs.append(cmd_job("table uv-exact --max 2000"))
    return jobs


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The job list of one pass; the seed draws the pooled inputs and the order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "fermat-14":
        jobs = [chain_job("fermat", 14)]
    elif workload == "oracles-13":
        jobs = [chain_job("pepin", 13), chain_job("mersenne", 11213), UV_MOD_F13]
    elif workload == "many-small":
        jobs = _many_small_fixed()
        jobs += [rank_job(m) for m in rng.sample(RANK_POOL, RANK_DRAWS)]
        jobs += [uv_mod_job(n) for n in rng.sample(MODULUS_POOL, MODULUS_DRAWS)]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(jobs)
    return jobs


def all_jobs() -> list[Job]:
    """Every job any seed can produce, for freezing expected values."""
    jobs = make_jobs("fermat-14", 0) + make_jobs("oracles-13", 0) + _many_small_fixed()
    jobs += [rank_job(m) for m in RANK_POOL]
    jobs += [uv_mod_job(n) for n in MODULUS_POOL]
    return sorted(jobs, key=lambda j: j.name)


def run_job(cli, job: Job) -> JobRun:
    """Run one job through `cli.main`, timing only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing job is a failed job, not a dead run
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
    if error is None and code == 2:
        error = f"exit 2: {err.getvalue().strip()}"
    return JobRun(t0, seconds, code, out.getvalue(), error)


def res64(x: int | None) -> str | None:
    """Low 64 bits of a residue, as 16 hex digits."""
    return None if x is None else f"{x & RES64_MASK:016x}"


def _rows_digest64(rows: list[dict]) -> str:
    h = hashlib.blake2b(digest_size=8)
    for row in rows:
        h.update(f"{row['i']}:{res64(row['u'])}:{res64(row['v'])};".encode())
    return h.hexdigest()


def fingerprint(code: int, out: str) -> dict:
    """The frozen-comparable summary of one JSON record."""
    record = json.loads(out)
    result = record["result"]
    fp = {"code": code}
    command = record["command"]
    if command == "test":
        fp["classification"] = result["classification"]
        fp["witness_res64"] = res64(result["witness"])
    elif command == "table":
        rows = result["rows"]
        fp["rows"] = len(rows)
        fp["rows_digest64"] = _rows_digest64(rows)
        fp["last_v_res64"] = res64(rows[-1]["v"]) if rows else None
    elif command == "verify":
        fp["passed"] = result["passed"]
        fp["failed"] = result["failed"]
    else:
        fp["omega"] = result["omega"]
    return fp


def failure(job: Job, run: JobRun, expected: dict) -> str | None:
    """Why this job counts as failed, or None when its output is correct."""
    if run.error is not None:
        return run.error
    try:
        fp = fingerprint(run.code, run.out)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable record: {type(exc).__name__}: {exc}"
    if fp.get("passed") == 0 and fp.get("failed") == 0:
        return "verify suite ran zero checks"
    want = expected.get(job.name)
    if want is None:
        return "no frozen expected value"
    if fp != want:
        return f"mismatch: got {fp}, expected {want}"
    return None


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text())["jobs"]
