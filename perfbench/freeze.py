"""Regenerate expected.json: the frozen fingerprint of every job a seed can produce.

    python3 perfbench/freeze.py

Each value comes from the CLI itself, so before anything is written the
records are cross-checked by routes that do not share its code path:

- `test pepin n` against a plain pow(3, (F-1)/2, F) computed here;
- `test fermat n` and `test mersenne q` against squaring chains that reduce
  with `%` instead of folding (every n and q the workloads use);
- the F_13 uv-mod row against the `test fermat 13` witness;
- `rank m` against the characterisation m | u_bar(k) iff omega | k, checked
  with fast doubling at omega and at omega/q for each prime q | omega;
- uv-mod and uv-exact tables against first-order stepping (`iter_pairs`);
- every verify suite must pass with a nonzero number of checks.

Takes about half a minute; rerun only when a job's output is meant to change.
"""

from __future__ import annotations

import itertools
import json
import sys

import setup_probe
import workloads

REFERENCE_JOBS = (workloads.chain_job("fermat", 13),)


def _percent_chain(seed: int, c: int, steps: int, modulus: int) -> int:
    s = seed % modulus
    for _ in range(steps):
        s = (s * s - c) % modulus
    return s


def _prime_factors(k: int) -> set[int]:
    out, d = set(), 2
    while d * d <= k:
        while k % d == 0:
            out.add(d)
            k //= d
        d += 1
    if k > 1:
        out.add(k)
    return out


def _require(ok: bool, job: workloads.Job) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed for {job.name}")


def cross_check(job: workloads.Job, record: dict, records: dict) -> None:
    lucas = sys.modules["fermatlucas.lucas"]
    result = record["result"]
    argv = job.argv
    if argv[0] == "test":
        kind, index = argv[1], int(argv[2])
        if kind == "pepin":
            F = (1 << (1 << index)) + 1
            r = pow(3, (F - 1) // 2, F)
            want = None if r == F - 1 else r
        elif kind == "fermat":
            F = (1 << (1 << index)) + 1
            want = _percent_chain(5, 2, (1 << index) - 2, F) or None
        else:
            want = _percent_chain(4, 2, index - 2, (1 << index) - 1) or None
        _require(result["witness"] == want, job)
        _require((result["classification"] == "prime") == (want is None), job)
    elif argv[0] == "rank":
        m, omega = int(argv[1]), result["omega"]
        u_at = lambda k: lucas.uv_mod(lucas.STANDARD_PARAMS, k, m).u_bar  # noqa: E731
        _require(omega is not None and u_at(omega) == 0, job)
        _require(all(u_at(omega // q) != 0 for q in _prime_factors(omega)), job)
    elif argv[0] == "table":
        rows = result["rows"]
        if job.name == workloads.UV_MOD_F13.name:
            witness = records["test fermat 13"]["result"]["witness"]
            _require([r["v"] for r in rows] == [witness], job)
            return
        modulus = record["inputs"]["modulus"]
        stepped = itertools.islice(lucas.iter_pairs(lucas.STANDARD_PARAMS, modulus), len(rows))
        for row, pair in zip(rows, stepped, strict=True):
            _require((row["i"], row["u"], row["v"]) == (pair.index, pair.u_bar, pair.v_bar), job)
    else:
        _require(result["passed"] > 0 and result["failed"] == 0, job)


def main() -> int:
    sys.set_int_max_str_digits(0)
    cli = setup_probe.setup(workloads.HERE.parent)
    jobs = list(REFERENCE_JOBS) + workloads.all_jobs()
    records, frozen = {}, {}
    for job in jobs:
        run = workloads.run_job(cli, job)
        if run.error is not None:
            raise SystemExit(f"{job.name}: {run.error}")
        records[job.name] = json.loads(run.out)
        frozen[job.name] = workloads.fingerprint(run.code, run.out)
    for job in jobs:
        cross_check(job, records[job.name], records)
    payload = {"generated_by": "perfbench/freeze.py", "jobs": dict(sorted(frozen.items()))}
    workloads.EXPECTED_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"froze {len(frozen)} jobs into {workloads.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
