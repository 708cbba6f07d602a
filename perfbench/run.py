"""Benchmark of the fermatlucas CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload fermat-14 --seed 1 --seconds 30 --trace 0

Every job runs in this process through `fermatlucas.cli.main(argv)` with its
stdout captured, and is checked against frozen expected values.  With
`--trace 0` the run reports the end-to-end metrics, timed on the
speed-corrected clock of clock.py; with `--trace 1` it reports the
per-layer metrics of a traced run, in plain wall time.  Stdout ends with a run
metadata line, one line per metric, and a last line holding one JSON object
with the keys correct, attempted, failed and metrics.  README.md describes
the workloads, the metrics and the changes each metric should show.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import clock
import probes
import setup_probe
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

# Seconds per pass over each job list, measured on the reference machine
# (2-CPU Intel Xeon, Python 3.11.7).  A run makes a fixed number of passes,
# round(seconds / NOMINAL_PASS_S), rather than stopping on the clock, so
# that two commits measure the same job count and the tail percentile sits
# at the same rank on both.
NOMINAL_PASS_S = {"fermat-14": 2.2, "oracles-13": 3.3, "many-small": 1.6}
# On a host much slower than that, a run stops after the pass that crosses
# STRETCH * seconds, so that its length stays bounded.
STRETCH = 1.5
SETUP_PROBES = 15
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "chain_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Layer functions reported with calls and self time; the rate metric of the
# ones with work units (see tracing.WORK) is named here too.
CALLS_SELF = (
    "cli.main",
    "primality.s_sequence",
    "primality.pepin",
    "primality.mersenne_llt",
    "primality.rank_of_apparition",
    "primality.certify_via_rank",
    "primality.lehmer_congruence_checks",
    "primality.is_prime",
    "lucas.uv_mod",
    "lucas.lehmer_pairs_exact",
    "lucas.uv_exact",
    "lucas.check_sum_identity_u",
    "lucas.check_sum_identity_v",
    "quadratic.fermat_mod",
    "quadratic.mersenne_mod",
    "quadratic.qmul",
    "symbols.jacobi",
)
RATES = {
    "primality.s_sequence": "us_per_step",
    "primality.pepin": "us_per_step",
    "primality.mersenne_llt": "us_per_step",
    "lucas.uv_mod": "us_per_index_bit",
}


def layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    units = {}
    for key in CALLS_SELF:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
        if key in RATES:
            units[f"{key}.{RATES[key]}"] = "us"
    units["cli.stdout_bytes"] = "bytes"
    units["lucas.iter_pairs.items"] = "count"
    for n in probes.PROBE_NS:
        for part in ("square_us", "fold_us", "overhead_us", "overhead_us_iqr"):
            units[f"primality.s_sequence.n{n}.{part}"] = "us"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Pass:
    starts: list[float] = field(default_factory=list)
    wall_job_s: list[float] = field(default_factory=list)
    job_s: list[float] = field(default_factory=list)  # corrected, when measured
    job_steps: list[int] = field(default_factory=list)
    stdout_bytes: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.job_s)

    @property
    def chain_steps(self) -> int:
        return sum(self.job_steps)

    @property
    def chain_s(self) -> float:
        return sum(s for s, steps in zip(self.job_s, self.job_steps) if steps)


def run_pass(cli, jobs, expected) -> Pass:
    """One pass over the job list; each job is checked after its timer stops.

    `job_s` holds wall times here; `measure` replaces them by corrected ones.
    """
    gc.collect()
    result = Pass()
    for job in jobs:
        run = workloads.run_job(cli, job)
        result.starts.append(run.start)
        result.wall_job_s.append(run.seconds)
        result.job_s.append(run.seconds)
        result.job_steps.append(job.steps)
        result.stdout_bytes += len(run.out.encode())
        reason = workloads.failure(job, run, expected)
        if reason is not None:
            result.failures.append(f"{job.name}: {reason}")
    return result


def _require_untraced() -> None:
    leftover = tracing.traced_bindings()
    if leftover:
        raise RuntimeError(f"traced wrappers installed: {leftover[:3]}")


def speed_clock(jobs) -> clock.SpeedClock:
    """A speed clock that times the kernel parts these jobs are corrected by."""
    return clock.SpeedClock([p for p in clock.PARTS if any(j.kernel == p for j in jobs)])


def measure(cli, jobs, expected, passes: int, limit_s: float = float("inf"),
            speed: clock.SpeedClock | None = None) -> list[Pass]:
    """Untraced passes on the speed-corrected clock, ending early once `limit_s` has passed.

    Refuses to run while any traced wrapper is installed.
    """
    _require_untraced()
    speed = speed or speed_clock(jobs)
    start = perf_counter()
    runs = []
    with speed:
        for _ in range(passes):
            runs.append(run_pass(cli, jobs, expected))
            if perf_counter() - start > limit_s:
                break
    for r in runs:
        r.job_s = [speed.corrected(t0, t0 + s, job.kernel)
                   for t0, s, job in zip(r.starts, r.wall_job_s, jobs)]
    return runs


@dataclass
class TracedPass:
    run: Pass
    stats: dict
    items: dict


def trace(cli, jobs, expected, passes: int) -> tuple[list[TracedPass], list[tuple]]:
    """Traced passes, and the spans of the first one; bindings restored after."""
    tracer = tracing.Tracer()
    traced = []
    spans = []
    with tracer:
        for i in range(passes):
            tracer.new_pass(record_spans=i == 0)
            run = run_pass(cli, jobs, expected)
            traced.append(TracedPass(run, tracer.stats, tracer.items))
            if i == 0:
                spans = tracer.spans
    _require_untraced()
    return traced, spans


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(samples)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(runs: list[Pass], setup_s: float) -> tuple[dict, dict]:
    job_s = [s for r in runs for s in r.job_s]
    tail_s, tail_pct = tail(job_s)
    # Every pass runs each job once, so each job weighs the same in the
    # median; taking each job's median over passes first keeps a slow pass
    # from moving it.
    per_job = [statistics.median(times) for times in zip(*(r.job_s for r in runs))]
    metrics = {
        "wall_s": statistics.median(r.wall_s for r in runs),
        "job_s_p50": statistics.median(per_job),
        "job_s_tail": tail_s,
        "chain_steps_per_s": statistics.median(r.chain_steps / r.chain_s for r in runs),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"job_s_tail_percentile": tail_pct, "job_samples": len(job_s)}


def per_layer(untraced: list[Pass], traced: list[TracedPass], probe: dict) -> dict:
    first = traced[0]
    metrics = {}
    for key in CALLS_SELF:
        metrics[f"{key}.calls"] = first.stats.get(key, (0,))[0]
        metrics[f"{key}.self_s"] = statistics.median(
            t.stats.get(key, (0, 0.0, 0.0))[2] for t in traced)
        if key in RATES:
            per_unit = []
            for t in traced:
                _, incl_s, _, work = t.stats.get(key, (0, 0.0, 0.0, 0))
                per_unit.append(incl_s * 1e6 / work if work else 0.0)
            metrics[f"{key}.{RATES[key]}"] = statistics.median(per_unit)
    metrics["cli.stdout_bytes"] = first.run.stdout_bytes
    metrics["lucas.iter_pairs.items"] = first.items.get("lucas.iter_pairs", 0)
    for n, parts in probe.items():
        for part, value in parts.items():
            metrics[f"primality.s_sequence.n{n}.{part}"] = value
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(t.run.wall_job_s) for t in traced)
        / statistics.median(sum(r.wall_job_s) for r in untraced))
    return metrics


def setup_seconds(count: int) -> float:
    """Median set-up time over `count` fresh interpreters, run one at a time."""
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def run_metadata(seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode())
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(ROOT),
        "source_sha256": sources.hexdigest(),
        "seed": seed,
    }


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.set_int_max_str_digits(0)  # records carry multi-thousand-digit residues
    try:
        cli = setup_probe.setup(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import fermatlucas from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1
    expected = workloads.load_expected()
    jobs = workloads.make_jobs(args.workload, args.seed)
    passes = pass_count(args.workload, args.seconds)
    meta = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "jobs_per_pass": len(jobs), **run_metadata(args.seed)}

    if args.trace:
        share = max(1, passes // 3)
        # Plain wall time on both sides of trace.overhead_ratio: no speed clock.
        _require_untraced()
        untraced = [run_pass(cli, jobs, expected) for _ in range(share)]
        traced, spans = trace(cli, jobs, expected, share)
        fermat_mod = sys.modules["fermatlucas.quadratic"].fermat_mod
        probe = {n: probes.chain_probe(fermat_mod, n) for n in probes.PROBE_NS}
        runs = untraced + [t.run for t in traced]
        metrics, units = per_layer(untraced, traced, probe), layer_units()
        meta.update(passes_untraced=share, passes_traced=share, spans=len(spans))
    else:
        setup_s = setup_seconds(SETUP_PROBES)
        speed = speed_clock(jobs)
        runs = measure(cli, jobs, expected, passes, STRETCH * args.seconds, speed)
        metrics, extra = end_to_end(runs, setup_s)
        units = END_TO_END
        meta.update(passes=len(runs), **extra,
                    wall_s_uncorrected=statistics.median(sum(r.wall_job_s) for r in runs),
                    **{f"slowness_{part}_p{p}": statistics.quantiles(values, n=20)[p // 5 - 1]
                       for part, values in speed.slowness.items() for p in (5, 50)})
        spans = []

    attempted = sum(len(r.job_s) for r in runs)
    failures = [f for r in runs for f in r.failures]
    meta.update(failed_ratio=len(failures) / attempted, failures=failures[:10])

    OUT_DIR.mkdir(exist_ok=True)
    origin = min((span[3] for span in spans), default=0.0)
    record = {"meta": meta, "metrics": metrics,
              "spans": [{"id": i, "parent": p, "name": k, "start_s": t0 - origin,
                         "end_s": t1 - origin} for i, p, k, t0, t1 in spans]}
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record))

    print(json.dumps({"meta": meta}, sort_keys=True))
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
