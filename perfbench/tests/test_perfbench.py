"""Tests of the benchmark itself: job generation, the correctness gate, tracing.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import run  # noqa: E402
import setup_probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = setup_probe.setup(ROOT)
EXPECTED = workloads.load_expected()
SMALL_JOBS = [workloads.chain_job("fermat", 9), workloads.chain_job("pepin", 8),
              workloads.chain_job("mersenne", 89), workloads.rank_job(workloads.RANK_POOL[0]),
              workloads.cmd_job("verify appendix --n 3")]
SMALL_EXPECTED = {**EXPECTED, "verify appendix --n 3": {"code": 0, "passed": 18, "failed": 0}}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_deterministic_per_seed(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)


def test_seed_draws_inputs_and_order():
    lists = {tuple(j.name for j in workloads.make_jobs("many-small", s)) for s in range(5)}
    assert len(lists) == 5
    orders = {tuple(j.name for j in workloads.make_jobs("oracles-13", s)) for s in range(10)}
    assert len(orders) > 1


def test_every_job_a_seed_can_draw_is_frozen():
    for seed in range(50):
        for workload in workloads.WORKLOADS:
            for job in workloads.make_jobs(workload, seed):
                assert job.name in EXPECTED, job.name


def test_frozen_values_agree_with_independent_routes():
    f13 = EXPECTED["test fermat 13"]["witness_res64"]
    assert EXPECTED[workloads.UV_MOD_F13.name]["last_v_res64"] == f13
    for n in range(1, 12):
        F = (1 << (1 << n)) + 1
        r = pow(3, (F - 1) // 2, F)
        assert EXPECTED[f"test pepin {n}"]["witness_res64"] == (
            None if r == F - 1 else workloads.res64(r))
    for n in range(1, 13):
        F = (1 << (1 << n)) + 1
        s = 5 % F
        for _ in range((1 << n) - 2):
            s = (s * s - 2) % F
        assert EXPECTED[f"test fermat {n}"]["witness_res64"] == (workloads.res64(s) if s else None)


def test_correct_outputs_pass_the_gate():
    result = run.run_pass(CLI, SMALL_JOBS, SMALL_EXPECTED)
    assert result.failures == []
    assert result.chain_steps == (1 << 9) - 2 + (1 << 8) - 1 + 89 - 2


def test_corrupted_res64_counts_as_failed():
    job = SMALL_JOBS[0]
    good = SMALL_EXPECTED[job.name]["witness_res64"]
    bad = f"{int(good, 16) ^ 1:016x}"
    corrupted = {**SMALL_EXPECTED, job.name: {**SMALL_EXPECTED[job.name], "witness_res64": bad}}
    result = run.run_pass(CLI, SMALL_JOBS, corrupted)
    assert len(result.failures) == 1 and result.failures[0].startswith(job.name)
    assert len(result.failures) / len(result.job_s) == 1 / len(SMALL_JOBS)


def test_empty_suite_and_exit_2_count_as_failed():
    empty = workloads.cmd_job("verify congruences --p-max 3")
    usage = workloads.cmd_job("test fermat 0")
    expected = {**SMALL_EXPECTED, empty.name: {"code": 0, "passed": 0, "failed": 0}}
    result = run.run_pass(CLI, [empty, usage], expected)
    assert [f.split(": ", 1)[1][:6] for f in result.failures] == ["verify", "exit 2"]


def test_raising_job_counts_as_failed():
    def crash(argv):
        raise ZeroDivisionError("boom")

    result = run.run_pass(SimpleNamespace(main=crash), SMALL_JOBS[:1], SMALL_EXPECTED)
    assert result.failures == [f"{SMALL_JOBS[0].name}: ZeroDivisionError: boom"]


def _binding_snapshot():
    return {(mod.__name__, name): obj for mod in tracing.package_modules()
            for name, obj in vars(mod).items() if callable(obj)}


def test_traced_runs_restore_bindings_and_repeat_counts():
    before = _binding_snapshot()
    first, _ = run.trace(CLI, SMALL_JOBS, SMALL_EXPECTED, passes=2)
    second, spans = run.trace(CLI, SMALL_JOBS, SMALL_EXPECTED, passes=1)
    after = _binding_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracing.traced_bindings() == []

    calls = [{k: v[0] for k, v in t.stats.items()} for t in first + second]
    assert calls[0] == calls[1] == calls[2]
    assert calls[0]["cli.main"] == len(SMALL_JOBS)
    assert calls[0]["quadratic.fermat_mod"] >= (1 << 9) - 2  # via primality.fermat_mod
    assert first[0].stats["primality.s_sequence"][3] == (1 << 9) - 2
    assert all(t.run.failures == [] for t in first + second)
    assert spans and all(parent is None or parent < span_id
                         for span_id, parent, *_ in spans)


def test_untraced_runs_see_original_functions():
    run.trace(CLI, SMALL_JOBS[:1], SMALL_EXPECTED, passes=1)
    cli = sys.modules["fermatlucas.cli"]
    primality = sys.modules["fermatlucas.primality"]
    assert not hasattr(cli.fermat_llt, "__wrapped__")
    assert not hasattr(primality.fermat_mod, "__wrapped__")
    assert run.measure(CLI, SMALL_JOBS[:1], SMALL_EXPECTED, passes=1)[0].failures == []
    with tracing.Tracer():
        with pytest.raises(RuntimeError):
            run.measure(CLI, SMALL_JOBS[:1], SMALL_EXPECTED, passes=1)


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([1.0, 2.0]) == (1.0, 50.0)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fermat-14", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


KERNEL_S = 1e-3


def _clock_with_samples(slowness):
    """A SpeedClock whose kernel ran for 1 ms at t = 1, 2, ..., at the given slowness."""
    speed = clock.SpeedClock()
    for i, s in enumerate(slowness, start=1):
        speed.starts.append(float(i))
        speed.ends.append(i + KERNEL_S)
        speed.slowness["fold"].append(s)
    return speed


def test_corrected_time_is_wall_time_at_the_calibrated_speed():
    speed = _clock_with_samples([1.0] * 20)
    # 0.5 .. 10.5 holds 10 samples; their kernel time is left out.
    assert speed.corrected(0.5, 10.5) == pytest.approx(10.0 - 10 * KERNEL_S)


def test_corrected_time_scales_with_the_measured_slowness():
    slow = _clock_with_samples([2.0] * 20)
    fast = _clock_with_samples([1.0] * 20)
    assert slow.corrected(3.5, 4.5) == pytest.approx(fast.corrected(3.5, 4.5) / 2)
    # Each stretch takes the slowness of the samples around it.
    mixed = _clock_with_samples([1.0] * 10 + [2.0] * 10)
    assert mixed.corrected(2.5, 3.5) == pytest.approx(fast.corrected(2.5, 3.5))
    assert mixed.corrected(16.5, 17.5) == pytest.approx(slow.corrected(16.5, 17.5))


def test_each_job_is_corrected_by_its_own_kernel_part():
    pepin, fermat = workloads.chain_job("pepin", 10), workloads.chain_job("fermat", 10)
    assert (pepin.kernel, fermat.kernel) == ("division", "fold")
    assert workloads.chain_job("pepin", 9).kernel == "fold"
    speed = run.speed_clock([pepin, fermat])
    speed._sample(None, None)
    assert [len(v) for v in speed.slowness.values()] == [1, 1]
    assert list(speed.slowness) == ["fold", "division"]
    speed.slowness["division"][0] = 2 * speed.slowness["fold"][0]
    t0, t1 = speed.ends[0] + 1.0, speed.ends[0] + 2.0
    assert speed.corrected(t0, t1, "division") == pytest.approx(speed.corrected(t0, t1) / 2)
    assert list(run.speed_clock([fermat]).slowness) == ["fold"]


def test_measure_reports_corrected_job_times():
    jobs = [workloads.chain_job("fermat", 12), workloads.chain_job("pepin", 11)]  # ~0.1 s
    speed = run.speed_clock(jobs)
    result = run.measure(CLI, jobs, SMALL_EXPECTED, passes=1, speed=speed)[0]
    assert speed.starts, "the timer took no samples"
    assert result.job_s == [speed.corrected(t0, t0 + s, job.kernel)
                            for t0, s, job in zip(result.starts, result.wall_job_s, jobs)]
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_measure_stops_after_the_pass_that_crosses_the_limit():
    assert len(run.measure(CLI, SMALL_JOBS[:1], SMALL_EXPECTED, passes=3, limit_s=0.0)) == 1
