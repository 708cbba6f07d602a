import json
import resource
import subprocess
import sys

import pytest

from conftest import cli_env
from golden_data import EXACT_ROWS, MOD_ROWS

FERMAT_VALUES = {1: 5, 2: 17, 3: 257, 4: 65537}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "fermatlucas", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
    )
    return proc


def run_cli_limited(*args, timeout=60):
    """run_cli under a 2 GB address-space limit and a time limit.

    A command that tried to build a huge Fermat number fails fast here
    instead of exhausting the machine's memory.
    """
    limit = 2 * 10**9
    return subprocess.run(
        [sys.executable, "-m", "fermatlucas", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def record_of(proc):
    assert proc.returncode != 2, proc.stderr
    return json.loads(proc.stdout)


def test_exit_codes_total():
    assert run_cli("test", "fermat", "4").returncode == 0
    assert run_cli("test", "fermat", "5").returncode == 1
    assert run_cli("test", "fermat", "0").returncode == 2
    assert run_cli("test", "mersenne", "7").returncode == 0
    assert run_cli("test", "mersenne", "11").returncode == 1
    assert run_cli("test", "mersenne", "4").returncode == 2
    assert run_cli("test", "pepin", "2").returncode == 0
    assert run_cli("test", "pepin", "5").returncode == 1
    assert run_cli("test", "bogus", "1").returncode == 2
    assert run_cli("verify", "bogus").returncode == 2
    assert run_cli("rank", "1").returncode == 2


def test_record_schema():
    rec = record_of(run_cli("test", "fermat", "2"))
    assert set(rec) == {"command", "inputs", "result", "timing_ms"}
    assert rec["command"] == "test"
    assert rec["inputs"] == {"kind": "fermat", "index": 2, "seed": 5, "experimental": False}
    assert rec["result"]["classification"] == "prime"
    assert rec["result"]["method"] == "llt-fermat"
    assert rec["result"]["proven"] is True


def test_composite_witness_in_record():
    rec = record_of(run_cli("test", "fermat", "5"))
    assert rec["result"]["classification"] == "composite"
    assert rec["result"]["witness"] not in (None, 0)


def test_seed_flag_policy():
    assert run_cli("test", "fermat", "2", "--seed", "6").returncode == 2
    proc = run_cli("test", "fermat", "2", "--seed", "6", "--experimental")
    assert proc.returncode in (0, 1)
    rec = json.loads(proc.stdout)
    assert rec["result"]["proven"] is False
    assert run_cli("test", "mersenne", "7", "--seed", "6").returncode == 2


def test_byte_stability():
    first = run_cli("verify", "traces")
    second = run_cli("verify", "traces")
    a, b = json.loads(first.stdout), json.loads(second.stdout)
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_table_exact_golden():
    rec = record_of(run_cli("table", "uv-exact", "--max", "40"))
    rows = rec["result"]["rows"]
    assert len(rows) == 41
    for (i, u, v), row in zip(EXACT_ROWS, rows):
        assert row["i"] == i
        assert row["u"] == u
        assert row["v"] == v
        assert row["u_radical"] == (i % 2 == 0)
        assert row["v_radical"] == (i % 2 == 1)


def test_table_exact_single_row():
    rec = record_of(run_cli("table", "uv-exact", "--max", "0"))
    assert rec["result"]["rows"] == [
        {"i": 0, "u": 0, "u_radical": True, "v": 2, "v_radical": False}
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_mod_golden(n):
    F = FERMAT_VALUES[n]
    indices = ",".join(str(i) for i, _, _ in MOD_ROWS[n])
    rec = record_of(
        run_cli("table", "uv-mod", "--modulus-fermat", str(n), "--indices", indices)
    )
    rows = {row["i"]: row for row in rec["result"]["rows"]}
    for i, gu, gv in MOD_ROWS[n]:
        assert (rows[i]["u"] - gu) % F == 0
        assert (rows[i]["v"] - gv) % F == 0
        assert 0 <= rows[i]["u"] < F and 0 <= rows[i]["v"] < F


def test_table_mod_with_max_range():
    rec = record_of(run_cli("table", "uv-mod", "--modulus-fermat", "2", "--max", "24"))
    rows = rec["result"]["rows"]
    assert len(rows) == 25
    for (i, gu, gv), row in zip(MOD_ROWS[2], rows):
        assert row["i"] == i
        assert (row["u"] - gu) % 17 == 0
        assert (row["v"] - gv) % 17 == 0


def test_table_mod_plain_modulus():
    rec = record_of(run_cli("table", "uv-mod", "--modulus", "17", "--max", "16"))
    assert rec["result"]["rows"][16]["u"] == 0
    assert rec["result"]["rows"][16]["v_balanced"] == -2


def test_table_flag_validation():
    assert run_cli("table", "uv-exact", "--max", "5", "--modulus", "17").returncode == 2
    assert run_cli("table", "uv-mod", "--max", "5").returncode == 2
    assert run_cli("table", "uv-exact").returncode == 2
    assert run_cli("table", "uv-exact", "--max", "3", "--indices", "1,2").returncode == 2
    assert run_cli("table", "uv-exact", "--max", "20000").returncode == 2
    assert run_cli("table", "uv-mod", "--modulus", "16", "--max", "3").returncode == 2
    assert (
        run_cli("table", "uv-mod", "--modulus", "17", "--modulus-fermat", "2", "--max", "1").returncode
        == 2
    )


def test_table_human_rendering():
    proc = run_cli("--human", "table", "uv-exact", "--max", "3")
    assert proc.returncode == 0
    assert proc.stdout == (
        "i |   U_i |   V_i\n"
        "0 | 0 ×√7 |     2\n"
        "1 |     1 | 1 ×√7\n"
        "2 | 1 ×√7 |     5\n"
        "3 |     6 | 4 ×√7\n"
    )
    proc = run_cli("--human", "table", "uv-mod", "--modulus-fermat", "3", "--indices", "64")
    assert "197 = -60" in proc.stdout


def test_table_params_validation():
    assert run_cli("table", "uv-exact", "--params", "9,1", "--max", "3").returncode == 2
    assert run_cli("table", "uv-exact", "--params", "7,1,2", "--max", "3").returncode == 2
    assert run_cli("table", "uv-mod", "--modulus-fermat", "0", "--max", "3").returncode == 2


def test_indices_accept_any_order_and_duplicates():
    rec = record_of(run_cli("table", "uv-exact", "--indices", "8,2,2,5"))
    assert [r["i"] for r in rec["result"]["rows"]] == [2, 5, 8]


def test_table_alternate_params():
    rec = record_of(run_cli("table", "uv-exact", "--params", "3,-1", "--max", "5"))
    rows = rec["result"]["rows"]
    assert [r["u"] for r in rows] == [0, 1, 1, 4, 5, 19]
    assert [r["v"] for r in rows] == [2, 1, 5, 6, 23, 29]


@pytest.mark.parametrize("suite", ["identities", "congruences", "appendix", "rank", "traces"])
def test_verify_suites_pass(suite):
    proc = run_cli("verify", suite)
    assert proc.returncode == 0, proc.stdout[-2000:]
    rec = json.loads(proc.stdout)
    assert rec["result"]["failed"] == 0
    assert rec["result"]["passed"] == len(rec["result"]["checks"]) > 0


@pytest.mark.parametrize("p_max", ["3", "5"])
def test_verify_empty_suite_exits_2(p_max):
    # p = 3 divides QRD for both parameter sets, so these bounds leave no prime.
    proc = run_cli("verify", "congruences", "--p-max", p_max)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "zero checks" in proc.stderr


@pytest.mark.parametrize("sweep_max", ["1", "-1"])
def test_verify_rank_empty_sweep_exits_2(sweep_max, capsys):
    # Below 2 the existence sweep tests no modulus, so it must not read as passed.
    from fermatlucas import cli

    assert cli.main(["verify", "rank", "--sweep-max", sweep_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sweep_max must be >= 2, got {sweep_max}\n"


def test_verify_identities_flags():
    rec = record_of(run_cli("verify", "identities", "--m-max", "4", "--n-max", "4"))
    names = {c["name"] for c in rec["result"]["checks"]}
    assert "sum_identity_u_m4_n4" in names
    assert "sum_identity_u_m5_n4" not in names
    assert rec["result"]["failed"] == 0


def test_verify_appendix_single_n():
    rec = record_of(run_cli("verify", "appendix", "--n", "3"))
    assert len(rec["result"]["checks"]) == 18
    assert rec["result"]["failed"] == 0


def test_rank_command():
    rec = record_of(run_cli("rank", "17"))
    assert rec["result"]["omega"] == 16
    assert record_of(run_cli("rank", "5"))["result"]["omega"] == 4
    assert record_of(run_cli("rank", "31"))["result"]["omega"] == 16
    proc = run_cli("rank", "17", "--cap", "10")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["result"]["omega"] is None


def test_human_flag_on_test_and_rank():
    proc = run_cli("--human", "test", "fermat", "3")
    assert "F_3 is prime" in proc.stdout
    proc = run_cli("--human", "rank", "5")
    assert "omega(5) = 4" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ("test", "fermat", "33"),
        ("test", "fermat", "40"),
        ("test", "pepin", "63"),
        ("table", "uv-mod", "--modulus-fermat", "40"),
        # Refused before the chains for n = 1..32, which would run for years.
        ("verify", "traces", "--max-n", "33"),
    ],
    ids=["fermat33", "fermat40", "pepin63", "uv-mod-F40", "traces33"],
)
def test_oversized_fermat_index_exits_2(argv):
    proc = run_cli_limited(*argv, timeout=20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Fermat index must be <= 32" in proc.stderr


def test_oversized_identity_bounds_exit_2():
    # m_max*n_max = 20000 is over the exact-index cap; the suite must refuse
    # before stepping anything, not after the checks for every m <= 100.
    proc = run_cli_limited("verify", "identities", "--m-max", "200", "--n-max", "100", timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "capped at index 10000" in proc.stderr


def test_memory_error_exits_2(monkeypatch, capsys):
    # Exit 1 means "composite"; running out of memory must never read as that.
    from fermatlucas import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "fermat_llt", exhausted)
    assert cli.main(["test", "fermat", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


@pytest.mark.parametrize("argv", [
    ["test", "fermat", "5"],
    ["table", "uv-exact", "--max", "5"],
    ["table", "uv-mod", "--modulus-fermat", "3", "--max", "5"],
    ["verify", "appendix", "--n", "2"],
    ["rank", "17"],
])
def test_human_lines_are_built_only_under_human(argv, monkeypatch, capsys):
    from fermatlucas import cli

    calls = []
    for name in ("_cmd_test", "_cmd_table", "_cmd_verify", "_cmd_rank"):
        def counted(args, cmd=getattr(cli, name)):
            inputs, result, code, render = cmd(args)  # render builds the --human lines
            return inputs, result, code, lambda: calls.append(argv) or render()
        monkeypatch.setattr(cli, name, counted)
    cli.main(argv)
    assert calls == [] and capsys.readouterr().out.startswith('{"command"')
    cli.main(["--human", *argv])
    assert calls == [argv] and not capsys.readouterr().out.startswith("{")


def test_closed_stdout_exits_2_quietly():
    # A reader that stops early (`| head -c 10`) must not read as "composite".
    proc = subprocess.Popen(
        [sys.executable, "-m", "fermatlucas", "table", "uv-exact", "--max", "3000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=cli_env(),
    )
    assert proc.stdout.read(10) == b'{"command"'
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 2
    assert b"Traceback" not in stderr


def test_one_parser_serves_every_call(capsys):
    from fermatlucas import cli

    cli.build_parser.cache_clear()
    for argv in (["test", "fermat", "3"], ["rank", "5"], ["table", "uv-exact", "--max", "2"],
                 ["verify", "appendix", "--n", "2"], ["--human", "test", "pepin", "2"]):
        cli.main(argv)
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


def test_no_state_leaks_between_calls(capsys):
    from fermatlucas import cli

    def record(argv):
        assert cli.main(argv) == 0
        rec = json.loads(capsys.readouterr().out)
        del rec["timing_ms"]
        return rec

    argv = ["table", "uv-mod", "--modulus", "7", "--max", "2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "uv-mod", "--bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    alternate = record([*argv, "--params", "3,-1"])
    reused = record(argv)
    cli.build_parser.cache_clear()
    fresh = record(argv)
    assert reused == fresh
    assert fresh["inputs"]["params"] == {"R": 7, "Q": 1} and alternate != fresh


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Measured against the fresh interpreter's own start-up set, so modules
    # that `site` or a .pth file preloads do not count.
    code = ("import sys; before = set(sys.modules); import fermatlucas.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fermatlucas.cli" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
