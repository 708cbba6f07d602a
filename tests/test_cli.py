import json
import re
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


@pytest.mark.parametrize("argv, message", [
    (("--modulus", "17", "--modulus-fermat", "2", "--max", "1"),
     "argument --modulus-fermat: not allowed with argument --modulus"),
    (("--modulus", "17", "--max", "3", "--indices", "1,2"),
     "argument --indices: not allowed with argument --max"),
])
def test_table_flag_pairs_are_exclusive_in_argparse(argv, message, capsys):
    from fermatlucas import cli

    with pytest.raises(SystemExit) as exit_info:
        cli.main(["table", "uv-mod", *argv])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"fermatlucas table: error: {message}\n")
    assert "[--modulus N | --modulus-fermat n]" in captured.err
    assert "[--max MAX | --indices i,j,...]" in captured.err


@pytest.mark.parametrize("text", ["1,x", "", "1,,2"])
def test_table_refuses_a_malformed_index_list_in_argparse(text, capsys):
    from fermatlucas import cli

    with pytest.raises(SystemExit) as exit_info:
        cli.main(["table", "uv-mod", "--modulus", "17", "--indices", text])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"fermatlucas table: error: argument --indices: bad index list {text!r}\n")


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
    # Cells narrower than their heading: the heading sets the column's width.
    assert run_cli("--human", "table", "uv-exact", "--max", "0").stdout == (
        "i |   U_i | V_i\n"
        "0 | 0 ×√7 |   2\n"
    )
    assert run_cli("--human", "table", "uv-exact", "--indices", "0,2").stdout == (
        "i |   U_i | V_i\n"
        "0 | 0 ×√7 |   2\n"
        "2 | 1 ×√7 |   5\n"
    )


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


@pytest.mark.parametrize("p_max", [str(2**63), str(10**19)])
def test_verify_sieve_past_any_index_exits_2(p_max, capsys):
    # The sieve's bytearray cannot have p_max entries: exit 2, never 1, and say which bound.
    from fermatlucas import cli

    assert cli.main(["verify", "congruences", "--p-max", p_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: p_max must be <= {sys.maxsize}, got {p_max}\n"


def test_verify_sieve_out_of_memory_exits_2_before_the_start_tables():
    # Below sys.maxsize the allocator refuses the sieve's bytearray.  The
    # ladder's start tables, built after the sieve and within the exact-index
    # cap, never replace that error with one of their own.
    proc = run_cli_limited("verify", "congruences", "--p-max", str(10**18), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: out of memory\n"


@pytest.mark.parametrize("argv, message", [
    (("identities", "--m-max", "1"), "m_max must be >= 2, got 1"),
    (("identities", "--m-max", "0", "--n-max", "0"), "m_max must be >= 2, got 0"),
    (("identities", "--n-max", "0"), "n_max must be >= 1, got 0"),
    (("traces", "--max-n", "0"), "max_n must be >= 1, got 0"),
    (("traces", "--max-n", "-3"), "max_n must be >= 1, got -3"),
])
def test_verify_bounds_that_check_nothing_exit_2(argv, message, capsys):
    # These bounds select no sum identity or no final residue; the suite
    # must not read as passed over a range it never checked.
    from fermatlucas import cli

    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


SUITE_FLAGS = {
    "identities": ("--m-max", "--n-max"), "congruences": ("--p-max",), "appendix": ("--n",),
    "rank": (), "traces": ("--max-n",),
}
# The rank suite's sweep (m <= 500) and cap are constants: no suite takes these.
CONSTANT_FLAGS = ("--sweep-max", "--cap")


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for suite in SUITE_FLAGS for other in SUITE_FLAGS if other != suite
    for flag in SUITE_FLAGS[other]
] + [(suite, flag) for suite in SUITE_FLAGS for flag in CONSTANT_FLAGS])
def test_verify_refuses_a_bound_of_another_suite(suite, flag, capsys, monkeypatch):
    # The suite would ignore the bound, yet the record would show it.  A flag
    # that no suite takes is refused by argparse itself.
    from fermatlucas import cli

    monkeypatch.setattr(cli.verify, suite, None)  # refused before the suite runs
    if flag in CONSTANT_FLAGS:
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["verify", suite, flag, "7"])
        code = exit_info.value.code
        err = (cli.build_parser().format_usage()
               + f"fermatlucas: error: unrecognized arguments: {flag} 7\n")
    else:
        code, err = cli.main(["verify", suite, flag, "7"]), f"error: verify {suite} takes no {flag}\n"
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("suite", SUITE_FLAGS)
def test_verify_record_lists_only_the_suite_bounds(suite, capsys, monkeypatch):
    # `verify rank` records {"suite": "rank"}; `verify congruences` adds p_max alone.
    from fermatlucas import cli

    monkeypatch.setattr(cli.verify, suite, lambda **bounds: [cli.verify.Check("stub", True)])
    assert cli.main(["verify", suite]) == 0
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    assert set(inputs) == {"suite", *(flag[2:].replace("-", "_") for flag in SUITE_FLAGS[suite])}
    assert inputs["suite"] == suite


@pytest.mark.parametrize("suite", SUITE_FLAGS)
def test_verify_runs_the_suite_keyword_only_defaults(suite, capsys):
    # The CLI states no bound of its own: each is a keyword-only parameter of
    # the suite, and its default is what `verify SUITE` runs with no flag.
    import inspect

    from fermatlucas import cli

    run = getattr(cli.verify, suite)
    params = inspect.signature(run).parameters.values()
    assert all(p.kind is p.KEYWORD_ONLY and p.default is not p.empty for p in params)
    defaults = {p.name: p.default for p in params}
    with pytest.raises(TypeError):
        run(0)
    assert cli.main(["verify", suite]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"] == {"suite": suite, **defaults}


def test_verify_failing_check_exits_1_with_its_detail(capsys, monkeypatch):
    # The goldens are all-pass; a stub suite sends one failure through both renderers.
    from fermatlucas import cli

    def suite():
        yield cli.verify.Check("holds", True)
        yield cli.verify.Check("breaks", False, "got 3")

    monkeypatch.setattr(cli.verify, "rank", suite)
    assert cli.main(["verify", "rank"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["checks"] == [{"name": "holds", "pass": True},
                                {"name": "breaks", "pass": False, "detail": "got 3"}]
    assert (result["passed"], result["failed"]) == (1, 1)
    assert cli.main(["--human", "verify", "rank"]) == 1
    assert capsys.readouterr().out == "ok   holds\nFAIL breaks  (got 3)\n1 passed, 1 failed\n"


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
    # omega(1000033) exceeds the constant cap of 10^6 steps.
    proc = run_cli("rank", "1000033")
    assert proc.returncode == 1
    rec = json.loads(proc.stdout)
    assert rec["result"] == {"cap": 1000000, "omega": None}
    assert rec["inputs"] == {"m": 1000033}


def test_rank_command_refuses_cap(capsys):
    # The cap is a constant; only library callers of rank_of_apparition set it.
    from fermatlucas import cli

    with pytest.raises(SystemExit) as exit_info:
        cli.main(["rank", "17", "--cap", "10"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (cli.build_parser().format_usage()
                            + "fermatlucas: error: unrecognized arguments: --cap 10\n")


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


@pytest.mark.parametrize("max_index", [20000000, 10**15, 10**20])
def test_oversized_exact_table_exits_2_with_the_cap(max_index):
    # The index range is never materialized: the cap is checked first, so
    # neither the time nor the 2 GB limit is reached.
    proc = run_cli_limited("table", "uv-exact", "--max", str(max_index), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"capped at index 10000, got {max_index}" in proc.stderr


@pytest.mark.parametrize("max_index", [20000000, 10**15, 10**20])
def test_oversized_mod_table_exits_2_with_the_row_cap(max_index):
    # No row is computed: 10^8 rows would run for about an hour.  Past
    # sys.maxsize, len() of the index range would raise OverflowError.
    proc = run_cli_limited("table", "uv-mod", "--modulus", "17", "--max", str(max_index), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"capped at 10001 rows, got {max_index + 1}" in proc.stderr


def test_mod_table_row_cap_counts_rows_of_max_and_indices_alike():
    record = record_of(run_cli("table", "uv-mod", "--modulus", "17", "--max", "10000"))
    assert [row["i"] for row in record["result"]["rows"]] == list(range(10001))
    proc = run_cli("table", "uv-mod", "--modulus", "17", "--max", "10001")
    assert proc.returncode == 2 and "capped at 10001 rows, got 10002" in proc.stderr
    # Duplicates are one row each; 10002 distinct indices are one too many.
    many = ",".join(map(str, [*range(10001), 5]))
    assert len(record_of(run_cli("table", "uv-mod", "--modulus", "17", "--indices", many))["result"]["rows"]) == 10001
    proc = run_cli("table", "uv-mod", "--modulus", "17", "--indices", ",".join(map(str, range(10002))))
    assert proc.returncode == 2 and "capped at 10001 rows, got 10002" in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (("uv-exact", "--max", "10001"), "exact evaluation is capped at index 10000, got 10001"),
    (("uv-exact", "--indices", "5,10001"), "exact evaluation is capped at index 10000, got 10001"),
    (("uv-exact", "--max", "-1"), "--max must be >= 0"),
    (("uv-mod", "--modulus", "17", "--indices=3,-1"), "indices must be >= 0"),
    (("uv-mod", "--max", "3"), "uv-mod needs --modulus or --modulus-fermat"),
    (("uv-exact", "--modulus", "17", "--max", "3"), "uv-exact takes no modulus"),
    (("uv-mod", "--modulus", "16", "--max", "3"), "modulus must be an odd integer >= 3, got 16"),
    (("uv-mod", "--params", "7,3", "--modulus", "9", "--max", "3"), "modulus 9 shares a factor with Q = 3"),
    (("uv-mod", "--modulus", "17", "--max", "10001"), "uv-mod tables are capped at 10001 rows, got 10002"),
])
def test_table_refusals_write_no_partial_record(argv, message, capsys):
    # Rows are written as they are computed; a refusal comes before the first.
    from fermatlucas import cli

    assert cli.main(["table", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("exc, message", [(ValueError("no such check"), "no such check"),
                                          (MemoryError(), "out of memory")])
@pytest.mark.parametrize("before", ["first check", "second batch"])
def test_error_after_the_first_check_exits_2(exc, message, before, capsys, monkeypatch):
    # The failed check makes the record read as exit 1; the error must win,
    # before the first byte and after it alike, as JSON and under --human.
    from fermatlucas import cli

    def suite():
        yield cli.verify.Check("breaks", False, "got 3")
        for k in range(cli._BATCH if before == "second batch" else 0):
            yield cli.verify.Check(f"holds_{k}", True)
        raise exc

    monkeypatch.setattr(cli.verify, "rank", suite)
    for human in ([], ["--human"]):
        assert cli.main([*human, "verify", "rank"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        if before == "first check":
            assert captured.out == ""
        elif human:  # the first batch of lines was written, with no summary line after it
            assert captured.out.startswith("FAIL breaks  (got 3)\n")
            assert captured.out.endswith(f"ok   holds_{cli._BATCH - 2}\n")
        else:  # the first batch was written, and the record stops there
            assert captured.out.startswith('{"command": "verify"') and not captured.out.endswith("\n")


# Above what the streamed records need (VmPeak 20-25 MB with Python 3.11 on
# x86-64 Linux), below what they needed held whole (112 MB for the table,
# 136 MB for the suite).
STREAM_LIMIT = 64 * 2**20
# A --human table holds its cell strings, which set the column widths: it
# runs under 96 MiB, and needed more than 400 MiB with every padded line held.
HUMAN_TABLE_LIMIT = 128 * 2**20


@pytest.mark.parametrize("argv", [
    ("verify", "congruences", "--p-max", "2000000"),
    ("table", "uv-exact", "--max", "10000"),
    ("--human", "verify", "congruences", "--p-max", "2000000"),
    ("--human", "table", "uv-exact", "--max", "10000"),
])
def test_large_records_stream_under_an_address_space_limit(argv, tmp_path):
    # Exit 0 with the bytes of an unlimited run, `timing_ms` aside.  The two
    # runs overlap: the unlimited one writes to a file, not a pipe.
    command = [sys.executable, "-m", "fermatlucas", *argv]
    limit = (HUMAN_TABLE_LIMIT,) * 2 if argv[:2] == ("--human", "table") else (STREAM_LIMIT,) * 2
    with open(tmp_path / "unlimited.json", "wb") as sink:
        free = subprocess.Popen(command, stdout=sink, env=cli_env())
        limited = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env(),
                                   preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit))
        out, err = limited.communicate(timeout=120)
        assert free.wait(timeout=120) == 0
    assert (limited.returncode, err) == (0, b"")
    reference = (tmp_path / "unlimited.json").read_bytes()

    def untimed(stdout):
        if argv[0] == "--human":  # a --human record has no timing_ms
            return stdout
        head, timing = stdout.rsplit(b', "timing_ms": ', 1)
        assert re.fullmatch(rb"[0-9.]+}\n", timing)
        return head

    assert untimed(out) == untimed(reference)


@pytest.mark.parametrize("q", [2**32 + 15, 2**61 - 1])
def test_oversized_mersenne_exponent_exits_2(q):
    # Both are prime: without the bound the first would run its chain on a
    # 512 MiB modulus, 4.3 * 10^9 steps.
    proc = run_cli_limited("test", "mersenne", str(q), timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"Mersenne exponent must be <= 2^32, got {q}" in proc.stderr


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
    human_lines = cli._human_lines

    def counted(record):
        calls.append(argv)
        return human_lines(record)

    monkeypatch.setattr(cli, "_human_lines", counted)
    cli.main(argv)
    assert calls == [] and capsys.readouterr().out.startswith('{"command"')
    cli.main(["--human", *argv])
    assert calls == [argv] and not capsys.readouterr().out.startswith("{")


@pytest.mark.parametrize("command", [
    "test fermat 5",
    "test fermat 3 --seed 6 --experimental",
    "test mersenne 7",
    "test pepin 5",
    "table uv-exact --params 3,-1 --max 5",
    "table uv-mod --params 3,-1 --modulus 17 --max 5",
    "table uv-mod --modulus 17 --max 16",
    "table uv-mod --modulus-fermat 3 --max 16",
    "verify appendix --n 3",
    "verify rank",
    "rank 17",
    "rank 1000033",
])
def test_human_output_is_a_view_of_the_record(command, capsys):
    # Every branch of _human_lines: the --human text is rendered from the JSON record alone.
    from fermatlucas import cli

    code = cli.main(command.split())
    record = json.loads(capsys.readouterr().out)
    assert cli.main(["--human", *command.split()]) == code
    assert capsys.readouterr().out == "\n".join(cli._human_lines(record)) + "\n"


def test_closed_stdout_exits_2_quietly():
    # A reader that stops early (`| head -c 10`) must not read as "composite".
    for human, head in (([], b'{"command"'), (["--human"], b"   i |    ")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "fermatlucas", *human, "table", "uv-exact", "--max", "3000"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=cli_env(),
        )
        assert proc.stdout.read(10) == head
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


def test_cli_import_loads_no_inspect_dataclasses_or_ctypes():
    # Measured against the fresh interpreter's own start-up set, so modules
    # that `site` or a .pth file preloads do not count.  The suites' bounds are
    # read from `__kwdefaults__`, not `inspect`, and `ctypes` comes only with
    # the first modulus that libgmp takes.
    code = ("import sys; before = set(sys.modules); import fermatlucas.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "fermatlucas.cli" in added
    assert not added & {"inspect", "dataclasses", "ctypes"}, sorted(added)
