import contextlib
import io
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
    """`fermatlucas ARGS` run by `cli.main` in this process, returned as the `CompletedProcess` a subprocess gives.

    argparse's `SystemExit` is the exit code.  Only tests about the process itself
    start `python -m fermatlucas`: run_cli_limited and the raw `subprocess` calls.
    """
    from fermatlucas import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exit_info:
            code = exit_info.code
    return subprocess.CompletedProcess(["fermatlucas", *args], code, out.getvalue(), err.getvalue())


def run_cli_limited(*args, timeout=60, limit=2 * 10**9):
    """run_cli under an address-space limit (2 GB by default) and a time limit.

    A command that tried to build a huge Fermat number fails fast here
    instead of exhausting the machine's memory.
    """
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
    # The goldens pin `test fermat 4` (0), `test fermat 5` (1), `test mersenne 7` (0) and `test pepin 5` (1).
    assert run_cli("test", "fermat", "0").returncode == 2
    assert run_cli("test", "mersenne", "11").returncode == 1
    assert run_cli("test", "mersenne", "4").returncode == 2
    assert run_cli("test", "pepin", "2").returncode == 0
    assert run_cli("test", "bogus", "1").returncode == 2
    assert run_cli("verify", "bogus").returncode == 2
    assert run_cli("rank", "1").returncode == 2


def test_seed_flag_policy():
    proc = run_cli("test", "fermat", "2", "--seed", "6")
    assert proc.returncode == 2 and proc.stdout == ""
    # The CLI's refusal names its flag, not the library's `experimental=True`.
    assert proc.stderr == "error: seed 6 has no correctness proof; pass --experimental to run it anyway\n"
    # `test fermat 3 --seed 6 --experimental` and its `proven: false` are in the goldens.
    assert run_cli("test", "mersenne", "7", "--seed", "6").returncode == 2


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


@pytest.mark.parametrize("modulus", [["--modulus", "275808711546923307"], ["--modulus-fermat", "3"],
                                     ["--modulus-fermat", "11"]], ids=["plain", "F3", "F11"])
def test_mod_table_range_steps_to_the_rows_the_index_list_walks_to(modulus, capsys):
    # --max k steps iter_pairs; --indices walks uv_mod once per index, which
    # mod F_11 is the libgmp ladder when libgmp loads and the int fold when not.
    from fermatlucas import cli

    results = []
    for rows in (["--max", "300"], ["--indices", ",".join(map(str, range(301)))]):
        assert cli.main(["table", "uv-mod", *modulus, *rows]) == 0
        results.append(json.loads(capsys.readouterr().out)["result"])
    assert results[0] == results[1]
    assert [row["i"] for row in results[0]["rows"]] == list(range(301))


@pytest.mark.parametrize("argv, walks, steps", [
    (("uv-exact", "--max", "40"), 0, 1),
    (("uv-exact", "--indices", "8,2,2,5"), 0, 1),
    (("uv-mod", "--modulus", "17", "--max", "16"), 0, 1),
    (("uv-mod", "--modulus", "17", "--indices", "0,2,2,5"), 3, 0),
], ids=["exact-max", "exact-indices", "mod-max", "mod-indices"])
def test_table_rows_come_from_one_source(argv, walks, steps, capsys, monkeypatch):
    # Rows listed mod N take one uv_mod walk per distinct index; every other
    # table, exact or mod N, is one iter_pairs stream from index 0.
    from fermatlucas import cli

    calls = {"uv_mod": 0, "iter_pairs": 0}

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert cli.main(["table", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["rows"]
    assert calls == {"uv_mod": walks, "iter_pairs": steps}


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


def first_difference(a: str | bytes, b: str | bytes):
    """None for equal texts (or bytes), else where they part: pytest's own diff of megabytes takes minutes."""
    if a == b:
        return None
    at = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return at, a[max(at - 40, 0):at + 40], b[max(at - 40, 0):at + 40]


# Every sign of Q and D, u_bar(4) = 0 at (2, 1), and u_bar growing 15 bits per index at (10^9 + 7, 1).
EXACT_PARAMS = [(7, 1), (3, -1), (2, 1), (3, 1), (5, 2), (2, -3), (11, 5), (1000000007, 1)]


def _exact_table_record(R, Q, rows_flag, rows_value):
    """The record of `table uv-exact` built from int pairs, as the CLI built it when it stepped ints."""
    from itertools import islice

    from fermatlucas.lucas import LucasParams, iter_pairs

    wanted = None if rows_flag == "--max" else set(map(int, rows_value.split(",")))
    last = int(rows_value) if wanted is None else max(wanted)
    rows = [{"i": i, "u": u, "u_radical": i % 2 == 0, "v": v, "v_radical": i % 2 == 1}
            for i, u, v in islice(iter_pairs(LucasParams(R, Q)), last + 1) if wanted is None or i in wanted]
    indices = None if wanted is None else [int(i) for i in rows_value.split(",")]
    inputs = {"which": "uv-exact", "params": {"R": R, "Q": Q}, "modulus": None,
              "max": last if wanted is None else None, "indices": indices}
    return {"command": "table", "inputs": inputs, "result": {"rows": rows}}


@pytest.mark.parametrize("rows", [("--max", "0"), ("--max", "300"), ("--indices", "300,2,0,2,5,1,257,256")],
                         ids=["max-0", "max-300", "indices"])
@pytest.mark.parametrize("R, Q", EXACT_PARAMS, ids=[f"{R},{Q}" for R, Q in EXACT_PARAMS])
def test_exact_table_bytes_equal_those_built_from_int_pairs(R, Q, rows, capsys, monkeypatch):
    # Exact rows are stepped in decimal, which prints in time linear in the digits; the bytes are those
    # of the int pairs, as JSON (against json.dumps) and under --human (against the same table on ints).
    import decimal

    from fermatlucas import cli

    argv = ["table", "uv-exact", "--params", f"{R},{Q}", *rows]
    assert cli.main(argv) == 0
    head, _, timing = capsys.readouterr().out.rpartition(', "timing_ms": ')
    assert first_difference(head + "}", json.dumps(_exact_table_record(R, Q, *rows), sort_keys=True)) is None
    assert re.fullmatch(r"[0-9.]+}\n", timing)
    assert cli.main(["--human", *argv]) == 0
    human = capsys.readouterr().out
    assert repr(decimal.getcontext()) == repr(decimal.Context())  # the exact one was current only in the steps
    monkeypatch.setattr(cli, "_decimal_pairs", cli.iter_pairs)
    assert cli.main(["--human", *argv]) == 0
    assert first_difference(human, capsys.readouterr().out) is None


@pytest.mark.parametrize("rows", [("--max", "10000"), ("--indices", "10000,3,9999")], ids=["max-cap", "indices-cap"])
def test_exact_table_bytes_at_the_index_cap(rows, capsys):
    from fermatlucas import cli

    assert cli.main(["table", "uv-exact", *rows]) == 0
    head, _, _ = capsys.readouterr().out.rpartition(', "timing_ms": ')
    assert first_difference(head + "}", json.dumps(_exact_table_record(7, 1, *rows), sort_keys=True)) is None


@pytest.mark.parametrize("human", [[], ["--human"]], ids=["json", "human"])
@pytest.mark.parametrize("rounded_row", [80, 300], ids=["first-batch", "second-batch"])
@pytest.mark.parametrize("limit", ["MAX_PREC", "MAX_EMAX"])
def test_an_exact_table_raises_rather_than_print_a_rounded_row(limit, rounded_row, human, capsys, monkeypatch):
    # With fewer digits (or a lower exponent limit) than row `rounded_row` needs, stepping to it raises
    # Inexact; the rows written before it are exact, a whole first batch as JSON, and none under --human
    # (its widths need every row).  Unpatched, both limits are decimal's largest.
    import decimal
    from itertools import islice

    from fermatlucas import cli
    from fermatlucas.lucas import STANDARD_PARAMS, iter_pairs

    pairs = list(islice(iter_pairs(STANDARD_PARAMS), rounded_row + 1))
    digits = max(len(str(abs(x))) for pair in pairs[:rounded_row] for x in pair[1:])
    assert len(str(pairs[rounded_row].v_bar)) > digits
    monkeypatch.setattr(decimal, limit, digits if limit == "MAX_PREC" else digits - 1)
    with pytest.raises(decimal.Inexact):
        cli.main([*human, "table", "uv-exact", "--max", "400"])
    out = capsys.readouterr().out
    if human or rounded_row < cli._BATCH:
        assert not out, out[:200]
    else:
        expected = json.dumps(_exact_table_record(7, 1, "--max", "400"), sort_keys=True)
        assert out.count('{"i": ') == cli._BATCH and expected.startswith(out)


# The other suites' defaults are in the goldens (`verify identities` with no flags is `--m-max 9 --n-max 9`).
@pytest.mark.parametrize("suite", ["appendix"])
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

    monkeypatch.setattr(cli.verify, suite, lambda **bounds: [{"name": "stub", "pass": True}])
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
        yield {"name": "holds", "pass": True}
        yield {"name": "breaks", "pass": False, "detail": "got 3"}

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


def test_verify_appendix_at_n_1():
    # F_1 = 5 is prime and prime to QRD, so the derived pattern holds there too.
    proc = run_cli("verify", "appendix", "--n", "1")
    assert proc.returncode == 0, proc.stderr
    assert [c["name"] for c in record_of(proc)["result"]["checks"]][:2] == ["u_at_F1-5", "v_at_F1-5"]


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
    "argv, message",
    [
        (("test", "fermat", "33"), "Fermat index must be <= 32"),
        (("test", "fermat", "40"), "Fermat index must be <= 32"),
        (("test", "pepin", "63"), "Fermat index must be <= 32"),
        (("table", "uv-mod", "--modulus-fermat", "40"), "Fermat index must be <= 32"),
        # Refused before the chains for n = 1..32, which would run for years.
        (("verify", "traces", "--max-n", "33"), "Fermat index must be <= 32"),
        # Refused before F_32 (512 MiB) is built, which no refusal needs.
        (("table", "uv-exact", "--modulus-fermat", "32", "--max", "1"), "uv-exact takes no modulus"),
        (("table", "uv-mod", "--modulus-fermat", "32", "--max", "10001"),
         "uv-mod tables are capped at 10001 rows, got 10002"),
    ],
    ids=["fermat33", "fermat40", "pepin63", "uv-mod-F40", "traces33", "uv-exact-F32", "uv-mod-F32-row-cap"],
)
def test_oversized_fermat_index_exits_2(argv, message):
    proc = run_cli_limited(*argv, timeout=20, limit=256 * 2**20)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert message in proc.stderr


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
    (("uv-mod", "--modulus", "1", "--max", "3"), "modulus must be an odd integer >= 3, got 1"),
    # Which refusal wins when two apply, on either row source: the Fermat index,
    # then the row spec, the modulus's presence, the row cap, the modulus check.
    (("uv-exact", "--modulus", "17", "--max", "-1"), "--max must be >= 0"),
    (("uv-exact", "--modulus-fermat", "0", "--max", "3"), "Fermat index must be >= 1, got 0"),
    (("uv-mod", "--indices", "5,10001"), "uv-mod needs --modulus or --modulus-fermat"),
    (("uv-mod", "--modulus", "16", "--max", "10001"), "uv-mod tables are capped at 10001 rows, got 10002"),
    (("uv-mod", "--modulus", "16", "--indices", "0,2,2"), "modulus must be an odd integer >= 3, got 16"),
    (("uv-mod", "--params", "7,3", "--modulus", "9", "--indices", "0,2,2"), "modulus 9 shares a factor with Q = 3"),
    (("uv-exact",), "give one of --max / --indices"),
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
        yield {"name": "breaks", "pass": False, "detail": "got 3"}
        for k in range(cli._BATCH if before == "second batch" else 0):
            yield {"name": f"holds_{k}", "pass": True}
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

    assert first_difference(untimed(out), untimed(reference)) is None


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


def test_check_records_are_the_bytes_json_dumps_writes(monkeypatch, capsys):
    # Check records are written from one template: its escaping and key order
    # must give the bytes of one `json.dumps(record, sort_keys=True)`, for stub
    # records and for every record the suites yield, passing or forced to fail.
    from fermatlucas import cli, verify
    from fermatlucas.lucas import LehmerPair

    details = ['a "quoted" detail', "back\\slash", "new\nline and\ttab", "σε ≡ −1, √7", ""]
    checks = [{"name": f"check_{i}", "pass": True} if i % 3 else
              {"name": f'check_{i} "σ"', "pass": False, "detail": details[i % 5]} for i in range(600)]  # over two batches
    passing = [*verify.identities(m_max=3, n_max=3), *verify.congruences(p_max=2000), *verify.appendix(),
              *verify.rank(), *verify.traces(max_n=4)]

    # One forced failure per suite, as the failure tests force them: a detail where the
    # failed check has one (congruences, appendix), none where it has none (traces), and
    # each kind once where the suite has both (identities, rank).
    pairs, core, residues, ranks, certify = (verify.lehmer_pairs_exact, verify._congruence_residues,
                                             verify.appendix_residues, verify.rank_of_apparition,
                                             verify.certify_via_rank)

    def perturbed_pairs(params, max_index):
        table = pairs(params, max_index)
        table[151] = LehmerPair(151, table[151].u_bar, table[151].v_bar + table[151].u_bar)
        return table

    def failed_row(params, primes, table, start):
        for p, (u_p, *rest), expected in core(params, primes, table, start):
            yield p, ((u_p + (p == 1009)) % p, *rest), expected

    def failed_residue(params, k):
        first, *rest = residues(params, k)
        return [first._replace(actual=first.actual + 1, passed=False), *rest]

    def perturbed_omega(params, m, cap=10**6):
        result = ranks(params, m, cap=cap)
        return result._replace(omega=result.omega + 1) if m == 45 else result

    forced = {}
    for suite, bounds, stubs in [
        ("identities", {"m_max": 2, "n_max": 2},
         {"lehmer_pairs_exact": perturbed_pairs, "alternate_params_pair": lambda n, pairs7: None}),
        ("congruences", {"p_max": 1100}, {"_congruence_residues": failed_row}),
        ("appendix", {"n": 2}, {"appendix_residues": failed_residue}),
        ("rank", {}, {"rank_of_apparition": perturbed_omega,
                      "certify_via_rank": lambda params, N: certify(params, N)._replace(classification="composite")}),
        ("traces", {"max_n": 1}, {"s_from_v": lambda k, F: -1}),
    ]:
        with monkeypatch.context() as m:
            for name, stub in stubs.items():
                m.setattr(verify, name, stub)
            forced[suite] = list(getattr(verify, suite)(**bounds))
    failed = {suite: {"detail" in r for r in out if not r["pass"]} for suite, out in forced.items()}
    assert failed == {"identities": {True, False}, "congruences": {True}, "appendix": {True},
                      "rank": {True, False}, "traces": {False}}

    records = passing + [r for out in forced.values() for r in out]
    for r in records:
        assert cli._check_json(r) == json.dumps(r, sort_keys=True)
        assert type(r["pass"]) is bool
        assert set(r) <= {"name", "pass", "detail"}
        assert "detail" not in r or not r["pass"] and r["detail"]

    def stub(*, p_max):
        return iter(checks + records)

    monkeypatch.setattr(verify, "congruences", stub)
    assert cli.main(["verify", "congruences"]) == 1
    head, _, timing = capsys.readouterr().out.rpartition(', "timing_ms": ')
    passed = sum(c["pass"] for c in checks + records)
    expected = {
        "command": "verify",
        "inputs": {"suite": "congruences", "p_max": 2000},
        "result": {"checks": checks + records, "passed": passed, "failed": len(checks + records) - passed},
    }
    assert head + "}" == json.dumps(expected, sort_keys=True)
    assert re.fullmatch(r"[0-9.]+}\n", timing)


@pytest.mark.parametrize("argv", [
    ("uv-mod", "--modulus", "17", "--max", "600"),
    ("uv-mod", "--params", "3,-1", "--modulus", "275808711546923307", "--max", "600"),
    ("uv-mod", "--modulus-fermat", "4", "--indices", "2048,5,16384,32768,0,7,5"),
], ids=["17", "large-N", "F4-indices"])
def test_table_rows_are_the_bytes_json_dumps_writes(argv, capsys):
    # Table rows are written from one template too: mod N, with negative balanced residues, over two batches.
    from fermatlucas import cli
    from fermatlucas.lucas import LucasParams, uv_mod
    from fermatlucas.quadratic import balanced_residue

    params = LucasParams(*map(int, argv[2].split(","))) if argv[1] == "--params" else LucasParams(7, 1)
    modulus = int(argv[-3]) if argv[-4] == "--modulus" else 2**16 + 1
    indices = sorted(set(map(int, argv[-1].split(",")))) if argv[-2] == "--indices" else range(int(argv[-1]) + 1)
    rows = []
    for i in indices:
        _, u, v = uv_mod(params, i, modulus)
        rows.append({"i": i, "u": u, "u_balanced": balanced_residue(u, modulus),
                     "v": v, "v_balanced": balanced_residue(v, modulus)})
    assert any(row["u_balanced"] < 0 or row["v_balanced"] < 0 for row in rows)
    assert cli.main(["table", *argv]) == 0
    head, _, _ = capsys.readouterr().out.rpartition(', "timing_ms": ')
    record = json.loads(head + "}")
    assert first_difference(head + "}", json.dumps({**record, "result": {"rows": rows}}, sort_keys=True)) is None


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


def test_only_an_exact_table_imports_decimal():
    # A fresh interpreter: importing the CLI and running any other command leaves `decimal` out.
    code = ("import sys; before = set(sys.modules); from fermatlucas import cli; "
            "[cli.main(argv.split()) for argv in ('test fermat 3', 'table uv-mod --modulus 17 --max 3', "
            "'verify identities --m-max 3 --n-max 3')]; other = set(sys.modules) - before; "
            "cli.main('table uv-exact --max 3'.split()); print('decimal' in other, 'decimal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False True"


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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_main_gives_the_callers_digit_limit_back(capsys, monkeypatch):
    # main lifts Python's int-to-str limit while it writes a record, and hands the caller's
    # limit back on every way out: a record, a refusal, an argparse exit, running out of
    # memory and a reader gone.  F_14's witness (4932 digits) is past the default 4300.
    from fermatlucas import cli
    from test_cli_golden import capture, _golden

    default = sys.int_info.default_max_str_digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(default)
    try:
        assert capture("test fermat 14") == _golden()["test fermat 14"]  # the witness in full
        assert sys.get_int_max_str_digits() == default
        for argv in (["test", "fermat", "14"], ["--human", "test", "fermat", "14"]):
            assert cli.main(argv) == 1
            assert sys.get_int_max_str_digits() == default
        json_out, _, human_out = capsys.readouterr().out.splitlines()
        [digits] = re.findall(r'"witness": (\d+)', json_out)
        assert len(digits) == 4932 and human_out == f"witness residue: {digits}"

        assert cli.main(["verify", "congruences", "--p-max", "3"]) == 2  # zero checks: refused
        assert sys.get_int_max_str_digits() == default
        with pytest.raises(SystemExit):
            cli.main(["test", "fermat", "3", "--no-such-flag"])
        assert sys.get_int_max_str_digits() == default

        def out_of_memory(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_rank", out_of_memory)
        assert cli.main(["rank", "17"]) == 2
        assert sys.get_int_max_str_digits() == default

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        with pytest.raises(BrokenPipeError):
            cli.main(["test", "fermat", "3"])
        assert sys.get_int_max_str_digits() == default
    finally:
        sys.set_int_max_str_digits(limit)
