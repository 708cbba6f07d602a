"""Command-line front end: primality tests, sequence tables, verification suites.

Default output is one JSON record per invocation (stable key order, so byte
identical across runs up to the timing field), written as a table's rows or a
suite's checks arrive; --human renders that record, and nothing else, as
aligned text.  Exit codes: 0 = prime / all checks passed / rank found, 1 =
composite / failures / rank not found, 2 = usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial
from itertools import islice

from . import verify
from .lucas import (EXACT_INDEX_CAP, LucasParams, STANDARD_PARAMS, _check_exact_index, _check_modulus,
                    iter_pairs, uv_mod)
from .primality import (
    PROVEN_SEED,
    InconclusiveError,
    fermat_exponent,
    fermat_llt,
    fermat_number,
    mersenne_llt,
    pepin,
    rank_of_apparition,
)
from .quadratic import balanced_residue


def _params_arg(text: str) -> LucasParams:
    try:
        r, q = (int(part) for part in text.split(","))
        return LucasParams(r, q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad params {text!r}: {exc}")


def _indices_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad index list {text!r}")


# ---------------------------------------------------------------------------
# test


def _cmd_test(args) -> tuple[dict, dict]:
    inputs = {"kind": args.kind, "index": args.index}
    if args.kind == "fermat":
        seed = args.seed if args.seed is not None else PROVEN_SEED
        if seed != PROVEN_SEED and not args.experimental:  # `fermat_llt`'s refusal, naming the flag
            raise ValueError(f"seed {seed} has no correctness proof; pass --experimental to run it anyway")
        inputs.update(seed=seed, experimental=args.experimental)
        verdict = fermat_llt(args.index, seed=seed, experimental=args.experimental)
    elif args.seed is not None or args.experimental:
        raise ValueError("--seed/--experimental only apply to the fermat test")
    else:
        verdict = (mersenne_llt if args.kind == "mersenne" else pepin)(args.index)
    return inputs, verdict._asdict()


# ---------------------------------------------------------------------------
# table


def _cmd_table(args) -> tuple[dict, dict]:
    """Rows listed mod N take one `uv_mod` walk each; every other table steps `iter_pairs` from 0."""
    params, modulus, fermat = args.params, args.modulus, args.modulus_fermat
    if fermat is not None:
        fermat_exponent(fermat)  # refuses the index; F_n itself is built only for a table that uses it
    if args.max is None and args.indices is None:  # argparse refuses both
        raise ValueError("give one of --max / --indices")
    if args.max is not None and args.max < 0:
        raise ValueError("--max must be >= 0")
    if args.indices is not None and min(args.indices) < 0:
        raise ValueError("indices must be >= 0")
    wanted = None if args.indices is None else set(args.indices)
    last = args.max if wanted is None else max(wanted)
    if args.which == "uv-exact":
        if modulus is not None or fermat is not None:
            raise ValueError("uv-exact takes no modulus")
        _check_exact_index(last)
    else:
        if modulus is None and fermat is None:
            raise ValueError("uv-mod needs --modulus or --modulus-fermat")
        # As many rows as an exact table can print; checked before any row is computed.
        count = last + 1 if wanted is None else len(wanted)
        if count > EXACT_INDEX_CAP + 1:
            raise ValueError(f"uv-mod tables are capped at {EXACT_INDEX_CAP + 1} rows, got {count}")
        modulus = modulus if fermat is None else fermat_number(fermat)
        _check_modulus(params, modulus)
    inputs = {
        "which": args.which,
        "params": {"R": params.R, "Q": params.Q},
        "modulus": modulus,
        "max": args.max,
        "indices": list(args.indices) if args.indices is not None else None,
    }
    if wanted is not None and modulus is not None:  # an index like 2^8191 cannot be stepped to
        pairs = (uv_mod(params, i, modulus) for i in sorted(wanted))
    else:
        pairs = islice(iter_pairs(params, modulus) if modulus is not None else _decimal_pairs(params), last + 1)
        if wanted is not None:
            pairs = (p for p in pairs if p.index in wanted)
    if modulus is None:
        rows = ({"i": p.index, "u": p.u_bar, "u_radical": p.index % 2 == 0,
                 "v": p.v_bar, "v_radical": p.index % 2 == 1} for p in pairs)
    else:
        rows = ({"i": p.index, "u": p.u_bar, "u_balanced": balanced_residue(p.u_bar, modulus),
                 "v": p.v_bar, "v_balanced": balanced_residue(p.v_bar, modulus)} for p in pairs)
    return inputs, {"rows": rows}


def _decimal_pairs(params: LucasParams):
    """`iter_pairs(params)` in decimal, which `str` prints in time linear in its digits (an int: quadratic)."""
    import contextvars
    import decimal
    # Each step runs in a scope whose context keeps every digit and traps `Inexact` and `Rounded`, also
    # when the writer pulls rows after the handler returned: a row is exact or raises.
    scope = contextvars.copy_context()
    scope.run(decimal.setcontext, decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                                                  traps=[decimal.Inexact, decimal.Rounded]))
    return iter(partial(scope.run, next, iter_pairs(params, one=decimal.Decimal(1))), None)


# ---------------------------------------------------------------------------
# verify suites


# Each suite's bounds and their defaults, read (never changed) from its keyword-only
# parameters; the `verify` flags and the stray-bound check follow this suite order.
_SUITE_BOUNDS = {suite: getattr(verify, suite).__kwdefaults__ or {}
                 for suite in ("identities", "congruences", "appendix", "rank", "traces")}
_BOUNDS = [key for own in _SUITE_BOUNDS.values() for key in own]


def _cmd_verify(args) -> tuple[dict, dict]:
    own, given = _SUITE_BOUNDS[args.suite], vars(args)
    for key in _BOUNDS:
        if key in given and key not in own:
            raise ValueError(f"verify {args.suite} takes no --{key.replace('_', '-')}")
    bounds = {key: given.get(key, default) for key, default in own.items()}
    result = {}
    result["checks"] = _check_records(args.suite, getattr(verify, args.suite)(**bounds), result)
    return {"suite": args.suite, **bounds}, result


def _check_records(suite: str, checks, result: dict):
    """The suite's check records, passed on as they arrive; once the last is taken, `result` gets the counts."""
    count = passed = 0
    for check in checks:
        count += 1
        passed += check["pass"]
        yield check
    if count == 0:
        raise ValueError(f"suite {suite!r} ran zero checks with these bounds")
    result.update(passed=passed, failed=count - passed)


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args) -> tuple[dict, dict]:
    res = rank_of_apparition(STANDARD_PARAMS, args.m)  # at most RANK_SEARCH_CAP steps
    return {"m": args.m}, {"omega": res.omega, "cap": res.cap}


# ---------------------------------------------------------------------------
# wiring


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatlucas",
        description="Fermat-number primality via the seed-5 squaring chain and its Lehmer-pair machinery",
    )
    parser.add_argument("--human", action="store_true", help="aligned text instead of JSON records")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="classify F_n or M_q as prime/composite")
    t.add_argument("kind", choices=["fermat", "mersenne", "pepin"])
    t.add_argument("index", type=int, help="Fermat index n or Mersenne exponent q")
    t.add_argument("--seed", type=int, default=None, help="chain seed (default 5; others need --experimental)")
    t.add_argument("--experimental", action="store_true")

    tb = sub.add_parser("table", help="print u_bar/v_bar rows, exact or modular")
    tb.add_argument("which", choices=["uv-exact", "uv-mod"])
    tb.add_argument("--params", type=_params_arg, default=STANDARD_PARAMS, metavar="R,Q")
    # Not `required`: a missing --max is refused after the modulus is checked.
    modulus, rows = tb.add_mutually_exclusive_group(), tb.add_mutually_exclusive_group()
    modulus.add_argument("--modulus", type=int, default=None, metavar="N")
    modulus.add_argument("--modulus-fermat", type=int, default=None, metavar="n")
    rows.add_argument("--max", type=int, default=None, help="rows 0..max")
    rows.add_argument("--indices", type=_indices_arg, default=None, metavar="i,j,...")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(_SUITE_BOUNDS))
    for key in _BOUNDS:  # absent unless given, so a bound the suite does not read is refused
        v.add_argument("--" + key.replace("_", "-"), type=int, default=argparse.SUPPRESS)

    r = sub.add_parser("rank", help="rank of apparition of m for the (7, 1) parameters")
    r.add_argument("m", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Records legitimately carry multi-thousand-digit integers (e.g. the witness
    # residue for F_14): lift the int-to-str conversion guard for this call, and
    # give the caller's limit back on every way out.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        # The parser is built once per process; the handler is looked up per call.
        args = build_parser().parse_args(argv)
        handler = {"test": _cmd_test, "table": _cmd_table, "verify": _cmd_verify, "rank": _cmd_rank}[args.command]
        t0 = time.perf_counter()
        try:
            inputs, result = handler(args)
            record = {"command": args.command, "inputs": inputs, "result": result}
            if args.human:
                lines = _human_lines(record)
                while batch := list(islice(lines, _BATCH)):
                    sys.stdout.write("\n".join(batch) + "\n")
            else:
                _write_json(record, t0)
        except (ValueError, InconclusiveError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except MemoryError:
            print("error: out of memory", file=sys.stderr)
            return 2
        return _exit_code(record)
    finally:
        sys.set_int_max_str_digits(limit)


# The result key whose items a handler yields lazily.  It sorts first in its
# result, so the keys after it (a suite's counts) may be set as the items run out.
_STREAMED = {"table": "rows", "verify": "checks"}
# Items per `encode` call, and --human lines per write: one `encode` per item
# takes about 3x as long, and on an unbuffered stdout one write per line 30x.
_BATCH = 256


def _write_json(record: dict, t0: float) -> None:
    """Write `json.dumps(record, sort_keys=True)` plus `timing_ms`, each item from its template, a batch per write.

    The first batch is taken before the first byte is written, so a refusal,
    which comes before the first item, leaves stdout empty.  Records are trees: no check for cycles.
    """
    write, encode = sys.stdout.write, json.JSONEncoder(sort_keys=True, check_circular=False).encode
    result, key = record["result"], _STREAMED.get(record["command"])
    head = encode({"command": record["command"], "inputs": record["inputs"]})[:-1] + ', "result": '
    if key is None:
        write(head + encode(result))
    else:
        text = lambda batch: ", ".join(map(_check_json if key == "checks" else _row_json, batch))
        items = iter(result.pop(key))
        batch = list(islice(items, _BATCH))
        write(f"{head}{{{encode(key)}: [{text(batch)}")
        while batch := list(islice(items, _BATCH)):
            write(", " + text(batch))
        rest = encode(result)[1:-1]  # the keys that sort after the items
        write("]" + (", " + rest if rest else "") + "}")
    write(f', "timing_ms": {encode(round((time.perf_counter() - t0) * 1000, 3))}}}\n')


def _check_json(check: dict, quote=json.encoder.encode_basestring_ascii) -> str:
    """A check record's `json.dumps(check, sort_keys=True)`, from one template in half the encoder's time."""
    detail = f'"detail": {quote(check["detail"])}, ' if "detail" in check else ""
    return f'{{{detail}"name": {quote(check["name"])}, "pass": {"true" if check["pass"] else "false"}}}'


def _row_json(row: dict) -> str:
    """A table row's `json.dumps(row, sort_keys=True)`, from one template: `json` cannot encode a `Decimal`."""
    # `_cmd_table` builds each row's keys in sorted order; ints and integral `Decimal`s print their digits
    # (`!s` takes `Decimal.__str__`, a third faster than `format`).
    (_, i), (_, u), (u_key, u_flag), (_, v), (v_key, v_flag) = row.items()
    if u_flag.__class__ is bool:  # an exact row's radical tags (a mod row's are balanced residues)
        u_flag, v_flag = ("false", "true")[u_flag], ("false", "true")[v_flag]
    return f'{{"i": {i}, "u": {u!s}, "{u_key}": {u_flag}, "v": {v!s}, "{v_key}": {v_flag}}}'


def _exit_code(record: dict) -> int:
    """1 for a composite, a failed check or a rank not found, read from the finished record alone."""
    command, result = record["command"], record["result"]
    return int(command == "test" and result["classification"] == "composite"
               or command == "verify" and result["failed"] > 0
               or command == "rank" and result["omega"] is None)


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (`| head`), so the record was not
        # delivered: exit 2, not 1, which means "composite".  Pointing stdout
        # at devnull keeps the flush at interpreter shutdown quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


# ---------------------------------------------------------------------------
# --human


def _human_lines(record: dict):
    """The --human text of one record, line by line, read from its command, inputs and result alone."""
    command, inputs, result = record["command"], record["inputs"], record["result"]
    if command == "test":
        number = f"{'M' if inputs['kind'] == 'mersenne' else 'F'}_{inputs['index']}"
        line = f"{number} is {result['classification']} ({result['method']})"
        yield line + ("" if result["proven"] else " [unproven: experimental seed]")
        if result["witness"] is not None:
            yield f"witness residue: {result['witness']}"
    elif command == "table":
        if inputs["which"] == "uv-exact":
            tag = f" ×√{inputs['params']['R']}"
            heads, flag = ("i", "U_i", "V_i"), "_radical"
            cell = lambda value, radical: str(value) + (tag if radical else "")
        else:
            mod = f" mod {inputs['modulus']}"  # one decimal conversion: quadratic in F_n's digits
            heads, flag, cell = ("i", "u_bar" + mod, "v_bar" + mod), "_balanced", _fmt_residue
        # Every row sets the column widths, so the cell strings are held; nothing else is.
        cells = [(str(row["i"]), cell(row["u"], row["u" + flag]), cell(row["v"], row["v" + flag]))
                 for row in result["rows"]]
        widths = [max(map(len, column)) for column in zip(heads, *cells)]
        for row in (heads, *cells):
            yield " | ".join(f"{text:>{w}}" for text, w in zip(row, widths))
    elif command == "verify":
        yield from map(_check_line, result["checks"])
        yield f"{result['passed']} passed, {result['failed']} failed"  # set once the checks run out
    elif result["omega"] is None:
        yield f"no rank found below cap {result['cap']}"
    else:
        yield f"omega({inputs['m']}) = {result['omega']}"


def _fmt_residue(canonical: int, balanced: int) -> str:
    if balanced != canonical and abs(balanced) < 100:
        return f"{canonical} = {balanced}"
    return str(canonical)


def _check_line(check: dict) -> str:
    detail = f"  ({check['detail']})" if "detail" in check else ""
    return f"{'ok  ' if check['pass'] else 'FAIL'} {check['name']}{detail}"

