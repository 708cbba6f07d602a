"""Command-line front end: primality tests, sequence tables, verification suites.

Default output is one JSON record per invocation (stable key order, so byte
identical across runs up to the timing field); --human switches to aligned
text.  Exit codes: 0 = prime / all checks passed / rank found, 1 = composite /
failures / rank not found, 2 = usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial
from typing import Callable

from . import verify
from .lucas import LucasParams, STANDARD_PARAMS, lehmer_pairs_exact, uv_mod
from .primality import (
    FermatNumber,
    InconclusiveError,
    fermat_llt,
    mersenne_llt,
    pepin,
    rank_of_apparition,
)
from .quadratic import balanced_residue


# Commands return (inputs, result, exit code, renderer of the --human lines).
Renderer = Callable[[], list[str]]


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


def _cmd_test(args) -> tuple[dict, dict, int, Renderer]:
    if args.kind != "fermat" and (args.seed is not None or args.experimental):
        raise ValueError("--seed/--experimental only apply to the fermat test")
    seed = args.seed if args.seed is not None else 5
    if args.kind == "fermat":
        verdict = fermat_llt(args.index, seed=seed, experimental=args.experimental)
    elif args.kind == "mersenne":
        verdict = mersenne_llt(args.index)
    else:
        verdict = pepin(args.index)
    inputs = {"kind": args.kind, "index": args.index}
    if args.kind == "fermat":
        inputs["seed"] = seed
        inputs["experimental"] = args.experimental
    result = verdict._asdict()

    def render() -> list[str]:
        number = f"{'M' if args.kind == 'mersenne' else 'F'}_{args.index}"
        line = f"{number} is {verdict.classification} ({verdict.method})"
        line += "" if verdict.proven else " [unproven: experimental seed]"
        return [line] + ([] if verdict.witness is None else [f"witness residue: {verdict.witness}"])

    return inputs, result, (0 if verdict.is_prime else 1), render


# ---------------------------------------------------------------------------
# table


def _resolve_modulus(args) -> int | None:
    if args.modulus is not None and args.modulus_fermat is not None:
        raise ValueError("give at most one of --modulus / --modulus-fermat")
    if args.modulus_fermat is not None:
        return FermatNumber(args.modulus_fermat).value
    return args.modulus


def _table_indices(args) -> list[int]:
    if (args.max is None) == (args.indices is None):
        raise ValueError("give exactly one of --max / --indices")
    if args.max is not None:
        if args.max < 0:
            raise ValueError("--max must be >= 0")
        return list(range(args.max + 1))
    if any(i < 0 for i in args.indices):
        raise ValueError("indices must be >= 0")
    return sorted(set(args.indices))


def _cmd_table(args) -> tuple[dict, dict, int, Renderer]:
    params = args.params
    modulus = _resolve_modulus(args)
    indices = _table_indices(args)
    inputs = {
        "which": args.which,
        "params": {"R": params.R, "Q": params.Q},
        "modulus": modulus,
        "max": args.max,
        "indices": list(args.indices) if args.indices is not None else None,
    }
    if args.which == "uv-exact":
        if modulus is not None:
            raise ValueError("uv-exact takes no modulus")
        wanted = set(indices)
        rows = [
            {"i": p.index, "u": p.u_bar, "u_radical": p.index % 2 == 0,
             "v": p.v_bar, "v_radical": p.index % 2 == 1}
            for p in lehmer_pairs_exact(params, indices[-1])
            if p.index in wanted
        ]
        render = partial(_render_exact_table, params, rows)
    else:
        if modulus is None:
            raise ValueError("uv-mod needs --modulus or --modulus-fermat")
        rows = [
            {"i": p.index, "u": p.u_bar, "u_balanced": balanced_residue(p.u_bar, modulus),
             "v": p.v_bar, "v_balanced": balanced_residue(p.v_bar, modulus)}
            for p in (uv_mod(params, i, modulus) for i in indices)
        ]
        render = partial(_render_mod_table, params, modulus, rows)
    return inputs, {"rows": rows}, 0, render


def _render_exact_table(params: LucasParams, rows: list[dict]) -> list[str]:
    tag = f" ×√{params.R}"
    cells = []
    for row in rows:
        u = str(row["u"]) + (tag if row["u_radical"] else "")
        v = str(row["v"]) + (tag if row["v_radical"] else "")
        cells.append((str(row["i"]), u, v))
    wi, wu, wv = (max((len(c[j]) for c in cells), default=1) for j in range(3))
    lines = [f"{'i':>{wi}} | {'U_i':>{wu}} | {'V_i':>{wv}}"]
    lines += [f"{i:>{wi}} | {u:>{wu}} | {v:>{wv}}" for i, u, v in cells]
    return lines


def _fmt_residue(canonical: int, balanced: int) -> str:
    if balanced != canonical and abs(balanced) < 100:
        return f"{canonical} = {balanced}"
    return str(canonical)


def _render_mod_table(params: LucasParams, modulus: int, rows: list[dict]) -> list[str]:
    cells = [
        (str(r["i"]), _fmt_residue(r["u"], r["u_balanced"]), _fmt_residue(r["v"], r["v_balanced"]))
        for r in rows
    ]
    wi, wu, wv = (max((len(c[j]) for c in cells), default=1) for j in range(3))
    head_u, head_v = f"u_bar mod {modulus}", f"v_bar mod {modulus}"
    wu, wv = max(wu, len(head_u)), max(wv, len(head_v))
    lines = [f"{'i':>{wi}} | {head_u:>{wu}} | {head_v:>{wv}}"]
    lines += [f"{i:>{wi}} | {u:>{wu}} | {v:>{wv}}" for i, u, v in cells]
    return lines


# ---------------------------------------------------------------------------
# verify suites


_SUITES = {
    "identities": lambda args: verify.identities(args.m_max, args.n_max),
    "congruences": lambda args: verify.congruences(args.p_max),
    "appendix": lambda args: verify.appendix(args.n),
    "rank": lambda args: verify.rank(args.sweep_max, args.cap),
    "traces": lambda args: verify.traces(args.max_n),
}


def _check_record(check: verify.Check) -> dict:
    entry = {"name": check.name, "pass": check.passed}
    if check.detail is not None:
        entry["detail"] = check.detail
    return entry


def _check_line(check: verify.Check) -> str:
    detail = f"  ({check.detail})" if check.detail is not None else ""
    return f"{'ok  ' if check.passed else 'FAIL'} {check.name}{detail}"


def _cmd_verify(args) -> tuple[dict, dict, int, Renderer]:
    checks = _SUITES[args.suite](args)
    if not checks:
        raise ValueError(f"suite {args.suite!r} ran zero checks with these bounds")
    passed = sum(1 for c in checks if c.passed)
    failed = len(checks) - passed
    keys = ("m_max", "n_max", "p_max", "n", "sweep_max", "cap", "max_n")
    inputs = {"suite": args.suite, **{key: getattr(args, key) for key in keys}}
    result = {"checks": [_check_record(c) for c in checks], "passed": passed, "failed": failed}
    summary = f"{passed} passed, {failed} failed"
    return inputs, result, (0 if failed == 0 else 1), lambda: [*map(_check_line, checks), summary]


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args) -> tuple[dict, dict, int, Renderer]:
    res = rank_of_apparition(STANDARD_PARAMS, args.m, cap=args.cap)
    inputs = {"m": args.m, "cap": args.cap}
    result = {"omega": res.omega, "cap": res.cap}
    if res.omega is None:
        return inputs, result, 1, lambda: [f"no rank found below cap {res.cap}"]
    return inputs, result, 0, lambda: [f"omega({args.m}) = {res.omega}"]


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
    tb.add_argument("--modulus", type=int, default=None, metavar="N")
    tb.add_argument("--modulus-fermat", type=int, default=None, metavar="n")
    tb.add_argument("--max", type=int, default=None, help="rows 0..max")
    tb.add_argument("--indices", type=_indices_arg, default=None, metavar="i,j,...")

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(_SUITES))
    v.add_argument("--m-max", type=int, default=9, dest="m_max")
    v.add_argument("--n-max", type=int, default=9, dest="n_max")
    v.add_argument("--p-max", type=int, default=2000, dest="p_max")
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--sweep-max", type=int, default=500, dest="sweep_max")
    v.add_argument("--cap", type=int, default=10**6)
    v.add_argument("--max-n", type=int, default=8, dest="max_n")

    r = sub.add_parser("rank", help="rank of apparition of m for the (7, 1) parameters")
    r.add_argument("m", type=int)
    r.add_argument("--cap", type=int, default=10**6)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Records legitimately carry multi-thousand-digit integers (e.g. the
    # witness residue for F_14); lift the int-to-str conversion guard.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    # The parser is built once per process; the handler is looked up per call.
    args = build_parser().parse_args(argv)
    handler = {"test": _cmd_test, "table": _cmd_table, "verify": _cmd_verify, "rank": _cmd_rank}[args.command]
    t0 = time.perf_counter()
    try:
        inputs, result, code, render = handler(args)
    except (ValueError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    if args.human:
        print("\n".join(render()))
    else:
        record = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "timing_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
        print(json.dumps(record, sort_keys=True))
    return code


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


if __name__ == "__main__":
    entry()
