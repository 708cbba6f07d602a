"""Command-line front end: primality tests, sequence tables, verification suites.

Default output is one JSON record per invocation (stable key order, so byte
identical across runs up to the timing field); --human switches to aligned
text.  Exit codes: 0 = prime / all checks passed / rank found, 1 = composite /
failures / rank not found, 2 = usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .lucas import (
    ALTERNATE_PARAMS,
    EXACT_INDEX_CAP,
    LucasParams,
    STANDARD_PARAMS,
    alternate_params_pair,
    check_sum_identity_u,
    check_sum_identity_v,
    iter_pairs,
    lehmer_pairs_exact,
    normalize,
    s_from_v,
    uv_mod,
    _iter_uv_exact,
)
from .primality import (
    FermatNumber,
    InconclusiveError,
    appendix_residues,
    certify_via_rank,
    fermat_llt,
    is_prime,
    lehmer_congruence_checks,
    mersenne_llt,
    pepin,
    rank_of_apparition,
    s_sequence,
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


def _cmd_test(args) -> tuple[dict, dict, int, list[str]]:
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
    result = {
        "classification": verdict.classification,
        "method": verdict.method,
        "witness": verdict.witness,
        "proven": verdict.proven,
    }
    number = {
        "fermat": f"F_{args.index}",
        "pepin": f"F_{args.index}",
        "mersenne": f"M_{args.index}",
    }[args.kind]
    line = f"{number} is {verdict.classification} ({verdict.method})"
    if not verdict.proven:
        line += " [unproven: experimental seed]"
    human = [line]
    if verdict.witness is not None:
        human.append(f"witness residue: {verdict.witness}")
    return inputs, result, (0 if verdict.is_prime else 1), human


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


def _cmd_table(args) -> tuple[dict, dict, int, list[str]]:
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
    rows = []
    human = []
    if args.which == "uv-exact":
        if modulus is not None:
            raise ValueError("uv-exact takes no modulus")
        top = indices[-1] if indices else 0
        if top > EXACT_INDEX_CAP:
            raise ValueError(f"exact table capped at index {EXACT_INDEX_CAP}")
        wanted = set(indices)
        for i, u, v in _iter_uv_exact(params, top):
            if i not in wanted:
                continue
            pair = normalize(params, i, u, v)
            rows.append(
                {
                    "i": i,
                    "u": pair.u_bar,
                    "u_radical": i % 2 == 0,
                    "v": pair.v_bar,
                    "v_radical": i % 2 == 1,
                }
            )
        human = _render_exact_table(params, rows)
    else:
        if modulus is None:
            raise ValueError("uv-mod needs --modulus or --modulus-fermat")
        for i in indices:
            pair = uv_mod(params, i, modulus)
            rows.append(
                {
                    "i": i,
                    "u": pair.u_bar,
                    "u_balanced": balanced_residue(pair.u_bar, modulus),
                    "v": pair.v_bar,
                    "v_balanced": balanced_residue(pair.v_bar, modulus),
                }
            )
        human = _render_mod_table(params, modulus, rows)
    result = {"rows": rows}
    return inputs, result, 0, human


def _render_exact_table(params: LucasParams, rows: list[dict]) -> list[str]:
    tag = f" ×√{params.R}"
    cells = []
    for row in rows:
        u = str(row["u"]) + (tag if row["u_radical"] else "")
        v = str(row["v"]) + (tag if row["v_radical"] else "")
        cells.append((str(row["i"]), u, v))
    wi = max((len(c[0]) for c in cells), default=1)
    wu = max((len(c[1]) for c in cells), default=1)
    wv = max((len(c[2]) for c in cells), default=1)
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
    wi = max((len(c[0]) for c in cells), default=1)
    wu = max((len(c[1]) for c in cells), default=1)
    wv = max((len(c[2]) for c in cells), default=1)
    head_u, head_v = f"u_bar mod {modulus}", f"v_bar mod {modulus}"
    wu, wv = max(wu, len(head_u)), max(wv, len(head_v))
    lines = [f"{'i':>{wi}} | {head_u:>{wu}} | {head_v:>{wv}}"]
    lines += [f"{i:>{wi}} | {u:>{wu}} | {v:>{wv}}" for i, u, v in cells]
    return lines


# ---------------------------------------------------------------------------
# verify suites


def _check(name: str, ok: bool, detail: str | None = None) -> dict:
    entry = {"name": name, "pass": bool(ok)}
    if detail and not ok:
        entry["detail"] = detail
    return entry


def _suite_identities(args) -> list[dict]:
    checks = []
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        label = f"R{params.R}_Q{params.Q}"
        pairs = lehmer_pairs_exact(params, 200)

        bad = []
        for i, u, v in _iter_uv_exact(params, 200):
            if i % 2 == 0:
                ok = u.a == 0 and v.b == 0 and v.a != 0 and (i == 0 or u.b != 0)
            else:
                ok = u.b == 0 and v.a == 0 and u.a != 0 and v.b != 0
            if not ok:
                bad.append(i)
        checks.append(_check(f"parity_structure_{label}", not bad, f"indices {bad[:5]}"))

        q_pow = 1
        bad_u, bad_v = [], []
        for n in range(0, 101):
            c = params.R if n % 2 else 1
            if pairs[2 * n].u_bar != pairs[n].u_bar * pairs[n].v_bar:
                bad_u.append(n)
            if pairs[2 * n].v_bar != c * pairs[n].v_bar ** 2 - 2 * q_pow:
                bad_v.append(n)
            q_pow *= params.Q
        checks.append(_check(f"doubling_u_{label}", not bad_u, f"n {bad_u[:5]}"))
        checks.append(_check(f"doubling_v_{label}", not bad_v, f"n {bad_v[:5]}"))

        bad = [n for n in range(201) if (2 * abs(params.Q) ** n) % math.gcd(pairs[n].u_bar, pairs[n].v_bar) != 0]
        checks.append(_check(f"gcd_divides_2Qn_{label}", not bad, f"n {bad[:5]}"))

    for m in range(2, args.m_max + 1):
        for n in range(1, args.n_max + 1):
            checks.append(
                _check(f"sum_identity_u_m{m}_n{n}", check_sum_identity_u(STANDARD_PARAMS, m, n))
            )
            checks.append(
                _check(f"sum_identity_v_m{m}_n{n}", check_sum_identity_v(STANDARD_PARAMS, m, n))
            )

    # Odd-index subsequence of u_bar for (7, 1) obeys x_{j+1} = 5 x_j - x_{j-1}
    # (the step-two recurrence, since v_bar(2) = 5 and Q^2 = 1).
    pairs7 = lehmer_pairs_exact(STANDARD_PARAMS, 200)
    x_prev, x = 1, 6  # u_bar(1), u_bar(3)
    ok = pairs7[1].u_bar == x_prev and pairs7[3].u_bar == x
    for j in range(2, 100):
        x_prev, x = x, 5 * x - x_prev
        ok = ok and pairs7[2 * j + 1].u_bar == x
    checks.append(_check("odd_index_recurrence", ok))

    pairs3 = lehmer_pairs_exact(ALTERNATE_PARAMS, 60)
    swapped = all(alternate_params_pair(n, pairs7[:61]) == pairs3[n] for n in range(61))
    checks.append(_check("alternate_params_swap", swapped))
    return checks


def _suite_congruences(args) -> list[dict]:
    checks = []
    for params in (STANDARD_PARAMS, ALTERNATE_PARAMS):
        label = f"R{params.R}_Q{params.Q}"
        qrd = params.Q * params.R * params.D
        for p in range(3, args.p_max, 2):
            if not is_prime(p) or qrd % p == 0:
                continue
            report = lehmer_congruence_checks(params, p)
            failed = [c.name for c in report.checks if not c.passed]
            checks.append(_check(f"congruences_{label}_p{p}", not failed, ", ".join(failed)))
    return checks


def _suite_appendix(args) -> list[dict]:
    ns = (args.n,) if args.n is not None else (2, 3, 4)
    checks = []
    for n in ns:
        for c in appendix_residues(STANDARD_PARAMS, n):
            checks.append(_check(c.name, c.passed, f"expected {c.expected}, got {c.actual}"))
    return checks


def _suite_rank(args) -> list[dict]:
    checks = []
    for m, expected in ((5, 4), (17, 16), (257, 256)):
        got = rank_of_apparition(STANDARD_PARAMS, m).omega
        checks.append(_check(f"omega_{m}_is_{expected}", got == expected, f"got {got}"))

    missing = []
    for m in range(2, args.sweep_max + 1):
        if math.gcd(m, STANDARD_PARAMS.Q) != 1:
            continue
        if rank_of_apparition(STANDARD_PARAMS, m, cap=args.cap).omega is None:
            missing.append(m)
    checks.append(
        _check(f"omega_exists_to_{args.sweep_max}", not missing, f"missing {missing[:5]}")
    )

    bad = []
    for m in range(3, 201, 2):
        omega = rank_of_apparition(STANDARD_PARAMS, m, cap=5000).omega
        if omega is None:
            bad.append((m, "no omega"))
            continue
        for pair in iter_pairs(STANDARD_PARAMS, modulus=m):
            if pair.index > 2000:
                break
            if pair.index >= 1 and (pair.u_bar == 0) != (pair.index % omega == 0):
                bad.append((m, pair.index))
                break
    checks.append(_check("divisibility_iff_rank_divides", not bad, f"first {bad[:3]}"))

    pairs = lehmer_pairs_exact(STANDARD_PARAMS, 60)
    bad = [
        (k, n)
        for k in range(1, 61)
        for n in range(k, 61, k)
        if pairs[n].u_bar % pairs[k].u_bar != 0
    ]
    checks.append(_check("u_divides_u_at_multiples", not bad, f"first {bad[:3]}"))

    for N, name in ((17, "certify_17"), (257, "certify_257"), (65537, "certify_65537")):
        verdict = certify_via_rank(STANDARD_PARAMS, N)
        checks.append(_check(name, verdict.classification == "prime"))
    f5 = certify_via_rank(STANDARD_PARAMS, (1 << 32) + 1)
    checks.append(_check("certify_F5_composite", f5.classification == "composite"))
    return checks


def _suite_traces(args) -> list[dict]:
    checks = []
    for n in (1, 2, 3, 4):
        F = FermatNumber(n).value
        trace = s_sequence(n, keep_trace=True).residues
        s = 5 % F
        generic = [s]
        for _ in range((1 << n) - 2):
            s = (s * s - 2) % F
            generic.append(s)
        checks.append(_check(f"trace_special_vs_generic_F{n}", list(trace) == generic))
        bridge = all(s_from_v(STANDARD_PARAMS, k, F) == trace[k] for k in range(len(trace)))
        checks.append(_check(f"trace_bridge_F{n}", bridge))
    for n in range(1, args.max_n + 1):
        F = FermatNumber(n).value
        v_route = uv_mod(STANDARD_PARAMS, (F - 1) // 2, F).v_bar
        checks.append(_check(f"final_matches_v_route_F{n}", v_route == s_sequence(n).final))
    return checks


_SUITES = {
    "identities": _suite_identities,
    "congruences": _suite_congruences,
    "appendix": _suite_appendix,
    "rank": _suite_rank,
    "traces": _suite_traces,
}


def _cmd_verify(args) -> tuple[dict, dict, int, list[str]]:
    checks = _SUITES[args.suite](args)
    if not checks:
        raise ValueError(f"suite {args.suite!r} ran zero checks with these bounds")
    passed = sum(1 for c in checks if c["pass"])
    failed = len(checks) - passed
    inputs = {"suite": args.suite}
    for key in ("m_max", "n_max", "p_max", "n", "sweep_max", "cap", "max_n"):
        if hasattr(args, key):
            inputs[key] = getattr(args, key)
    result = {"checks": checks, "passed": passed, "failed": failed}
    human = []
    for c in checks:
        mark = "ok  " if c["pass"] else "FAIL"
        detail = f"  ({c['detail']})" if "detail" in c else ""
        human.append(f"{mark} {c['name']}{detail}")
    human.append(f"{passed} passed, {failed} failed")
    return inputs, result, (0 if failed == 0 else 1), human


# ---------------------------------------------------------------------------
# rank


def _cmd_rank(args) -> tuple[dict, dict, int, list[str]]:
    res = rank_of_apparition(STANDARD_PARAMS, args.m, cap=args.cap)
    inputs = {"m": args.m, "cap": args.cap}
    result = {"omega": res.omega, "cap": res.cap}
    if res.omega is None:
        return inputs, result, 1, [f"no rank found below cap {res.cap}"]
    return inputs, result, 0, [f"omega({args.m}) = {res.omega}"]


# ---------------------------------------------------------------------------
# wiring


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
    t.set_defaults(func=_cmd_test)

    tb = sub.add_parser("table", help="print u_bar/v_bar rows, exact or modular")
    tb.add_argument("which", choices=["uv-exact", "uv-mod"])
    tb.add_argument("--params", type=_params_arg, default=STANDARD_PARAMS, metavar="R,Q")
    tb.add_argument("--modulus", type=int, default=None, metavar="N")
    tb.add_argument("--modulus-fermat", type=int, default=None, metavar="n")
    tb.add_argument("--max", type=int, default=None, help="rows 0..max")
    tb.add_argument("--indices", type=_indices_arg, default=None, metavar="i,j,...")
    tb.set_defaults(func=_cmd_table)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=sorted(_SUITES))
    v.add_argument("--m-max", type=int, default=9, dest="m_max")
    v.add_argument("--n-max", type=int, default=9, dest="n_max")
    v.add_argument("--p-max", type=int, default=2000, dest="p_max")
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--sweep-max", type=int, default=500, dest="sweep_max")
    v.add_argument("--cap", type=int, default=10**6)
    v.add_argument("--max-n", type=int, default=8, dest="max_n")
    v.set_defaults(func=_cmd_verify)

    r = sub.add_parser("rank", help="rank of apparition of m for the (7, 1) parameters")
    r.add_argument("m", type=int)
    r.add_argument("--cap", type=int, default=10**6)
    r.set_defaults(func=_cmd_rank)
    return parser


def main(argv: list[str] | None = None) -> int:
    # Records legitimately carry multi-thousand-digit integers (e.g. the
    # witness residue for F_14); lift the int-to-str conversion guard.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, result, code, human = args.func(args)
    except (ValueError, InconclusiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.human:
        print("\n".join(human))
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
