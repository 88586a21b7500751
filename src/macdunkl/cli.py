"""Batch command-line surface over the verification layer.

Subcommands: ``verify`` (one identity or a named suite), ``expand``
(h-expansion coefficient matrices), ``tbinom`` (t-binomial views),
``jack`` (eigenfunction tables at a rational coupling) and ``witness``
(noncommutativity search).  Exit codes: 0 all pass, 1 at least one
failure or a contradicted witness expectation, 2 usage errors.

Reports are byte-stable for fixed arguments and seed; measured runtimes
are only included under --timings (they are reported as 0 otherwise so
that reruns compare equal).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import DegenerateSpectrumError, DomainError
from .operators import extract_order
from .rings import binom
from .tbinom import scaled_taylor_coeff_closed, t_binomial, taylor_coeff_closed
from .verify.identities import SUITES, suite_plan, verify_identity
from .verify.jack import jack_solve
from .verify.witness import noncommutativity_witness


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _params_text(params: dict) -> str:
    return " ".join(f"{k}={_param_str(v)}" for k, v in params.items())


def _param_str(v):
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)


def emit_report(verdicts, fmt: str = "text", timings: bool = False) -> str:
    """Render verdicts; json mode follows the documented schema."""
    if fmt == "json":
        arr = []
        for v in verdicts:
            arr.append(
                {
                    "identity": v.identity,
                    "params": v.params,
                    "status": v.status,
                    "residual": "zero" if v.residual is None else v.residual,
                    "basis_degree": v.params.get("degree"),
                    "jet_order": v.params.get("K"),
                    "seed": v.params.get("seed"),
                    "runtime_ms": v.runtime_ms if timings else 0,
                }
            )
        return json.dumps(arr, indent=1) + "\n"
    lines = []
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        residual = "zero" if v.residual is None else _residual_summary(v.residual)
        line = f"{status} {v.identity} {_params_text(v.params)} residual={residual}"
        if timings:
            line += f" ({v.runtime_ms} ms)"
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def _residual_summary(residual: dict) -> str:
    kind = residual.get("kind")
    if kind == "matrix":
        cells = residual["cells"]
        head = "; ".join(f"{c['row']}<-{c['col']}: {c['value']}" for c in cells[:4])
        more = "" if len(cells) <= 4 else f" (+{len(cells) - 4} more)"
        return f"[{head}{more}]"
    return str(residual.get("value"))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not a rational number: {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="macdunkl",
        description="Exact verification of the h-expansion of Macdonald operators.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_out=True):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--timings",
            action="store_true",
            help="include measured runtimes; each cached matrix (the h^k "
            "coefficient of an (n, r, k, degree), a primitive operator's matrix "
            "on a window) is charged to the first check that builds it",
        )
        if with_out:
            p.add_argument("--out", help="write the report to this path")

    v = sub.add_parser("verify", help="run one identity or a named suite")
    v.add_argument("--identity", help="registry name, e.g. scalar_part")
    v.add_argument("--suite", help="suite name or 'all'")
    v.add_argument("--n", type=int)
    v.add_argument("--r", type=int)
    v.add_argument("--s", type=int)
    v.add_argument("--i", type=int)
    v.add_argument("--j", type=int)
    v.add_argument("--k", type=int, help="h order or closed-coefficient index")
    v.add_argument("--nmax", type=int, help="cap the suite grid at this n")
    v.add_argument("--degree", type=int, help="basis weight window (default 4)")
    v.add_argument("--K", type=int, help="jet truncation order (default 4)")
    v.add_argument("--seed", type=int, help="default 0")
    common(v)

    e = sub.add_parser("expand", help="print one h-expansion coefficient matrix")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--r", type=int, required=True)
    e.add_argument("--order", type=int, required=True, help="h power to extract")
    e.add_argument("--degree", type=int, default=4)
    e.add_argument("--K", type=int, default=4)
    common(e)

    t = sub.add_parser("tbinom", help="t-binomial, its jet and closed coefficients")
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--r", type=int, required=True)
    t.add_argument("--K", type=int, default=4)
    common(t)

    j = sub.add_parser("jack", help="triangular eigenvector tables at rational b")
    j.add_argument("--n", type=int, required=True)
    j.add_argument("--degree", type=int, default=4)
    j.add_argument("--beta", default="1", help="rational coupling value, e.g. 2/3")
    common(j)

    w = sub.add_parser("witness", help="search for a noncommuting order pair")
    w.add_argument("--nmax", type=int, default=4)
    w.add_argument("--order-max", type=int, default=4, dest="order_max")
    w.add_argument("--degree", type=int, default=4)
    w.add_argument("--K", type=int, default=4)
    w.add_argument(
        "--expect",
        choices=("found", "none", "any"),
        default="any",
        help="exit 1 when the outcome contradicts this expectation",
    )
    common(w)
    return top


def _verify_args_to_params(args) -> dict:
    """The identity parameters given on the command line."""
    params = {}
    for key in ("n", "r", "s", "i", "j", "k", "seed", "degree", "K", "nmax"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    return params


def _validate_common(args):
    if getattr(args, "degree", None) is not None and args.degree < 1:
        raise DomainError("degree must be at least 1")
    if getattr(args, "K", None) is not None and args.K < 0:
        raise DomainError("jet order must be non-negative")
    n = getattr(args, "n", None)
    for key in ("r", "s"):
        val = getattr(args, key, None)
        if val is not None:
            if n is None:
                raise DomainError(f"--{key} needs --n")
            if not 0 <= val <= n:
                raise DomainError(f"need 0 <= {key} <= n, got {key}={val}, n={n}")


def _run_verify(args) -> int:
    if bool(args.identity) == bool(args.suite):
        raise DomainError("give exactly one of --identity or --suite")
    # --K and --seed default to None so that only flags given explicitly
    # count as parameters of an identity
    params = _verify_args_to_params(args)
    args.K = params.get("K", 4)
    args.seed = params.get("seed", 0)
    _validate_common(args)
    if args.identity:
        # binding to the check's signature refuses the flags it does not take
        verdicts = [verify_identity(args.identity, **params)]
    else:
        if args.suite != "all" and args.suite not in SUITES:
            raise DomainError(f"unknown suite {args.suite!r}")
        refused = [k for k in ("s", "i", "j", "k") if k in params]
        if refused:
            flags = ", ".join(f"--{k}" for k in refused)
            raise DomainError(f"suite mode does not take {flags}")
        plan = suite_plan(args.suite, args.nmax, args.degree, args.seed, args.K)
        if args.n is not None:
            plan = [(nm, ps) for nm, ps in plan if ps.get("n") == args.n]
        if args.r is not None:
            plan = [(nm, ps) for nm, ps in plan if ps.get("r", args.r) == args.r]
        if not plan:
            given = " ".join(f"--{k} {params[k]}" for k in ("nmax", "n", "r") if k in params)
            raise DomainError(f"suite {args.suite!r} has no checks with {given}")
        verdicts = [verify_identity(nm, **ps) for nm, ps in plan]
    _emit(emit_report(verdicts, "json" if args.json else "text", args.timings), args.out)
    return 0 if all(v.passed for v in verdicts) else 1


def _run_expand(args) -> int:
    _validate_common(args)
    if args.order > args.K:
        raise DomainError("order exceeds the jet order K")
    mat = extract_order(args.n, args.r, args.order, args.degree, args.K)
    if args.json:
        payload = {
            "n": args.n,
            "r": args.r,
            "order": args.order,
            "degree": args.degree,
            "K": args.K,
            "basis": [list(lam) for lam in mat.basis],
            "cells": [
                {"row": row, "col": col, "value": val}
                for row, col, val in mat.render_cells()
            ],
        }
        _emit(json.dumps(payload, indent=1) + "\n", args.out)
    else:
        lines = [f"coefficient of h^{args.order} for (n, r) = ({args.n}, {args.r})"]
        for row, col, val in mat.render_cells():
            lines.append(f"  {row} <- {col}: {val}")
        if len(lines) == 1:
            lines.append("  (zero matrix)")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_tbinom(args) -> int:
    _validate_common(args)
    n, r = args.n, args.r
    poly = t_binomial(n, r)
    jet = [poly.h_coeff(k) for k in range(args.K + 1)]
    closed = [taylor_coeff_closed(n, r, k) for k in range(min(args.K, 4) + 1)]
    scaled = [scaled_taylor_coeff_closed(n, r, k) for k in range(min(args.K, 4) + 1)]
    if args.json:
        payload = {
            "n": n,
            "r": r,
            "K": args.K,
            "t_polynomial": poly.render("t"),
            "jet": [c.render("b") for c in jet],
            "closed": [c.render("b") for c in closed],
            "closed_scaled": [c.render("b") for c in scaled],
            "coefficient_sum": binom(n, r),
        }
        _emit(json.dumps(payload, indent=1) + "\n", args.out)
    else:
        lines = [
            f"t-binomial [{n} {r}] = {poly.render('t')}",
            f"jet at t = exp(b*h), order {args.K}:",
        ]
        for k, c in enumerate(jet):
            closed_txt = closed[k].render("b") if k < len(closed) else "-"
            lines.append(f"  h^{k}: {c.render('b')}   closed: {closed_txt}")
        lines.append("scaled closed coefficients (prefactor exponent r(r-1)/2):")
        for k, c in enumerate(scaled):
            lines.append(f"  h^{k}: {c.render('b')}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_jack(args) -> int:
    _validate_common(args)
    beta = _parse_fraction(args.beta)
    table = jack_solve(args.n, args.degree, beta)
    if args.json:
        payload = [
            {
                "partition": list(lam),
                "coords": [
                    {"m": list(mu), "value": str(c)} for mu, c in sorted(coords.items(), key=lambda kv: (tuple(-x for x in kv[0])))
                ],
            }
            for lam, coords in table
        ]
        _emit(json.dumps({"n": args.n, "beta": str(beta), "vectors": payload}, indent=1) + "\n", args.out)
    else:
        lines = [f"joint eigenvectors at b = {beta}, n = {args.n}"]
        for lam, coords in table:
            body = " + ".join(
                (f"m[{','.join(map(str, mu))}]" if c == 1 else f"{c}*m[{','.join(map(str, mu))}]")
                for mu, c in sorted(coords.items(), key=lambda kv: tuple(-x for x in kv[0]))
            )
            lines.append(f"  P[{','.join(map(str, lam))}] = {body}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _run_witness(args) -> int:
    report = noncommutativity_witness(args.nmax, args.order_max, args.degree, args.K)
    if args.json:
        _emit(json.dumps(report.to_json_dict(), indent=1) + "\n", args.out)
    else:
        lines = [f"grid: {report.grid}", f"found: {report.found}"]
        if report.found:
            w = report.witness
            lines.append(
                f"witness: n={w['n']} r={w['r']} s={w['s']} i={w['i']} j={w['j']} "
                f"lam={list(w['lam'])}"
            )
            for mu, val in w["residual"]:
                lines.append(f"  residual m[{','.join(map(str, mu))}]: {val}")
        _emit("\n".join(lines) + "\n", args.out)
    if args.expect == "found" and not report.found:
        return 1
    if args.expect == "none" and report.found:
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "expand":
            return _run_expand(args)
        if args.command == "tbinom":
            return _run_tbinom(args)
        if args.command == "jack":
            return _run_jack(args)
        if args.command == "witness":
            return _run_witness(args)
        raise DomainError(f"unknown command {args.command!r}")
    except (DomainError, DegenerateSpectrumError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
