"""Command-line front end: build, verify, and report on plan families.

Each subparser names its handler with `set_defaults(run=cmd_...)`, and the
handler reads its flags straight off the parsed `argparse.Namespace`. `main`
first resolves `tol` (`--tol`, then `EXACTQ_TOL`, then `DEFAULT_TOL`) and
`branch_tol` (`--branch-tol`, else `DEFAULT_BRANCH_TOL`) on the namespace.
Exit codes: 0 pass, 1 failed check or diverged chain, 2 invalid parameters.
Builders and verifier functions are looked up as module globals at call time,
so wrappers set on this module with `setattr` see every call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .algorithms import (
    appendix_a_constants,
    appendix_a_residuals,
    build_appendix_a,
    build_equality,
    build_exact_k,
    build_exact_kl,
    build_general_unbalance,
    build_unb,
    build_unbr,
    build_uw_step,
)
from .errors import DegenerateCase, DivergedChain, ExactQError
from .plans import Plan
from .recurrence import chain_gamma_at, gamma_chain, solve_step_constants
from .sym import STRATEGIES, SymSpec, TWO_SIDED, build_sym
from .verifier import (
    DEFAULT_BRANCH_TOL,
    DEFAULT_TOL,
    audit_leaf_degrees,
    extract_multilinear,
    symmetrize_to_univariate,
    verify_exactness,
)

FORMATS = ("json", "csv", "text")


def _require(config: argparse.Namespace, *names: str) -> list:
    owner = f"family {config.family!r}" if "family" in config else f"the {config.command} command"
    values = []
    for name in names:
        value = getattr(config, name)
        if value is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for {owner}")
        values.append(value)
    return values


def build_family(config: argparse.Namespace) -> Plan:
    family = config.family
    if family == "unb":
        n, d = _require(config, "n", "d")
        return build_unb(n, d)
    if family == "unbr":
        n, d = _require(config, "n", "d")
        return build_unbr(n, d)
    if family == "equality":
        (n,) = _require(config, "n")
        return build_equality(n)
    if family == "exact":
        n, k = _require(config, "n", "k")
        return build_exact_k(n, k)
    if family == "exactkl":
        n, k, l = _require(config, "n", "k", "l")
        return build_exact_kl(n, k, l)
    if family == "general":
        n, k = _require(config, "n", "k")
        return build_general_unbalance(n, k)
    if family == "uw":
        n, u, w = _require(config, "n", "u", "w")
        return build_uw_step(n, u, w)
    if family == "sym":
        (a,) = _require(config, "a")
        return build_sym(SymSpec(a, config.g, config.strategy))
    raise ValueError(f"unknown family {family!r}")


def _emit(config: argparse.Namespace, text: str) -> None:
    if config.out is None or config.out == "-":
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as f:
            f.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _params_cell(params: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in params.items())


def cmd_verify(config: argparse.Namespace) -> int:
    plan = build_family(config)
    report = verify_exactness(plan, limit=20, tol=config.tol, branch_tol=config.branch_tol)
    payload = report.as_dict(verbose=config.verbose)
    payload["tool_version"] = __version__
    if config.format == "json":
        _emit(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif config.format == "csv":
        header = ["family", "params", "exact", "worst_case_queries",
                  "claimed_bound", "max_norm_residual", "tool_version"]
        row = [report.family, _params_cell(report.params_dict()), report.exact,
               report.worst_case_queries, report.claimed_bound,
               repr(report.max_norm_residual), __version__]
        _emit(config, _csv_text(header, [row]))
    else:
        lines = [f"{key}: {payload[key]}" for key in sorted(payload)]
        _emit(config, "\n".join(lines) + "\n")
    ok = report.exact and report.worst_case_queries <= report.claimed_bound
    return 0 if ok else 1


def cmd_gamma(config: argparse.Namespace) -> int:
    chain = gamma_chain(config.d, config.k0, config.gamma0, n_max=config.n_max)
    rows = [(n, g, bool(g <= 1.0 / n + 1e-15)) for n, g in chain.entries]
    if config.format == "json":
        payload = {
            "d": chain.d, "k0": chain.k0, "n_init": chain.n_init,
            "valid": chain.valid, "decays": chain.decays,
            "rows": [{"n": n, "gamma": g, "decayed": flag} for n, g, flag in rows],
        }
        _emit(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif config.format == "csv":
        _emit(config, _csv_text(["n", "gamma", "decayed"],
                                [[n, repr(g), flag] for n, g, flag in rows]))
    else:
        lines = [f"d={chain.d} k0={chain.k0} valid={chain.valid} decays={chain.decays}"]
        lines += [f"  n={n:3d}  gamma={g:.12g}  decayed={flag}" for n, g, flag in rows]
        _emit(config, "\n".join(lines) + "\n")
    return 0 if chain.valid else 1


def cmd_poly(config: argparse.Namespace) -> int:
    plan = build_family(config)
    if plan.n > 14:
        raise ValueError(f"polynomial extraction needs n <= 14, got {plan.n}")
    poly = extract_multilinear(plan, tol=config.tol, branch_tol=config.branch_tol)
    sym_poly = symmetrize_to_univariate(poly)
    records = audit_leaf_degrees(plan)
    audit_ok = all(r.ok for r in records)
    if config.format == "json":
        payload = {
            "family": plan.family, "params": plan.params_dict(),
            "degree": poly.degree(),
            "coefficients": [
                {"subset": list(s), "value": c} for s, c in poly.coeffs],
            "q_values": list(sym_poly.q_values),
            "q_coefficients": list(sym_poly.coeffs),
            "audit_records": len(records),
            "audit_ok": audit_ok,
            "tool_version": __version__,
        }
        _emit(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif config.format == "csv":
        rows = [[" ".join(map(str, s)), repr(c)] for s, c in poly.coeffs]
        _emit(config, _csv_text(["subset", "coefficient"], rows))
    else:
        lines = [f"family: {plan.family}", f"degree: {poly.degree()}"]
        lines += [f"  alpha[{' '.join(map(str, s)) or 'empty'}] = {c:.12g}" for s, c in poly.coeffs]
        lines.append("q values: " + " ".join(f"{v:.12g}" for v in sym_poly.q_values))
        lines.append(f"leaf degree audit: {len(records)} records, ok={audit_ok}")
        _emit(config, "\n".join(lines) + "\n")
    return 0 if audit_ok else 1


def cmd_constants(config: argparse.Namespace) -> int:
    if config.appendix_a:
        constants = appendix_a_constants()
        residuals = appendix_a_residuals(constants)
        worst = max(residuals.values())
        plan = build_appendix_a()
        if config.format == "json":
            payload = {
                "constants": {str(i): c for i, c in constants.items()},
                "residuals": residuals,
                "max_residual": worst,
                "queries": plan.claimed_queries,
                "gamma": plan.contract_gamma,
            }
            _emit(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        elif config.format == "csv":
            rows = [[i, repr(constants[i])] for i in sorted(constants)]
            _emit(config, _csv_text(["index", "value"], rows))
        else:
            lines = [f"  c{i} = {constants[i]:.12g}" for i in sorted(constants)]
            lines.append(f"max residual: {worst:.3e}")
            _emit(config, "\n".join(lines) + "\n")
        return 0 if worst <= config.tol else 1

    n, d = _require(config, "n", "d")
    if n == d:
        raise DegenerateCase(f"step constants are undefined at n = d = {n}")
    gamma_prev = chain_gamma_at(d, n - 2)
    cs = solve_step_constants(n, d, gamma_prev)
    residuals = cs.constraint_residuals()
    worst = cs.max_residual()
    values = {f"c{i}": getattr(cs, f"c{i}") for i in range(1, 12)}
    values["gamma"] = cs.gamma
    if config.format == "json":
        payload = {"n": n, "d": d, "gamma_prev": gamma_prev,
                   "constants": values, "residuals": residuals, "max_residual": worst}
        _emit(config, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    elif config.format == "csv":
        _emit(config, _csv_text(["name", "value"],
                                [[k, repr(v)] for k, v in values.items()]))
    else:
        lines = [f"  {k} = {v:.12g}" for k, v in values.items()]
        lines.append(f"max residual: {worst:.3e}")
        _emit(config, "\n".join(lines) + "\n")
    return 0 if worst <= config.tol else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactq",
        description="Build, simulate, and certify exact weight-deciding query algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_family: bool) -> None:
        if with_family:
            p.add_argument("--family", required=True,
                           choices=["unb", "unbr", "equality", "exact", "exactkl",
                                    "general", "uw", "sym"])
            p.add_argument("--n", type=int)
            p.add_argument("--k", type=int)
            p.add_argument("--l", type=int)
            p.add_argument("--d", type=int)
            p.add_argument("--u", type=int)
            p.add_argument("--w", type=int)
            p.add_argument("--a", type=str, help="symmetric value vector, one 0/1 per weight")
            p.add_argument("--g", type=int, help="radius of the 1-weights around n/2")
            p.add_argument("--strategy", choices=list(STRATEGIES), default=TWO_SIDED)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--branch-tol", type=float, default=None)
        p.add_argument("--format", choices=list(FORMATS), default="json")
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--verbose", action="store_true")

    p_verify = sub.add_parser("verify", help="exhaustively verify a plan")
    p_verify.set_defaults(run=cmd_verify)
    add_common(p_verify, with_family=True)

    p_gamma = sub.add_parser("gamma", help="print a coefficient chain table")
    p_gamma.set_defaults(run=cmd_gamma)
    p_gamma.add_argument("--d", type=int, required=True)
    p_gamma.add_argument("--k0", type=int, default=None)
    p_gamma.add_argument("--gamma0", type=float, default=None)
    p_gamma.add_argument("--n-max", type=int, default=41)
    add_common(p_gamma, with_family=False)

    p_poly = sub.add_parser("poly", help="dump acceptance polynomial and degree audit")
    p_poly.set_defaults(run=cmd_poly)
    add_common(p_poly, with_family=True)

    p_constants = sub.add_parser("constants", help="print step constants and residuals")
    p_constants.set_defaults(run=cmd_constants)
    p_constants.add_argument("--appendix-a", action="store_true",
                             help="print the hand-tuned base-plan constant table")
    p_constants.add_argument("--n", type=int)
    p_constants.add_argument("--d", type=int)
    add_common(p_constants, with_family=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.tol is None:
        env = os.environ.get("EXACTQ_TOL")
        args.tol = float(env) if env else DEFAULT_TOL
    if args.branch_tol is None:
        args.branch_tol = DEFAULT_BRANCH_TOL
    try:
        return args.run(args)
    except DivergedChain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExactQError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
