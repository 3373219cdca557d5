"""Command-line front end: build, verify, and report on plan families.

Each subparser declares only the flags its handler reads, names its handler
with `set_defaults(run=cmd_...)`, and the handler reads its flags straight off
the parsed `argparse.Namespace`. For the subcommands that take `--tol`, `main`
first resolves it: `--tol`, then `EXACTQ_TOL`, then `DEFAULT_TOL`; a value
that is not finite and >= 0 exits 2. Each handler builds its report once
as a JSON payload, CSV rows and text lines, and `_emit` writes the format
asked for.
Exit codes: 0 pass, 1 failed check or diverged chain, 2 invalid parameters.
The parser is built at the first `main` call in a process, not at import,
and binds the handlers then; later calls in the same process reuse it. Only
callers that call `main` several times in one process gain from that: the
`exactq` command calls it once. `EXACTQ_TOL` is read on every call.
Builders and verifier functions are looked up as module globals at call time,
so wrappers set on this module with `setattr` see every call.
"""

from __future__ import annotations

import argparse
import csv
import functools
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
from .errors import DegenerateCase, DivergedChain, ExactQError, check_tol
from .plans import Plan
from .recurrence import chain_gamma_at, gamma_chain, solve_step_constants
from .sym import STRATEGIES, SymSpec, TWO_SIDED, build_sym
from .verifier import (
    DEFAULT_BRANCH_TOL,
    DEFAULT_TOL,
    ENUMERATION_LIMIT,
    EXTRACTION_LIMIT,
    audit_leaf_degrees,
    check_limit,
    extract_multilinear,
    symmetrize_to_univariate,
    verify_exactness,
)

FORMATS = ("json", "csv", "text")
FAMILIES = ("unb", "unbr", "equality", "exact", "exactkl", "general", "uw", "sym")


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


def _requested_n(config: argparse.Namespace) -> int:
    """The n of the plan that `build_family` would build: `--n`, or
    len(--a) - 1 for sym. Read before the build, so that an n over a walk's
    limit fails before a plan of that size is built."""
    if config.family == "sym":
        (a,) = _require(config, "a")
        return len(a) - 1
    (n,) = _require(config, "n")
    return n


def _emit(config: argparse.Namespace, payload: dict, header: list[str], rows: list[list],
          lines: list[str]) -> None:
    """Write one report in `config.format` to `config.out` (stdout when
    unset or "-"): `payload` as JSON, `header` and `rows` as RFC 4180 CSV,
    or `lines` as text."""
    if config.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif config.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if config.out is None or config.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(config.out, "w", encoding="utf-8", newline="") as f:
                f.write(text)
        except OSError as exc:
            raise ValueError(f"--out {config.out}: {exc.strerror or exc}") from None


def cmd_verify(config: argparse.Namespace) -> int:
    check_limit("n", _requested_n(config), ENUMERATION_LIMIT, "enumeration")
    plan = build_family(config)
    report = verify_exactness(plan, tol=config.tol, branch_tol=config.branch_tol)
    payload = report.as_dict(verbose=config.verbose)
    payload["tool_version"] = __version__
    params = ";".join(f"{k}={v}" for k, v in report.params_dict().items())
    _emit(config, payload,
          ["family", "params", "exact", "worst_case_queries", "claimed_bound",
           "max_norm_residual", "tool_version"],
          [[report.family, params, report.exact, report.worst_case_queries,
            report.claimed_bound, repr(report.max_norm_residual), __version__]],
          [f"{key}: {payload[key]}" for key in sorted(payload)])
    ok = report.exact and report.worst_case_queries <= report.claimed_bound
    return 0 if ok else 1


def cmd_gamma(config: argparse.Namespace) -> int:
    chain = gamma_chain(config.d, config.k0, config.gamma0, n_max=config.n_max)
    rows = [(n, g, bool(g <= 1.0 / n + 1e-15)) for n, g in chain.entries]
    payload = {
        "d": chain.d, "k0": chain.k0, "n_init": chain.n_init,
        "valid": chain.valid, "decays": chain.decays,
        "rows": [{"n": n, "gamma": g, "decayed": flag} for n, g, flag in rows],
    }
    lines = [f"d={chain.d} k0={chain.k0} valid={chain.valid} decays={chain.decays}"]
    lines += [f"  n={n:3d}  gamma={g:.12g}  decayed={flag}" for n, g, flag in rows]
    _emit(config, payload, ["n", "gamma", "decayed"],
          [[n, repr(g), flag] for n, g, flag in rows], lines)
    return 0 if chain.valid else 1


def cmd_poly(config: argparse.Namespace) -> int:
    check_limit("n", _requested_n(config), EXTRACTION_LIMIT, "extraction")
    plan = build_family(config)
    records = audit_leaf_degrees(plan)
    poly = extract_multilinear(plan, tol=config.tol, branch_tol=config.branch_tol)
    sym_poly = symmetrize_to_univariate(poly)
    audit_ok = all(r.ok for r in records)
    payload = {
        "family": plan.family, "params": plan.params_dict(),
        "degree": poly.degree(),
        "coefficients": [{"subset": list(s), "value": c} for s, c in poly.coeffs],
        "q_values": list(sym_poly.q_values),
        "q_coefficients": list(sym_poly.coeffs),
        "audit_records": len(records),
        "audit_ok": audit_ok,
        "tool_version": __version__,
    }
    lines = [f"family: {plan.family}", f"degree: {poly.degree()}"]
    lines += [f"  alpha[{' '.join(map(str, s)) or 'empty'}] = {c:.12g}" for s, c in poly.coeffs]
    lines.append("q values: " + " ".join(f"{v:.12g}" for v in sym_poly.q_values))
    lines.append(f"leaf degree audit: {len(records)} records, ok={audit_ok}")
    _emit(config, payload, ["subset", "coefficient"],
          [[" ".join(map(str, s)), repr(c)] for s, c in poly.coeffs], lines)
    return 0 if audit_ok else 1


def cmd_constants(config: argparse.Namespace) -> int:
    if config.appendix_a:
        constants = appendix_a_constants()
        residuals = appendix_a_residuals(constants)
        worst = max(residuals.values())
        plan = build_appendix_a()
        payload = {
            "constants": {str(i): c for i, c in constants.items()},
            "residuals": residuals,
            "max_residual": worst,
            "queries": plan.claimed_queries,
            "gamma": plan.contract_gamma,
        }
        # (CSV key, text name, value) per constant
        table = [(i, f"c{i}", constants[i]) for i in sorted(constants)]
        header = ["index", "value"]
    else:
        n, d = _require(config, "n", "d")
        if n == d:
            raise DegenerateCase(f"step constants are undefined at n = d = {n}")
        gamma_prev = chain_gamma_at(d, n - 2)
        cs = solve_step_constants(n, d, gamma_prev)
        residuals = cs.constraint_residuals()
        worst = cs.max_residual()
        values = {f"c{i}": getattr(cs, f"c{i}") for i in range(1, 12)}
        values["gamma"] = cs.gamma
        payload = {"n": n, "d": d, "gamma_prev": gamma_prev,
                   "constants": values, "residuals": residuals, "max_residual": worst}
        table = [(name, name, v) for name, v in values.items()]
        header = ["name", "value"]
    lines = [f"  {name} = {v:.12g}" for _, name, v in table]
    lines.append(f"max residual: {worst:.3e}")
    _emit(config, payload, header, [[key, repr(v)] for key, _, v in table], lines)
    return 0 if worst <= config.tol else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactq",
        description="Build, simulate, and certify exact weight-deciding query algorithms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser("verify", help="exhaustively verify a plan")
    p_verify.set_defaults(run=cmd_verify)
    p_gamma = sub.add_parser("gamma", help="print a coefficient chain table")
    p_gamma.set_defaults(run=cmd_gamma)
    p_poly = sub.add_parser("poly", help="dump acceptance polynomial and degree audit")
    p_poly.set_defaults(run=cmd_poly)
    p_constants = sub.add_parser("constants", help="print step constants and residuals")
    p_constants.set_defaults(run=cmd_constants)

    for p in (p_verify, p_poly):
        p.add_argument("--family", required=True, choices=FAMILIES)
        for name in ("n", "k", "l", "d", "u", "w"):
            p.add_argument(f"--{name}", type=int)
        p.add_argument("--a", type=str, help="symmetric value vector, one 0/1 per weight")
        p.add_argument("--g", type=int, help="radius of the 1-weights around n/2")
        p.add_argument("--strategy", choices=STRATEGIES, default=TWO_SIDED)
    p_gamma.add_argument("--d", type=int, required=True)
    p_gamma.add_argument("--k0", type=int, default=None)
    p_gamma.add_argument("--gamma0", type=float, default=None)
    p_gamma.add_argument("--n-max", type=int, default=41)
    p_constants.add_argument("--appendix-a", action="store_true",
                             help="print the hand-tuned base-plan constant table")
    p_constants.add_argument("--n", type=int)
    p_constants.add_argument("--d", type=int)
    for p in (p_verify, p_poly, p_constants):
        p.add_argument("--tol", type=float, default=None)
    for p in (p_verify, p_poly):
        p.add_argument("--branch-tol", type=float, default=DEFAULT_BRANCH_TOL)
    for p in (p_verify, p_gamma, p_poly, p_constants):
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--out", type=str, default=None)
    p_verify.add_argument("--verbose", action="store_true")
    return parser


def _tol(flag: float | None) -> float:
    """`--tol`, else `EXACTQ_TOL`, else `DEFAULT_TOL`; finite and >= 0."""
    if flag is not None:
        check_tol(flag, "--tol")
        return flag
    env = os.environ.get("EXACTQ_TOL")
    if not env:
        return DEFAULT_TOL
    try:
        tol = float(env)
    except ValueError:
        raise ValueError(f"EXACTQ_TOL must be a number, got {env!r}") from None
    check_tol(tol, "EXACTQ_TOL")
    return tol


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if "tol" in args:
            args.tol = _tol(args.tol)
        return args.run(args)
    except DivergedChain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ExactQError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
