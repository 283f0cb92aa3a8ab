"""Command-line frontend.

Subcommands: solve, verify, bound, construct, sweep, certify-sub-r,
fixtures.  Exit codes: 0 success, 2 validation error, 3 non-convergence.
File outputs are atomic (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from typing import Iterable

import numpy as np

from . import analysis, constructions
from .core import UniformHypergraph, load_hypergraph, serialize_hypergraph
from .errors import ConvergenceError, HypergraphFormatError, PreconditionError
from .labeling import DEFAULT_TOL, Labeling, classify_labeling, classify_labeling_sub_r
from .solver import SolverOptions, certificate_search_sub_r, solve_p_spectral, solver_certificate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _atomic_write(path: str, text: str | Iterable[str]) -> None:
    """Write text, or the concatenation of an iterable of pieces, to path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".uhs-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        tol=args.tol,
        max_iter=args.max_iter,
        restarts=args.restarts,
        seed=args.seed,
    )


def _add_solver_flags(sp) -> None:
    sp.add_argument("--tol", type=float, default=SolverOptions.tol)
    sp.add_argument("--max-iter", type=int, default=SolverOptions.max_iter)
    sp.add_argument("--seed", type=int, default=SolverOptions.seed)
    sp.add_argument("--restarts", type=int, default=SolverOptions.restarts)


def _cmd_solve(args) -> int:
    G = load_hypergraph(args.input)
    result = solve_p_spectral(G, args.p, _solver_options(args))
    if args.emit_cert:
        cert = solver_certificate(G, result)
        _atomic_write(args.emit_cert, cert.json_pieces())
    if args.format == "text":
        lines = [
            f"lambda     {result.lam!r}",
            f"bracket    [{result.lam_lo!r}, {result.lam_hi!r}]",
            f"residual   {result.residual!r}",
            f"iterations {result.iterations}",
            f"converged  {result.converged}",
            f"support    {list(result.support)}",
        ]
        _emit("\n".join(lines), args.output)
    else:
        _emit(result.to_json(), args.output)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_verify(args) -> int:
    G = load_hypergraph(args.input)
    with open(args.cert, "r", encoding="utf-8") as fh:
        cert = Labeling.from_json(fh.read())
    p = args.p if args.p is not None else cert.p
    if p < G.r:
        verdict = classify_labeling_sub_r(G, cert.B, cert.alpha, p, tol=args.tol)
    else:
        verdict = classify_labeling(G, replace(cert, p=p), tol=args.tol)
    if args.format == "text":
        _emit(
            f"class      {verdict.classification}\n"
            f"consistent {verdict.consistent}\n"
            f"residuals  {json.dumps(verdict.residuals, sort_keys=True, default=float)}",
            args.output,
        )
    else:
        _emit(verdict.to_json(), args.output)
    return EXIT_OK


def _cmd_bound(args) -> int:
    G = load_hypergraph(args.input)
    payload = {
        "degree_bound": analysis.degree_bound(G, args.p),
        "simple_degree_bound": analysis.simple_degree_bound(G, args.p),
    }
    if args.format == "text":
        _emit(
            "\n".join(f"{k} {v!r}" for k, v in sorted(payload.items())), args.output
        )
    else:
        _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.output)
    return EXIT_OK


def _cmd_construct(args) -> int:
    G1 = load_hypergraph(args.inputs[0])
    if args.op in ("join", "product"):
        if len(args.inputs) != 2:
            raise PreconditionError(f"op {args.op} needs two input files")
        G2 = load_hypergraph(args.inputs[1])
        H = constructions.join(G1, G2) if args.op == "join" else constructions.direct_product(G1, G2)
        _emit(serialize_hypergraph(H), args.output)
        return EXIT_OK
    if len(args.inputs) != 1:
        raise PreconditionError(f"op {args.op} takes one input file")
    if args.op == "power":
        _emit(serialize_hypergraph(constructions.generalized_power(G1)), args.output)
        return EXIT_OK
    # extend: one .uhg per extension, numbered from the output prefix
    if not args.output:
        raise PreconditionError("op extend requires -o output prefix")
    for i, H in enumerate(constructions.extensions_enumerate(G1)):
        _atomic_write(f"{args.output}-{i:03d}.uhg", serialize_hypergraph(H))
    return EXIT_OK


def _json_values(values) -> list:
    """The values with None for those JSON cannot hold: f is nan (undefined)
    for p < r, and f and g saturate to inf as p approaches r from above."""
    return [v if v is not None and np.isfinite(v) else None for v in values]


def _cmd_sweep(args) -> int:
    G = load_hypergraph(args.input)
    grid = [float(v) for v in args.grid.split(",")]
    curve = analysis.sweep(G, grid, _solver_options(args))
    if args.format == "csv":
        _emit(curve.to_csv(), args.output)
        return EXIT_OK
    reports = [
        analysis.check_monotone_f_g(curve),
        analysis.check_ratio_monotone(curve),
    ]
    if len(grid) >= 3:
        reports.append(analysis.check_concavity(curve))
    payload = {
        "curve": {
            "p": list(curve.p_grid),
            "lambda": list(curve.lam),
            "f": _json_values(curve.f),
            "g": _json_values(curve.g),
            "h": list(curve.h),
            "ratio": list(curve.ratio),
        },
        "checks": [json.loads(r.to_json()) for r in reports],
        "heuristic": curve.heuristic,
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.output)
    if not all(curve.converged):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_certify_sub_r(args) -> int:
    G = load_hypergraph(args.input)
    result = certificate_search_sub_r(G, args.p, _solver_options(args))
    payload = {
        "S": list(result.S),
        "lambda": result.lam,
        "lambda_hi": result.lam_hi,
        "alpha": result.labeling.alpha,
        "exhaustive": result.exhaustive,
        "tried": result.tried,
        "pruned": result.pruned,
        "certificate": json.loads(result.labeling.to_json()),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False), args.output)
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    os.makedirs(args.output, exist_ok=True)
    for name, G in constructions.fixtures().items():
        _atomic_write(os.path.join(args.output, f"{name}.uhg"), serialize_hypergraph(G))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uhs", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="compute lambda^(p) and eigenvector")
    sp.add_argument("input")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--emit-cert", default=None)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("-o", "--output", default=None)
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("verify", help="classify a certificate against a hypergraph")
    sp.add_argument("input")
    sp.add_argument("--cert", required=True)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("bound", help="degree-based upper bounds")
    sp.add_argument("input")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("construct", help="join/product/power/extend builders")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--op", required=True, choices=["join", "product", "power", "extend"])
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("sweep", help="p-grid sweep with theorem checks")
    sp.add_argument("input")
    sp.add_argument("--grid", required=True, help="comma-separated p values")
    sp.add_argument("--format", choices=["json", "csv"], default="json")
    sp.add_argument("-o", "--output", default=None)
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("certify-sub-r", help="induced-subgraph certificate search (1 <= p < r)")
    sp.add_argument("input")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("-o", "--output", default=None)
    _add_solver_flags(sp)
    sp.set_defaults(func=_cmd_certify_sub_r)

    sp = sub.add_parser("fixtures", help="write the named example hypergraphs")
    sp.add_argument("-o", "--output", required=True, help="output directory")
    sp.set_defaults(func=_cmd_fixtures)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (HypergraphFormatError, PreconditionError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    raise SystemExit(main())
