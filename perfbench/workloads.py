"""The three workloads: their fixed operation lists and what each output is checked against.

`build(name, seed, workdir)` returns `(ops, warmup)`.  Each op is a dict
the worker can run (kind `cli`, `solve` or `cert`) plus a `check` entry
that only the harness reads.  The same seed gives the same inputs; sizes
never depend on the seed, so a round asks for about the same work on
every seed.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import gen

# (tag, r, n, m or degree, kind, p values): the instances of cli_large.
# p = r runs `solve` only; p > r runs `solve --emit-cert`, `verify`, `bound`.
CLI_INSTANCES = [
    ("irr3", 3, 5000, 100_000, "irregular", (4.0,)),
    ("irr4", 4, 2000, 30_000, "irregular", (4.0, 5.0)),
    ("reg3", 3, 3000, 10, "regular", (3.0, 4.0)),
]

# (r, path length n, p offsets above r): paths_at_r.
PATHS = [(2, 160, (0.0, 0.02)), (3, 120, (0.0, 0.02)), (4, 100, (0.0, 0.02))]
# The odd path kept as a known failure: at p = r the undamped fixed point
# 2-cycles from the uniform start and runs to its iteration cap.
ODD_PATH = 5

# (r, n, m, p): exhaustive certificate search on small random instances.
# Search time follows the number of distinct edge-union supports, which
# varies little at these sizes.  r = 3 at p = 1 is left out: there the
# search time swings tenfold from seed to seed.
SMALL = [(2, 6, 8, 1.0), (2, 6, 8, 1.0), (2, 6, 8, 1.5), (3, 6, 7, 1.5), (3, 6, 7, 2.0), (3, 6, 7, 2.0)]
# (r, n, p): complete hypergraphs through the certificate search.
COMPLETE = [(2, 4, 1.5), (3, 5, 2.0)]
# (r, n, m, p): solve_p_spectral with 1 < p < r on medium instances.
MEDIUM = [(3, 20, 40, 2.5), (3, 30, 60, 2.5), (3, 40, 80, 2.5), (4, 24, 40, 2.5), (4, 30, 50, 3.0)]


def _cli(name, argv, out, cert, check):
    return {"name": name, "kind": "cli", "argv": argv, "out": out, "cert": cert, "check": check}


def _mem(name, kind, r, n, edges, p, check):
    return {"name": name, "kind": kind, "r": r, "n": n, "edges": edges.tolist(), "p": p, "check": check}


def _write(workdir: str, tag: str, r: int, n: int, edges: np.ndarray) -> str:
    path = os.path.join(workdir, f"{tag}.uhg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.uhg_text(r, n, edges))
    return path


def _cli_large(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    ops = []
    for tag, r, n, size, kind, p_values in CLI_INSTANCES:
        if kind == "irregular":
            edges = gen.irregular(rng, r, n, size)
        else:
            edges = gen.regular(rng, r, n, size)
        path = _write(workdir, tag, r, n, edges)
        for p in p_values:
            exact = checks.regular_lambda(r, n, edges.shape[0], p) if kind == "regular" else None
            inst = dict(edges=edges, n=n, r=r, p=p)
            out = os.path.join(workdir, f"{tag}-p{p:g}")
            solve = ["solve", path, "--p", repr(p), "-o", out + ".json"]
            if p == r:
                ops.append(_cli(f"{tag}.p{p:g}.solve", solve, out + ".json", None,
                                dict(inst, type="cli_solve", key=out, exact=exact)))
                continue
            cert = out + ".cert.json"
            ops.append(_cli(f"{tag}.p{p:g}.solve", solve + ["--emit-cert", cert], out + ".json", cert,
                            dict(inst, type="cli_solve", key=out, exact=exact)))
            ops.append(_cli(f"{tag}.p{p:g}.verify", ["verify", path, "--cert", cert, "-o", out + ".verify.json"],
                            out + ".verify.json", None, dict(type="cli_verify")))
            ops.append(_cli(f"{tag}.p{p:g}.bound", ["bound", path, "--p", repr(p), "-o", out + ".bound.json"],
                            out + ".bound.json", None, dict(inst, type="cli_bound", key=out)))
    warm_edges = gen.regular(rng, 3, 30, 3)
    warm_path = _write(workdir, "warmup", 3, 30, warm_edges)
    warm_out = os.path.join(workdir, "warmup.json")
    warmup = _cli("warmup", ["solve", warm_path, "--p", "4.0", "-o", warm_out], warm_out, None, None)
    return ops, warmup


def _paths_at_r(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    n5, e5 = gen.path_power(2, ODD_PATH)
    ops = [_mem(f"P{ODD_PATH}.r2.p2", "solve", 2, n5, e5, 2.0,
                dict(type="solve", edges=e5, n=n5, r=2, p=2.0, exact=checks.path_power_lambda(ODD_PATH, 2)))]
    for r, length, offsets in PATHS:
        n, edges = gen.path_power(r, length)
        edges = gen.relabel(rng, n, edges)
        for dp in offsets:
            p = r + dp
            exact = checks.path_power_lambda(length, r) if dp == 0 else None
            ops.append(_mem(f"P{length}.r{r}.p{p:g}", "solve", r, n, edges, p,
                            dict(type="solve", edges=edges, n=n, r=r, p=p, exact=exact)))
    nw, ew = gen.path_power(2, 6)
    warmup = _mem("warmup", "solve", 2, nw, ew, 2.0, None)
    return ops, warmup


def _sub_r(seed: int, workdir: str):
    rng = np.random.default_rng(seed)
    ops = []
    for i, (r, n, m, p) in enumerate(SMALL):
        edges = gen.connected_with_m(rng, r, n, m)
        exact = checks.motzkin_straus(n, edges) if (r == 2 and p == 1.0) else None
        lower = checks.slsqp_lower(edges, n, r, p, seed)
        ops.append(_mem(f"small{i}.r{r}.n{n}.p{p:g}", "cert", r, n, edges, p,
                        dict(type="cert", edges=edges, n=n, r=r, p=p, exact=exact, lower=lower)))
    for r, n, p in COMPLETE:
        edges = gen.complete(r, n)
        exact = checks.complete_lambda(r, n, p)
        ops.append(_mem(f"K{n}^({r}).p{p:g}", "cert", r, n, edges, p,
                        dict(type="cert", edges=edges, n=n, r=r, p=p, exact=exact, lower=0.0)))
    for r, n, m, p in MEDIUM:
        edges = gen.connected_with_m(rng, r, n, m)
        lower = checks.slsqp_lower(edges, n, r, p, seed)
        ops.append(_mem(f"medium.r{r}.n{n}.p{p:g}", "solve", r, n, edges, p,
                        dict(type="solve", edges=edges, n=n, r=r, p=p, exact=None, lower=lower)))
    warm = gen.complete(2, 3)
    warmup = _mem("warmup", "cert", 2, 3, warm, 1.0, None)
    return ops, warmup


WORKLOADS = {"cli_large": _cli_large, "paths_at_r": _paths_at_r, "sub_r": _sub_r}


def build(name: str, seed: int, workdir: str):
    return WORKLOADS[name](seed, workdir)
