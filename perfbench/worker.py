"""Runs one workload's operations in a fresh interpreter and records what `uhs` returned.

    python3 perfbench/worker.py SPEC.json

SPEC names the `src` directory to import `uhs` from, the operations, the
warm-up operation, how long to keep running whole rounds, and whether to
trace.  The worker runs one untimed warm-up operation, then whole rounds
of the operation list for as long as the next round is expected to end
within `seconds`.  With tracing on,
rounds alternate untraced and traced, so the traced run measures its own
overhead.  It writes per-op timings and outputs, its peak RSS, and the
per-layer totals of each traced round to SPEC's `result` path, and the
spans to SPEC's `trace` path.

Tracing wraps public functions at the place where the calling module
looks them up (for example `uhs.cli.load_hypergraph`, not
`uhs.core.load_hypergraph`), so nothing under `src/` is edited.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


class Tracer:
    """In-memory spans: (name, start, end, parent index, round, op, attrs)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.round = -1
        self.op = -1

    def open(self, name: str, attrs=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round, self.op, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, before=None, after=None) -> None:
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name, before(*args, **kwargs) if before else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if after:
                tracer.spans[sid][6] = {**(tracer.spans[sid][6] or {}), **after(out)}
            return out

        self._saved.append((module, attr, fn, traced))

    def install(self) -> None:
        for module, attr, _, traced in self._saved:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn, _ in self._saved:
            setattr(module, attr, fn)


def make_tracer(uhs_mods) -> Tracer:
    """Wrap the layer boundaries the per-layer metrics are read from."""
    cli, core, solver, analysis = uhs_mods
    t = Tracer()
    t.wrap(cli, "load_hypergraph", "core.parse", after=lambda G: {"m": G.m})
    t.wrap(cli, "solve_p_spectral", "solver.solve",
           before=lambda G, p, *a, **k: {"p": p, "r": G.r}, after=lambda res: {"iters": res.iterations})
    t.wrap(solver, "solve_p_spectral", "solver.solve",
           before=lambda G, p, *a, **k: {"p": p, "r": G.r}, after=lambda res: {"iters": res.iterations})
    t.wrap(solver, "certificate_search_sub_r", "solver.cert_search")
    t.wrap(cli, "classify_labeling", "labeling.classify")
    t.wrap(cli, "classify_labeling_sub_r", "labeling.classify")
    t.wrap(solver, "labeling_from_eigenvector", "labeling.build")
    t.wrap(analysis, "degree_bound", "analysis.degree_bound")
    t.wrap(analysis, "simple_degree_bound", "analysis.degree_bound")
    t.wrap(solver, "degrees", "core.degrees")
    t.wrap(analysis, "degrees", "core.degrees")
    t.wrap(solver, "induced_subhypergraph", "core.induced")
    t.wrap(solver, "support_sums", "kernels.support_sums",
           before=lambda x, edges, n: {"edges": int(edges.shape[0])})
    t.wrap(solver, "polynomial_sum", "kernels.polynomial_sum")
    t.wrap(solver, "batch_support_sums", "kernels.batch_support_sums",
           before=lambda X, edges, n: {"mib": X.shape[0] * edges.shape[0] * edges.shape[1] * 8 / 2**20})
    return t


def layer_totals(spans, rnd: int, cert_bytes: int) -> dict:
    """Per-layer totals of one traced round."""
    tot: dict[str, float] = {}
    in_search: dict[int, bool] = {}

    def add(key, v):
        tot[key] = tot.get(key, 0.0) + v

    for i, (name, start, end, parent, r, _, attrs) in enumerate(spans):
        if r != rnd:
            continue
        dt = end - start
        attrs = attrs or {}
        under_search = parent >= 0 and in_search[parent]
        in_search[i] = name == "solver.cert_search" or under_search
        if name != "solver.solve":
            add(name + "_s", dt)
        if name == "core.parse":
            add("core.parse_edges", attrs["m"])
        elif name == "core.degrees":
            add("core.degrees_calls", 1)
        elif name == "core.induced":
            add("core.induced_calls", 1)
            if under_search:
                add("solver.cert_candidates", 1)
        elif name == "kernels.support_sums":
            add("kernels.support_sums_calls", 1)
            add("kernels.support_sums_edges", attrs["edges"])
        elif name == "kernels.batch_support_sums":
            add("kernels.batch_calls", 1)
            add("kernels.batch_mib_computed", attrs["mib"])
        elif name == "labeling.build" and under_search:
            add("solver.cert_kept", 1)
        elif name == "solver.solve":
            kind = "fixed_point" if attrs["p"] >= attrs["r"] else "pga"
            add(f"solver.{kind}_s", dt)
            add(f"solver.{kind}_iters", attrs.get("iters", 0))
    tot["cli.cert_mib"] = cert_bytes / 2**20
    return tot


def run_op(op, uhs_mods, tracer=None):
    """Run one operation; return (seconds, record).  Only the call into
    uhs is timed, not reading its outputs back."""
    cli, core, solver, _ = uhs_mods
    rec: dict = {}
    if op["kind"] == "cli":
        err = io.StringIO()
        sid = tracer.open(f"cli.{op['argv'][0]}") if tracer else None
        t0 = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(op["argv"])
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
            except Exception as exc:  # a crash inside the CLI is a failed op
                code = None
                rec["error"] = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if sid is not None:
            tracer.close(sid)
        rec["exit"] = code
        if err.getvalue():
            rec["stderr"] = err.getvalue()[-500:]
        if code == 0:
            with open(op["out"], "r", encoding="utf-8") as fh:
                rec["out"] = json.load(fh)
            if op["cert"]:
                h = hashlib.sha256()
                with open(op["cert"], "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
                rec["cert_sha"] = h.hexdigest()
                rec["cert_bytes"] = os.path.getsize(op["cert"])
        return dt, rec
    t0 = time.perf_counter()
    try:
        G = core.UniformHypergraph.from_edges(op["r"], op["n"], op["edges"])
        if op["kind"] == "solve":
            res = solver.solve_p_spectral(G, op["p"])
        else:
            res = solver.certificate_search_sub_r(G, op["p"])
    except Exception as exc:  # the program raising is a failed op
        dt = time.perf_counter() - t0
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return dt, rec
    dt = time.perf_counter() - t0
    if op["kind"] == "solve":
        rec["out"] = {"lambda": res.lam, "x": res.x.values.tolist(), "converged": bool(res.converged),
                      "iterations": res.iterations, "residual": res.residual}
    else:
        lab = res.labeling
        rec["out"] = {"lambda": res.lam, "S": list(res.S), "B": lab.B.tolist(), "w": lab.w.tolist(),
                      "alpha": lab.alpha, "exhaustive": res.exhaustive}
    return dt, rec


def main(spec_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import uhs  # noqa: F401  (the package under test, from this checkout)
    from uhs import analysis, cli, core, solver

    if not os.path.abspath(uhs.__file__).startswith(src + os.sep):
        print(f"uhs imported from {uhs.__file__}, not from {src}", file=sys.stderr)
        return 2
    mods = (cli, core, solver, analysis)
    tracer = make_tracer(mods) if spec["trace"] else None
    run_op(spec["warmup"], mods)

    rounds = []
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(tracer) and k % 2 == 1
        if traced:
            tracer.round = k
            tracer.install()
        ops = []
        for i, op in enumerate(spec["ops"]):
            if traced:
                tracer.op = i
            dt, rec = run_op(op, mods, tracer if traced else None)
            rec["dt"] = dt
            ops.append(rec)
        if traced:
            tracer.uninstall()
        rounds.append({"traced": traced, "wall": sum(o["dt"] for o in ops), "ops": ops})
        k += 1
        elapsed = time.perf_counter() - start
        # Start no round that would likely end after the deadline; a traced
        # run needs one untraced and one traced round.
        if k >= (2 if tracer else 1) and elapsed * (k + 1) / k > spec["seconds"]:
            break

    result = {
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": [],
    }
    if tracer:
        for rnd in (i for i, r in enumerate(rounds) if r["traced"]):
            cert = sum(o.get("cert_bytes", 0) for o in rounds[rnd]["ops"])
            result["layers"].append(layer_totals(tracer.spans, rnd, cert))
        with open(spec["trace"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "round", "op", "attrs"]) + "\n")
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps([i, *span]) + "\n")
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(main(sys.argv[1]))
