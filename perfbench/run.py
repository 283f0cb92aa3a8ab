"""Fixed-work benchmark for `uhs`: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_large, paths_at_r, sub_r (see perfbench/README.md).  The
harness generates the inputs from the seed, measures set-up time in fresh
interpreters, and runs the operations in one worker process
(perfbench/worker.py) that imports `uhs` from this checkout's `src/`.  The
worker runs whole rounds of the workload's fixed operation list for
about S seconds.  Every output of every round is then checked here,
without `uhs`, against perfbench/checks.py.

The last line of standard output is
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
with the end-to-end metrics when --trace 0, and the per-layer metrics of a
traced run when --trace 1.  An operation fails when `uhs` raises, exits
non-zero, returns converged=False, or an output check fails.  `correct` is
false when an operation reported success but its output failed a check,
or when a deliberately perturbed output (lambda * (1 + 1e-6), or x with
one entry set to zero) passes the checks.
"""

from __future__ import annotations

import os

# One thread everywhere, fixed before numpy is imported here or in a child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_PROBES = 9
WORKER_TIMEOUT_S = 165
CONTROL_SCALE = 1.0 + 1e-6

# Throughputs: (metric, work total, time total), summed over traced rounds.
RATES = {
    "core.parse_edges_per_s": ("core.parse_edges", "core.parse_s"),
    "kernels.support_sums_edges_per_s": ("kernels.support_sums_edges", "kernels.support_sums_s"),
}

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import uhs, uhs.cli\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def declared_units(kind: str) -> dict:
    """Metric name -> unit, for `end_to_end` or `per_layer`, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def setup_seconds() -> float:
    """Fresh interpreter to `uhs` (every module) imported and ready."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run([sys.executable, "-c", PROBE, SRC], capture_output=True, text=True,
                          check=True, timeout=60)
    return float(done.stdout.split()[-1]) - t0


# ---------------------------------------------------------------- checks

def _problems(op, rec, ctx, cert_path):
    """(failed, problems) for one operation's record.  `failed` alone: uhs
    reported the failure itself.  Problems: uhs claimed success and the
    output is wrong."""
    chk = op["check"]
    if "error" in rec:
        return True, []
    if op["kind"] == "cli" and rec["exit"] != 0:
        return True, []
    out = rec["out"]
    kind = chk["type"]
    if kind == "cli_verify":
        ok = out.get("class") == "normal" and out.get("consistent") is True
        return False, [] if ok else [f"verify says {out.get('class')}, consistent={out.get('consistent')}"]
    if kind == "cli_bound":
        return False, _bound_problems(chk, out, ctx.get(chk["key"]))
    if kind == "cert":
        x, bad = checks.x_from_certificate(chk["edges"], chk["n"], chk["r"], chk["p"],
                                           out["S"], out["B"], out["w"], out["alpha"])
        bad = bad or _lam_problems(chk, out["lambda"], x)
        return False, bad + _alpha_problems(chk, out["lambda"], out["alpha"])
    if not out["converged"]:
        return True, []
    bad = _lam_problems(chk, out["lambda"], np.asarray(out["x"]))
    if kind == "cli_solve":
        if not bad:
            ctx[chk["key"]] = out["lambda"]
        if cert_path and not bad:
            bad = _cert_problems(chk, out, cert_path)
    return False, bad


def _lam_problems(chk, lam, x):
    args = (chk["edges"], chk["n"], chk["r"], chk["p"], lam, x)
    if chk["p"] >= chk["r"]:
        return checks.check_p_ge_r(*args, exact=chk.get("exact"))
    return checks.check_p_lt_r(*args, lower=chk["lower"], exact=chk.get("exact"))


def _alpha_problems(chk, lam, alpha):
    want = chk["r"] ** (chk["p"] - chk["r"]) / lam ** chk["p"]
    return [] if abs(alpha - want) <= 1e-9 * want else [f"alpha {alpha!r}, expected {want!r}"]


def _cert_problems(chk, out, cert_path):
    with open(cert_path, "r", encoding="utf-8") as fh:
        cert = json.load(fh)
    n = chk["n"]
    x_cert, bad = checks.x_from_certificate(chk["edges"], n, chk["r"], chk["p"],
                                            range(n), cert["B"], cert["w"], cert["alpha"])
    if bad:
        return bad
    return checks.check_x_matches(x_cert, out["x"]) + _alpha_problems(chk, out["lambda"], cert["alpha"])


def _bound_problems(chk, out, lam):
    args = (chk["edges"], chk["n"], chk["r"], chk["p"])
    bad = []
    for key, want in (("degree_bound", checks.degree_bound(*args)),
                      ("simple_degree_bound", checks.simple_degree_bound(*args))):
        if abs(out[key] - want) > 1e-9 * want:
            bad.append(f"{key} {out[key]!r}, recomputed {want!r}")
        if lam is not None and out[key] < lam * (1.0 - 1e-12):
            bad.append(f"{key} {out[key]!r} is below lambda {lam!r}")
    return bad


def _controls(op, rec):
    """Perturbed copies of a passing output; each must fail the checks."""
    chk, out = op["check"], rec["out"]
    if chk["type"] in ("cli_verify", "cli_bound"):
        return []
    if chk["type"] == "cert":
        x, _ = checks.x_from_certificate(chk["edges"], chk["n"], chk["r"], chk["p"],
                                         out["S"], out["B"], out["w"], out["alpha"])
    else:
        x = np.asarray(out["x"], dtype=float)
    lam = out["lambda"]
    zeroed = x.copy()
    zeroed[int(np.argmax(x))] = 0.0
    controls = {"lambda*(1+1e-6)": (lam * CONTROL_SCALE, x), "x with a zero": (lam, zeroed)}
    return [f"{op['name']}: {label} passes the checks"
            for label, (lam_c, x_c) in controls.items() if not _lam_problems(chk, lam_c, x_c)]


def judge(ops, rounds):
    """Count failed operations and collect wrong outputs over all rounds."""
    last = len(rounds) - 1
    last_sha = {i: rec.get("cert_sha") for i, rec in enumerate(rounds[last]["ops"])}
    failed, wrong, notes, escaped = 0, [], [], []
    for k, rnd in enumerate(rounds):
        ctx: dict = {}
        for i, (op, rec) in enumerate(zip(ops, rnd["ops"])):
            cert_path = op.get("cert") if (k == last and "cert_sha" in rec) else None
            fail, bad = _problems(op, rec, ctx, cert_path)
            if op.get("cert") and rec.get("cert_sha") != last_sha[i]:
                bad.append("certificate differs between rounds")
            if fail or bad:
                failed += 1
                why = rec.get("error") or rec.get("stderr") or "; ".join(bad) or "did not converge"
                notes.append(f"round {k} {op['name']}: {why.strip()}")
            wrong.extend(f"round {k} {op['name']}: {b}" for b in bad)
            if k == 0 and not (fail or bad):
                escaped.extend(_controls(op, rec))
    return failed, wrong, notes, escaped


# ---------------------------------------------------------------- metrics

def end_to_end(setups, result):
    untraced = [r["wall"] for r in result["rounds"] if not r["traced"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(untraced),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }


def per_layer(result, names):
    layers = result["layers"]
    values = {name: statistics.median(lay.get(name, 0.0) for lay in layers) for name in names}
    for name, (work, secs) in RATES.items():
        t = sum(lay.get(secs, 0.0) for lay in layers)
        values[name] = sum(lay.get(work, 0.0) for lay in layers) / t if t > 0 else 0.0
    cand = values["solver.cert_candidates"]
    values["solver.cert_kept_ratio"] = values["solver.cert_kept"] / cand if cand else 0.0
    traced = [r["wall"] for r in result["rounds"] if r["traced"]]
    plain = [r["wall"] for r in result["rounds"] if not r["traced"]]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values


def environment():
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "uhs", "__init__.py")):
        print(f"error: no uhs package under {SRC}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", f"{tag}-{os.getpid()}")
    os.makedirs(workdir)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    try:
        ops, warmup = workloads.build(args.workload, args.seed, workdir)
        setups = []
        if not args.trace:
            setup_seconds()  # first import may compile bytecode; not counted
            setups = [setup_seconds() for _ in range(SETUP_PROBES)]
        spec = {
            "src": SRC,
            "ops": [{k: v for k, v in op.items() if k != "check"} for op in ops],
            "warmup": {k: v for k, v in warmup.items() if k != "check"},
            "seconds": args.seconds,
            "trace": os.path.join(OUT, "traces", f"{tag}.jsonl") if args.trace else None,
            "result": os.path.join(workdir, "result.json"),
        }
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                       check=True, timeout=WORKER_TIMEOUT_S)
        with open(spec["result"], "r", encoding="utf-8") as fh:
            result = json.load(fh)
        failed, wrong, notes, escaped = judge(ops, result["rounds"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = per_layer(result, units) if args.trace else end_to_end(setups, result)
    attempted = len(ops) * len(result["rounds"])
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "rounds": len(result["rounds"]),
        "ops_per_round": len(ops),
        "round_walls_s": [r["wall"] for r in result["rounds"]],
        "op_seconds": {op["name"]: [r["ops"][i]["dt"] for r in result["rounds"]] for i, op in enumerate(ops)},
        "setup_probes_s": setups,
        "failures": notes,
        "wrong": wrong,
        "controls_escaped": escaped,
    }
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({**summary, "metrics": metrics}, fh, indent=1)
    for line in notes[: len(ops)]:
        print("failed:", line, file=sys.stderr)
    for line in wrong + escaped:
        print("wrong:", line, file=sys.stderr)
    print(json.dumps({"env": summary["env"], "rounds": summary["rounds"], "ops_per_round": len(ops)}))
    print(json.dumps({
        "correct": not wrong and not escaped,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
