"""The benchmark's tracer wraps names that `uhs` modules still provide."""

import importlib.util
from pathlib import Path

from uhs import analysis, cli, core, solver

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def test_make_tracer_finds_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    # Tracer.wrap looks each name up, so a name a module no longer has raises here
    tracer = worker.make_tracer((cli, core, solver, analysis))
    tracer.install()
    tracer.uninstall()
    assert solver.solve_p_spectral.__module__ == "uhs.solver"
