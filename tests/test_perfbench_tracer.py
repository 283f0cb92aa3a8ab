"""The benchmark's tracer wraps names that `uhs` modules still provide."""

import importlib.util
from pathlib import Path

from uhs import analysis, cli, core, solver
from uhs.constructions import k_r_r, star_g2

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker.make_tracer((cli, core, solver, analysis))


def test_make_tracer_finds_every_wrapped_name():
    # Tracer.wrap looks each name up, so a name a module no longer has raises here
    tracer = _tracer()
    tracer.install()
    tracer.uninstall()
    assert solver.solve_p_spectral.__module__ == "uhs.solver"


def test_tracer_records_the_kernel_spans_of_both_regimes():
    # the wrappers unpack the kernel's arguments, so a signature they cannot read fails here
    tracer = _tracer()
    tracer.install()
    try:
        assert solver.solve_p_spectral(star_g2(), 5.0).converged
        assert solver.solve_p_spectral(k_r_r(3), 2.0).converged
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"kernels.support_sums", "kernels.batch_support_sums"} <= names
