"""The traced benchmark rebinds fracdyn names; every one must still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fracdyn import CaputoProblem, caputo_solver, catalog, mittag_leffler, solve_pece
from fracdyn.field_expr import FieldDef

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    for layer in mod.SPANNED:  # the tracer finds layers in sys.modules
        importlib.import_module("fracdyn." + layer)
    return mod


def test_every_spanned_name_resolves():
    tracing = load_tracing()
    for layer, names in tracing.SPANNED.items():
        mod = importlib.import_module("fracdyn." + layer)
        for name in names:
            assert callable(getattr(mod, name, None)), f"fracdyn.{layer}.{name}"
    assert callable(FieldDef.compiled)
    assert callable(getattr(mittag_leffler, "ml_eval", None))
    # Tracer.solver_metrics counts capped and unconverged solves against these.
    assert isinstance(caputo_solver.CORRECTOR_MAX_ITER, int)
    assert isinstance(caputo_solver.CORRECTOR_TOL, float)


def test_install_and_uninstall_restore_originals():
    tracing = load_tracing()
    original = FieldDef.compiled
    original_ml = mittag_leffler.ml_eval
    tracer = tracing.Tracer()
    tracer.install()
    assert FieldDef.compiled is not original
    assert mittag_leffler.ml_eval is not original_ml
    tracer.uninstall()
    assert FieldDef.compiled is original
    assert mittag_leffler.ml_eval is original_ml


@pytest.mark.parametrize("fld, x0", [
    (FieldDef.parse(["x - x^3"]), (2.0,)),
    (catalog.get("fig2").fld.assembled(), (0.5, -0.3)),
], ids=["cubic", "fig2"])
def test_tracer_counts_every_solver_evaluation(fld, x0):
    # The solver evaluates the field and the nonzero entries of its Jacobian
    # only through compiled(), whose components the tracer counts one by one.
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traj = solve_pece(CaputoProblem(0.6, fld, (), x0, 10.0, 0.01))
    finally:
        tracer.uninstall()
    nnz = sum(map(sum, caputo_solver._jacobian(fld)[0]))
    assert nnz == {1: 1, 2: 3}[fld.dimension]  # fig2's J is lower triangular
    assert traj.meta.field_evals > 1000 and traj.meta.jacobian_evals > 1000
    assert tracer.evals[0] == (fld.dimension * traj.meta.field_evals
                               + nnz * traj.meta.jacobian_evals)
