"""The traced benchmark rebinds fracdyn names; every one must still exist."""

import importlib
import importlib.util
from pathlib import Path

from fracdyn import caputo_solver, mittag_leffler
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
