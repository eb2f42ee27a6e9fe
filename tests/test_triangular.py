"""Triangular product-form systems: validation, product attractor, limits."""

import numpy as np
import pytest

from fracdyn import CaputoProblem, solve_pece
from fracdyn import field_expr
from fracdyn.catalog import get
from fracdyn.field_expr import parse_expr
from fracdyn.triangular_systems import (
    TriangularField,
    TriangularValidationError,
    componentwise_limits,
    product_attractor,
    validate_triangular,
)

BOX2 = [(-3.0, 3.0), (-3.0, 3.0)]


def make_tf(h_exprs, f_exprs):
    d = len(f_exprs)
    return TriangularField(
        d,
        tuple(parse_expr(h, d) for h in h_exprs),
        tuple(parse_expr(f, d) for f in f_exprs),
    )


class TestStructure:
    def test_factor_coordinate_restrictions(self):
        with pytest.raises(ValueError, match="h_2 depends on a coordinate >= 2"):
            # h_2 may only reference x1
            make_tf(["1", "1 + y^2"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        with pytest.raises(ValueError, match="f_2 must depend only on coordinate 2"):
            # f_2 may only reference x2
            make_tf(["1", "1 + x^2"], ["x*(1 - x^2)", "x*(1 - y^2)"])

    def test_dependence_is_read_from_derivatives(self):
        # 0*y folds to a derivative of 0 in y: a constant, though y appears in it.
        assert make_tf(["1", "0*y"], ["x*(1 - x^2)", "y*(1 - y^2)"]).dimension == 2
        # f_2 with a term in x whose derivative folds to 0: its scalar factor is f_2 in y.
        tf = make_tf(["1", "1 + x^2"], ["x*(1 - x^2)", "y*(1 - y^2) + 0*x"])
        assert product_attractor(tf, BOX2) == product_attractor(get("fig2").fld, BOX2)

    def test_assembled_field_multiplies_factors(self):
        tf = get("fig2").fld
        fld = tf.assembled()
        fns = fld.compiled()
        for x, y in ((0.5, -0.5), (2.0, 1.5), (-1.2, 0.3)):
            assert fns[0]((x, y), ()) == pytest.approx(x * (1 - x * x), rel=1e-14)
            expect = (1 + x * x) * y * (1 - y * y)
            assert fns[1]((x, y), ()) == pytest.approx(expect, rel=1e-14)

    def test_scalar_factor_remaps_to_first_coordinate(self):
        tf = get("fig2").fld
        f2 = tf.scalar_factor(1)
        assert f2.dimension == 1
        assert f2.compiled()[0]((0.5,), ()) == pytest.approx(0.375, rel=1e-14)

    def test_one_dimensional_trivial_case(self):
        tf = make_tf(["1"], ["x - x^3"])
        box = [(-3.0, 3.0)]
        attractor = product_attractor(tf, box)
        assert attractor.intervals[0].lo == pytest.approx(-1.0, abs=1e-9)
        assert attractor.intervals[0].hi == pytest.approx(1.0, abs=1e-9)


class TestValidation:
    def test_fig2_report(self):
        tf = get("fig2").fld
        report = validate_triangular(tf, BOX2, a=2.5, b=1.0)
        assert report.h_signs == (1, 1)
        assert report.h_min_abs[1] >= 1.0
        assert report.certificate is not None
        assert [len(zs) for zs in report.zero_sets] == [3, 3]

    def test_dissipativity_constants_must_be_positive(self):
        with pytest.raises(ValueError, match="need a, b > 0"):
            validate_triangular(get("fig2").fld, BOX2, a=2.5, b=-1.0)

    def test_sign_changing_prefactor_rejected(self):
        tf = make_tf(["1", "x"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        with pytest.raises(TriangularValidationError):
            validate_triangular(tf, BOX2)

    def test_vanishing_prefactor_rejected(self):
        tf = make_tf(["0", "1 + x^2"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        with pytest.raises(TriangularValidationError):
            validate_triangular(tf, BOX2)


class TestProductAttractor:
    def test_fig2_unit_box(self):
        attractor = product_attractor(get("fig2").fld, BOX2)
        for iv in attractor.intervals:
            assert iv.lo == pytest.approx(-1.0, abs=1e-9)
            assert iv.hi == pytest.approx(1.0, abs=1e-9)
        assert attractor.contains((0.5, -0.9))
        assert not attractor.contains((1.2, 0.0))

    def test_logistic_first_factor_box(self):
        # first factor x(1-x) has zeros {0, 1}; second keeps [-1, 1]
        tf = get("sec3text").fld
        attractor = product_attractor(tf, [(-0.5, 1.5), (-3.0, 3.0)])
        assert attractor.intervals[0].lo == pytest.approx(0.0, abs=1e-9)
        assert attractor.intervals[0].hi == pytest.approx(1.0, abs=1e-9)
        assert attractor.intervals[1].lo == pytest.approx(-1.0, abs=1e-9)
        assert attractor.intervals[1].hi == pytest.approx(1.0, abs=1e-9)

    def test_negative_prefactor_flips_stability(self):
        # g_2 = -(y - y^3): stable zero of the effective scalar factor is 0
        tf = make_tf(["1", "-1 - x^2"], ["x*(1 - x^2)", "y - y^3"])
        report = validate_triangular(tf, BOX2)
        assert report.h_signs == (1, -1)
        limits = componentwise_limits(tf, (0.5, 0.5), BOX2)
        assert limits[1] == pytest.approx(0.0, abs=1e-9)


class TestComponentwiseLimits:
    def test_fig2_predictions_match_solver(self):
        tf = get("fig2").fld
        fld = tf.assembled()
        for x0 in ((0.5, 0.5), (-0.4, 1.5), (1.8, -0.6)):
            pred = componentwise_limits(tf, x0, BOX2)
            traj = solve_pece(CaputoProblem(0.6, fld, (), x0, 400.0, 0.05))
            assert np.allclose(traj.endpoint(), pred, atol=0.05)

    @pytest.mark.parametrize("x0", [(0.5,), (0.5, 0.5, 7.0)])
    def test_seed_length_must_match_dimension(self, x0):
        with pytest.raises(ValueError, match="field dimension is 2"):
            componentwise_limits(get("fig2").fld, x0, BOX2)

    def test_seed_signs_determine_limits(self):
        tf = get("fig2").fld
        assert componentwise_limits(tf, (0.5, -0.5), BOX2) == pytest.approx(
            (1.0, -1.0), abs=1e-9
        )
        assert componentwise_limits(tf, (-2.0, 2.0), BOX2) == pytest.approx(
            (-1.0, 1.0), abs=1e-9
        )


class TestCompiledOnce:
    def test_repeat_calls_compile_nothing(self, monkeypatch):
        # The h_i, the assembled field and the signed scalar factors are kept
        # on the field, and with them their compiled lambdas.
        compiles = [0]
        original = field_expr._lambda

        def counting(*args):
            compiles[0] += 1
            return original(*args)

        monkeypatch.setattr(field_expr, "_lambda", counting)
        tf = make_tf(["1", "1 + x^2"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        assert tf.assembled() is tf.assembled()
        for call in (lambda: componentwise_limits(tf, (0.5, -0.5), BOX2),
                     lambda: product_attractor(tf, BOX2),
                     lambda: validate_triangular(tf, BOX2, a=2.5, b=1.0)):
            call()
            compiles[0] = 0
            call()
            assert compiles[0] == 0
