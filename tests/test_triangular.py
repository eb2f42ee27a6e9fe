"""Triangular product-form systems: validation, product attractor, limits."""

import numpy as np
import pytest

from fracdyn import CaputoProblem, solve_pece
from fracdyn import field_expr
from fracdyn import scalar_analysis as sa
from fracdyn import triangular_systems as tri
from fracdyn.catalog import get
from fracdyn.field_expr import FieldDef, Neg, eval_points, parse_expr
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

    def test_factor_reading_past_the_dimension_is_refused(self):
        # parse_expr's own dimension admits z; the field's does not.
        for h, f in (("1", "z"), ("z", "y")):
            with pytest.raises(ValueError, match="component 2 reads x3, outside dimension 2"):
                TriangularField(2, (parse_expr("1", 2), parse_expr(h, 3)),
                                (parse_expr("x", 2), parse_expr(f, 3)))

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

    def test_witness_is_the_sampled_point_nearest_a_root_of_h(self):
        tf = make_tf(["1", "x"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        with pytest.raises(TriangularValidationError) as err:
            validate_triangular(tf, BOX2)
        witness = err.value.witness
        assert isinstance(witness, tuple) and len(witness) == 2
        assert all(lo <= c <= hi for c, (lo, hi) in zip(witness, BOX2))
        _, vals = tri._sample_h(tf, 1, BOX2)
        worst = np.min(np.abs(vals))
        assert abs(eval_points(tf.h_field(), np.array([witness]))[0, 1]) == worst
        assert str(err.value) == (f"h_2 vanishes or changes sign on the box "
                                  f"(|h| reaches {worst:.3g}) at x={witness}")

    def test_vanishing_prefactor_rejected(self):
        tf = make_tf(["0", "1 + x^2"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        with pytest.raises(TriangularValidationError):
            validate_triangular(tf, BOX2)


    def test_zero_count_warning_names_the_caller(self):
        # find_zeros warns from inside validate_triangular; the warning names
        # the first line outside the package, here this test.
        with pytest.warns(UserWarning, match="even number of zeros") as record:
            validate_triangular(get("sec3text").fld)
        assert [w.filename for w in record] == [__file__]


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
        with pytest.warns(UserWarning, match="even number"):  # zeros 0 and 1
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


class TestSignedZeroSets:
    @pytest.mark.parametrize("tf, signs", [
        (make_tf(["1", "-1 - x^2"], ["x*(1 - x^2)", "y - y^3"]), (1, -1)),
        (get("fig2").fld, (1, 1)),
    ], ids=["negative_h2", "fig2"])
    def test_sign_flip_is_exact(self, tf, signs):
        # The zero set of sign(h_i) * f_i is f_i's, with g' multiplied by the
        # sign: equal, bit for bit, to a scan of the negated factor.
        report = validate_triangular(tf, BOX2)
        assert report.h_signs == signs
        for i, sign in enumerate(signs):
            f = tf.scalar_factor(i)
            expect = sa.find_zeros(f if sign > 0 else FieldDef(1, (Neg(f.components[0]),)),
                                   BOX2[i])
            assert report.zero_sets[i].zeros == expect.zeros
            assert report.zero_sets[i].derivs == expect.derivs


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


class TestKeptReports:
    def count_evaluations(self, monkeypatch):
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return eval_points(*args, **kwargs)

        monkeypatch.setattr(tri, "eval_points", counted)
        monkeypatch.setattr(sa, "eval_points", counted)
        return calls

    def test_a_repeat_returns_the_kept_report(self, monkeypatch):
        tf = make_tf(["1", "1 + x^2"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        calls = self.count_evaluations(monkeypatch)
        report = validate_triangular(tf, BOX2, a=2.5, b=1.0)
        assert calls[0] > 0
        calls[0] = 0
        assert validate_triangular(tf, [[-3, 3], [-3, 3]], a=2.5, b=1.0) is report
        assert calls[0] == 0

    def test_a_new_box_or_certificate_revalidates(self, monkeypatch):
        tf = make_tf(["1", "1 + x^2"], ["x*(1 - x^2)", "1 - y"])  # the zero y = 1
        calls = self.count_evaluations(monkeypatch)
        for box, ab, evaluates in [
            (BOX2, (None, None), True), (BOX2, (None, None), False),
            (BOX2, (2.5, 0.5), True), (BOX2, (2.5, 0.5), False),
            ([(-3.0, 3.0), (-3.0, 3.5)], (2.5, 0.5), True),
            ([(-3.0, 3.0), (-0.0, 3.5)], (None, None), True),
            ([(-3.0, 3.0), (0.0, 3.5)], (None, None), True),  # -0.0 is not 0.0
            ([(-3.0, 3.0), (0.0, 3.5)], (None, None), False),
        ]:
            calls[0] = 0
            validate_triangular(tf, box, *ab)
            assert (calls[0] > 0) == evaluates, (box, ab)
        assert validate_triangular(tf) is validate_triangular(tf, [(-10.0, 10.0)] * 2)

    def test_a_failed_validation_is_never_kept(self, monkeypatch):
        tf = make_tf(["1", "x"], ["x*(1 - x^2)", "y*(1 - y^2)"])
        calls = self.count_evaluations(monkeypatch)
        for _ in range(2):
            calls[0] = 0
            with pytest.raises(TriangularValidationError):
                validate_triangular(tf, BOX2)
            assert calls[0] > 0
