"""Expression parsing and evaluation for vector field definitions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn.field_expr import (
    FieldDef,
    FieldEvalError,
    ParseError,
    UnknownIdentifierError,
    eval_ast,
    eval_field,
    eval_points,
    numeric_derivative,
    parse_expr,
    to_source,
)


class TestParsing:
    def test_precedence_and_associativity(self):
        assert eval_ast(parse_expr("2 + 3 * 4", 1), (0.0,), ()) == 14.0
        assert eval_ast(parse_expr("2 * 3 ^ 2", 1), (0.0,), ()) == 18.0
        assert eval_ast(parse_expr("2 ^ 3 ^ 2", 1), (0.0,), ()) == 512.0
        assert eval_ast(parse_expr("-x^2", 1), (3.0,), ()) == -9.0
        assert eval_ast(parse_expr("(2 + 3) * 4", 1), (0.0,), ()) == 20.0

    def test_variable_aliases(self):
        assert eval_ast(parse_expr("x + y", 2), (1.0, 2.0), ()) == 3.0
        assert eval_ast(parse_expr("x1 + x2", 2), (1.0, 2.0), ()) == 3.0
        assert eval_ast(parse_expr("z", 3), (0.0, 0.0, 7.0), ()) == 7.0

    def test_functions(self):
        state = (0.5,)
        for name, fn in (("exp", math.exp), ("sin", math.sin),
                         ("cos", math.cos), ("tanh", math.tanh), ("abs", abs)):
            assert eval_ast(parse_expr(f"{name}(x)", 1), state, ()) == fn(0.5)

    def test_parameters(self):
        ast = parse_expr("gamma - x^2", 1, ("gamma",))
        assert eval_ast(ast, (3.0,), (1.0,)) == -8.0

    def test_error_offsets(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x +* 2", 1)
        assert exc.value.offset == 3
        with pytest.raises(UnknownIdentifierError) as exc:
            parse_expr("x + q", 1)
        assert exc.value.offset == 4

    def test_dimension_guard(self):
        with pytest.raises(ParseError):
            parse_expr("y", 1)  # second coordinate in a 1-d field
        with pytest.raises(ParseError):
            parse_expr("x3", 2)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_expr("(x + 1", 1)
        with pytest.raises(ParseError):
            parse_expr("x + 1)", 1)

    def test_empty_and_garbage(self):
        for src in ("", "   ", "*", "x x", "1..2", "sin", "sin()"):
            with pytest.raises(ParseError):
                parse_expr(src, 1)

    def test_roundtrip_through_source(self):
        for src in ("x*(1 - x^2)", "-exp(-x) + 0.5", "gamma*x - x^3",
                    "tanh(x1) * (x2 + 2)"):
            params = ("gamma",) if "gamma" in src else ()
            ast = parse_expr(src, 2, params)
            again = parse_expr(to_source(ast), 2, params)
            for x1 in (-1.5, 0.0, 2.0):
                for x2 in (-0.3, 1.1):
                    state = (x1, x2)
                    pv = (0.7,) if params else ()
                    assert eval_ast(ast, state, pv) == pytest.approx(
                        eval_ast(again, state, pv), rel=1e-15, abs=1e-15
                    )


class TestFieldDef:
    def test_parse_and_eval(self):
        f = FieldDef.parse(["x - x^3"])
        assert f.dimension == 1
        assert eval_field(f, (2.0,)) == [-6.0]

    def test_multicomponent(self):
        f = FieldDef.parse(["y", "-x"])
        assert eval_field(f, (1.0, 2.0)) == [2.0, -1.0]

    def test_compiled_matches_ast_walker(self):
        f = FieldDef.parse(["x*(1 - x^2) + cos(y)", "tanh(x) - y^3"])
        # the second field covers the rest of the function table
        f2 = FieldDef.parse(["abs(x)^1.5 - exp(-y)", "sin(x*y) / 2"])
        rng = np.random.default_rng(7)
        pts = rng.uniform(-3, 3, size=(200, 2))
        for fld in (f, f2):
            fns = fld.compiled()
            arr = eval_points(fld, pts)
            assert arr.shape == (200, 2)
            for row, s in enumerate(map(tuple, pts)):
                for i, fn in enumerate(fns):
                    expect = eval_ast(fld.components[i], s, ())
                    assert fn(s, ()) == pytest.approx(expect, rel=1e-14, abs=1e-14)
                    assert arr[row, i] == pytest.approx(expect, rel=1e-14, abs=1e-14)
            # one component AST on its own gives that column
            assert np.array_equal(eval_points(fld.components[1], pts), arr[:, 1])

    def test_small_powers_are_products(self):
        # x^2..x^4 of a coordinate or parameter are x*x*..., in the compiled
        # code and in the oracle alike; other powers stay pow
        f = FieldDef.parse(["x^2 + y^3", "x^4 - gamma^3*y", "(x + y)^3 - x^5"], ("gamma",))
        rng = np.random.default_rng(3)
        pts = rng.uniform(-3, 3, size=(500, 3))
        arr = eval_points(f, pts, (-1.3,))
        x, y = pts[:, 0], pts[:, 1]
        assert np.array_equal(arr[:, 0], x * x + y * y * y)
        assert np.array_equal(arr[:, 1], x * x * x * x - (-1.3 * -1.3 * -1.3) * y)
        assert np.array_equal(arr[:, 2], (x + y) ** 3.0 - x**5.0)
        fns = f.compiled()
        for row, s in enumerate(map(tuple, pts[:50])):
            for i, fn in enumerate(fns):
                expect = eval_ast(f.components[i], s, (-1.3,))
                assert fn(s, (-1.3,)) == expect
                assert arr[row, i] == pytest.approx(expect, rel=1e-14, abs=1e-14)
        with pytest.raises(FieldEvalError):  # inf, no OverflowError, is caught too
            eval_ast(parse_expr("x^3", 1), (1e200,), ())

    def test_per_point_parameters(self):
        # a tuple of (n,) arrays gives every point its own parameter set
        f = FieldDef.parse(["gamma*x - b*x^3"], ("gamma", "b"))
        pts = np.linspace(-2.0, 2.0, 7)[:, None]
        gammas, bs = np.linspace(-1.0, 1.0, 7), np.full(7, 2.0)
        arr = eval_points(f, pts, (gammas, bs))[:, 0]
        derivs = numeric_derivative(f, 0, pts, 0, (gammas, bs))
        for i in range(7):
            assert arr[i] == eval_points(f, pts[i:i + 1], (gammas[i], 2.0))[0, 0]
            assert derivs[i] == numeric_derivative(f, 0, pts[i], 0, (gammas[i], 2.0))

    def test_eval_error_carries_component(self):
        f = FieldDef.parse(["x", "exp(x^2)"])
        with pytest.raises(FieldEvalError) as exc:
            eval_field(f, (1.0e6, 0.0))
        assert exc.value.component == 1
        # the same on a stack where only one row is bad
        with pytest.raises(FieldEvalError) as exc:
            eval_points(f, [(0.0, 0.0), (1.0e6, 0.0), (1.0, 1.0)])
        assert exc.value.component == 1
        # a complex value is an error too (the oracle agrees)
        g = FieldDef.parse(["1", "y^0.5"])
        with pytest.raises(FieldEvalError):
            eval_ast(g.components[1], (0.0, -1.0), ())
        with pytest.raises(FieldEvalError) as exc:
            eval_points(g, [(0.0, 4.0), (0.0, -1.0)])
        assert exc.value.component == 1

    def test_numeric_derivative(self):
        f = FieldDef.parse(["x - x^3"])
        xs = (-1.0, 0.0, 1.0, 2.0)
        stacked = numeric_derivative(f, 0, np.array(xs)[:, None], 0)
        for x, d in zip(xs, stacked):
            expect = 1.0 - 3.0 * x * x
            assert numeric_derivative(f, 0, [x], 0) == pytest.approx(
                expect, rel=1e-6, abs=1e-6
            )
            assert d == numeric_derivative(f, 0, [x], 0)

    def test_param_names_validated(self):
        f = FieldDef.parse(["gamma*x"], ("gamma",))
        assert f.params == ("gamma",)
        with pytest.raises(ParseError):
            FieldDef.parse(["delta*x"], ("gamma",))


@st.composite
def expr_strings(draw):
    """Small random well-formed expressions."""
    depth = draw(st.integers(0, 3))

    def go(d):
        if d == 0:
            return draw(st.sampled_from(["x", "1", "2.5", "0.1"]))
        op = draw(st.sampled_from(["+", "-", "*", "bin^", "neg", "call"]))
        if op == "neg":
            return f"-({go(d - 1)})"
        if op == "call":
            fn = draw(st.sampled_from(["sin", "cos", "tanh"]))
            return f"{fn}({go(d - 1)})"
        if op == "bin^":
            return f"({go(d - 1)}) ^ 2"
        return f"({go(d - 1)}) {op} ({go(d - 1)})"

    return go(depth)


class TestProperties:
    @given(expr_strings())
    @settings(max_examples=150, deadline=None)
    def test_generated_expressions_parse_and_roundtrip(self, src):
        ast = parse_expr(src, 1)
        again = parse_expr(to_source(ast), 1)
        for x in (-1.3, 0.0, 0.7):
            a = eval_ast(ast, (x,), ())
            b = eval_ast(again, (x,), ())
            assert a == pytest.approx(b, rel=1e-14, abs=1e-14)

    @given(st.text(min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text_never_crashes_unstructured(self, src):
        # totality: any input either parses or raises ParseError
        try:
            parse_expr(src, 1)
        except ParseError:
            pass
