"""Expression parsing and evaluation for vector field definitions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdyn.catalog import CATALOG
from fracdyn.field_expr import (
    FUNCTIONS,
    BinOp,
    Call,
    FieldDef,
    FieldEvalError,
    Neg,
    Num,
    Param,
    ParseError,
    UnknownIdentifierError,
    Var,
    _small_power,
    eval_points,
    eval_rows,
    parse_expr,
    to_source,
)


def eval_ast(node, state, params):
    """Reference tree-walking evaluator, the oracle of the compiled code;
    raises on non-finite results."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return state[node.index]
    if isinstance(node, Param):
        return params[node.index]
    if isinstance(node, Neg):
        return -eval_ast(node.arg, state, params)
    if isinstance(node, BinOp):
        a = eval_ast(node.lhs, state, params)
        b = eval_ast(node.rhs, state, params)
        try:
            if node.op == "+":
                v = a + b
            elif node.op == "-":
                v = a - b
            elif node.op == "*":
                v = a * b
            elif node.op == "/":
                v = a / b
            elif k := _small_power(node):
                v = math.prod([a] * k)  # 1 * a * a ..., as _codegen's a * a ...
            else:
                v = a**b
        except (ZeroDivisionError, OverflowError, ValueError) as exc:
            raise FieldEvalError(f"non-finite result in '{node.op}': {exc}") from exc
        if isinstance(v, complex) or not math.isfinite(v):
            raise FieldEvalError(f"non-finite result in '{node.op}'")
        return v
    if isinstance(node, Call):
        a = eval_ast(node.arg, state, params)
        try:
            v = FUNCTIONS[node.fn](a)
        except (OverflowError, ValueError) as exc:
            raise FieldEvalError(f"non-finite result in {node.fn}(): {exc}") from exc
        if not math.isfinite(v):
            raise FieldEvalError(f"non-finite result in {node.fn}()")
        return v
    raise TypeError(f"not an AST node: {node!r}")


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
        assert eval_points(f, [(2.0,)]).tolist() == [[-6.0]]

    def test_multicomponent(self):
        f = FieldDef.parse(["y", "-x"])
        assert eval_points(f, [(1.0, 2.0)]).tolist() == [[2.0, -1.0]]

    def test_component_reading_past_the_dimension_is_refused(self):
        # parse_expr's own dimension admits z; the field's does not.
        with pytest.raises(ValueError, match="component 2 reads x3, outside dimension 2"):
            FieldDef(2, (parse_expr("x", 2), parse_expr("z", 3)))
        with pytest.raises(ValueError, match="component 1 reads x2"):
            FieldDef(1, (parse_expr("sin(-x) * (1 + y^2)", 2),))
        FieldDef(2, (parse_expr("x", 1), parse_expr("y - 1", 2)))  # within bounds

    def test_parameter_outside_params_is_refused(self):
        # parse_expr's params put a at index 1; the field has only index 0.
        with pytest.raises(ValueError, match=r"component 1 reads parameter 'a' as params\[1\]"):
            FieldDef(1, (parse_expr("a*x", 1, ("b", "a")),), ("a",))
        with pytest.raises(ValueError, match=r"reads parameter 'a' as params\[0\]"):
            FieldDef(1, (parse_expr("-sin(a)", 1, ("a",)),), ("b",))  # another name
        with pytest.raises(ValueError, match="reads parameter 'a'"):
            FieldDef(1, (parse_expr("a", 1, ("a",)),))  # no params at all
        fld = FieldDef(1, (parse_expr("a*x - b", 1, ("b", "a")),), ("b", "a"))
        assert eval_points(fld, [(2.0,)], (1.0, 3.0)).tolist() == [[5.0]]

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
        derivs = eval_points(f.derivative(0), pts, (gammas, bs))[:, 0]
        for i in range(7):
            assert arr[i] == eval_points(f, pts[i:i + 1], (gammas[i], 2.0))[0, 0]
            one = eval_points(f.derivative(0), pts[i:i + 1], (gammas[i], 2.0))[0, 0]
            assert derivs[i] == one == gammas[i] - 2.0 * (3.0 * (pts[i, 0] * pts[i, 0]))

    @pytest.mark.parametrize("source", [
        "gamma*x - b*x^3", "x*1.3^gamma - b^2.5", "tanh(x - gamma) + exp(b*x)",
        "gamma", "2.0", "(gamma + b)^x",
    ])
    def test_rows_are_what_eval_points_gives(self, source):
        # eval_rows broadcasts a (k, 1) column per parameter against the points;
        # each row equals eval_points at the same points with that row's
        # parameters as floats.
        f = FieldDef.parse([source], ("gamma", "b"))
        xs = np.linspace(0.1, 2.0, 11)
        rng = np.random.default_rng(7)
        rows = np.column_stack([rng.uniform(-1.0, 1.0, 64), rng.uniform(1.5, 3.0, 64)])
        got = eval_rows(f, xs, rows)
        assert got.shape == (64, 11)
        for j, row in enumerate(rows):
            floats = eval_points(f, xs[:, None], tuple(row.tolist()))[:, 0]
            assert np.array_equal(got[j], floats)

    @pytest.mark.parametrize("source, rows", [
        ("x*1.3^gamma - b^2.5", None),
        ("x^gamma + b", [(2.0, 0.0), (0.5, 1.0), (-1.0, 2.0)]),
        # np.power squares, roots or inverts for an exponent of 2.0, 0.5 or
        # -1.0 given as one value (a float, a numpy scalar) and takes its pow
        # loop for an array of exponents: here x, and 2.0 is in xs.
        pytest.param("(gamma + b)^x", None, marks=pytest.mark.xfail(strict=True)),
    ])
    def test_floats_round_as_arrays(self, source, rows):
        # A compiled_arrays() component on floats (a bisection's midpoint, a
        # solve's x0) gives eval_points' value.  A power of parameters alone
        # calls np.power, not libm's pow, as it does on arrays.
        f = FieldDef.parse([source], ("gamma", "b"))
        fn = f.compiled_arrays()[0]
        xs = np.linspace(0.1, 2.0, 11)
        rng = np.random.default_rng(7)
        if rows is None:
            rows = np.column_stack([rng.uniform(-1.0, 1.0, 64), rng.uniform(1.5, 3.0, 64)])
        for row in np.asarray(rows):
            p = tuple(row.tolist())
            floats = [fn((x,), p) for x in xs.tolist()]
            assert floats == eval_points(f, xs[:, None], p)[:, 0].tolist()

    def test_rows_fail_as_eval_points_does(self):
        f = FieldDef.parse(["gamma - x^0.5"], ("gamma",))
        with pytest.raises(FieldEvalError) as exc:
            eval_rows(f, np.linspace(-1.0, 1.0, 5), [(0.0,), (1.0,)])
        assert exc.value.component == 0
        with pytest.raises(ValueError, match="expected 1 parameters, got 2"):
            eval_rows(f, np.linspace(0.0, 1.0, 5), [(0.0, 1.0)])

    def test_eval_error_carries_component(self):
        f = FieldDef.parse(["x", "exp(x^2)"])
        with pytest.raises(FieldEvalError) as exc:
            eval_points(f, [(1.0e6, 0.0)])
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

    def test_derivative(self):
        f = FieldDef.parse(["x - x^3"])
        xs = (-1.0, 0.0, 1.0, 2.0)
        df = f.derivative(0)
        assert df is f.derivative(0)  # built once and kept, as compiled() is
        stacked = eval_points(df, np.array(xs)[:, None])[:, 0]
        (fn,) = df.compiled()
        for x, d in zip(xs, stacked):
            assert d == fn((x,), ()) == 1.0 - 3.0 * x * x  # exact, not a difference
        with pytest.raises(ValueError):
            f.derivative(1)

    def test_lift_reads_a_parameter_as_a_coordinate(self):
        f = FieldDef.parse(["a*x - gamma*x^2"], ("a", "gamma"))
        lifted = f.lift("gamma")
        assert lifted is f.lift("gamma")  # built once and kept, as derivative(i) is
        assert lifted.dimension == 2 and lifted.params == ("a", "gamma")
        assert lifted.components == (parse_expr("a*x1 - x2*x1^2", 2, ("a", "gamma")), Num(0.0))
        # (x, gamma) = (3, 0.5) at a = 2: g = 1.5, g_gamma = -x^2
        assert eval_points(lifted, [(3.0, 0.5)], (2.0, 99.0)).tolist() == [[1.5, 0.0]]
        assert eval_points(lifted.derivative(1), [(3.0, 0.5)], (2.0, 99.0)).tolist() == [
            [-9.0, 0.0]]
        with pytest.raises(ValueError):
            f.lift("delta")

    def test_param_names_validated(self):
        f = FieldDef.parse(["gamma*x"], ("gamma",))
        assert f.params == ("gamma",)
        with pytest.raises(ParseError):
            FieldDef.parse(["delta*x"], ("gamma",))

    def test_parse_refuses_a_bare_string(self):
        # "xy" would otherwise be the two components x and y
        for src in ("xy", "x - x^3"):
            with pytest.raises(TypeError, match="list of components"):
                FieldDef.parse(src)


MP_FUNCTIONS = {"exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos,
                "tanh": mpmath.tanh, "abs": abs}


def mp_eval(node, state, params):
    """The AST in mpmath arithmetic at the working precision."""
    if isinstance(node, Num):
        return mpmath.mpf(node.value)
    if isinstance(node, Var):
        return state[node.index]
    if isinstance(node, Param):
        return mpmath.mpf(params[node.index])
    if isinstance(node, Neg):
        return -mp_eval(node.arg, state, params)
    if isinstance(node, Call):
        return MP_FUNCTIONS[node.fn](mp_eval(node.arg, state, params))
    a, b = mp_eval(node.lhs, state, params), mp_eval(node.rhs, state, params)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    return a / b if node.op == "/" else a**b


# (sources, params, box): every grammar function, '/', and '^' with a
# constant, a parameter and a variable exponent, on boxes where they are real.
DIFF_CASES = [
    (["exp(-x) * sin(3*x)"], (), [(-2.0, 2.0)]),
    (["cos(x^2) - tanh(2*x - 1)"], (), [(-2.0, 2.0)]),
    (["abs(x) * x - abs(x - 1)"], (), [(-2.0, 2.0)]),
    (["x / (1 + x^2)", "(x - y) / (y + 3)"], (), [(-2.0, 2.0), (-2.0, 2.0)]),
    (["(1 + x^2)^1.5 - x^5 + x^-2"], (), [(0.2, 2.0)]),
    (["(2 + sin(x))^gamma - gamma^3 * x"], ("gamma",), [(-2.0, 2.0)]),
    (["x^x + 2^x", "(1 + x^2)^(y - x) * y"], (), [(0.2, 2.0), (-1.0, 1.0)]),
    (["tanh(exp(x) - 2) / (2 + cos(x))"], (), [(-2.0, 2.0)]),
]


def _diff_cases():
    for sources, params, box in DIFF_CASES:
        yield FieldDef.parse(sources, params), (1.7,) if params else (), box
    for name, entry in sorted(CATALOG.items()):
        fld = entry.fld.assembled() if entry.triangular else entry.fld
        yield fld, entry.default_params, [entry.scan_interval] * fld.dimension


class TestDerivatives:
    def test_diff_matches_mpmath(self):
        # d g_k / d x_i against mpmath.diff at 50 digits, 20 points per field
        rng = np.random.default_rng(2026)
        for fld, params, box in _diff_cases():
            lo, hi = np.asarray(box, dtype=float).T
            pts = rng.uniform(lo, hi, size=(20, fld.dimension))
            for i in range(fld.dimension):
                got = eval_points(fld.derivative(i), pts, params)
                with mpmath.workdps(50):
                    for row, x in zip(got, pts):
                        for k, ast in enumerate(fld.components):
                            def g(t, x=x, ast=ast):
                                s = [mpmath.mpf(v) for v in x]
                                s[i] = t
                                return mp_eval(ast, s, params)

                            want = float(mpmath.diff(g, mpmath.mpf(x[i])))
                            assert abs(row[k] - want) <= 1e-13 * max(1.0, abs(want)), (
                                to_source(ast), i, x)

    def test_kink_and_non_finite_derivatives(self):
        # abs' is sign, 0 at the kink; x^0.5 is finite at 0 but its derivative is not
        assert eval_points(FieldDef.parse(["abs(x)"]).derivative(0), [(0.0,)]).tolist() == [[0.0]]
        root = FieldDef.parse(["x^0.5"])
        assert eval_points(root, [(0.0,)]).tolist() == [[0.0]]
        with pytest.raises(FieldEvalError) as exc:
            eval_points(root.derivative(0), [(4.0,), (0.0,)])
        assert exc.value.component == 0

    def test_derivatives_of_derivatives(self):
        # diff makes sign (from abs) and log (from a power that reads a
        # coordinate), so a second or third derivative differentiates them
        fld = FieldDef.parse(["abs(x + 2) * x + 2^x + x^x - tanh(x)^3"])
        ast = fld.components[0]
        for x in (0.4, 1.3, 2.9):
            nth = fld
            for n in (1, 2, 3):
                nth = nth.derivative(0)
                with mpmath.workdps(50):
                    want = float(mpmath.diff(lambda t: mp_eval(ast, [t], ()), mpmath.mpf(x), n))
                got = eval_points(nth, [(x,)])[0, 0]
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (n, x)

    def test_folding_keeps_overflow_out(self):
        # gamma*exp(x) differentiates to gamma*exp(x), not 0*exp(x) + gamma*exp(x),
        # so a parameter derivative at 0 is no nan where exp overflows
        f = FieldDef.parse(["gamma*exp(x)", "x^3"], ("gamma",))
        assert f.derivative(1).components == (Num(0.0), Num(0.0))
        assert to_source(f.derivative(0).components[0]) == "(gamma * exp(x1))"
        assert to_source(f.derivative(0).components[1]) == "(3.0 * (x1 ^ 2.0))"

    def test_log_and_sign_are_not_grammar(self):
        for src in ("log(x)", "sign(x)"):
            with pytest.raises(UnknownIdentifierError):
                parse_expr(src, 1)


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
