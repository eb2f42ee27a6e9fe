"""Product-form triangular vector fields g_i(x) = h_i(x_1..x_{i-1}) * f_i(x_i).

When every prefactor h_i is sign-constant, the sign structure of each
component is carried entirely by the scalar factor f_i, so the scalar
attractor theory applies coordinate by coordinate: the attractor is the
product of the per-coordinate zero-set intervals and limits classify
componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import scalar_analysis as sa
from .field_expr import BinOp, Call, FieldDef, Neg, Num, Var, diff, eval_points

__all__ = [
    "TriangularField",
    "ProductAttractor",
    "TriangularValidationError",
    "validate_triangular",
    "product_attractor",
    "componentwise_limits",
]

H_VANISHING_FLOOR = 1e-9


class TriangularValidationError(ValueError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def _remap_vars(node, mapping):
    """node with each Var(j) replaced by the node mapping[j]."""
    if isinstance(node, Var):
        return mapping[node.index]
    if isinstance(node, Neg):
        return Neg(_remap_vars(node.arg, mapping))
    if isinstance(node, BinOp):
        return BinOp(node.op, _remap_vars(node.lhs, mapping), _remap_vars(node.rhs, mapping))
    if isinstance(node, Call):
        return Call(node.fn, _remap_vars(node.arg, mapping))
    return node


@dataclass(frozen=True)
class TriangularField:
    """Per-coordinate factor pair (h_i, f_i): h_i depends on x_1..x_{i-1} only
    (so h_1 is a constant) and f_i on x_i only.  An expression depends on x_j
    when diff does not fold its derivative in x_j to 0, the rule by which the
    solver drops zero entries of the Jacobian."""

    dimension: int
    h_factors: tuple  # ExprAst over x_1..x_{i-1}
    f_factors: tuple  # ExprAst over x_i only
    params: tuple = ()
    _factors: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        d = self.dimension
        if len(self.h_factors) != d or len(self.f_factors) != d:
            raise ValueError("need one (h_i, f_i) pair per coordinate")
        for i, (h, f) in enumerate(zip(self.h_factors, self.f_factors)):
            if any(diff(h, j) != Num(0.0) for j in range(i, d)):
                raise ValueError(f"h_{i + 1} depends on a coordinate >= {i + 1}; "
                                 "the field is not triangular")
            if any(diff(f, j) != Num(0.0) for j in range(d) if j != i):
                raise ValueError(f"f_{i + 1} must depend only on coordinate {i + 1}")
        self.assembled()  # FieldDef refuses a factor that reads a coordinate >= d

    def _keep(self, key, build):
        """build(), on the first call for key only; the result is kept, so that
        the FieldDef's compiled lambdas and derivatives are kept too."""
        if key not in self._factors:
            self._factors[key] = build()
        return self._factors[key]

    def assembled(self) -> FieldDef:
        """The full vector field with components h_i * f_i, built once."""
        return self._keep("assembled", lambda: FieldDef(self.dimension, tuple(
            BinOp("*", h, f) for h, f in zip(self.h_factors, self.f_factors)), self.params))

    def h_field(self) -> FieldDef:
        """The prefactors (h_1, ..., h_d) as one field, built once."""
        return self._keep("h", lambda: FieldDef(self.dimension, self.h_factors, self.params))

    def scalar_factor(self, i) -> FieldDef:
        """f_i as a one-dimensional field (its variable remapped to x1).

        f_i does not depend on the other coordinates (see __post_init__), so
        any value may stand for them: 1, where 0/x_j and 0*log(x_j) are finite.
        """
        mapping = {j: Num(1.0) for j in range(self.dimension)}
        mapping[i] = Var(0)
        ast = _remap_vars(self.f_factors[i], mapping)
        return FieldDef(1, (ast,), self.params)

    def signed_scalar_factor(self, i, sign) -> FieldDef:
        """sign(h_i) * f_i as a one-dimensional field, built once per (i, sign)."""
        def build():
            ast = self.scalar_factor(i).components[0]
            return FieldDef(1, (ast if sign > 0 else Neg(ast),), self.params)
        return self._keep((i, sign > 0), build)


@dataclass(frozen=True)
class ProductAttractor:
    intervals: tuple  # one AttractorInterval per coordinate

    def contains(self, x, slack=0.0):
        return all(
            iv.lo - slack <= xi <= iv.hi + slack for iv, xi in zip(self.intervals, x)
        )


@dataclass(frozen=True)
class TriangularReport:
    h_signs: tuple
    h_min_abs: tuple
    certificate: object
    zero_sets: tuple


def _box_points(box, n_samples, seed):
    """Seeded uniform draws over the box, one point per row."""
    lo, hi = np.asarray(box, dtype=float).T
    return np.random.default_rng(seed).uniform(lo, hi, size=(n_samples, len(box)))


def _sample_h(tf, i, box, n_samples, params):
    """Sample h_i over the box; h_1 is constant and takes one point."""
    pts = _box_points(box, n_samples if i else 1, 20_240_801 + i)
    return eval_points(tf.h_field(), pts, params)[:, i]


def validate_triangular(tf: TriangularField, box, n_samples=2000, params=None, a=None, b=None):
    """Check that every h_i is bounded away from zero with constant sign on
    the box, that the assembled field is dissipative there, and that every
    f_i is hyperbolic at its zeros."""
    params = tuple(params if params is not None else ())
    signs, min_abs = [], []
    for i in range(tf.dimension):
        vals = _sample_h(tf, i, box, n_samples, params)
        worst = float(np.min(np.abs(vals)))
        if worst <= H_VANISHING_FLOOR or np.min(vals) * np.max(vals) < 0:
            idx = int(np.argmin(np.abs(vals)))
            raise TriangularValidationError(
                f"h_{i + 1} vanishes or changes sign on the box "
                f"(|h| reaches {worst:.3g})",
                witness=idx,
            )
        signs.append(1 if float(vals[0]) > 0 else -1)
        min_abs.append(worst)

    cert = None
    if a is not None and b is not None:
        cert = sa.certify_h1(tf.assembled(), a, b, _box_points(box, n_samples, 977),
                             tuple(map(tuple, box)), params)

    zero_sets = [sa.find_zeros(tf.signed_scalar_factor(i, s), box[i], params=params)
                 for i, s in enumerate(signs)]
    return TriangularReport(tuple(signs), tuple(min_abs), cert, tuple(zero_sets))


def product_attractor(tf: TriangularField, box=None, params=None) -> ProductAttractor:
    """The product of the per-coordinate attractor intervals of the f_i."""
    params = tuple(params if params is not None else ())
    if box is None:
        box = [(-10.0, 10.0)] * tf.dimension
    report = validate_triangular(tf, box, params=params)
    intervals = tuple(sa.attractor_interval(zs) for zs in report.zero_sets)
    return ProductAttractor(intervals)


def componentwise_limits(tf: TriangularField, x0, box=None, params=None):
    """Predicted limit vector, one scalar classification per coordinate."""
    if len(x0) != tf.dimension:
        raise ValueError(f"x0 has length {len(x0)}, field dimension is {tf.dimension}")
    params = tuple(params if params is not None else ())
    if box is None:
        box = [(-10.0, 10.0)] * tf.dimension
    report = validate_triangular(tf, box, params=params)
    return tuple(sa.classify_limit(tf.signed_scalar_factor(i, s), zs, x0[i], params)
                 for i, (s, zs) in enumerate(zip(report.h_signs, report.zero_sets)))
