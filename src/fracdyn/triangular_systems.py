"""Product-form triangular vector fields g_i(x) = h_i(x_1..x_{i-1}) * f_i(x_i).

When every prefactor h_i is sign-constant, coordinate i follows the scalar
factor sign(h_i) * f_i, so the scalar attractor theory applies coordinate by
coordinate: the attractor is the product of the per-coordinate zero-set
intervals and limits classify componentwise.  validate_triangular makes that
analysis once and keeps its last report on the field; the report gives the
attractor and the limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import scalar_analysis as sa
from .field_expr import BinOp, FieldDef, Num, Var, diff, eval_points, substitute

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


@dataclass(frozen=True)
class TriangularField:
    """Per-coordinate factor pair (h_i, f_i): h_i depends on x_1..x_{i-1} only
    (so h_1 is a constant) and f_i on x_i only.  An expression depends on x_j
    when diff does not fold its derivative in x_j to 0, the rule by which the
    solver drops zero entries of the Jacobian.  The factors take no
    parameters.  The assembled field, the h_i and the scalar factors are
    built once and kept on the field, and so is the last validation."""

    dimension: int
    h_factors: tuple  # ExprAst over x_1..x_{i-1}
    f_factors: tuple  # ExprAst over x_i only
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

    def last(self, name, key, build):
        """build(), unless the value last kept under name was kept with an equal
        key: then that value.  One (key, value) per name; an exception is never
        kept."""
        kept = self._factors.get(name)
        if kept is None or kept[0] != key:
            kept = self._factors[name] = (key, build())
        return kept[1]

    def assembled(self) -> FieldDef:
        """The full vector field with components h_i * f_i, built once."""
        return self._keep("assembled", lambda: FieldDef(self.dimension, tuple(
            BinOp("*", h, f) for h, f in zip(self.h_factors, self.f_factors))))

    def h_field(self) -> FieldDef:
        """The prefactors (h_1, ..., h_d) as one field, built once."""
        return self._keep("h", lambda: FieldDef(self.dimension, self.h_factors))

    def scalar_factor(self, i) -> FieldDef:
        """f_i as a one-dimensional field (its variable remapped to x1), built once.

        f_i does not depend on the other coordinates (see __post_init__), so
        any value may stand for them: 1, where 0/x_j and 0*log(x_j) are finite.
        """
        mapping = {Var(j): Var(0) if j == i else Num(1.0) for j in range(self.dimension)}
        return self._keep(i, lambda: FieldDef(1, (substitute(self.f_factors[i], mapping),)))


@dataclass(frozen=True)
class ProductAttractor:
    intervals: tuple  # one AttractorInterval per coordinate

    def contains(self, x):
        return all(iv.lo <= xi <= iv.hi for iv, xi in zip(self.intervals, x))


@dataclass(frozen=True)
class TriangularReport:
    h_signs: tuple
    h_min_abs: tuple
    certificate: object
    zero_sets: tuple  # zeros of f_i, with the derivatives of sign(h_i) * f_i

    def attractor(self) -> ProductAttractor:
        """The product of the per-coordinate attractor intervals."""
        return ProductAttractor(tuple(sa.attractor_interval(zs) for zs in self.zero_sets))

    def limits(self, x0):
        """Predicted limit vector, one scalar classification per coordinate."""
        d = len(self.zero_sets)
        if len(x0) != d:
            raise ValueError(f"x0 has length {len(x0)}, field dimension is {d}")
        # No field: classify_limit reads the signs from the zero set alone.
        return tuple(sa.classify_limit(None, zs, eta) for zs, eta in zip(self.zero_sets, x0))


def _box_points(box, n, seed):
    """n seeded uniform draws over the box, one point per row."""
    lo, hi = np.asarray(box, dtype=float).T
    return np.random.default_rng(seed).uniform(lo, hi, size=(n, len(box)))


def _sample_h(tf, i, box):
    """Points of the box and h_i at them; h_1 is constant and takes one point."""
    pts = _box_points(box, sa.SAMPLES if i else 1, 20_240_801 + i)
    return pts, eval_points(tf.h_field(), pts)[:, i]


def validate_triangular(tf: TriangularField, box=None, a=None, b=None):
    """Check that every h_i, at sa.SAMPLES points of the box (by default
    [-10, 10]^d), is bounded away from zero with constant sign, and that
    every f_i is hyperbolic at its zeros.  Dissipativity of the assembled
    field is certified only when a and b are given; otherwise the report's
    certificate is None.

    The last report is kept on tf, keyed by the exact doubles of the box and
    by a and b: a repeat returns the same report and evaluates nothing, so it
    does not repeat find_zeros' warning of an even zero count.  An error is
    never kept.
    """
    if box is None:
        box = [(-10.0, 10.0)] * tf.dimension
    corners = np.asarray(box, dtype=float)
    key = (corners.shape, corners.tobytes(), a, b)
    return tf.last("report", key, lambda: _validate(tf, box, a, b))


def _validate(tf, box, a, b):
    signs, min_abs = [], []
    for i in range(tf.dimension):
        pts, vals = _sample_h(tf, i, box)
        k = int(np.argmin(np.abs(vals)))
        worst = float(abs(vals[k]))
        if worst <= H_VANISHING_FLOOR or np.min(vals) * np.max(vals) < 0:
            witness = tuple(pts[k].tolist())
            raise TriangularValidationError(
                f"h_{i + 1} vanishes or changes sign on the box "
                f"(|h| reaches {worst:.3g}) at x={witness}",
                witness=witness,
            )
        signs.append(1 if float(vals[0]) > 0 else -1)
        min_abs.append(worst)

    cert = None
    if a is not None and b is not None:
        cert = sa.certify_h1(tf.assembled(), a, b, _box_points(box, sa.SAMPLES, 977),
                             tuple(map(tuple, box)))

    # sign(h_i) * f_i has the zeros of f_i (the scan tests only signs) and
    # the derivatives sign(h_i) * f_i'.
    zero_sets = []
    for i, s in enumerate(signs):
        zs = sa.find_zeros(tf.scalar_factor(i), box[i])
        zero_sets.append(replace(zs, derivs=tuple(s * d for d in zs.derivs)))
    return TriangularReport(tuple(signs), tuple(min_abs), cert, tuple(zero_sets))


def product_attractor(tf: TriangularField, box=None) -> ProductAttractor:
    """The product of the per-coordinate attractor intervals of the sign(h_i) * f_i."""
    return validate_triangular(tf, box).attractor()


def componentwise_limits(tf: TriangularField, x0, box=None):
    """Predicted limit vector, one scalar classification per coordinate."""
    return validate_triangular(tf, box).limits(x0)
