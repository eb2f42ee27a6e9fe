"""Numerical dynamics of autonomous Caputo fractional differential equations.

Mittag-Leffler special functions, a fractional Adams solver (the implicit
product-trapezoid rule, solved by Newton's method), scalar attractor
analysis with decay envelopes and heteroclinic orbits, triangular
product-form systems, one-parameter bifurcation sweeps, and the semigroup
the dynamics generates on a function space.
"""

__version__ = "0.1.0"

from .caputo_solver import (
    CaputoProblem,
    Trajectory,
    convergence_order,
    solve_pece,
    solve_svie,
)
from .field_expr import FieldDef, ParseError, parse_expr
from .mittag_leffler import MLQuery, ml, ml_decay, ml_eval

__all__ = [
    "__version__",
    "MLQuery",
    "ml",
    "ml_decay",
    "ml_eval",
    "FieldDef",
    "ParseError",
    "parse_expr",
    "CaputoProblem",
    "Trajectory",
    "solve_pece",
    "solve_svie",
    "convergence_order",
]
