"""Oracles shared by the test files: plain reimplementations that the library
must match bit for bit."""

import numpy as np

from fracdyn import scalar_analysis as sa
from fracdyn.field_expr import eval_points


def reference_scan(fld, scan_interval, params=()):
    """The ZeroSet of one parameter set: the scan's grid, then every cell
    where g changes sign bisected at once on numpy arrays, one eval_points
    call per pass, and g' at the zeros."""
    g = lambda xs: eval_points(fld, np.reshape(xs, (-1, 1)), params)[:, 0]
    xs = sa._scan_grid(scan_interval)
    vals = g(xs)
    exact = xs[vals == 0.0]
    cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    lo, hi, flo = xs[cells], xs[cells + 1], vals[cells]
    # Bisect to the double: until g vanishes at the midpoint or no double
    # lies between a cell's ends.
    mid = 0.5 * (lo + hi)
    active = (lo < mid) & (mid < hi)
    while active.any():
        fmid = g(mid)
        left = (flo < 0.0) == (fmid < 0.0)
        hit = fmid == 0.0
        lo = np.where(active & (left | hit), mid, lo)
        hi = np.where(active & (~left | hit), mid, hi)
        flo = np.where(left, fmid, flo)
        mid = 0.5 * (lo + hi)
        active = (lo < mid) & (mid < hi)
    zeros = sorted(np.concatenate([exact, mid]).tolist())
    derivs = eval_points(fld.derivative(0), np.reshape(zeros, (-1, 1)), params)[:, 0]
    return sa.ZeroSet(tuple(zeros), tuple(derivs.tolist()))
