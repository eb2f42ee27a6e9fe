"""Fractional Adams corrector for Caputo initial value problems.

Solves the integral form

    x(t) = x0 + (1/Gamma(alpha)) * int_0^t (t-s)^(alpha-1) g(x(s)) ds

on a uniform grid by product integration (Diethelm, Ford & Freed 2002)
with g linear on each step (the trapezoid rule), which makes each step an
implicit equation x = b + w*g(x).  `_trapezoid_weights` alone assembles
the rule's weights, from the per-offset rule `_weights` that the memory
integral `prefix_memory` takes too, by one FFT product per component.  A
solve first checks x0 by the one-point rule of `field_expr.point_value`,
which refuses a complex or non-finite g(x0).  The corrector solves
the equation by Newton's method with the field's exact Jacobian (Garrappa
2018, Mathematics 6:16), which needs no predictor.  Each step starts with
one chord update of the last state x(m-1) by a kept Jacobian J*, the
simplified Newton step of stiff ODE codes (Hairer & Wanner 1996, Solving
ODEs II, IV.8), which reuses the stored g(x(m-1)) and evaluates nothing.
J* is evaluated at the state before each leaf's first step and renewed by
every later evaluation of J.  Where J fails or I - w*J has a zero pivot
there, and after a step that keeps the explicit step, J* = 0 and the next
start is the explicit step b + w*g(x(m-1)).  The step evaluates g there,
and while the residual exceeds CORRECTOR_TOL, J and g at each Newton
iterate.  J* changes little along a smooth path, so the cubic takes about
1.07 evaluations of g and 0.07 of g' per step.  A step that does not
converge within CORRECTOR_MAX_ITER evaluations of g (where the equation
has no real root, as on the way to a blow-up) keeps the explicit step,
which `_explicit_step` alone computes, with g there, and is counted in
`SolverMeta.unconverged_steps`.  The history sums are split by the lag
(Hairer, Lubich & Schlichte 1985, SIAM J. Sci. Stat. Comput. 6:532;
Garrappa 2018): older leaves of LEAF nodes enter in FFT blocks, so that a
solve of N steps costs O(N log^2 N).  Inside its own leaf, a step takes
its history by sub-blocks of SUB nodes: one np.correlate per component,
made where a sub-block starts, gives the earlier sub-blocks' sum to all of
its steps, and each step adds the nodes of its own sub-block on floats.
The g history is kept component-major, one contiguous row per component,
which both the correlations and the FFT blocks read without a copy.
The corrector is Python source generated once per nonzero pattern of J
that runs a whole leaf on float locals, where numpy's per-call overhead
would dominate the step.  It writes the SUB steps of a sub-block out one
after the other, each reading the g values of the sub-block's earlier
nodes from the locals of the steps before it, so that no step shifts a
register or tests its place in the sub-block.  A step stores g and x
through flat memoryviews of the solve's arrays, which take a float in
about half the time of numpy's item assignment, so that a converged step
makes no numpy operation; a step whose chord start converges also leaves
every count alone, since `_pece_loop` adds each step's chord start from
the number of steps.  A triangular field's J is lower triangular, and its
Newton step a forward substitution.  The same recurrence with x0 replaced
by a forcing function f(t_n) solves the forced singular Volterra integral
equation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .field_expr import FieldDef, check_args, point_value

__all__ = [
    "CaputoProblem",
    "Trajectory",
    "SolverMeta",
    "solve_pece",
    "solve_svie",
    "convergence_order",
    "EXACT_ORDER",
]

ESCAPE_THRESHOLD = 1e8
MAX_GRID_POINTS = 10_000_000
CORRECTOR_TOL = 1e-12
CORRECTOR_MAX_ITER = 10
#: Nodes per leaf of _pece_loop: the history inside a leaf is summed directly.
LEAF = 1024
#: Nodes per sub-block of a leaf, the unit of _corrector's direct sums; divides LEAF.
SUB = 8

#: Sentinel returned by convergence_order when all errors are at rounding level.
EXACT_ORDER = "exact"
#: Step halvings of convergence_order: errors at dt / 2^i, i < ORDER_LEVELS.
ORDER_LEVELS = 4


def check_grid(t_end, dt, names=("dt", "t_end")):
    """The grid rules: 0 < dt <= t_end, and at most MAX_GRID_POINTS steps;
    an error calls dt and t_end by names.  Returns the step count round(t_end / dt)."""
    if not 0.0 < dt <= t_end:
        raise ValueError(f"need 0 < {names[0]} <= {names[1]}, got {names[0]}={dt}, "
                         f"{names[1]}={t_end}")
    if not t_end / dt <= MAX_GRID_POINTS:  # inf / inf is nan
        raise ValueError(
            f"grid of {t_end / dt:.3g} points exceeds the {MAX_GRID_POINTS} budget"
        )
    return int(round(t_end / dt))


def check_solve(alpha, t_end, dt, names=("dt", "t_end")):
    """The rules of every solve on [0, t_end]: 0 < alpha < 1 and check_grid's,
    whose error calls dt and t_end by names.  Returns the step count."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return check_grid(t_end, dt, names)


@dataclass(frozen=True)
class CaputoProblem:
    alpha: float
    fld: FieldDef
    params: tuple
    x0: tuple
    t_end: float
    dt: float

    def __post_init__(self):
        check_solve(self.alpha, self.t_end, self.dt)
        if len(self.x0) != self.fld.dimension:
            raise ValueError(
                f"x0 has length {len(self.x0)}, field dimension is {self.fld.dimension}"
            )


@dataclass
class SolverMeta:
    """What one solve did: iterations and residual are the maxima over steps,
    newton_iterations the sum of iterations (evaluations of g after the
    chord start and after each Newton update) over steps (newton_iterations
    / steps is the mean per step), field_evals counts whole-field
    evaluations of g and jacobian_evals those of J's nonzero entries, one
    per leaf for its kept J and one per Newton update, and
    unconverged_steps the steps whose corrector missed CORRECTOR_TOL and
    kept the explicit step."""

    corrector_iterations: int = 0
    max_residual: float = 0.0
    steps: int = 0
    field_evals: int = 0
    unconverged_steps: int = 0
    jacobian_evals: int = 0
    newton_iterations: int = 0


@dataclass
class Trajectory:
    alpha: float
    times: np.ndarray
    states: np.ndarray  # (n_points, d)
    meta: SolverMeta = field(default_factory=SolverMeta)
    escape_index: int | None = None
    escape_sign: int = 0  # +-1 past +-ESCAPE_THRESHOLD, 0 when the field failed

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def endpoint(self):
        return self.states[-1].copy()  # an escaped solve holds its clamped state to the end

    def scalar(self):
        """Component-0 view for scalar problems."""
        return self.states[:, 0]


def _weights(alpha, n):
    """Product-integration weights of I^alpha on a unit grid, per offset k = 0..n.

    The one rule behind every memory integral here: with u the distance to
    the target time in steps, g linear on the step between offsets k-1 and
    k splits its integral

        rect[k] = int_{k-1}^{k} u^(alpha-1) du

    into far[k] + near[k]: far[k] weights g at the node k steps back,
    near[k] at the node k-1 steps back.  Returns (far, near); entry 0 is
    zero.  Differences of powers are taken through expm1/log1p, so the
    relative error grows like k * eps rather than k^2 * eps.
    """
    k = np.arange(1, n + 1, dtype=float)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf at k = 1 is exact
        em = np.expm1(alpha * np.log1p(-1.0 / k))  # (1 - 1/k)^alpha - 1
    k_alpha = k**alpha
    rect = -k_alpha * em / alpha
    near = k_alpha * (-(k + alpha) * em - alpha) / (alpha * (alpha + 1.0))
    zero = np.zeros(1)
    return np.concatenate((zero, rect - near)), np.concatenate((zero, near))


def prefix_memory(alpha, dt, g, n):
    """The memory of a solved prefix at the nodes after it: I^alpha over
    [0, m*dt] of g, shape (m + 1, d), at the nodes m .. m + n by the trapezoid
    rule, sum_j far[m+i-j] g_j + near[m+i-j] g_(j+1) at node m + i.  Both
    sums are linear convolutions, of length 2m + n - 1, taken by FFT at a
    power of two past that, so that nothing wraps: the spectra's products
    far g[:-1] + near g[1:] are added, and one inverse transform per
    component gives its outputs m - 1 .. m + n - 1.  Row 0 is the solver's
    own memory at m."""
    m = g.shape[0] - 1
    far, near = _weights(alpha, m + n)
    size = 1 << (2 * m + n - 2).bit_length()
    spectrum = np.fft.rfft(far[1:], size) * np.fft.rfft(g[:-1].T, size)
    spectrum += np.fft.rfft(near[1:], size) * np.fft.rfft(g[1:].T, size)
    memory = np.fft.irfft(spectrum, size)[:, m - 1 : m + n].T
    return dt**alpha / math.gamma(alpha) * memory


def _trapezoid_weights(alpha, N, dt):
    """The product trapezoid rule's triple on N steps of dt, the one home of
    the solver's weights: (padded lag row, self-weight, node 0's offset)."""
    far, near = _weights(alpha, max(N, 1))  # offset 1 holds the self-weight
    scale = dt**alpha / math.gamma(alpha)
    # The weights by lag, reversed so that step n reads one contiguous slice:
    # W[N - k] = far[k] + near[k + 1] weights the node k steps back, the
    # trapezoid weight far of the step before the node plus near of the step
    # after it.  Node 0 has no step before it: W[0] = 0.  W is a view past SUB
    # zeros, on which _corrector's correlations may reach beyond lag N.
    padded = np.zeros(SUB + N + 1)
    W = padded[SUB:]
    W[1:] = (far[:-1] + near[1:])[::-1]
    W *= scale
    # Node 0 enters by its far weight alone.  The sums give it the trapezoid
    # weight W[N - m] at step m, so its offset holds far less that weight.
    node0 = scale * far[: N + 1]
    node0 -= W[::-1]
    return padded, float(scale * near[1]), node0


def _block_spectrum(W, L):
    """rfft of the weights at lags 1..2L: lag p + 1 at entry p.  Lags past N
    reach no node of the grid and are left zero."""
    N = W.shape[0] - 1
    lags = np.zeros(2 * L)
    k = min(2 * L, N)
    lags[:k] = W[N - k : N][::-1]
    return np.fft.rfft(lags)


def _jacobian(fld):
    """J's nonzero pattern (FieldDef.jacobian_pattern) and the compiled()
    lambdas of its nonzero entries, row by row."""
    pattern = fld.jacobian_pattern()
    jac = [fld.derivative(i).compiled()[k]
           for k, row in enumerate(pattern) for i, nonzero in enumerate(row) if nonzero]
    return pattern, jac


def _elimination(pattern):
    """Source lines that solve (I - w*J) delta = r, given J's nonzero entries
    in e0, e1, ...: (factor, solve, reset).  factor writes the factors of
    I - w*J into a{k}_{i}; solve overwrites r0..r(d-1) with delta from them, so
    that the factors of one J serve any number of right-hand sides.  reset,
    one line or none, assigns the factors of J = 0, constants: 1.0 on the
    diagonal and -0.0 elsewhere, fill-ins included, as factor computes them.

    Elimination without pivoting that touches only entries that are not
    structurally zero: row k is divided by its pivot, then subtracted from the
    rows below, and the upper part is substituted back.  A step of solve reads
    only factors that are final, which is why the two can run apart.  A lower
    triangular J leaves forward substitution; solve raises ZeroDivisionError
    at a zero pivot.
    """
    d = len(pattern)
    factor, solve, a = [], [], set()  # (k, i) of the nonzero entries; a missing diagonal is 1
    for n, (k, i) in enumerate((k, i) for k in range(d) for i in range(d) if pattern[k][i]):
        a.add((k, i))
        factor.append(f"a{k}_{i} = {'1.0 - ' if k == i else '-'}w * e{n}")
    for k in range(d):
        upper = [j for j in range(k + 1, d) if (k, j) in a]
        if (k, k) in a:
            solve.append(f"r{k} /= a{k}_{k}")
            factor += [f"a{k}_{j} /= a{k}_{k}" for j in upper]
        for i in range(k + 1, d):
            if (i, k) not in a:
                continue
            solve.append(f"r{i} -= a{i}_{k} * r{k}")
            for j in upper:
                if (i, j) in a:
                    factor.append(f"a{i}_{j} -= a{i}_{k} * a{k}_{j}")
                else:  # fill-in
                    a.add((i, j))
                    factor.append(f"a{i}_{j} = {'1.0 - ' if i == j else '-'}a{i}_{k} * a{k}_{j}")
    for k in reversed(range(d)):
        solve += [f"r{k} -= a{k}_{j} * r{j}" for j in range(k + 1, d) if (k, j) in a]
    a = sorted(a)
    reset = [f"{', '.join(f'a{k}_{i}' for k, i in a)} = "
             f"{', '.join('1.0' if k == i else '-0.0' for k, i in a)}"] if a else []
    return factor, solve, reset


def _explicit_step(fns, p, b, w, g):
    """The explicit step x = b + w*g(x(m-1)) that a step keeps where Newton
    gives up, and g(x); an error of g carries x as its `point`."""
    x = tuple(bi + w * gi for bi, gi in zip(b, g))
    try:
        return x, [float(f(x, p)) for f in fns]
    except (ArithmeticError, ValueError, TypeError) as exc:
        exc.point = x  # where the solve escapes
        raise


@lru_cache(maxsize=None)
def _corrector(pattern):
    """The corrector of one leaf, generated once per nonzero pattern of J
    (see _jacobian), for d = len(pattern) components.

    correct(fns, jac, p, W, fvals, xb, views, s, e, w, counts) solves the
    steps to the nodes m = max(s, 1) .. e - 1 in turn, on float locals.
    W is the weight row by lag, W[N - k] at lag k, after SUB leading zeros.
    fvals is the g history by component, shape (d, N + 1), and views holds
    flat memoryviews (format 'd') of the states, shape (N + 1, d), and of
    each row of fvals: the kernel reads and writes single values only
    through them.  Node m's equation is F(x) = x - b - w*g(x) = 0 with
    b = xb[m] + fvals[:, s:m] @ W[N + s - m : N], its offset and its in-leaf
    history.  The leaf is walked by sub-blocks of SUB nodes aligned at its
    start, and the SUB steps of a sub-block are written out one after the
    other as bodies t = 0 .. SUB - 1, each for the node m0 + t of the
    sub-block that starts at node m0.  Body t keeps its state in x{t}_i and
    g there in q{t}_i, so that the steps after it read them without a copy.
    When a sub-block other than the leaf's first starts, one np.correlate
    per component of the weight row with fvals[i, s:m0] gives the history of
    the earlier sub-blocks for all its nodes, unpacked into H{i}_0 ..
    H{i}_(SUB-1), and one slice of the leaf's offsets into c{t}_i.  Body t
    adds its own sub-block's earlier nodes on floats, exactly t lag terms
    w1*q(t-1) + ... + wt*q0 (the lag weights are read once per call), then
    that sum to H{i}_t and the result to c{t}_i.  Every body from 1 on ends
    the leaf first if m is past its last node.  Node 0, body 0 of leaf 0,
    holds the initial state and is not solved.  The kept Jacobian J* is
    J's nonzero entries e0, e1, ... (the lambdas jac) at their latest
    evaluation, at x(s - 1) (x(0) for leaf 0) when the call starts, then at
    each Newton iterate, and it is kept as the factors of I - w*J* (see
    _elimination).  A leaf-start evaluation that fails, or whose elimination
    meets a zero pivot, leaves J* = 0, and so does every step that keeps its
    explicit step, so that the factors never hold a zero pivot and a nan
    Newton iterate does not outlive its step.  A step starts with the chord
    update x = x(m-1) - delta, where (I - w*J*) delta = x(m-1) - b -
    w*g(x(m-1)) takes the stored g(x(m-1)) and the kept factors; with
    J* = 0 it is the explicit step b + w*g(x(m-1)).  It evaluates g and
    F = x - b - w*g(x) there, then while max|F| > CORRECTOR_TOL (a nan F
    does not stop it) each pass of Newton's loop evaluates J, steps by
    (I - w*J) delta = F and evaluates g and F at the result, so that a step
    is accepted only after at least one update.  max|F| is taken by
    comparisons, without a call of abs().  After CORRECTOR_MAX_ITER
    evaluations of g, a zero pivot or a failing entry of J, the step keeps
    what _explicit_step returns, the explicit step and g there, and counts
    as unconverged.  The limits and ESCAPE_THRESHOLD are read once per
    call.  g(x) then goes to fvals[:, m] and x to states[m] unless it leaves
    +-ESCAPE_THRESHOLD.  fns are the field's compiled() components.

    counts holds SolverMeta's fields but steps, in order: max iterations,
    max residual (max|F| at a step's last iterate), evaluations of g,
    unconverged steps, evaluations of J and iterations.  The call's one
    return gives them updated by its Newton loops and explicit steps, and
    the escape: None once every node is written, else (m, the state to
    clamp, whether g failed).  A state past +-ESCAPE_THRESHOLD breaks out of
    the leaf, and a failed evaluation of g (overflow, complex value) ends it
    at the iterate it was evaluated at.  Each step's chord start, one
    evaluation of g and one iteration unless g failed there (so that max
    iterations >= 1 once a step has finished), is counted by _pece_loop from
    the number of steps.
    """
    d = len(pattern)
    comps = range(d)
    n_jac = sum(map(sum, pattern))
    counts = "(max_iters, max_residual, evals, unconverged, jevals, total)"
    factor, solve, zero = _elimination(pattern)  # zero: J* = 0, whose chord start is explicit
    renew = [f"e{n} = float(j{n}(pt, p))" for n in range(n_jac)] + factor + solve

    def names(fmt, *args):
        return ", ".join(fmt.format(*args, i) for i in comps) + ","  # a tuple also for d = 1

    def indent(lines, n=1):
        return ["    " * n + line for line in lines]

    def body(t):
        """The lines that solve node m0 + t and write it out."""
        before = (t - 1) % SUB
        lines = ["m += 1", "if m >= e:", "    break"] if t else []
        for i in comps:
            own = " + ".join(f"w{lag} * q{t - lag}_{i}" for lag in range(1, t + 1))
            lines.append(f"b{i} = c{t}_{i} + " + (f"(H{i}_{t} + ({own}))" if t else f"H{i}_0"))
        chord = [*(f"r{i} = x{before}_{i} - b{i} - w * q{before}_{i}" for i in comps),
                 *solve, *(f"x{t}_{i} = x{before}_{i} - r{i}" for i in comps)]
        state = f"({names('x{}_{}', t)})"
        keep = (f"{state}, ({names('q{}_{}', t)}) = _explicit_step(fns, p, ({names('b{}')}), "
                f"w, ({names('q{}_{}', before)}))")
        # float() of a complex value (x^0.5 at x < 0) raises TypeError.
        evaluate = [f"pt = {state}",
                    *(f"q{t}_{i} = float(f{i}(pt, p))" for i in comps)]
        residual = [*(f"r{i} = x{t}_{i} - b{i} - w * q{t}_{i}" for i in comps),
                    "residual = r0 if r0 >= 0.0 else -r0"]
        for i in comps[1:]:
            residual += [f"r = r{i} if r{i} >= 0.0 else -r{i}",
                         "if r > residual or r != r:", "    residual = r"]
        newton = ["jevals += 1", "try:", *indent(renew or ["pass"]),
                  "except (ArithmeticError, ValueError, TypeError):", "    break",
                  *(f"x{t}_{i} -= r{i}" for i in comps), "iters += 1"]
        index = "m" if d == 1 else "j + {}"
        in_range = " and ".join(f"-big <= x{t}_{i} <= big" for i in comps)
        lines += [
            *chord,
            *evaluate,
            *residual,
            # The chord start's evaluation and iteration are counted by _pece_loop.
            "if not residual <= tol:  # true for nan",
            "    iters = 1",
            "    while not residual <= tol and iters < cap:",
            *indent(newton + ["evals += 1"] + evaluate + residual, 2),
            "    if not residual <= tol:  # keep the explicit step",
            *indent([*zero, "evals += 1", keep, "unconverged += 1"], 2),
            "    total += iters - 1",
            "    if iters > max_iters:",
            "        max_iters = iters",
            "if residual > max_residual:  # a nan residual leaves it",
            "    max_residual = residual",
            *(f"fv{i}[m] = q{t}_{i}" for i in comps),
            f"if not ({in_range}):  # true for nan",
            f"    escape = (m, {state}, False)",
            "    break",
            *([f"j = {d} * m"] if d > 1 else []),
            *(f"sv[{index.format(i)}] = x{t}_{i}" for i in comps),
        ]
        return lines

    history = [f"{', '.join(f'H{i}_{t}' for t in reversed(range(SUB)))} = np.correlate("
               f"W[N + s - m0 - {SUB - 1} : N], fvals[{i}, s:m0], 'valid').tolist()"
               for i in comps]
    lines = [
        "def correct(fns, jac, p, W, fvals, xb, views, s, e, w, counts):",
        f"    {names('f{}')} = fns",
        *([f"    {', '.join(f'j{n}' for n in range(n_jac))}, = jac"] if n_jac else []),
        f"    sv, {names('fv{}')} = views",
        "    N = W.shape[0] - 1",
        f"    {counts} = counts",
        "    tol, cap, big = CORRECTOR_TOL, CORRECTOR_MAX_ITER, ESCAPE_THRESHOLD",
        f"    {', '.join(f'w{lag}' for lag in range(1, SUB))}, = W[N - 1 : N - {SUB} : -1].tolist()",
        # The leaf's first sub-block has no earlier one.
        f"    {' = '.join(f'H{i}_{t}' for i in comps for t in range(SUB))} = 0.0",
        "    escape, start = None, s or 1  # node 0 holds the initial state",
        # The state and the g value that the leaf's first body reads.
        *(f"    x{SUB - 1}_{i} = x0_{i} = sv[{d} * (start - 1) + {i}]" for i in comps),
        *(f"    q{SUB - 1}_{i} = q0_{i} = fv{i}[start - 1]" for i in comps),
        f"    pt = {names('x{}_{}', 0)}",
        # J* at the state before the leaf's first step, or 0 where J fails there.
        f"    {' = '.join(f'r{i}' for i in comps)} = 0.0",
        "    jevals += 1",
        "    try:",
        *indent(renew or ["pass"], 2),
        "    except (ArithmeticError, ValueError, TypeError):",
        *indent(zero or ["pass"], 2),
        # The offsets, with zeros past the leaf's end for a last sub-block that is not full.
        f"    cs = xb[s:e].ravel().tolist() + [0.0] * {d * (SUB - 1)}",
        "    try:",
        f"        for m0 in range(s, e, {SUB}):",
        "            if m0 > s:",
        # Output j of the correlation is the history of node m0 + SUB - 1 - j.
        *indent(history, 4),
        f"            k = {d} * (m0 - s)",
        f"            {', '.join(f'c{t}_{i}' for t in range(SUB) for i in comps)}, = "
        f"cs[k : k + {d * SUB}]",
        "            m = m0",
        "            if m0:  # node 0 holds the initial state",
        *indent(body(0), 4),
        *(line for t in range(1, SUB) for line in indent(body(t), 3)),
        "    except (ArithmeticError, ValueError, TypeError) as exc:",
        '        escape = (m, getattr(exc, "point", pt), True)  # see _explicit_step',
        f"    return {counts}, escape",
    ]
    namespace = {}
    # The module's globals: the limits and _explicit_step are looked up per call.
    exec(compile("\n".join(lines), f"<corrector {pattern}>", "exec"), globals(), namespace)
    return namespace["correct"]


def _pece_loop(alpha, fld, params, forcing, dt):
    """Shared corrector recurrence; forcing has shape (N+1, d).

    The weights are `_trapezoid_weights`' triple; this loop only walks the
    grid in leaves of LEAF nodes.  A node takes its history from the
    earlier nodes of its own leaf in `_corrector`'s kernel, by
    sub-blocks of SUB nodes; the rest has already been added to its offset
    xb by FFT blocks, the convolution splitting of Hairer, Lubich & Schlichte
    1985 (SIAM J. Sci. Stat. Comput. 6:532) that Garrappa 2018 (Mathematics
    6:16) uses in his product-integration solvers.  When a leaf ends at node
    e, with L = e & -e, the block of sources [e - L, e) is convolved by FFT
    with the weight row and added to the targets [e, e + L); each source
    reaches each later target of another leaf exactly once, so a solve costs
    O(N log^2 N) rather than O(N^2).  A solve with N + 1 <= LEAF is one leaf
    and takes no FFT.  Each leaf's steps run in one call of `_corrector`'s
    generated Newton kernel for the nonzero pattern of the field's Jacobian,
    which returns the solve's counts but the chord starts, added here, and
    the escape, if any.  The kernel writes through memoryviews of the states
    and of g's rows that are made here once per solve and released at its end.

    A step whose field fails (overflow, complex value) or whose state leaves
    +-ESCAPE_THRESHOLD escapes: the clamped state is held to the grid's end.
    """
    N, d = forcing.shape[0] - 1, forcing.shape[1]
    padded, w_self, node0 = _trapezoid_weights(alpha, N, dt)

    states = np.empty((N + 1, d))
    fvals = np.empty((d, N + 1))  # g by component, so that each history is contiguous
    states[0] = forcing[0]
    escape_index, escape_sign, failed = None, 0, False
    params = tuple(params)
    check_args(fld, d, params)
    x0 = tuple(states[0].tolist())
    with np.errstate(all="ignore"):  # FieldEvalError unless real and finite at x0
        for i, fn in enumerate(fld.compiled_arrays()):
            point_value(fn, x0, params, i)
    eval_fns = fld.compiled()
    pattern, jac = _jacobian(fld)
    correct = _corrector(pattern)
    fvals[:, 0] = [float(fn(x0, params)) for fn in eval_fns]
    counts = (0, 0.0, 1, 0, 0, 0)  # SolverMeta's fields but steps; see _corrector
    spectra = {}  # L -> _block_spectrum, kept while a later block has size L
    # The kernel's flat views of the states and of g's rows, released on leaving.
    views = tuple(memoryview(a) for a in (states.reshape(-1), *fvals))

    # Overflow on the way to an escape is expected; the escape check catches it.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            xb = forcing + node0[:, None] * fvals[:, 0]
            del node0
            for s in range(0, N + 1, LEAF):  # the leaf of nodes s .. s + LEAF - 1
                if s:  # the leaf before ends here: add its block to the nodes ahead
                    L = s & -s
                    w = spectra.get(L)
                    if w is None:
                        w = _block_spectrum(padded[SUB:], L)
                        if s + 2 * L <= N:  # the leaf end s + 2L takes a block of size L too
                            spectra[L] = w
                    src = np.fft.rfft(fvals[:, s - L : s], 2 * L)
                    src *= w
                    hi = min(s + L, N + 1)
                    # Outputs L - 1 .. 2L - 2 of the circular convolution do not wrap.
                    xb[s:hi] += np.fft.irfft(src, 2 * L)[:, L - 1 : L - 1 + hi - s].T
                # The leaf's offsets are complete.  Its own earlier nodes are added
                # last, so that a one-leaf solve sums exactly as a solve without leaves.
                counts, escaped = correct(eval_fns, jac, params, padded, fvals, xb, views, s,
                                          min(s + LEAF, N + 1), w_self, counts)
                if escaped is None:
                    continue
                # nan takes the sign of the last state; +-inf clamps like any overflow.
                m, x, failed = escaped
                x = np.where(np.isnan(x), np.sign(states[m - 1]) * ESCAPE_THRESHOLD, x)
                x = np.clip(x, -ESCAPE_THRESHOLD, ESCAPE_THRESHOLD)
                states[m:] = x
                escape_index = m
                peak = x[int(np.argmax(np.abs(x)))]
                escape_sign = int(np.sign(peak)) if abs(peak) == ESCAPE_THRESHOLD else 0
                break
    finally:
        for view in views:
            view.release()

    # Each step's chord start: one evaluation of g, and one iteration unless g failed there.
    steps = escape_index or N
    finished = steps - failed
    iters, residual, evals, unconverged, jevals, total = counts
    meta = SolverMeta(max(iters, min(finished, 1)), residual, steps, evals + steps,
                      unconverged, jevals, total + finished)
    return Trajectory(alpha, dt * np.arange(N + 1), states, meta, escape_index, escape_sign)


def solve_pece(p: CaputoProblem) -> Trajectory:
    """Solve the Caputo FDE with constant term x0 (integral form AIE)."""
    n_steps = check_grid(p.t_end, p.dt)
    # A read-only view with stride 0 along the grid: _pece_loop only adds to it.
    forcing = np.broadcast_to(np.asarray(p.x0, dtype=float), (n_steps + 1, len(p.x0)))
    return _pece_loop(p.alpha, p.fld, p.params, forcing, p.dt)


def solve_svie(forcing, fld: FieldDef, params, alpha, t_end, dt) -> Trajectory:
    """Solve the forced singular Volterra equation x(t) = f(t) + I^alpha g(x).

    `forcing` is a SampledFunction; `forcing.at` resamples it onto the
    solver grid by linear interpolation.
    """
    times = dt * np.arange(check_solve(alpha, t_end, dt) + 1)
    forcing.check_covers(times[-1])
    return _pece_loop(alpha, fld, params, forcing.at(times), dt)


def convergence_order(p: CaputoProblem):
    """Empirical order: least-squares slope of log(endpoint error) vs log(dt).

    The reference is the same solver at dt / 2^ORDER_LEVELS; returns
    EXACT_ORDER when every error sits at rounding level.
    """
    ref_end = solve_pece(replace(p, dt=p.dt / 2**ORDER_LEVELS)).endpoint()
    dts = [p.dt / 2**i for i in range(ORDER_LEVELS)]
    errs = [float(np.max(np.abs(solve_pece(replace(p, dt=dt)).endpoint() - ref_end)))
            for dt in dts]
    if max(errs) < 1e-14:
        return EXACT_ORDER
    slope = np.polyfit(np.log(np.asarray(dts)), np.log(np.maximum(errs, 1e-300)), 1)[0]
    return float(slope)
