"""Command-line front end: simulation, analysis and verification.

Exit codes: 0 success, 1 verification failure, 2 usage error (an unwritable
--out path, an unresolvable preimage and a warning made an error included).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from . import bifurcation as bif
from . import catalog
from . import scalar_analysis as sa
from .caputo_solver import CaputoProblem, solve_pece
from .field_expr import FieldDef, FieldEvalError, ParseError, parse_expr
from .function_space_semigroup import RhoParams, semigroup_defects, state_space_defect
from .mittag_leffler import MLConvergenceError, MLOverflowError, ml
from .triangular_systems import TriangularField, validate_triangular
from .verification import run_checks

FMT = "%.15g"
CSV_CHUNK = 4096  # rows formatted per write


def _fmt(v):
    return FMT % v


def _write_csv(path, header, table, line=None):
    """Write the header, then the rows of an (n, k) array, CSV_CHUNK at a time.

    Each row is formatted by `line`, FMT in every column by default; a table
    with a text column is an object array with its own `line`.
    """
    line = (line or ",".join([FMT] * len(header))) + "\n"
    with (open(path, "w", newline="") if path not in (None, "-")
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.write(",".join(header) + "\n")
        for i in range(0, len(table), CSV_CHUNK):
            rows = table[i : i + CSV_CHUNK]
            fh.write((line * len(rows)) % tuple(rows.ravel().tolist()))


def _emit_json(obj):
    json.dump(obj, sys.stdout, indent=2, default=float)
    sys.stdout.write("\n")


def _parse_params(pairs):
    names, values = [], []
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--param expects name=value, got '{pair}'")
        name, _, value = pair.partition("=")
        name = name.strip()
        if name in names:
            raise ValueError(f"--param '{name}' is given more than once")
        names.append(name)
        values.append(float(value))
    return names, values


def _flag_values(flag, text, form, kinds=None):
    """The values of a flag's text: floats separated by commas, or one field
    per converter of kinds, separated by colons.  An error names the flag and
    the form it expects."""
    fields = text.split(":" if kinds else ",")
    try:
        return [kind(v) for kind, v in zip(kinds or [float] * len(fields), fields, strict=True)]
    except ValueError:
        raise ValueError(f"{flag} expects {form}, got '{text}'") from None


def _add_field_args(p, catalog_flag=True):
    if catalog_flag:
        p.add_argument("--catalog", help="named catalog field (a triangular one assembled)")
    p.add_argument("--component", action="append", default=[],
                   help="component expression (repeat per coordinate)")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE", help="parameter value (repeatable)")


def _resolve_field(args, parser, name, source="--catalog"):
    """(FieldDef, params tuple, catalog entry or None) from the catalog entry
    `name` or from --component, with --param.

    A triangular entry gives its assembled field.  --param overrides an
    entry's declared parameters and declares those of --component.
    """
    if bool(name) == bool(args.component):
        parser.error(f"exactly one of {source} or --component is required")
    names, values = _parse_params(args.param)
    if not name:
        return FieldDef.parse(args.component, tuple(names)), tuple(values), None
    entry = catalog.get(name)
    fld = entry.fld.assembled() if entry.triangular else entry.fld
    params = list(entry.default_params)
    for n, v in zip(names, values):
        if n not in fld.params:
            parser.error(f"field has no parameter '{n}'")
        params[fld.params.index(n)] = v
    return fld, tuple(params), entry


# ---------------------------------------------------------------------------
# Subcommands


def cmd_ml(args, parser):
    if args.batch:
        if args.alpha is not None or args.beta is not None or args.z is not None:
            parser.error("--batch reads alpha, beta and z from stdin; "
                         "drop --alpha, --beta and --z")
        rows = []
        for n, line in enumerate(sys.stdin, 1):
            if not line.strip():
                continue
            try:
                a, b, z = (float(tok) for tok in line.split())
            except ValueError:
                raise ValueError(f"stdin line {n}: expected 'alpha beta z', "
                                 f"got '{line.strip()}'") from None
            rows.append((a, b, z, ml(a, b, z)))
        _write_csv(None, ["alpha", "beta", "z", "value"], np.array(rows))
        return 0
    if args.alpha is None or args.z is None:
        parser.error("--alpha and --z are required unless --batch is given")
    beta = 1.0 if args.beta is None else args.beta
    print(_fmt(ml(args.alpha, beta, args.z)))
    return 0


def cmd_simulate(args, parser):
    x0 = tuple(_flag_values("--x0", args.x0, "comma-separated numbers"))
    fld, params, _ = _resolve_field(args, parser, args.catalog)
    p = CaputoProblem(args.alpha, fld, params, x0, args.t_end, args.dt)
    start = time.perf_counter()
    traj = solve_pece(p)
    solved = time.perf_counter()
    header = ["t"] + [f"x{i + 1}" for i in range(fld.dimension)]
    _write_csv(args.out, header, np.column_stack((traj.times, traj.states)))
    written = time.perf_counter()
    if traj.escape_index is not None:
        t = traj.times[traj.escape_index]
        print(f"escape at t={t:.6g} (sign {traj.escape_sign:+d})" if traj.escape_sign
              else f"field failed at t={t:.6g}; state held from there", file=sys.stderr)
    if args.stats:
        stats = {**dataclasses.asdict(traj.meta), "escape_index": traj.escape_index,
                 "solve_s": solved - start, "csv_s": written - solved}
        print(json.dumps(stats), file=sys.stderr)
    return 0


def _scan_from_args(args, entry):
    if args.scan:
        return tuple(_flag_values("--scan", args.scan, "lo:hi", (float, float)))
    if entry is not None:
        return entry.scan_interval
    return (-10.0, 10.0)


def cmd_attractor(args, parser):
    fld, params, entry = _resolve_field(args, parser, args.catalog)
    scan = _scan_from_args(args, entry)
    zs = sa.find_zeros(fld, scan, params=params)
    iv = sa.attractor_interval(zs)
    _emit_json({
        "version": __version__,
        "config": {"scan": list(scan)},
        "zeros": list(zs.zeros),
        "derivatives": list(zs.derivs),
        "stable": list(zs.stable()),
        "attractor": [iv.lo, iv.hi],
    })
    return 0


def cmd_limits(args, parser):
    fld, params, entry = _resolve_field(args, parser, args.catalog)
    scan = _scan_from_args(args, entry)
    zs = sa.find_zeros(fld, scan, params=params)
    etas = _flag_values("--eta", args.eta, "comma-separated numbers")
    _emit_json({
        "version": __version__,
        "config": {"scan": list(scan), "eta": etas},
        "limits": [sa.classify_limit(fld, zs, eta, params) for eta in etas],
    })
    return 0


def cmd_heteroclinic(args, parser):
    fld, params, entry = _resolve_field(args, parser, args.catalog)
    scan = _scan_from_args(args, entry)
    zs = sa.find_zeros(fld, scan, params=params)
    orbit = sa.heteroclinic_orbit(
        fld, args.alpha, zs, args.eta, args.t_back, args.t_fwd, args.dt, params=params)
    if args.out:
        _write_csv(args.out, ["t", "x1"], np.column_stack((orbit.times, orbit.values)))
    _emit_json({
        "version": __version__,
        "config": {"alpha": args.alpha, "eta": args.eta,
                   "t_back": args.t_back, "t_fwd": args.t_fwd, "dt": args.dt},
        "source": orbit.source,
        "target": orbit.target,
        "backward_endpoint": float(orbit.values[0]),
        "forward_endpoint": float(orbit.values[-1]),
        "forward_gap": abs(float(orbit.values[-1]) - orbit.target),
        "backward_solves": sum(orbit.solves),
    })
    return 0


def cmd_triangular(args, parser):
    if bool(args.catalog) == bool(args.f or args.h):
        parser.error("exactly one of --catalog or --f/--h expressions is required")
    if args.alpha is not None and not args.x0:
        parser.error("--alpha needs --x0, the seed to solve from")
    if args.alpha is None and (args.out or args.t_end is not None or args.dt is not None):
        parser.error("--out, --t-end and --dt need --alpha, the order of the solve")
    t_end = 500.0 if args.t_end is None else args.t_end
    dt = 0.05 if args.dt is None else args.dt
    if args.catalog:
        entry = catalog.get(args.catalog)
        if not entry.triangular:
            parser.error(f"catalog field '{args.catalog}' is scalar")
        tf = entry.fld
    else:
        d = len(args.f)
        hs = list(args.h) + ["1"] * (d - len(args.h))
        tf = TriangularField(
            d,
            tuple(parse_expr(h, d) for h in hs),
            tuple(parse_expr(f, d) for f in args.f),
        )
    box = [(-3.0, 3.0)] * tf.dimension
    report = validate_triangular(tf, box)
    out = {
        "version": __version__,
        "config": {"dimension": tf.dimension},
        "h_signs": list(report.h_signs),
        "attractor_box": [[iv.lo, iv.hi] for iv in report.attractor().intervals],
    }
    if args.x0:
        x0 = tuple(_flag_values("--x0", args.x0, "comma-separated numbers"))
        out["predicted_limits"] = list(report.limits(x0))
    if args.alpha is not None:
        traj = solve_pece(CaputoProblem(args.alpha, tf.assembled(), (), x0, t_end, dt))
        out["solver_endpoint"] = [float(v) for v in traj.endpoint()]
    if args.out:
        header = ["t"] + [f"x{i + 1}" for i in range(tf.dimension)]
        _write_csv(args.out, header, np.column_stack((traj.times, traj.states)))
    _emit_json(out)
    return 0


def cmd_bifurcate(args, parser):
    custom = args.family == "custom"
    if bif.GAMMA in _parse_params(args.param)[0]:
        parser.error(f"--param {bif.GAMMA} is the swept parameter; "
                     "give its values with --gamma-range")
    if custom:
        args.param.insert(0, f"{bif.GAMMA}=0")  # declared; sweep sets its values
    fld, params, _ = _resolve_field(args, parser, None if custom else args.family,
                                    "a named --family")
    lo, hi, m = _flag_values("--gamma-range", args.gamma_range, "LO:HI:M with an integer M",
                             (float, float, int))
    diag = bif.sweep(fld, (lo, hi), m, base_params=params)
    fold = bif.fold(diag)  # solved once: classify reads the one kept on diag
    label = bif.classify(diag)
    rows = [(gam, z, "degenerate" if flat else "stable" if d < 0 else "unstable")
            for gam, zs in zip(diag.gammas.tolist(), diag.zero_sets)
            for z, d, flat in zip(zs.zeros, zs.derivs, zs.degenerate())]
    if args.out:
        _write_csv(args.out, ["gamma", "zero", "stability"],
                   np.array(rows, dtype=object).reshape(-1, 3), f"{FMT},{FMT},%s")
    _emit_json({
        "version": __version__,
        "config": {"family": args.family, "gamma_range": args.gamma_range},
        "classification": label,
        "fold": None if fold is None else list(fold),
        "zero_counts": diag.counts(),
    })
    return 0


def cmd_semigroup(args, parser):
    fld, params, _ = _resolve_field(args, parser, args.catalog)
    defects = semigroup_defects(args.tau1, args.tau2, [args.f0] * fld.dimension, fld, params,
                                args.alpha, args.dt0, args.dt_levels,
                                RhoParams(n_max=args.n_max))
    ratios = [defects[i] / defects[i + 1] if defects[i + 1] > 0 else float("inf")
              for i in range(len(defects) - 1)]
    _emit_json({
        "version": __version__,
        "config": {"alpha": args.alpha, "tau1": args.tau1, "tau2": args.tau2,
                   "dt0": args.dt0, "dt_levels": args.dt_levels},
        "defects": defects,
        "ratios": ratios,
        "state_space_defect": state_space_defect(args.alpha, 1.0, 1.0, 1.0),
    })
    return 0


def cmd_verify(args, parser):
    try:
        results = run_checks(suite=args.suite, fault=args.fault)
    except ValueError as exc:
        parser.error(str(exc))
    report = {
        "version": __version__,
        "config": {"suite": args.suite or "quick", "fault": args.fault},
        "results": [r.to_record() for r in results],
    }
    _emit_json(report)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fracdyn",
        description="Numerical dynamics of Caputo fractional differential equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)  # 1 unless given
    p.add_argument("--z", type=float)
    p.add_argument("--batch", action="store_true",
                   help="read 'alpha beta z' lines from stdin, emit CSV")
    p.set_defaults(fn=cmd_ml)

    p = sub.add_parser("simulate", help="solve a Caputo initial value problem")
    _add_field_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial value")
    p.add_argument("--t-end", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", help="CSV output path ('-' for stdout)")
    p.add_argument("--stats", action="store_true",
                   help="print the solver's counts and the seconds spent solving and "
                        "writing the CSV as one JSON object on stderr")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("attractor", help="zero set and attractor interval")
    _add_field_args(p)
    p.add_argument("--scan", help="scan interval lo:hi")
    p.set_defaults(fn=cmd_attractor)

    p = sub.add_parser("limits", help="predicted limits of given seeds")
    _add_field_args(p)
    p.add_argument("--eta", required=True, help="comma-separated seeds")
    p.add_argument("--scan", help="scan interval lo:hi")
    p.set_defaults(fn=cmd_limits)

    p = sub.add_parser("heteroclinic", help="heteroclinic orbit through a seed")
    _add_field_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--t-back", type=float, default=50.0)
    p.add_argument("--t-fwd", type=float, default=100.0)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--scan", help="scan interval lo:hi")
    p.add_argument("--out", help="orbit CSV output path")
    p.set_defaults(fn=cmd_heteroclinic)

    p = sub.add_parser("triangular", help="product attractor of a triangular field")
    p.add_argument("--catalog", help="named triangular catalog field")
    p.add_argument("--h", action="append", default=[], metavar="EXPR",
                   help="prefactor h_i expression (repeat per coordinate; "
                        "missing trailing ones are 1)")
    p.add_argument("--f", action="append", default=[], metavar="EXPR",
                   help="scalar factor f_i expression (repeat per coordinate)")
    p.add_argument("--x0", help="comma-separated seed for limit prediction")
    p.add_argument("--alpha", type=float)
    p.add_argument("--t-end", type=float)  # 500 unless given
    p.add_argument("--dt", type=float)  # 0.05 unless given
    p.add_argument("--out", help="orbit CSV output path")
    p.set_defaults(fn=cmd_triangular)

    p = sub.add_parser("bifurcate", help="one-parameter bifurcation sweep")
    p.add_argument("--family", required=True, choices=("saddle", "pitchfork", "custom"),
                   help="a catalog family, or custom: --component in x and gamma")
    p.add_argument("--gamma-range", required=True, metavar="LO:HI:M")
    _add_field_args(p, catalog_flag=False)
    p.add_argument("--out", help="CSV output path (gamma,zero,stability)")
    p.set_defaults(fn=cmd_bifurcate)

    p = sub.add_parser("semigroup", help="function-space semigroup defect study")
    _add_field_args(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tau1", type=float, default=0.5)
    p.add_argument("--tau2", type=float, default=0.5)
    p.add_argument("--dt0", type=float, default=0.05)
    p.add_argument("--dt-levels", type=int, default=3)
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--f0", type=float, default=1.0,
                   help="constant forcing value")
    p.set_defaults(fn=cmd_semigroup)

    p = sub.add_parser("verify", help="run the invariant battery")
    p.add_argument("--suite", help="run one suite (ml, solver, scalar, triangular, "
                                   "bifurcation, semigroup, paper); default: all "
                                   "but paper")
    p.add_argument("--fault", help="inject a named fault (inflate-gamma)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # each warning the filters let through, as its message
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args, parser)
        except BrokenPipeError:
            # The reader of stdout left early (`--out - | head`): stop quietly.
            # stdout goes to devnull, so that the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (ParseError, ValueError, KeyError, FieldEvalError, MLOverflowError,
                MLConvergenceError, sa.BracketFailureError, OSError, Warning) as exc:
            parser.exit(2, f"error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
