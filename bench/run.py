"""fracdyn benchmark: one workload, closed loop, one task at a time.

    python3 bench/run.py --workload ensemble --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A report with
the environment record, every metric and (traced) the spans is written to
``.bench_out/``.

Timing: a pass runs every task of the workload once, in an order drawn from
the seed; passes repeat while another one fits in ``--seconds`` (at least
one runs).  ``setup_s`` is the median of several fresh-process set-ups
(interpreter start, imports, field parse and compile, input generation and
warm-up).  End-to-end times are scaled to a fixed host speed (``speed.py``).
The traced run executes each task twice in a row, untraced and then traced,
so that ``trace.overhead_frac`` compares neighbouring runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import warnings
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one BLAS thread, set before numpy loads
    os.environ.setdefault(_var, "1")

from speed import SpeedProbe  # noqa: E402  (loads numpy: after the thread settings)

SETUP_REPEATS = 3
OUT_DIR = ".bench_out"


def _fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program(root):
    src = root / "src"
    if not (src / "fracdyn" / "__init__.py").is_file():
        _fail(f"no fracdyn sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import fracdyn

    if Path(fracdyn.__file__).resolve().parent != (src / "fracdyn").resolve():
        _fail(f"imported fracdyn from {fracdyn.__file__}, not from {src}")


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and exit; used to time set-up in a fresh process")
    return p.parse_args(argv)


def _setup(args, work_dir):
    import workloads

    wl = workloads.build(args.workload, args.seed, work_dir)
    workloads.warm_up()
    return wl


def _time_setups(args, root):
    """Set-up times of fresh processes, scaled to nominal host speed by the
    speed each child measured on its own CPU."""
    import subprocess

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True,
                             timeout=120)
        speed = json.loads(out.stdout.strip().splitlines()[-1])["speed"]
        samples.append((time.perf_counter() - t0) * speed)
    return samples


def _prepare():
    # The saddle field has two zeros by design; find_zeros warns on every scan.
    warnings.filterwarnings("ignore", message="found an even number of zeros")
    root = Path.cwd()
    _import_program(root)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    return root, out_dir


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_only:
        with SpeedProbe() as probe:  # sampling from before the imports on
            _, out_dir = _prepare()
            with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
                _setup(args, work_dir)
        print(json.dumps({"speed": probe.speed()}))
        return 0
    root, out_dir = _prepare()
    import report

    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        wl = _setup(args, work_dir)
        if args.trace:
            result = report.traced_run(wl, args.seconds)
        else:
            result = report.untraced_run(wl, args.seconds, _time_setups(args, root))
    env = report.environment(args.seed, root, THREAD_VARS)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report.write(out_dir / f"{name}.json", env, args, result)
    report.print_summary(args.workload, env, result)
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
