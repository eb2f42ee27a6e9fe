"""Steadiness mode: run the workloads interleaved and summarize each metric.

    python3 bench/steady.py --runs 10 [--workloads ensemble,envelopes]
                            [--seed0 1] [--seconds 30] [--trace 0]

Run from the repository root.  Round r runs every workload once with seed
``seed0 + r``, rotating the workload order from round to round, each run in
its own process, one at a time.  For every workload and metric it prints
the median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median, checks the spread of each end-to-end metric except
``setup_s`` against a third of its bound in BENCHMARK.json, and writes the
whole table to ``.bench_out/steady-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            line = _run(w, args.seed0 + r, args.seconds, args.trace)
            runs[w].append(line)
            print(f"round {r + 1}/{args.runs} {w} seed {args.seed0 + r}: "
                  f"{line['failed']} of {line['attempted']} tasks failed", flush=True)

    table = {}
    steady = True
    for w in workloads:
        attempted = sum(x["attempted"] for x in runs[w])
        failed = sum(x["failed"] for x in runs[w])
        table[w] = {"failed_frac": failed / attempted, "metrics": {}}
        print(f"\n{w}: failed_frac {failed / attempted:.4g} ({failed} of {attempted} tasks)")
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
        for name, m in runs[w][0]["metrics"].items():
            s = summarize([x["metrics"][name]["value"] for x in runs[w]])
            table[w]["metrics"][name] = dict(s, unit=m["unit"])
            flag = ""
            if name in bounds and name != "setup_s":
                ok = s["spread"] < bounds[name] / 3.0
                steady &= ok
                flag = f"  bound {bounds[name]}" + ("" if ok else "  NOT STEADY")
            print(f"  {name:<42} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f}  {m['unit']}{flag}")
    out = Path(".bench_out")
    out.mkdir(exist_ok=True)
    path = out / f"steady-trace{args.trace}.json"
    path.write_text(json.dumps({"args": vars(args), "steady": steady, "table": table},
                               indent=1) + "\n")
    print(f"\nsteady: {steady}; table written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
