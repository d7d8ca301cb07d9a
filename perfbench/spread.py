#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py untraced once per seed (seeds first-seed,
first-seed+1, ...) for each workload, then prints per metric the median,
the distance between the first and third quartiles as a share of the
median (Python's statistics.quantiles, n=4), and that spread against a
third of the metric's bound in BENCHMARK.json. The exit code is 1 when
any spread is wider.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for w in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                sys.exit(1)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread <= bounds[name] / 3
            steady &= ok
            print(f"{w:12} {name:13} median {med:<14.6g} spread {spread:7.4f} "
                  f"bound/3 {bounds[name] / 3:.4f} {'ok' if ok else 'WIDE'}")
        print(json.dumps({"workload": w, "values": values}))
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
