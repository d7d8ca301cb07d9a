#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-1k --seed 42 --seconds 35 --trace 0

Builds the `perfbench` package (perfbench/Cargo.toml, release profile)
into $CARGO_TARGET_DIR, or `.bench_build` when that is unset, then runs
it. The last line of standard output is the result JSON; the run's
record (spans, per-operation figures) goes to `.bench_out/`. The exit
code is the benchmark's: 0 when every output was correct, 1 when one was
not, 2 when the benchmark could not be built or run.

`--write-expected` (with `--trace 1`) records the run's outputs as the
expected outputs under perfbench/expected/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["dense-1k", "checker-ci"]
# A run must end well inside 180 s; the slowest (an untraced dense-1k,
# eight trials) takes about 45 s on a 2-core host.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tool_output(cmd):
    """First line a tool prints, or "unknown" when it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def git_rev():
    """The checkout's git revision; "unknown" when it is not a git
    checkout of its own."""
    if not (ROOT / ".git").exists():
        return "unknown"
    return tool_output(["git", "rev-parse", "HEAD"])


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if built.returncode != 0:
        fail("build failed")
    return target / "release" / "perfbench"


def check_metrics(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json
    declares for this kind of run, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in json.loads(line)["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, declared {sorted(want)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    if not (ROOT / "crates").is_dir():
        fail(f"{ROOT} holds no program to measure (no crates/)")
    binary = build()
    cmd = [str(binary),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--git-rev", git_rev(),
           "--rustc", tool_output(["rustc", "--version"])]
    if args.write_expected:
        cmd.append("--write-expected")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.rstrip("\n").splitlines()
    if not lines:
        fail(f"benchmark printed nothing (exit {proc.returncode})")
    if proc.returncode in (0, 1):
        check_metrics(lines[-1], args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
