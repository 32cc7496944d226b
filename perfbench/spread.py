"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload element-d7 --seeds 1 2 3 4 5 [--seconds 20]

Spread is the interquartile distance as a share of the median, over the runs,
with quartiles from statistics.quantiles(values, n=4).  The metrics that are
printed but not gated are read from run.py's text lines.  Each run's JSON line
is appended to --log, if given, so that a comparison can be redone later.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import stats

RUN = Path(__file__).resolve().with_name("run.py")


def printed_metrics(stdout: str) -> dict[str, dict]:
    """The printed-only metrics, from run.py's lines of the form `name value unit note`."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in run.PRINTED_UNITS:
            out[parts[0]] = {"value": float(parts[1]), "unit": parts[2]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--log", type=Path, default=None)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        line = proc.stdout.strip().splitlines()[-1]
        result = json.loads(line)
        printed = printed_metrics(proc.stdout)
        if args.log:
            with args.log.open("a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **result,
                                     "printed": printed}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        for name, m in {**result["metrics"], **printed}.items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{args.workload}: {len(args.seeds)} seeds")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"  {name:16s} median {med:12.4f} {units[name]:3s} q1 {q1:12.4f} q3 {q3:12.4f} "
              f"spread {stats.spread(xs):.4f}  min {min(xs):.4f} max {max(xs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
