"""coxanc benchmark: one command for every workload, metrics named with units.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere in a checkout; it measures the coxanc under src/ of that
checkout.  Each workload runs in fresh interpreters pinned to one thread:
one that measures, and others that only set up, to time set-up over the whole
run; they run before it, after it and while it waits between iterations.  The
last line of output is one JSON object with correct, attempted, failed and
metrics: the end-to-end metrics, or with --trace 1 the per-layer metrics of
one traced iteration.  See perfbench/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper-sweep", "element-d7", "graph-word")
SETUP_PROBES = 4  # set-up-only processes before the measuring one, and again after it
BETWEEN_PROBES = 3  # set-up-only processes while it waits between two iterations
PAUSE = b"pause\n"  # the measuring process prints this between iterations, then waits
RUN_LIMIT_S = 170  # every run of one workload ends within this
# Gated in BENCHMARK.json.  The latency metrics below are printed but not gated:
# the host's speed drifts enough that their run-to-run spread reaches the
# largest bound allowed (see BASELINE.md).
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PRINTED_UNITS = {"first_result_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms"}


class BenchError(Exception):
    pass


def _child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
           deadline: float, between=None) -> tuple[dict, int]:
    """Run workloads.py in a fresh interpreter; its JSON result and peak RSS in KiB.

    The measuring process stops between iterations and waits while `between()`
    runs here; then it goes on.
    """
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    lines = []
    try:
        for line in proc.stdout:
            if line == PAUSE:
                if between is not None:
                    between()
                proc.stdin.write(b"go\n")
                proc.stdin.flush()
            else:
                lines.append(line.decode())
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{workload} process exited with {proc.returncode}")
    if not lines:
        raise BenchError(f"{workload} process printed no result")
    return json.loads(lines[-1]), usage.ru_maxrss


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S

    def probes(count):
        return [_child(workload, seed, seconds, 0, True, deadline)[0]["setup_s"]
                for _ in range(count)]

    # The host's speed changes within seconds, so set-up is timed at several
    # points of the run: before, between the measured iterations and after.
    setups = probes(SETUP_PROBES)
    raw, maxrss_kib = _child(workload, seed, seconds, trace, False, deadline,
                             between=lambda: setups.extend(probes(BETWEEN_PROBES)))
    setups += probes(SETUP_PROBES) + [raw["setup_s"]]
    return summarize(workload, seed, seconds, trace, raw, setups, maxrss_kib)


def summarize(workload: str, seed: int, seconds: float, trace: int, raw: dict,
              setups: list[float], maxrss_kib: int) -> dict:
    """Print every metric with its note and return the run's result object."""
    lat = raw["latency_s"]
    # An operation that raised leaves no latency sample, so a failing run can
    # have fewer than min_samples; its failures show in fail_ratio.
    tail_p = stats.tail_percentile(min(len(lat), raw["min_samples"]))
    notes = {
        "setup_s": f"median of {len(setups)} set-ups, each in a fresh interpreter: "
                   f"before the measuring process, its own, between its iterations and after",
        "wall_s": f"median of {len(raw['wall_s'])} iterations",
        "peak_rss_mb": "peak RSS of the measuring process",
        "first_result_s": "median over iterations, from iteration start to the first answer",
        "op_p50_ms": f"p50 of n={len(lat)} operations",
        "op_tail_ms": f"p{tail_p:g} of n={len(lat)} operations: the highest percentile "
                      f"with >= {stats.MIN_ABOVE} samples above it in {raw['min_samples']}, "
                      f"else the maximum",
    }
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(raw["wall_s"]),
        "peak_rss_mb": maxrss_kib / 1024.0,
        "first_result_s": statistics.median(raw["first_result_s"]),
    }
    if lat:  # no samples when every operation raised
        values["op_p50_ms"] = stats.percentile(lat, 50) * 1000.0
        values["op_tail_ms"] = stats.percentile(lat, tail_p) * 1000.0
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    printed = {name: _metric(values[name], unit) for name, unit in PRINTED_UNITS.items()
               if name in values}
    for name in printed:
        notes[name] += "; printed, not gated"
    if trace:
        metrics = {name: _metric(v, unit) for name, (v, unit, _) in raw["per_layer"].items()}
        notes = {name: note for name, (_, _, note) in raw["per_layer"].items()}
        printed = {}
    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}  "
          f"iterations {len(raw['wall_s'])}")
    for name, m in {**metrics, **printed}.items():
        print(f"  {name:40s} {m['value']:14.6f} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'fail_ratio':40s} {failed / max(attempted, 1):14.6f} {'':6s} "
          f"{failed} failed / {attempted} attempted")
    for problem in raw["problems"]:
        print(f"  problem: {problem}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coxanc" / "__init__.py").is_file():
        print(f"no coxanc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
