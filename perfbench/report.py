"""Run every benchmark workload, each in a fresh process, and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1] [--workload NAME ...]

Prints one line per metric (workload, name, value, unit) plus the
oracle's ``error_rate`` (iterations whose digest differed from the
reference, or were missing, over iterations attempted).  Exits 1 if any
workload's ``error_rate`` is above 0, its run was not correct, or it
failed to produce a result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("galaxy_render", "volunteer_chaos", "tcp_loopback")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload in its own interpreter (fresh peak RSS and registries)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    for line in lines[:-1]:
        if line.startswith("#"):
            print(line)
    sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args(argv)
    ok = True
    for name in args.workload or WORKLOADS:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"{name:16s} FAILED: {exc}")
            ok = False
            continue
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:36s} {m['value']:14.6g} {m['unit']}")
        error_rate = result["failed"] / result["attempted"]
        print(f"{name:16s} {'error_rate':36s} {error_rate:14.6g} fraction"
              f"  ({result['failed']}/{result['attempted']} iterations, "
              f"correct={result['correct']})")
        ok &= error_rate == 0 and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
