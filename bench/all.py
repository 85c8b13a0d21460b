"""Run every workload of the benchmark, each in its own process.

    python3 bench/all.py --seed 1 --seconds 55 --trace 0

A separate process per workload keeps peak_rss_mb a property of that
workload alone. Each run's full output is printed in turn; the exit code
is nonzero if any run failed, printed no result, or found a wrong output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", default="55")
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
