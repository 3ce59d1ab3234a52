"""Every end-to-end metric of every workload, by name with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs run.py once per workload (untraced) and prints its metric lines; exits
nonzero if any workload fails its output gate or cannot run.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from run import HERE, ROOT
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args()
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        sys.stderr.write(proc.stderr)
        for line in proc.stdout.splitlines():
            if not line.startswith("{"):
                print(line)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
