"""The moddata benchmark.

    python3 perfbench/run.py --workload golden_check --seed 1 --seconds 20 --trace 0

Runs passes of the workload, each in a fresh interpreter (worker.py), until
``--seconds`` have been measured, checks every item's output against the
reference recorded in ``reference.json``, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
one untraced and one traced pass are run and the metrics are the per-layer
figures of the traced pass plus the tracing overhead.  Lines before the last
give the environment and every metric by name with its unit.

Exit codes: 0 all outputs match, 1 a mismatch or a failed item, 2 the
program is missing or a pass could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
# set-up is timed in every pass and, if a run has fewer passes, in extra
# set-up-only starts, so that setup_s is a median of at least this many
MIN_SETUPS = 15

# Set-up is import work (reading and unmarshalling modules, running module
# bodies, loading extension modules), whose speed the probe loop in worker.py
# does not track. Each start is scaled instead by a reference start made just
# before it: a fresh isolated interpreter importing stdlib modules, which no
# change to moddata can touch. setup_s is in seconds at the speed at which the
# reference start takes REFERENCE_START_S, about its median on the machine
# described in README.md.
REFERENCE_START = (
    "import argparse, asyncio, csv, ctypes, dataclasses, decimal, email.parser, "
    "fractions, http.client, inspect, json, logging, pickle, random, sqlite3, ssl, "
    "statistics, tarfile, typing, unittest, urllib.request, xml.etree.ElementTree, zipfile"
)
REFERENCE_START_S = 0.165

# item_tail_s reads the highest percentile that leaves ten samples beyond
# it, but never one below p90 (a run of few items has no ten-sample tail)
TAIL_MIN_QUANTILE = 0.9
TAIL_BEYOND = 10

# traced-pass figures reported as per-layer metrics, in BENCHMARK.json order
PER_LAYER = (
    ("cyclotomic.init.calls", "count"),
    ("cyclotomic.mul.calls", "count"),
    ("cyclotomic.add.calls", "count"),
    ("cyclotomic.inverse.calls", "count"),
    ("cyclotomic.galois.calls", "count"),
    ("cyclotomic.rou.calls", "count"),
    ("cyclotomic.rou.total_s", "s"),
    ("cyclotomic.self_s", "s"),
    ("matrix.matmul.calls", "count"),
    ("matrix.mat_pow.calls", "count"),
    ("matrix.total_s", "s"),
    ("matrix.self_s", "s"),
    ("modular_data.fs_indicator.calls", "count"),
    ("modular_data.fs_indicator.total_s", "s"),
    ("modular_data.verlinde_fusion.total_s", "s"),
    ("modular_data.check_admissible.total_s", "s"),
    ("modular_data.load.total_s", "s"),
    ("modular_data.self_s", "s"),
    ("modular_data.derived_scalars.hit_ratio", "ratio"),
    ("modular_data.verlinde_fusion.hit_ratio", "ratio"),
    ("sl2z_reps.normalize.hit_ratio", "ratio"),
    ("galois.compute_profile.total_s", "s"),
    ("galois.galois_twist_symmetry.total_s", "s"),
    ("galois.self_s", "s"),
    ("sl2z_reps.normalize.calls", "count"),
    ("sl2z_reps.normalize.total_s", "s"),
    ("sl2z_reps.all_lifts.total_s", "s"),
    ("sl2z_reps.verify_relations.calls", "count"),
    ("sl2z_reps.verify_relations.total_s", "s"),
    ("sl2z_reps.self_s", "s"),
    ("classifier.vanishing_sum_scan.total_s", "s"),
    ("classifier.self_s", "s"),
    ("catalog.total_s", "s"),
    ("field_theory.total_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead", "ratio"),
)

# The per-layer self times of a traced pass must add up to its item time:
# what is left is the benchmark's own loop plus the wrappers' bookkeeping
# outside the root spans.
ACCOUNTING_TOLERANCE = 0.02


class BenchError(RuntimeError):
    """A pass could not run; no result is printed."""


def tail(samples: list[float]) -> tuple[float, float]:
    """(quantile, value) of item_tail_s for pooled item latencies."""
    n = len(samples)
    q = max(TAIL_MIN_QUANTILE, 1.0 - TAIL_BEYOND / n)
    rank = min(n, math.ceil(q * n))
    return q, sorted(samples)[rank - 1]


def reference_start(deadline: float) -> float:
    """Seconds of one start of a fresh interpreter running REFERENCE_START."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", REFERENCE_START],
            capture_output=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError("the reference start exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"the reference start failed:\n{proc.stderr.decode().strip()}")
    return time.clock_gettime(time.CLOCK_MONOTONIC) - start


def run_pass(
    args, index: int, trace: bool, deadline: float, setup_only: bool = False
) -> tuple[dict, float]:
    """Run one worker; return its report and its scaled set-up seconds."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass-index", str(index),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        cmd += ["--trace", "--spans", str(OUT_DIR / f"spans_{args.workload}.npz")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    reference_s = reference_start(deadline)
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} exceeded the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"pass {index} exited with {proc.returncode}:\n{proc.stderr.strip()}"
        )
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, (report["ready"] - spawned) * REFERENCE_START_S / reference_s


def gate(reports: list[dict], reference: dict) -> list[str]:
    """Compare every item output with the reference; return the mismatches."""
    problems = []
    for report in reports:
        for item in report["items"]:
            if item["error"] is not None:
                problems.append(f"{item['id']}: raised {item['error']}")
            elif item["id"] not in reference:
                problems.append(f"{item['id']}: no reference output")
            elif item["output"] != reference[item["id"]]:
                problems.append(f"{item['id']}: output differs from the reference")
    return problems


def environment(seed: int, reports: list[dict]) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    # read here, not in the measured worker (the same interpreter), so that
    # its set-up and memory count only what moddata imports
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "seed": seed,
        **reports[0]["env"],
    }


def end_to_end(reports: list[dict], setups: list[float], failed: int, attempted: int):
    latencies = [item["seconds"] for r in reports for item in r["items"]]
    q, tail_s = tail(latencies)
    metrics = {
        "solve_s": (statistics.median(r["solve_s"] for r in reports), "s"),
        "item_p50_s": (statistics.median(latencies), "s"),
        "item_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (statistics.median(r["rss_mib"] for r in reports), "MiB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "passes": len(reports),
        "items": len(latencies),
        "tail_quantile": q,
        "fail_ratio": failed / attempted,
        "solve_s_per_pass": [r["solve_s"] for r in reports],
        "raw_solve_s_per_pass": [r["raw_solve_s"] for r in reports],
        "setup_s_per_start": setups,
        "raw_item_p50_s": statistics.median(
            item["raw_s"] for r in reports for item in r["items"]
        ),
    }
    return metrics, details


def per_layer(untraced: dict, traced: dict) -> tuple[dict, dict]:
    t = traced["trace"]
    figures = dict(t["figures"])
    figures["trace.overhead"] = traced["solve_s"] / untraced["solve_s"]
    # a figure no wrapper produced is missing, not zero: a renamed or
    # unreadable function must not pass for a gain
    missing = [name for name, _ in PER_LAYER if name not in figures]
    if missing:
        raise BenchError(f"traced pass produced no figure for {', '.join(missing)}")
    metrics = {name: (figures[name], unit) for name, unit in PER_LAYER}
    unaccounted = 1.0 - t["items_self_s"] / t["items_s"]
    details = {
        "all_figures": figures,
        "items_s": t["items_s"],
        "items_self_s": t["items_self_s"],
        "unaccounted_share": unaccounted,
        "accounting_tolerance": ACCOUNTING_TOLERANCE,
    }
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one short pass on tiny inputs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "moddata" / "__init__.py").is_file():
        print(f"error: no moddata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text("utf-8"))
    section = "smoke" if args.smoke else "full"
    if args.workload not in reference[section]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reports, setups = [], []
    try:
        if args.trace:
            for index, traced in enumerate((False, True)):
                report, _ = run_pass(args, index, traced, deadline)
                reports.append(report)
        else:
            measured = 0.0
            while not reports or (measured < args.seconds and not args.smoke):
                report, setup = run_pass(args, len(reports), False, deadline)
                reports.append(report)
                setups.append(setup)
                measured = time.monotonic() - start
            while len(setups) < MIN_SETUPS and not args.smoke:
                _, setup = run_pass(args, len(setups), False, deadline, True)
                setups.append(setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    problems = gate(reports, reference[section][args.workload])
    attempted = sum(len(r["items"]) for r in reports)
    failed = len(problems)
    if args.trace:
        try:
            metrics, details = per_layer(reports[0], reports[1])
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if abs(details["unaccounted_share"]) > ACCOUNTING_TOLERANCE:
            problems.append(
                f"span accounting: layer self times miss "
                f"{details['unaccounted_share']:.2%} of the traced item time"
            )
    else:
        metrics, details = end_to_end(reports, setups, failed, attempted)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    env = environment(args.seed, reports)
    OUT_DIR.mkdir(exist_ok=True)
    detail_file = OUT_DIR / f"result_{args.workload}_trace{args.trace}.json"
    detail_file.write_text(
        json.dumps({"env": env, "details": details, "problems": problems}, indent=1),
        "utf-8",
    )
    print(json.dumps({"env": env, "details": str(detail_file.relative_to(ROOT))}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<15} {name:<40} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
