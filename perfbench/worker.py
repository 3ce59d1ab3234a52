"""One measured pass of a workload in a fresh interpreter.

Imports moddata, builds the workload's items, runs each once in an order
shuffled from the seed, and prints one JSON line with the item timings and
output fingerprints.  With ``--trace`` the public functions of every moddata
module are wrapped (see layer_trace.py) and per-layer figures are added.

Speed normalisation.  The CPU this benchmark was written on (a 2-vCPU KVM
guest on a shared Xeon host) changes speed by up to 2x over tens of seconds,
whatever runs inside the guest.  So a pass also times a fixed pure-Python
probe loop on the same thread: once between items and, unless traced, every
PROBE_PERIOD_S inside an item (from a SIGALRM handler).  Each item's time,
minus the probe time inside it, is scaled by PROBE_REF_S / (mean probe time
around and inside the item): seconds at the speed at which the probe takes
PROBE_REF_S.  Raw times are reported beside the scaled ones.  Dense probes
and the mean (not the median) track the item's speed best: on that machine
they cut the run-to-run spread of one item's time from about 34% to 6%.
Set-up is scaled in run.py, not here.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

from workloads import build_items, fingerprint

# the order cap changes which inputs are legal, so runs at another cap are
# not comparable
DEFAULT_ORDER_CAP = 2000
EXIT_REFUSED = 3

PROBE_PERIOD_S = 0.05
PROBE_REF_S = 0.0013  # see probe_loop


def probe_loop() -> Fraction:
    """Fixed Fraction and dict work, the mix moddata's arithmetic does.

    PROBE_REF_S is about its mean time on the machine named above."""
    total = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 400):
        total += Fraction(1, i % 97 + 1)
        counts[i & 63] = counts.get(i & 63, 0) + i
    return total


class SpeedProbe:
    """Times probe_loop on demand and, while active, every PROBE_PERIOD_S."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, end)

    def sample(self, *_signal_args) -> None:
        # with the collector off the probe times only CPU speed: collections
        # of the program's heap fall in program time, not in a probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe_loop()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((start, end))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of the interval, probe time excluded.

        Uses the probes inside the interval and the nearest one on each side.
        """
        inside = [(a, b) for a, b in self.samples if start <= a and b <= end]
        before = [(a, b) for a, b in self.samples if b <= start][-1:]
        after = [(a, b) for a, b in self.samples if a >= end][:1]
        raw = end - start - sum(b - a for a, b in inside)
        speed = statistics.mean(b - a for a, b in before + inside + after)
        return raw, raw * PROBE_REF_S / speed


def _cache_ratio(fn) -> float:
    info = fn.cache_info()
    looked_up = info.hits + info.misses
    return info.hits / looked_up if looked_up else 0.0


def _trace_figures(tracer, items_s: float, speed: float) -> dict:
    """Per-layer figures; times are scaled by the pass's probe speed."""
    from layer_trace import CACHED

    figures = {}
    for gid, name in enumerate(tracer.groups):
        figures[f"{name}.calls"] = tracer.calls[gid]
        figures[f"{name}.total_s"] = tracer.total[gid]
    for i, layer in enumerate(tracer.layers):
        figures[f"{layer}.total_s"] = tracer.layer_total[i]
    for layer, value in tracer.self_times().items():
        figures[f"{layer}.self_s"] = value
    for layer, fn in CACHED:
        figures[f"{layer}.{fn}.hit_ratio"] = _cache_ratio(tracer.wrappers[f"{layer}.{fn}"])
    figures = {k: v / speed if k.endswith("_s") else v for k, v in figures.items()}
    items_self = sum(tracer.self_times(items_only=True).values())
    return {
        "figures": figures,
        "items_self_s": items_self,
        "items_s": items_s,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here (.npz)")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    from moddata.cyclotomic import get_order_cap

    cap = get_order_cap()
    if cap != DEFAULT_ORDER_CAP:
        print(f"refusing to run: order cap is {cap}, not {DEFAULT_ORDER_CAP}", file=sys.stderr)
        return EXIT_REFUSED

    tracer = None
    if args.trace:
        from layer_trace import Tracer

        tracer = Tracer().install()

    items = build_items(args.workload, args.smoke)
    order = list(range(len(items)))
    random.Random(f"{args.seed}:{args.pass_index}").shuffle(order)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    probe = SpeedProbe()
    probe_loop()  # the first call is slower; keep it out of the samples
    raw_results = []
    for index in order:
        item_id, run = items[index]
        error = None
        raw = None
        probe.sample()
        if tracer is not None:
            tracer.item = index
        else:  # in-item probes would land inside spans
            probe.start()
        start = time.perf_counter()
        try:
            raw = run()
        except Exception as exc:  # a failed item is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        probe.stop()
        raw_results.append((item_id, start, end, raw, error))
    probe.sample()
    if tracer is not None:
        tracer.item = -1
        tracer.uninstall()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for item_id, start, end, raw, error in raw_results:
        output = None
        if error is None:
            try:
                output = fingerprint(item_id, raw)
            except Exception as exc:
                error = f"fingerprint {type(exc).__name__}: {exc}"
        raw_s, scaled_s = probe.scaled(start, end)
        results.append(
            {
                "id": item_id,
                "raw_s": raw_s,
                "seconds": scaled_s,
                "output": output,
                "error": error,
            }
        )

    report = {
        "ready": ready,
        "solve_s": sum(r["seconds"] for r in results),
        "raw_solve_s": sum(r["raw_s"] for r in results),
        "rss_mib": rss_mib,
        "items": results,
        "env": {"order_cap": cap},
    }
    if tracer is not None:
        pass_speed = statistics.mean(b - a for a, b in probe.samples) / PROBE_REF_S
        report["trace"] = _trace_figures(tracer, report["raw_solve_s"], pass_speed)
        if args.spans:
            tracer.write_spans(args.spans, [item_id for item_id, _ in items])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
