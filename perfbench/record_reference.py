"""Record reference.json: the output fingerprint of every benchmark item.

    python3 perfbench/record_reference.py

Runs one untraced pass of each workload, full and smoke, through worker.py
(the code path the benchmark measures) and stores each item's fingerprint.
Re-record only when an output is meant to change; the gate in run.py exists
to catch every other change.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

from run import REFERENCE, run_pass
from workloads import WORKLOADS


def main() -> int:
    reference: dict = {"full": {}, "smoke": {}}
    for section in reference:
        for workload in WORKLOADS:
            args = SimpleNamespace(workload=workload, seed=0, smoke=section == "smoke")
            report, _ = run_pass(args, 0, False, time.monotonic() + 600)
            outputs = {}
            for item in report["items"]:
                if item["error"] is not None:
                    print(f"{item['id']} raised {item['error']}", file=sys.stderr)
                    return 1
                outputs[item["id"]] = item["output"]
            reference[section][workload] = dict(sorted(outputs.items()))
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
