"""Every full benchmark item gives the output its reference records.

perfbench/workloads.py defines the items of the three workloads and the
fingerprint the benchmark's gate compares with perfbench/reference.json.
Running them here, in process, makes an output drift fail the test suite
and not only a benchmark run.  workloads.py is loaded from its file and not
changed; its DATA_DIR is relative to the repository root.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text("utf-8"))["full"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_items_match_reference(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = REFERENCE[workload]
    items = workloads.build_items(workload, smoke=False)
    assert sorted(item_id for item_id, _ in items) == sorted(expected)
    for item_id, run in items:
        output = json.loads(json.dumps(workloads.fingerprint(item_id, run())))
        assert output == expected[item_id], item_id
