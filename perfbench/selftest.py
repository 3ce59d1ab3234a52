"""Self-tests of the benchmark itself, on the smoke inputs (seconds to run).

    python3 perfbench/selftest.py

Not named test_*.py on purpose: the repository's own pytest suite should not
pick these up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import OUT_DIR, PER_LAYER, BenchError, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = ("solve_s", "item_p50_s", "item_tail_s", "setup_s", "peak_rss_mib", "pass_ratio")


def bench(*extra: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "7", "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class SmokeRuns(unittest.TestCase):
    def test_every_workload_passes_the_gate(self):
        for workload in WORKLOADS:
            code, out = bench("--workload", workload, "--trace", "0")
            res = result(out)
            self.assertEqual(code, 0, out)
            self.assertTrue(res["correct"])
            self.assertEqual(res["failed"], 0)
            self.assertEqual(sorted(res["metrics"]), sorted(END_TO_END))
            self.assertEqual(res["metrics"]["pass_ratio"]["value"], 1.0)

    def test_traced_run_accounts_for_item_time_and_repeats_counts(self):
        for workload in WORKLOADS:
            runs = [bench("--workload", workload, "--trace", "1") for _ in range(2)]
            for code, out in runs:
                self.assertEqual(code, 0, out)
                self.assertEqual(list(result(out)["metrics"]), [n for n, _ in PER_LAYER])
                details = json.loads(
                    (OUT_DIR / f"result_{workload}_trace1.json").read_text("utf-8")
                )["details"]
                for name, _ in PER_LAYER:
                    if name != "trace.overhead":
                        self.assertIn(name, details["all_figures"], workload)
            calls = [
                {k: v for k, v in result(out)["metrics"].items() if k.endswith(".calls")}
                for _, out in runs
            ]
            self.assertEqual(calls[0], calls[1])

    def test_a_figure_no_wrapper_produced_is_an_error(self):
        figures = {name: 1.0 for name, _ in PER_LAYER if name != "trace.overhead"}
        del figures["modular_data.fs_indicator.calls"]
        traced = {
            "solve_s": 1.0,
            "trace": {"figures": figures, "items_s": 1.0, "items_self_s": 1.0},
        }
        with self.assertRaises(BenchError):
            per_layer({"solve_s": 1.0}, traced)


class Gate(unittest.TestCase):
    def test_tampered_reference_is_reported_as_failure(self):
        # a checkout whose benchmark copy has one flipped byte in a check table
        checkout = OUT_DIR / "tampered_checkout"
        shutil.rmtree(checkout, ignore_errors=True)
        shutil.copytree(HERE, checkout / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("src", "data"):
            (checkout / name).symlink_to(ROOT / name, target_is_directory=True)
        reference_file = checkout / "perfbench" / "reference.json"
        reference = json.loads(reference_file.read_text("utf-8"))
        entry = reference["smoke"]["golden_check"]["check:pointed_z5.json"]
        table = entry["stdout"]
        pos = table.index("PASS")
        entry["stdout"] = table[:pos] + chr(ord(table[pos]) ^ 1) + table[pos + 1 :]
        reference_file.write_text(json.dumps(reference), "utf-8")
        try:
            code, out = bench("--workload", "golden_check", cwd=checkout)
        finally:
            shutil.rmtree(checkout)
        res = result(out)
        self.assertEqual(code, 1)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["pass_ratio"]["value"], 1.0)

    def test_refuses_without_the_program(self):
        bare = OUT_DIR / "bare_checkout"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = bench("--workload", "golden_check", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(code, 0)
        self.assertEqual(out, "")

    def test_refuses_a_changed_order_cap(self):
        script = (
            "import sys, moddata, worker; moddata.set_order_cap(100); "
            "sys.argv = ['worker', '--workload', 'golden_check', '--seed', '0', '--smoke']; "
            "sys.exit(worker.main())"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
            env={"PYTHONPATH": f"{HERE}:{ROOT / 'src'}", "PATH": ""},
        )
        self.assertEqual(proc.returncode, 3, proc.stderr)
        self.assertIn("order cap", proc.stderr)


class Wrappers(unittest.TestCase):
    def test_wrappers_forward_cache_controls_and_uninstall_restores(self):
        import moddata
        from layer_trace import Tracer
        from moddata import modular_data, sl2z_reps

        originals = {
            "modular_data.derived_scalars": modular_data.derived_scalars,
            "modular_data.verlinde_fusion": modular_data.verlinde_fusion,
            "sl2z_reps.normalize": sl2z_reps.normalize,
        }
        tracer = Tracer().install()
        try:
            cached = {k: w for k, w in tracer.wrappers.items() if hasattr(w, "cache_info")}
            self.assertEqual(sorted(cached), sorted(originals))
            for name, wrapper in cached.items():
                self.assertIs(wrapper.__wrapped__, originals[name])
                self.assertEqual(wrapper.cache_info, originals[name].cache_info)
                self.assertEqual(wrapper.cache_clear, originals[name].cache_clear)
            # the package namespace and cross-module bindings are wrapped too
            self.assertIs(moddata.normalize, tracer.wrappers["sl2z_reps.normalize"])
            self.assertIs(
                moddata.classifier.normalize, tracer.wrappers["sl2z_reps.normalize"]
            )
            datum = moddata.pointed_zn(3)
            moddata.normalize(datum)
            moddata.normalize(datum)
            self.assertEqual(moddata.normalize.cache_info().hits, 1)
            moddata.normalize.cache_clear()
            self.assertEqual(originals["sl2z_reps.normalize"].cache_info().currsize, 0)
        finally:
            tracer.uninstall()
        self.assertIs(moddata.normalize, originals["sl2z_reps.normalize"])
        self.assertIs(sl2z_reps.normalize, originals["sl2z_reps.normalize"])


if __name__ == "__main__":
    unittest.main()
