"""Self-test of the benchmark (not part of the program's test suite).

    python3 perfbench/selftest.py

Checks that a seed fixes the inputs, that the output checks catch a wrong
result, that every metric the benchmark can print is declared in
BENCHMARK.json, and that the benchmark refuses to run outside a checkout.
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

import gen  # noqa: E402
import layers  # noqa: E402
import ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SCRATCH = ROOT / ".perfbench_tmp" / "selftest"


def tearDownModule():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        SCRATCH.parent.rmdir()
    except OSError:
        pass


def _declared() -> dict[str, dict]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m for m in doc["per_layer"]},
            "workloads": [w["name"] for w in doc["workloads"]]}


class SeededInputs(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_same_seed_same_inputs(self):
        self.assertEqual(gen.sweep_ops(5, 40), gen.sweep_ops(5, 40))
        a = gen.cold_ops(5, 40, SCRATCH / "a")
        b = gen.cold_ops(5, 40, SCRATCH / "b")
        self.assertEqual([(o["command"], o["format"]) for o in a], [(o["command"], o["format"]) for o in b])
        for x, y in zip(a, b):
            self.assertEqual((ROOT / x["scenario"]).read_bytes(), (ROOT / y["scenario"]).read_bytes())

    def test_other_seed_other_inputs(self):
        self.assertNotEqual(gen.sweep_ops(5, 40), gen.sweep_ops(6, 40))
        a = gen.cold_ops(5, 40, SCRATCH / "a")
        b = gen.cold_ops(6, 40, SCRATCH / "b")
        self.assertNotEqual([(o["command"], o["format"]) for o in a], [(o["command"], o["format"]) for o in b])


class OutputChecks(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_scaled_eta_is_flagged(self):
        op = gen.sweep_ops(3, 3)[0]
        rows, fwhm = layers.sweep_plain(op)
        worker.check_sweep(op, rows, fwhm)
        scaled = [(dw, 1.1 * eta) for dw, eta in rows]
        with self.assertRaises(ref.CheckFailed):
            worker.check_sweep(op, scaled, fwhm)
        with self.assertRaises(ref.CheckFailed):
            worker.check_sweep(op, rows, 1.2 * fwhm)

    def test_analytic_roots_are_checked(self):
        # the shipped shift/linewidth pairs and generated multivalued files
        ops = [o for o in gen.cold_ops(3, 2 * gen.COLD_BLOCK, SCRATCH / "scn")
               if o["command"] in ("shift", "linewidth")]
        self.assertTrue(any(o["multivalued"] for o in ops))
        for op in ops:
            path = ROOT / op["scenario"]
            code, stdout, stderr = layers.run_main([op["command"], "--scenario", str(path)])
            self.assertEqual(code, 0, stderr)
            values = ref.read_scenario(path)
            self.assertEqual(op["multivalued"], ref.Model(values).shift()[1])
            ref.check_cli(op["command"], values, stdout, None, None)
            results = ref.parse_stdout(stdout)
            for key in ("dw_dis", "gamma_dis"):
                if key in results:
                    bad = dict(results, **{key: results[key] * (1.0 + 1e-8)})
                    with self.assertRaises(ref.CheckFailed):
                        ref.check_analytic(op["command"], values, bad)

    def test_untagged_line_is_flagged(self):
        op = next(o for o in gen.cold_ops(1, gen.COLD_BLOCK, SCRATCH / "scn") if not o["multivalued"])
        values = ref.read_scenario(ROOT / op["scenario"])
        code, stdout, _ = layers.run_main([op["command"], "--scenario", str(ROOT / op["scenario"])])
        self.assertEqual(code, 0)
        lines = stdout.splitlines()
        i = next(k for k, line in enumerate(lines) if line.endswith("]"))
        lines[i] = lines[i][: lines[i].rindex("  [")]
        with self.assertRaises(ref.CheckFailed):
            ref.check_cli(op["command"], values, "\n".join(lines), None, None)


class DeclaredMetrics(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        declared = _declared()
        self.assertEqual(set(declared["workloads"]), set(run.WORKLOADS))
        plain = {"lat": [0.1, 0.2, 0.3], "slowdown": [1.0, 1.2, 1.1], "cycle": [0.2, 0.2, 0.3]}
        e2e = run.end_to_end("sweep", {"plain": plain, "maxrss_kb": 1024, "setups": [(0.5, 1.1)]})
        traced = {"lat": [0.1], "busy": {}, "counts": {}}
        imports = {k: 0.1 for k in ("interpreter", "numpy", "scipy", "fastlight", "total")}
        layer = run.per_layer({"plain": plain, "traced": traced}, imports)
        for printed, kind in ((e2e, "end_to_end"), (layer, "per_layer")):
            self.assertEqual(set(printed), set(declared[kind]), kind)
            for name, metric in printed.items():
                self.assertEqual(metric["unit"], declared[kind][name]["unit"], name)


class RefusesOutsideCheckout(unittest.TestCase):
    def test_bare_directory_exits_nonzero(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(SCRATCH, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
