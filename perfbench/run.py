"""fastlight benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cli_cold|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a fastlight checkout; the program is imported from
./src, nothing is installed. The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the two
lines before it record provenance and the input mix. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. See
README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import gen
import ref
from loop import Phase, startup_slowdown

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli_cold", "sweep")
# Highest percentile that keeps at least ten ops beyond it at the op counts a
# 50 s closed loop reaches on two loaded shared cores (about 48 and 1200 ops).
TAIL_PERCENTILE = {"cli_cold": 75.0, "sweep": 99.0}
# Traced runs count exact work over this many leading ops of the seeded list.
COUNT_OPS = {"cli_cold": gen.COLD_BLOCK, "sweep": 12}
INPUT_OPS = {"cli_cold": 70 * gen.COLD_BLOCK, "sweep": 600}
SEGMENTS = 6  # a plain run probes set-up before each sixth of its loop
IMPORT_REPEATS = 5
CHILD_TIMEOUT = 120.0
WORKER_SLACK = 60.0  # a worker still alive this long after its run is killed


class BenchError(Exception):
    """The benchmark itself cannot run here (no checkout, child died, ...)."""


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: float):
        self.root = root
        self.workload = workload
        self.seconds = seconds
        self.tmp = root / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.exe = sys.executable

    # -- children ------------------------------------------------------------

    def run_child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [self.exe, *args], cwd=self.root, env=self.env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT,
        )

    def timed_child(self, args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = self.run_child(args)
        return time.perf_counter() - start, proc

    def probe(self) -> dict:
        """Import fastlight.cli once (fills bytecode caches) and report versions."""
        code = (
            "import json, sys, importlib.metadata as md, fastlight, fastlight.cli\n"
            "def version(name):\n"
            "    try:\n"
            "        return md.version(name)\n"
            "    except md.PackageNotFoundError:\n"
            "        return None\n"
            "print(json.dumps({'fastlight_file': fastlight.__file__,\n"
            "    'numpy': sys.modules['numpy'].__version__, 'scipy': version('scipy'),\n"
            "    'scipy_imported_by_cli': 'scipy' in sys.modules}))\n"
        )
        proc = self.run_child(["-c", code])
        if proc.returncode != 0:
            raise BenchError(f"cannot import fastlight.cli from ./src: {proc.stderr.strip()}")
        info = json.loads(proc.stdout)
        if not Path(info.pop("fastlight_file")).resolve().is_relative_to(self.root / "src"):
            raise BenchError("fastlight was imported from outside ./src")
        return info

    def setup_probe(self) -> tuple[float, float]:
        """One fresh interpreter that imports fastlight.cli and exits: set-up.
        Returns its time and the mean start-up slowdown probed either side."""
        before = startup_slowdown(self.exe)
        dt, proc = self.timed_child(["-c", "import fastlight.cli"])
        if proc.returncode != 0:
            raise BenchError(proc.stderr.strip()[-2000:])
        return dt, (before + startup_slowdown(self.exe)) / 2.0

    def worker_run(self, ops: list[dict], trace: bool) -> dict:
        """One worker runs the ops. A plain run probes set-up before each of
        SEGMENTS slices of the loop, while the worker waits, so the probes are
        spread over the run like the ops are; a traced run is one slice."""
        inputs = self.tmp / "inputs.json"
        inputs.write_text(json.dumps(ops), encoding="utf-8")
        args = [str(HERE / "worker.py"), "serve", str(inputs), "1" if trace else "0",
                str(COUNT_OPS[self.workload])]
        proc = subprocess.Popen(
            [self.exe, *args], cwd=self.root, env=self.env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        watchdog = threading.Timer(self.seconds + WORKER_SLACK, proc.kill)
        watchdog.start()
        try:
            if proc.stdout.readline().strip() != "ready":
                raise BenchError("worker did not start")
            setups = []
            slices = 1 if trace else SEGMENTS
            for _ in range(slices):
                if not trace:
                    setups.append(self.setup_probe())
                proc.stdin.write(f"run {self.seconds / slices!r}\n")
                proc.stdin.flush()
                if proc.stdout.readline().strip() != "done":
                    raise BenchError("worker stopped in its loop")
            out, err = proc.communicate("end\n", timeout=CHILD_TIMEOUT)
        except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
            proc.kill()
            _, err = proc.communicate()
            raise BenchError(f"{exc}: {err.strip()[-2000:]}") from None
        finally:
            watchdog.cancel()
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.splitlines()[-1])
        result["setups"] = setups
        return result

    def cold_op(self, op: dict, values: dict, traced: bool) -> tuple[float, dict]:
        out_dir = self.tmp / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if traced:
            args = [str(HERE / "worker.py"), "cold", op["command"], op["scenario"], str(out_dir), op["format"]]
        else:
            args = ["-m", "fastlight.cli", op["command"], "--scenario", op["scenario"],
                    "--out", str(out_dir), "--format", op["format"]]
        latency, proc = self.timed_child(args)
        doc = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if traced and proc.returncode == 0:
            doc = json.loads(proc.stdout)
        if doc["code"] != 0:
            raise ref.CheckFailed(f"exit {doc['code']}: {doc['stderr'].strip()[-500:]}")
        doc["bytes"] = ref.check_cli(op["command"], values, doc["stdout"], out_dir, op["format"])
        return latency, doc

    def cold_run(self, ops: list[dict], trace: bool) -> dict:
        values = {p: ref.read_scenario(self.root / p) for p in {o["scenario"] for o in ops}}
        # Cold calls are scaled by the start-up probe, not by the kernel: a
        # fresh interpreter's start-up and imports do not slow down with the
        # kernel (per 4.5 s of cold calls the kernel-scaled time varied by
        # 12%, the raw time by 10%).
        plain = Phase(probe=None if trace else lambda: startup_slowdown(self.exe))

        def execute(op: dict) -> float:
            return self.cold_op(op, values[op["scenario"]], False)[0]

        if not trace:
            # set-up probes spread over the run, as in worker_run
            setups = []
            for _ in range(SEGMENTS):
                setups.append(self.setup_probe())
                plain.run(ops, execute, self.seconds / SEGMENTS)
            result = {"plain": plain.as_dict(), "setups": setups}
        else:
            # plain then traced call per op, as in worker.serve
            busy: Counter = Counter()
            counts: Counter = Counter()
            lat: list[float] = []
            grid_points: list[int] = []
            traced = Phase()

            def paired(op: dict) -> float:
                lat.append(execute(op))
                latency, doc = self.cold_op(op, values[op["scenario"]], True)
                busy.update(doc["busy"])
                grid_points.extend(doc["grid_points"])
                if traced.attempted <= COUNT_OPS["cli_cold"]:
                    counts.update(doc["counts"])
                    counts["cli.output_bytes"] += doc["bytes"]
                return latency

            traced.run(ops, paired, self.seconds, min_ops=COUNT_OPS["cli_cold"])
            result = {"plain": {"lat": lat},
                      "traced": {**traced.as_dict(), "busy": dict(busy), "counts": dict(counts),
                                 "grid_points": grid_points}}
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return result

    def import_layer(self) -> dict:
        """Median import split over fresh interpreters, from -X importtime."""
        startup = set(_importtime(self.run_child(["-X", "importtime", "-c", "pass"]).stderr))
        rows = []
        for _ in range(IMPORT_REPEATS):
            bare, _ = self.timed_child(["-c", "pass"])
            proc = self.run_child(["-X", "importtime", "-c", "import fastlight.cli"])
            if proc.returncode != 0:
                raise BenchError(proc.stderr.strip()[-2000:])
            split = Counter()
            for name, self_us in _importtime(proc.stderr).items():
                if name in startup:
                    continue
                top = name.split(".")[0]
                if top in ("numpy", "scipy", "fastlight"):
                    split[top] += self_us * 1e-6
                split["total"] += self_us * 1e-6
            rows.append({"interpreter": bare, **split})
        return {k: statistics.median(r.get(k, 0.0) for r in rows)
                for k in ("interpreter", "numpy", "scipy", "fastlight", "total")}


def _importtime(stderr: str) -> dict[str, int]:
    """module -> self time in microseconds, from -X importtime output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        out[name.strip()] = int(self_us)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled(times: list[float], slowdown: list[float]) -> list[float]:
    """Op times scaled to the reference host speed of loop.REFERENCE_S.

    On a shared host every op runs up to 1.7x slower for seconds to minutes
    at a time, as other tenants' load comes and goes; a median of raw
    latencies lands wherever the run's share of slow time puts it. Each time
    is divided by the host slowdown probed either side of it instead. An
    unprobed run (no slowdowns) keeps its raw times.
    """
    return [t / s for t, s in zip(times, slowdown)] if slowdown else times


def end_to_end(workload: str, result: dict) -> dict:
    plain = result["plain"]
    lat = plain["lat"]
    if not lat:
        raise BenchError("no op completed")
    lat_ref = scaled(lat, plain["slowdown"])
    return {
        "ops_per_s": _metric(len(lat) / sum(scaled(plain["cycle"], plain["slowdown"])), "op/s"),
        "op_p50_s": _metric(statistics.median(lat_ref), "s"),
        "op_tail_s": _metric(percentile(lat_ref, TAIL_PERCENTILE[workload]), "s"),
        "setup_s": _metric(statistics.median(dt / slowdown for dt, slowdown in result["setups"]), "s"),
        "peak_rss_mb": _metric(result["maxrss_kb"] / 1024.0, "MB"),
    }


def per_layer(result: dict, imports: dict) -> dict:
    traced = result["traced"]
    if not traced["lat"] or not result["plain"]["lat"]:
        raise BenchError("no op completed")
    n = len(traced["lat"])
    busy, counts = traced["busy"], Counter(traced["counts"])

    def per_op(span: str) -> dict:
        return _metric(busy.get(span, 0.0) / n, "s")

    def count(key: str) -> dict:
        return _metric(counts[key], "count")

    def ratio(num: float, den: float, unit: str = "1") -> dict:
        return _metric(num / den if den else 0.0, unit)

    metrics = {f"import.{k}_s": _metric(v, "s") for k, v in imports.items()}
    metrics.update({
        "scenario.parse_s": per_op("scenario.parse"),
        "scenario.build_s": per_op("scenario.build"),
        "scenario.calls": count("scenario.calls"),
        "resonator.busy_s": per_op("resonator"),
        "resonator.calls": count("resonator.calls"),
        "resonator.multivalued_ratio": ratio(counts["resonator.multivalued"],
                                             counts["resonator.shift_cubic_calls"]),
        "sagnac.busy_s": per_op("sagnac"),
        "sagnac.calls": count("sagnac.calls"),
        "sensitivity.busy_s": per_op("sensitivity"),
        "sensitivity.calls": count("sensitivity.calls"),
        "dispersion.scalar_calls": count("dispersion.scalar_calls"),
        "dispersion.array_calls": count("dispersion.array_calls"),
        "dispersion.array_points": count("dispersion.array_points"),
        "dispersion.scalar_calls_per_resonance": ratio(counts["dispersion.scalar_calls"],
                                                       counts["spectrum.resonances"], "count"),
        "spectrum.auto_grid_s": per_op("spectrum.auto_grid"),
        "spectrum.find_resonance_s": per_op("spectrum.find_resonance"),
        "spectrum.measure_fwhm_s": per_op("spectrum.measure_fwhm"),
        "spectrum.transmission_s": per_op("spectrum.transmission"),
        "spectrum.resonances": count("spectrum.resonances"),
        "spectrum.grid_points_mean": ratio(counts["spectrum.grid_points"], counts["spectrum.grids"], "count"),
        "cli.main_s": per_op("cli.main"),
        "cli.self_s": per_op("cli.self"),
        "cli.output_bytes": _metric(counts["cli.output_bytes"], "B"),
    })
    metrics["trace.overhead_ratio"] = ratio(statistics.median(traced["lat"]),
                                            statistics.median(result["plain"]["lat"]))
    return metrics


def git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        loose = root / ".git" / ref_name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args) -> dict:
    root = Path.cwd().resolve()
    if not (root / "src" / "fastlight" / "cli.py").is_file() or not (root / "scenarios").is_dir():
        raise BenchError("run from the root of a fastlight checkout (./src/fastlight not found)")
    bench = Bench(root, args.workload, args.seed, float(args.seconds))
    trace = args.trace == 1
    bench.tmp.mkdir(parents=True, exist_ok=True)
    try:
        versions = bench.probe()
        count = INPUT_OPS[args.workload]
        if args.workload == "cli_cold":
            ops = gen.cold_ops(args.seed, count, bench.tmp / "scenarios")
        else:
            ops = gen.sweep_ops(args.seed, count)
        imports = bench.import_layer() if trace else None
        run_ops = bench.cold_run if args.workload == "cli_cold" else bench.worker_run
        result = run_ops(ops, trace)
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)
        try:
            bench.tmp.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(result, imports) if trace else end_to_end(args.workload, result)
    phase = result["traced"] if trace else result["plain"]
    for err in phase["errors"]:
        print(f"failed op: {err}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(), **versions,
        "commit": git_commit(root), "tail_percentile": TAIL_PERCENTILE[args.workload],
        "ops_timed": len(result["plain"]["lat"]),
    }
    plain = result["plain"]
    if plain.get("slowdown"):
        # the unscaled figures behind the scaled metrics
        provenance.update({
            "op_slowdown_p50": statistics.median(plain["slowdown"]),
            "raw_ops_per_s": len(plain["lat"]) / sum(plain["cycle"]),
            "raw_op_p50_s": statistics.median(plain["lat"]),
            "raw_op_tail_s": percentile(plain["lat"], TAIL_PERCENTILE[args.workload]),
        })
    if not trace:
        provenance["startup_slowdown_p50"] = statistics.median(s for _, s in result["setups"])
        provenance["raw_setup_s"] = statistics.median(dt for dt, _ in result["setups"])
    print(json.dumps({"provenance": provenance}))
    mix = gen.mix(args.workload, ops)
    if trace and result["traced"]["grid_points"]:
        points = result["traced"]["grid_points"]
        mix["grid_points"] = {"grids": len(points), "min": min(points), "p50": statistics.median(points),
                              "p90": percentile(points, 90.0), "max": max(points)}
    print(json.dumps({"input_mix": mix}))
    failed = phase["failed"]
    return {"correct": failed == 0, "attempted": phase["attempted"], "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
