"""Worker process: the one client that runs a workload's ops in a closed loop.

    worker.py serve INPUTS TRACE COUNT_OPS
        Imports fastlight.cli, runs one checked but untimed op, prints
        "ready", then obeys stdin: "run SECONDS" runs the next ops of INPUTS
        for that long and prints "done"; "end" prints one JSON result and
        exits. An untraced run probes the host speed after every op
        (loop.host_slowdown).
    worker.py cold COMMAND SCENARIO OUTDIR FORMAT
        One traced cold CLI call: cli.main in this fresh interpreter, then the
        replay of the same input; prints the spans and counts as JSON.

run.py starts both; neither is meant to be run by hand.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from pathlib import Path

import layers
import ref
from loop import Phase, host_slowdown


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def check_sweep(op: dict, rows, fwhm: float) -> None:
    if [dw for dw, _ in rows] != op["dw_ec"]:
        raise ref.CheckFailed("sweep rows do not follow the requested shifts")
    ref.check_eta(math.pi * op["medium_linewidth_fwhm_hz"], rows)
    m = ref.Model(
        {
            "radius_m": op["radius_m"],
            "frequency_hz": op["frequency_hz"],
            "finesse": op["trace_finesse"],
            "medium": "cad",
            "medium_linewidth_fwhm_hz": op["medium_linewidth_fwhm_hz"],
        }
    )
    ref.check_fwhm(fwhm, m.gamma_ec, m.a, m.b, op["trace_dw_ec"])


class SweepOps:
    def __init__(self):
        self.tracer = layers.Tracer()

    def plain(self, op: dict) -> float:
        start = time.perf_counter()
        rows, fwhm = layers.sweep_plain(op)
        latency = time.perf_counter() - start
        check_sweep(op, rows, fwhm)
        return latency

    def traced(self, op: dict) -> float:
        start = time.perf_counter()
        rows, fwhm = layers.sweep_traced(op, self.tracer)
        latency = time.perf_counter() - start
        check_sweep(op, rows, fwhm)
        return latency


def serve(inputs: str, trace: bool, count_ops: int) -> dict:
    """Run segments of the closed loop as stdin asks; see the module doc."""
    ops = json.loads(Path(inputs).read_text(encoding="utf-8"))
    runner = SweepOps()
    phase = Phase(probe=None if trace else host_slowdown)
    # The first op of a fresh process pays first-call costs; it is checked
    # but not timed.
    phase.run(ops, runner.plain, 0.0, min_ops=1)
    phase.lat.clear()
    phase.slowdown.clear()
    phase.cycle.clear()
    plain: list[float] = []
    prefix: dict = {}

    def paired(op: dict) -> float:
        # plain, then traced: both see the same machine state, so their
        # latency ratio is the tracing overhead
        plain.append(runner.plain(op))
        latency = runner.traced(op)
        if len(plain) == count_ops:
            # counts cover exactly the first count_ops timed ops, so they
            # repeat per seed
            prefix.update(runner.tracer.counts)
        return latency

    print("ready", flush=True)
    for line in sys.stdin:
        words = line.split()
        if words[:1] != ["run"]:
            break
        if trace:
            phase.run(ops, paired, float(words[1]), min_ops=count_ops)
        else:
            phase.run(ops, runner.plain, float(words[1]))
        print("done", flush=True)
    if not trace:
        result = {"plain": phase.as_dict()}
    else:
        result = {
            "plain": {"lat": plain},
            "traced": {**phase.as_dict(), "busy": dict(runner.tracer.busy), "counts": prefix,
                       "grid_points": runner.tracer.grid_points},
        }
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def cold(command: str, scenario_path: str, out_dir: str, fmt: str) -> dict:
    tr = layers.Tracer()
    argv = [command, "--scenario", scenario_path, "--out", out_dir, "--format", fmt]
    code, stdout, stderr = layers.traced_command(command, argv, scenario_path, tr)
    return {"code": code, "stdout": stdout, "stderr": stderr, "busy": dict(tr.busy),
            "counts": dict(tr.counts), "grid_points": tr.grid_points}


def main(argv: list[str]) -> int:
    if argv[0] == "cold":
        print(json.dumps(cold(*argv[1:5])))
        return 0
    inputs, trace, count_ops = argv[1:4]
    print(json.dumps(serve(inputs, trace == "1", int(count_ops))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
