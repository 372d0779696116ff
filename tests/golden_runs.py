"""Golden outputs of the shipped scenarios: every command in both formats,
and digests of generated enhancement sweeps.

Each run is `fastlight <command> --scenario scenarios/<name>.scenario --out
<dir> --format csv|json`, made in-process through cli.main from the root of
the repository. The goldens keep the exit code of every run and, for the runs
that exit 0, stdout without its `wrote:` lines plus every file written.

The sweeps are CAD-tuned cavities drawn with a fixed seed over the ranges
of perfbench's `sweep` workload: each runs `sweep_enhancement` and one
`trace`, and its digest covers the float hex of every (dw_ec, eta_numeric)
row and of the trace FWHM, so it pins the numeric path bit for bit on far
more cavities than the shipped scenarios.

    PYTHONPATH=src python tests/golden_runs.py

rewrites tests/golden/ from the code on the path; test_golden.py compares
the current code against it byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from pathlib import Path

from fastlight.cli import COMMANDS, main
from fastlight.constants import C0
from fastlight.dispersion import cad_tune
from fastlight.resonator import RingCavity
from fastlight.sagnac import LoopGeometry
from fastlight.spectrum import sweep_enhancement, trace

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
SCENARIOS = sorted(p.stem for p in (REPO / "scenarios").glob("*.scenario"))
FORMATS = ("csv", "json")
CASES = [(s, c, f) for s in SCENARIOS for c in COMMANDS for f in FORMATS]


def run_case(scenario: str, command: str, fmt: str, out_dir: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """(exit code, stdout without `wrote:` lines, written files by name).

    Must be called with the repository root as working directory, since the
    scenario path is echoed in stdout as given.
    """
    argv = [command, "--scenario", f"scenarios/{scenario}.scenario", "--out", str(out_dir), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    stdout = "".join(line for line in lines if not line.startswith("wrote: ")).encode("utf-8")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    return code, stdout, files


def case_key(scenario: str, command: str, fmt: str) -> str:
    """Name of a run; also its directory under tests/golden/."""
    return f"{scenario}/{command}.{fmt}"


def load_exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def sweep_cases() -> list[dict]:
    """60 CAD sweeps drawn with seed 15: a circular ring of radius 10^-0.5
    to 10^0.3 m at 300 to 600 THz, a medium of 10^5.7 to 10^6.7 Hz FWHM
    (G = pi*FWHM), gamma_ec/G of 10^-2.3 to 10^-1.3, and a log sweep of 17,
    33 or 65 shifts from 10^-4 to 10^-8 G up to G; the trace runs on the
    same ring with gamma_ec/G of 10^-5 to 10^-4, at 10^1 to 10^1.5 times
    its gamma_ec."""
    rng = random.Random(15)
    cases = []
    for i in range(60):
        radius = 10.0 ** rng.uniform(-0.5, 0.3)
        g = math.pi * 10.0 ** rng.uniform(5.7, 6.7)
        points = (17, 33, 65)[i % 3]
        lo = g * 10.0 ** -rng.uniform(4.0, 8.0)
        trace_gamma = g * 10.0 ** rng.uniform(-5.0, -4.0)
        cases.append(
            {
                "radius_m": radius,
                "omega0": 2.0 * math.pi * rng.uniform(3.0e14, 6.0e14),
                "half_linewidth": g,
                # gamma_ec = c0/(radius*finesse) for a circle with n0 = 1
                "finesse": C0 / (radius * g * 10.0 ** rng.uniform(-2.3, -1.3)),
                "trace_finesse": C0 / (radius * trace_gamma),
                "dw_ec": [lo * (g / lo) ** (k / (points - 1)) for k in range(points - 1)] + [g],
                "trace_dw_ec": trace_gamma * 10.0 ** rng.uniform(1.0, 1.5),
            }
        )
    return cases


def sweep_digest(case: dict) -> str:
    """Digest of the float hex of a sweep's (dw_ec, eta_numeric) rows and its trace FWHM."""
    geom = LoopGeometry.circular(case["radius_m"])
    cavity = RingCavity(geometry=geom, finesse=case["finesse"], omega0=case["omega0"])
    narrow = RingCavity(geometry=geom, finesse=case["trace_finesse"], omega0=case["omega0"])
    profile = cad_tune(case["half_linewidth"], case["omega0"])
    rows = sweep_enhancement(profile, cavity, case["dw_ec"])
    fwhm = trace(profile, narrow, narrow.length_for_shift(case["trace_dw_ec"])).fwhm
    text = "".join(f"{s.dw_ec.hex()} {s.eta_numeric.hex()}\n" for s in rows) + fwhm.hex()
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def load_sweep_digests() -> list[str]:
    return (GOLDEN / "sweep_digests.txt").read_text(encoding="utf-8").split()


def write_goldens() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (scenario, command, fmt) in enumerate(CASES):
            code, stdout, files = run_case(scenario, command, fmt, Path(tmp) / str(i))
            codes[case_key(scenario, command, fmt)] = code
            if code != 0:
                continue
            target = GOLDEN / case_key(scenario, command, fmt)
            (target / "files").mkdir(parents=True)
            (target / "stdout.txt").write_bytes(stdout)
            for name, data in files.items():
                (target / "files" / name).write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")
    digests = [sweep_digest(case) for case in sweep_cases()]
    (GOLDEN / "sweep_digests.txt").write_text("".join(d + "\n" for d in digests), encoding="utf-8")
    ok = sum(1 for c in codes.values() if c == 0)
    print(f"{len(codes)} runs, {ok} exit 0, {len(digests)} sweep digests, goldens in {GOLDEN}")


if __name__ == "__main__":
    os.chdir(REPO)
    write_goldens()
