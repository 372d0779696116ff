"""Seeded inputs for the two workloads.

The same (workload, seed) pair always gives the same inputs, and the program
only ever sees what is generated here: plain numbers for `sweep`; for
`cli_cold`, shipped scenario files in a seeded order plus generated scenario
files on the multivalued branch. Every input is built so that its command
exits 0; the ranges and the one known exclusion are described in README.md.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from pathlib import Path

from ref import C0, Model

# The 13 shipped (scenario, command) pairs that exit 0.
COLD_PAIRS = (
    ("cad_sweep", "fig4"),
    ("enhancement_demo", "shift"),
    ("enhancement_demo", "linewidth"),
    ("enhancement_demo", "spectrum"),
    ("enhancement_demo", "fig5"),
    ("slowlight_interferometer", "sagnac"),
    ("tabletop_rlg", "sagnac"),
    ("tabletop_rlg", "split"),
    ("tabletop_rlg", "shift"),
    ("tabletop_rlg", "linewidth"),
    ("tabletop_rlg", "spectrum"),
    ("tabletop_rlg", "sensitivity"),
    ("tabletop_rlg", "lens-thirring"),
)
# Commands given a generated multivalued file in every cli_cold block.
MULTIVALUED_COMMANDS = ("split", "shift")
COLD_BLOCK = len(COLD_PAIRS) + len(MULTIVALUED_COMMANDS)
SWEEP_POINTS = (17, 33, 65)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


# --------------------------------------------------------------------------
# cli_cold
# --------------------------------------------------------------------------


def multivalued_scenario(rng: random.Random) -> dict:
    """A rotation-driven ring with a CAD line tuned below zero group index.

    The target group index is -1 to -0.1 and the rotation drives the cavity
    at 5-60% of the fold, so the shift cubic has three real roots.
    """
    v = {
        "radius_m": _log_uniform(rng, -0.5, 0.5),
        "frequency_hz": rng.uniform(2.0e14, 7.0e14),
        "finesse": _log_uniform(rng, 2.0, 5.0),
        "medium": "cad",
        "medium_linewidth_fwhm_hz": _log_uniform(rng, 5.5, 7.5),
        "medium_target_group_index": rng.uniform(-1.0, -0.1),
    }
    m = Model(v)
    dw_ec = m.fold_drive * rng.uniform(0.05, 0.6)
    v["rotation_rate_rad_s"] = dw_ec / ((m.w0 / C0) * (2.0 * m.area / m.perimeter))
    return v


def write_scenario(path: Path, values: dict) -> None:
    path.write_text("".join(f"{k} = {x!r}\n" if isinstance(x, float) else f"{k} = {x}\n"
                            for k, x in values.items()), encoding="utf-8")


def cold_ops(seed: int, count: int, out_dir: Path) -> list[dict]:
    """Blocks of the 13 shipped pairs plus one generated multivalued file per
    command in MULTIVALUED_COMMANDS, shuffled inside each block, with
    alternating file format. The generated files are written to out_dir."""
    rng = _rng("cli_cold", seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    offset = rng.randrange(2)
    ops: list[dict] = []
    while len(ops) < count:
        block = [(f"scenarios/{name}.scenario", command, False) for name, command in COLD_PAIRS]
        for command in MULTIVALUED_COMMANDS:
            path = out_dir / f"mv{len(ops):04d}_{command}.scenario"
            write_scenario(path, multivalued_scenario(rng))
            block.append((str(path), command, True))
        rng.shuffle(block)
        for scenario_path, command, multivalued in block:
            fmt = ("csv", "json")[(len(ops) + offset) % 2]
            ops.append({"command": command, "scenario": scenario_path, "format": fmt,
                        "multivalued": multivalued})
    return ops[:count]


# --------------------------------------------------------------------------
# sweep
# --------------------------------------------------------------------------


def sweep_ops(seed: int, count: int) -> list[dict]:
    """CAD-tuned cavities, each with a log sweep up to G and one trace shift.

    The sweep cavity has gamma_ec/G in [5e-3, 5e-2], the regime of the shipped
    cad_sweep scenario, and G at most 0.11 of the free spectral range: near
    0.3 the white-light resonance no longer fits one free spectral range and
    auto_grid rightly refuses it. The trace runs on the same ring and medium with the
    finesse raised so that gamma_ec/G is in [1e-5, 1e-4], at a shift of 10 to
    30 gamma_ec: there the resonance is displaced by many linewidths and the
    local linewidth gamma_ec/n_g(w0 + dw_dis) is the reference (criterion 7).

    Each parameter is drawn by Latin hypercube sampling: its range is cut
    into `count` equal strata and every stratum is used once, in seeded
    order. So every seed covers each range evenly, and the run's op-cost
    distribution changes little from seed to seed while the inputs differ.
    """
    rng = _rng("sweep", seed)
    draws = {name: _strata(rng, count) for name in
             ("radius", "frequency", "fwhm", "ratio", "trace_ratio", "decades", "trace_shift")}

    def lerp(name: str, i: int, lo: float, hi: float) -> float:
        return lo + (hi - lo) * draws[name][i]

    ops = []
    for i in range(count):
        radius = 10.0 ** lerp("radius", i, -0.5, 0.3)
        frequency = lerp("frequency", i, 3.0e14, 6.0e14)
        fwhm = 10.0 ** lerp("fwhm", i, 5.7, 6.7)
        g = math.pi * fwhm
        # gamma_ec = c0/(radius*finesse) for a circle with n0 = 1
        finesse = C0 / (radius * g * 10.0 ** lerp("ratio", i, -2.3, -1.3))
        trace_finesse = C0 / (radius * g * 10.0 ** lerp("trace_ratio", i, -5.0, -4.0))
        points = SWEEP_POINTS[i % len(SWEEP_POINTS)]
        decades = lerp("decades", i, 4.0, 8.0)
        lo = g * 10.0 ** -decades
        dw = [lo * (g / lo) ** (k / (points - 1)) for k in range(points - 1)] + [g]
        trace_gamma = C0 / (radius * trace_finesse)
        ops.append(
            {
                "radius_m": radius,
                "frequency_hz": frequency,
                "finesse": finesse,
                "medium_linewidth_fwhm_hz": fwhm,
                "dw_ec": dw,
                "trace_finesse": trace_finesse,
                "trace_dw_ec": trace_gamma * 10.0 ** lerp("trace_shift", i, 1.0, 1.5),
            }
        )
    return ops


def _strata(rng: random.Random, count: int) -> list[float]:
    """`count` points in [0, 1), one in each of `count` equal strata, in
    seeded order."""
    order = list(range(count))
    rng.shuffle(order)
    return [(k + rng.random()) / count for k in order]


# --------------------------------------------------------------------------
# input mix
# --------------------------------------------------------------------------


def _shares(counter: Counter, total: int) -> dict:
    return {k: round(n / total, 4) for k, n in sorted(counter.items())}


def mix(workload: str, ops: list[dict]) -> dict:
    """What a run's inputs are made of, for the record printed with each result."""
    n = len(ops)
    if workload == "cli_cold":
        return {
            "ops": n,
            "command": _shares(Counter(o["command"] for o in ops), n),
            "format": _shares(Counter(o["format"] for o in ops), n),
            "multivalued_share": round(sum(o["multivalued"] for o in ops) / n, 4),
        }
    small = total = trace_small = 0
    for o in ops:
        g = math.pi * o["medium_linewidth_fwhm_hz"]
        small += sum(dw <= 1e-3 * g for dw in o["dw_ec"])
        total += len(o["dw_ec"])
        trace_small += o["trace_dw_ec"] <= 1e-3 * g
    return {
        "ops": n,
        "medium": {"cad": 1.0},
        "drive": {"length": 1.0},
        "sweep_points": _shares(Counter(len(o["dw_ec"]) for o in ops), n),
        "share_sweep_shifts_le_1e-3_G": round(small / total, 4),
        "share_trace_shifts_le_1e-3_G": round(trace_small / n, 4),
        "multivalued_share": 0.0,
    }
