"""The ops themselves, plain and traced, timed from outside the program.

A plain sweep op is what a user's script runs: `sweep_enhancement` plus one
`trace`. A traced op replays the same work through each module's public
functions with a span around every call into a layer, so the split between
layers comes from the benchmark's own clock and from public return values,
never from code inside `src/`. A traced cold CLI call runs `cli.main` under a
span and then replays the same input the same way.

`cli.self` is derived, not observed: for one input it is the `cli.main` span
minus the scenario and library spans of the replay of that same input.
"""

from __future__ import annotations

import io
import math
import time
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

from fastlight import cli, resonator, sagnac, scenario, sensitivity, spectrum
from fastlight.dispersion import ConstantIndex, LorentzianAbsorptive, cad_tune
from fastlight.errors import ComputationError


class Tracer:
    """Span durations of the current op plus running totals and counts."""

    def __init__(self):
        self.op: dict[str, float] = defaultdict(float)
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.grid_points: list[int] = []  # every grid auto_grid chose

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.op[name] += time.perf_counter() - start

    def close_op(self) -> None:
        """Fold the finished op's spans into the totals, deriving cli.self."""
        spans = self.op
        if "cli.main" in spans:
            inner = sum(t for name, t in spans.items() if name != "cli.main")
            spans["cli.self"] = spans["cli.main"] - inner
        for name, t in spans.items():
            self.busy[name] += t
        self.op = defaultdict(float)


@dataclass(frozen=True)
class CountingLorentzian(LorentzianAbsorptive):
    """Lorentzian profile that tallies how `spectrum` evaluates it.

    Scalar and array calls of index, dindex_domega and index_change are
    counted separately, with the number of array points. Used in traced runs
    only; the counts are exact, so they repeat run to run for one seed.
    """

    tally: Counter = field(default_factory=Counter, compare=False, hash=False, repr=False)

    @classmethod
    def wrap(cls, profile: LorentzianAbsorptive, tally: Counter) -> "CountingLorentzian":
        return cls(profile.strength, profile.half_linewidth, profile.center, tally)

    def _seen(self, omega) -> None:
        if np.ndim(omega) == 0:
            self.tally["dispersion.scalar_calls"] += 1
        else:
            self.tally["dispersion.array_calls"] += 1
            self.tally["dispersion.array_points"] += int(np.size(omega))

    def index(self, omega):
        self._seen(omega)
        return super().index(omega)

    def dindex_domega(self, omega):
        self._seen(omega)
        return super().dindex_domega(omega)

    def index_change(self, omega, base):
        self._seen(omega)
        return super().index_change(omega, base)


def _counting(profile, tr: Tracer):
    if isinstance(profile, LorentzianAbsorptive):
        return CountingLorentzian.wrap(profile, tr.counts)
    return profile


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def traced_command(command: str, argv: list[str], scenario_path: str, tr: Tracer) -> tuple[int, str, str]:
    """cli.main under a span, then the replay of the same input."""
    with tr.span("cli.main"):
        result = run_main(argv)
    if result[0] == 0:
        replay_command(command, scenario_path, tr)
    tr.close_op()
    return result


# --------------------------------------------------------------------------
# replays of one command through the public library functions
# --------------------------------------------------------------------------


def _cubic(tr: Tracer, cubics: int, fn, *args):
    """Call fn, which solves `cubics` shift cubics, counting multivalued warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    tr.counts["resonator.calls"] += 1
    tr.counts["resonator.shift_cubic_calls"] += cubics
    tr.counts["resonator.multivalued"] += len(caught)
    return out


def _call(tr: Tracer, layer: str, fn, *args):
    tr.counts[layer + ".calls"] += 1
    return fn(*args)


def _dw_ec(kind: str, value: float, cavity) -> float:
    if kind == "rotation_rate_rad_s":
        return resonator.splitting_no_dispersion(cavity, value).dw_minus
    if kind == "delta_length_m":
        return -cavity.omega0 * value / cavity.round_trip_length
    return 2.0 * math.pi * value


def replay_command(command: str, path: str, tr: Tracer) -> None:
    with tr.span("scenario.parse"):
        scn = _call(tr, "scenario", scenario.load_scenario, path)
    with tr.span("scenario.build"):
        geom = _call(tr, "scenario", scn.geometry)
        cavity = _call(tr, "scenario", scn.cavity) if command != "sagnac" else None
        profile = _call(tr, "scenario", scn.profile)
        budget = _call(tr, "scenario", scn.budget)
        kind, drive = _call(tr, "scenario", scn.input_values)
    REPLAYS[command](scn, geom, cavity, profile, budget, kind, drive, tr)


def _sagnac(scn, geom, cavity, profile, budget, kind, drive, tr):
    w0 = scn.omega0()
    with tr.span("sagnac"):
        rot = _call(tr, "sagnac", sagnac.RotationState.from_geometry, float(drive[0]), geom)
        _call(tr, "sagnac", sagnac.vacuum_sagnac, geom, rot, w0)
        if profile is not None:
            n0 = float(profile.index(w0))
            n_g = float(profile.index(w0) + w0 * profile.dindex_domega(w0))
            try:
                _call(tr, "sagnac", sagnac.fresnel_drag, n0)
                _call(tr, "sagnac", sagnac.laub_drag, n0, n_g)
                _call(tr, "sagnac", sagnac.comoving_phase, n0, geom, rot, w0)
                _call(tr, "sagnac", sagnac.relative_rotation_phase, profile, geom, rot, w0)
            except ValueError:
                pass
        mass = scn.values.get("particle_mass_kg")
        if mass is not None:
            _call(tr, "sagnac", sagnac.matter_wave_phase, mass, geom, rot)


def _split(scn, geom, cavity, profile, budget, kind, drive, tr):
    rate = float(drive[0])
    with tr.span("resonator"):
        _call(tr, "resonator", resonator.splitting_no_dispersion, cavity, rate)
        _call(tr, "resonator", resonator.rotation_to_length, cavity, rate)
        if profile is not None:
            _cubic(tr, 2, resonator.rotation_response, profile, cavity, rate)


def _taylor(profile, cavity, tr: Tracer):
    medium = ConstantIndex(cavity.n0) if profile is None else profile
    return _call(tr, "resonator", resonator.effective_taylor, medium, cavity)


def _shift(scn, geom, cavity, profile, budget, kind, drive, tr):
    with tr.span("resonator"):
        dw_ec = _dw_ec(kind, float(drive[0]), cavity)
        t = _taylor(profile, cavity, tr)
        dw_dis = _cubic(tr, 1, resonator.shift_cubic, dw_ec, t)
        g = _call(tr, "resonator", resonator.effective_half_linewidth, t)
        if g is not None and dw_ec > 0.0:
            _call(tr, "resonator", resonator.enhancement_eta, g, dw_ec, scn.convention)
        _call(tr, "resonator", resonator.feedback_gain, t)
        try:
            _call(tr, "resonator", resonator.shifted_linewidth, cavity.gamma_ec, t, dw_dis)
        except ComputationError:
            _call(tr, "resonator", resonator.linewidth_cubic, cavity.gamma_ec, t)


def _linewidth(scn, geom, cavity, profile, budget, kind, drive, tr):
    with tr.span("resonator"):
        t = _taylor(profile, cavity, tr)
        _call(tr, "resonator", resonator.linewidth_cubic, cavity.gamma_ec, t)
        try:
            _call(tr, "resonator", resonator.airy_linewidth_cubic, cavity.gamma_ec, t)
        except (ComputationError, ValueError):
            pass
        dw_ec = _dw_ec(kind, float(drive[0]), cavity)
        if dw_ec != 0.0:
            dw_dis = _cubic(tr, 1, resonator.shift_cubic, dw_ec, t)
            _call(tr, "resonator", resonator.shifted_linewidth, cavity.gamma_ec, t, dw_dis)


def _half_linewidth(profile, cavity, tr: Tracer):
    if profile is None:
        return None
    with tr.span("resonator"):
        t = _call(tr, "resonator", resonator.effective_taylor, profile, cavity)
        return _call(tr, "resonator", resonator.effective_half_linewidth, t)


def _sensitivity(scn, geom, cavity, profile, budget, kind, drive, tr):
    g = _half_linewidth(profile, cavity, tr)
    conv = scn.convention
    with tr.span("sensitivity"):
        if budget.has_photon_budget:
            _call(tr, "sensitivity", budget.photon_number, cavity.omega0)
        _call(tr, "sensitivity", budget.snr_for, cavity.omega0)
        dw_min = _call(tr, "sensitivity", sensitivity.min_shift_passive, cavity, budget)
        _call(tr, "sensitivity", sensitivity.min_length, dw_min, cavity)
        _call(tr, "sensitivity", sensitivity.min_rotation, cavity, budget, "passive_empty")
        if not budget.has_photon_budget:
            return
        dw_laser = _call(tr, "sensitivity", sensitivity.laser_linewidth, cavity, budget)
        _call(tr, "sensitivity", sensitivity.min_rotation, cavity, budget, "rlg_empty")
    if g is None:
        return
    with tr.span("resonator"):
        eta = _call(tr, "resonator", resonator.enhancement_eta, g, dw_laser, conv)
    with tr.span("sensitivity"):
        _call(tr, "sensitivity", sensitivity.min_rotation, cavity, budget, "rlg_dispersive", g, conv)
        _call(tr, "sensitivity", sensitivity.min_length_passive_dispersive, cavity, budget, eta)


def _lens_thirring(scn, geom, cavity, profile, budget, kind, drive, tr):
    g = _half_linewidth(profile, cavity, tr)
    conv = scn.convention
    with tr.span("sensitivity"):
        _call(tr, "sensitivity", budget.photon_number, cavity.omega0)
        _call(tr, "sensitivity", budget.snr_for, cavity.omega0)
        _call(tr, "sensitivity", sensitivity.lens_thirring_rate)
        dw_laser = _call(tr, "sensitivity", sensitivity.laser_linewidth, cavity, budget)
    if g is not None:
        with tr.span("resonator"):
            _call(tr, "resonator", resonator.enhancement_eta, g, dw_laser, conv)
        mode, extra = "rlg_dispersive", (g, conv)
    else:
        mode, extra = "rlg_empty", ()
    with tr.span("sensitivity"):
        floor = _call(tr, "sensitivity", sensitivity.min_rotation, cavity, budget, mode, *extra)
        _call(tr, "sensitivity", sensitivity.lens_thirring_margin, floor)


def _resonance(profile, cavity, delta_length: float, tr: Tracer):
    """auto_grid, then find_resonance on that grid, each under its span."""
    with tr.span("spectrum.auto_grid"):
        grid = spectrum.auto_grid(profile, cavity, delta_length)
    tr.counts["spectrum.grids"] += 1
    tr.counts["spectrum.grid_points"] += grid.points
    tr.grid_points.append(grid.points)
    with tr.span("spectrum.find_resonance"):
        res = spectrum.find_resonance(profile, cavity, delta_length, grid)
    tr.counts["spectrum.resonances"] += 1
    return grid, res


def trace_replay(profile, cavity, delta_length: float, tr: Tracer) -> float:
    """spectrum.trace split into its four public steps; returns the FWHM."""
    grid, res = _resonance(profile, cavity, delta_length, tr)
    with tr.span("spectrum.measure_fwhm"):
        fwhm = spectrum.measure_fwhm(profile, cavity, delta_length, res)
    with tr.span("spectrum.transmission"):
        spectrum.transmission(profile, cavity, delta_length, grid.omegas)
    return fwhm


def sweep_replay(profile, cavity, dw_values, tr: Tracer) -> list[tuple[float, float]]:
    """sweep_enhancement as auto_grid plus find_resonance per point."""
    with tr.span("resonator"):
        t = _call(tr, "resonator", resonator.effective_taylor, profile, cavity)
        g = _call(tr, "resonator", resonator.effective_half_linewidth, t)
    rows = []
    for dw in dw_values:
        _, res = _resonance(profile, cavity, -dw * cavity.round_trip_length / cavity.omega0, tr)
        with tr.span("resonator"):
            _call(tr, "resonator", resonator.enhancement_eta, g, dw, "derived")
            _call(tr, "resonator", resonator.enhancement_eta, g, dw, "paper")
        rows.append((dw, (res - cavity.omega0) / dw))
    return rows


def _spectrum(scn, geom, cavity, profile, budget, kind, drive, tr):
    medium = ConstantIndex(cavity.n0) if profile is None else _counting(profile, tr)
    dw_ec = _dw_ec(kind, float(drive[0]), cavity)
    trace_replay(medium, cavity, -dw_ec * cavity.round_trip_length / cavity.omega0, tr)


def _fig4(scn, geom, cavity, profile, budget, kind, drive, tr):
    sweep_replay(_counting(profile, tr), cavity, 2.0 * math.pi * drive, tr)


def _fig5(scn, geom, cavity, profile, budget, kind, drive, tr):
    dw_ec = 2.0 * math.pi * float(drive[0])
    eta = 2.0 * math.pi * scn.require("enhanced_shift_target_hz") / dw_ec
    medium = _counting(cad_tune(half_linewidth=dw_ec * eta ** 1.5, center=cavity.omega0), tr)
    delta_length = -dw_ec * cavity.round_trip_length / cavity.omega0
    trace_replay(ConstantIndex(cavity.n0), cavity, delta_length, tr)
    trace_replay(medium, cavity, delta_length, tr)


REPLAYS = {
    "sagnac": _sagnac,
    "split": _split,
    "shift": _shift,
    "linewidth": _linewidth,
    "spectrum": _spectrum,
    "fig4": _fig4,
    "fig5": _fig5,
    "sensitivity": _sensitivity,
    "lens-thirring": _lens_thirring,
}


# --------------------------------------------------------------------------
# the sweep op
# --------------------------------------------------------------------------


def sweep_setup(op: dict):
    """Cavities and medium of one sweep op, built from its generated values."""
    geom = sagnac.LoopGeometry.circular(op["radius_m"])
    omega0 = 2.0 * math.pi * op["frequency_hz"]
    cavity = resonator.RingCavity(geometry=geom, finesse=op["finesse"], omega0=omega0)
    narrow = resonator.RingCavity(geometry=geom, finesse=op["trace_finesse"], omega0=omega0)
    profile = cad_tune(half_linewidth=math.pi * op["medium_linewidth_fwhm_hz"], center=omega0)
    delta_length = -op["trace_dw_ec"] * narrow.round_trip_length / omega0
    return cavity, narrow, profile, delta_length


def sweep_plain(op: dict) -> tuple[list[tuple[float, float]], float]:
    cavity, narrow, profile, delta_length = sweep_setup(op)
    samples = spectrum.sweep_enhancement(profile, cavity, op["dw_ec"])
    fwhm = spectrum.trace(profile, narrow, delta_length).fwhm
    return [(s.dw_ec, s.eta_numeric) for s in samples], fwhm


def sweep_traced(op: dict, tr: Tracer) -> tuple[list[tuple[float, float]], float]:
    cavity, narrow, profile, delta_length = sweep_setup(op)
    profile = CountingLorentzian.wrap(profile, tr.counts)
    rows = sweep_replay(profile, cavity, op["dw_ec"], tr)
    fwhm = trace_replay(profile, narrow, delta_length, tr)
    tr.close_op()
    return rows, fwhm
