"""Command-line front end: scenario file in, tagged numbers out.

Every numeric result line printed to stdout ends with a bracketed tag giving
the formula (and, where it matters, the convention) that produced the number,
so a value can always be traced back to its defining expression without
opening the source. Input echoes and status lines use ':' and carry no tags.

Exit codes: 0 success, 2 scenario/usage errors, 3 computation failures.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys
from pathlib import Path

# numpy's OpenBLAS starts one worker thread per CPU when numpy executes, which
# only the commands that scan a spectrum make it do; none makes a BLAS call,
# so one thread saves that start-up. A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .constants import LENSE_THIRRING_FRACTION, OMEGA_EARTH
from .dispersion import TaylorCubic, cad_tune, group_index
from .errors import ComputationError, ScenarioError
from .resonator import (
    ETA_CONVENTIONS,
    airy_linewidth_cubic,
    effective_half_linewidth,
    effective_taylor,
    enhancement_eta,
    feedback_gain,
    linewidth_cubic,
    rotation_response,
    rotation_to_length,
    shift_cubic,
    shifted_linewidth,
    splitting_no_dispersion,
)
from .sagnac import (
    RotationState,
    comoving_phase,
    fresnel_drag,
    laub_drag,
    matter_wave_phase,
    relative_rotation_phase,
    vacuum_sagnac,
)
from .scenario import OUTPUT_FORMATS, Scenario, load_scenario
from .sensitivity import (
    laser_linewidth,
    lens_thirring_margin,
    lens_thirring_rate,
    min_length,
    min_length_passive_dispersive,
    min_rotation,
    min_shift_passive,
)

TWO_PI = 2.0 * math.pi
# tag of a width that is the linewidth_cubic root
_CUBIC_WIDTH = "positive root of n3*w0*g^3 + n_g*g = gamma_ec"


class Report:
    """Collects tagged scalars and named tables; renders stdout and files."""

    def __init__(self, command: str, scenario: Scenario, convention: str):
        self.command = command
        self.scenario = scenario
        self.convention = convention
        self.lines: list[str] = []
        self.results: dict[str, dict] = {}
        self.tables: dict[str, tuple[list[str], list[tuple]]] = {}

    def note(self, text: str) -> None:
        self.lines.append(text)

    def add(self, key: str, value: float, unit: str, tag: str) -> None:
        if not math.isfinite(value):
            raise ComputationError(f"{key} is not finite ({value}) for these inputs")
        self.results[key] = {"value": float(value), "unit": unit, "formula": tag}
        suffix = f" {unit}" if unit else ""
        self.lines.append(f"{key} = {value:.12g}{suffix}  [{tag}]")

    def add_table(self, name: str, header: list[str], rows) -> None:
        self.tables[name] = (list(header), [tuple(float(x) for x in r) for r in rows])

    def add_trace(self, name: str, trace) -> None:
        rows = zip(trace.omega.tolist(), trace.transmission.tolist())
        self.add_table(name, ["omega_rad_s", "transmission"], rows)

    def render(self, wrote: list[Path]) -> str:
        out = [
            f"command: {self.command}",
            f"scenario: {self.scenario.source}",
            f"convention: {self.convention}",
            "inputs:",
        ]
        out += [f"  {k}: {v}" for k, v in self.scenario.echo().items()]
        out.append("")
        out += self.lines
        for path in wrote:
            out.append(f"wrote: {path}")
        if not wrote:
            for name, (header, rows) in self.tables.items():
                out.append(f"table {name} ({len(rows)} rows):")
                out += _table_lines(header, rows)
        return "\n".join(out)


def _table_lines(header: list[str], rows: list[tuple]) -> list[str]:
    return [",".join(header)] + [",".join(f"{x:.16e}" for x in row) for row in rows]


def _output_files(report: Report, fmt: str) -> dict[str, str]:
    """Name and text of every file the report writes."""
    if fmt == "json":
        doc = {
            "command": report.command,
            "convention": report.convention,
            "inputs": report.scenario.echo(),
            "results": report.results,
            "tables": {
                name: {"header": header, "rows": [list(r) for r in rows]}
                for name, (header, rows) in report.tables.items()
            },
        }
        return {f"{report.command}.json": json.dumps(doc, sort_keys=True, indent=2) + "\n"}
    files = {}
    if report.results:
        # scalar results; tables get their own files named after themselves
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["quantity", "value", "unit", "formula"])
        for key, entry in report.results.items():
            writer.writerow([key, f"{entry['value']:.16e}", entry["unit"], entry["formula"]])
        files[f"{report.command}_results.csv"] = buf.getvalue()
    for name, (header, rows) in report.tables.items():
        files[f"{name}.csv"] = "\n".join(_table_lines(header, rows)) + "\n"
    return files


def _write_outputs(report: Report, out_dir: Path | None, fmt: str) -> list[Path]:
    """Write all of the report's files or none of them.

    Each file goes to a temporary `.<name>.tmp` beside its target first. The
    temporaries are renamed onto the targets only after every write has
    succeeded, and are removed if one fails. A target that is a directory is
    refused before anything is written, so no rename fails on it.
    """
    if out_dir is None:
        return []
    files = {out_dir / name: text for name, text in _output_files(report, fmt).items()}
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in files:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    temps = []
    try:
        for path, text in files.items():
            tmp = path.with_name(f".{path.name}.tmp")
            with tmp.open("w", newline="", encoding="utf-8") as fh:
                temps.append(tmp)
                fh.write(text)
        for tmp, path in zip(temps, files):
            tmp.replace(path)
    except OSError:
        for tmp in temps:
            tmp.unlink(missing_ok=True)
        raise
    return list(files)


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------


def _require_below_omega0(scn: Scenario, cavity, dw_ec: float) -> None:
    if not abs(dw_ec) < cavity.omega0:
        raise ScenarioError(
            f"{scn.source}: the empty-cavity shift dw_ec = {dw_ec:.6g} rad/s must stay below "
            f"omega0 = {cavity.omega0:.6g} rad/s in magnitude"
        )


def _require_rotation_scale(scn: Scenario, cavity) -> None:
    if not cavity.rotation_scale > 0.0:
        raise ScenarioError(
            f"{scn.source}: the rotation scale (w0/(c0*n0))*2*A/P underflows to 0 for w0 = "
            f"{cavity.omega0:.3g} rad/s, n0 = {cavity.n0:.3g} and 2A/P = {cavity.geometry.effective_radius:.3g} m"
        )


def _drive(scn: Scenario, cavity, rotation_only: bool = False) -> tuple[float, float | None, str | None]:
    """The drive's value, its empty-cavity shift dw_ec (ccw direction for a
    rotation) and dw_ec's tag.

    Every command that reads the drive reads it here, so each refuses the
    same drives with the same message: a rotation whose rim speed reaches c0,
    or that a rotation scale underflowing to 0 would turn into no shift at
    all, then any drive whose |dw_ec| reaches omega0, beyond which the
    cubic's expansion about the resonance models nothing. Without a cavity
    (`sagnac`) only the rim speed applies, and dw_ec and its tag are None.
    """
    kind, value = scn.input_scalar()
    if rotation_only and kind != "rotation_rate_rad_s":
        raise ScenarioError(f"{scn.source}: this command needs rotation_rate_rad_s, got {kind}")
    if kind == "rotation_rate_rad_s":
        try:
            RotationState.from_geometry(value, scn.geometry())
        except ValueError as exc:
            raise ScenarioError(f"{scn.source}: {exc}") from None
        if cavity is None:
            return value, None, None
        _require_rotation_scale(scn, cavity)
        dw_ec, tag = cavity.rotation_scale * value, "dw_ec = (w0/(c0*n0))*2*Omega*A/P, ccw direction"
    elif kind == "delta_length_m":
        dw_ec, tag = cavity.shift_for_length(value), "dw_ec = -w0*dL/L"
    else:
        dw_ec, tag = TWO_PI * value, "dw_ec = 2*pi*empty_cavity_shift_hz"
    _require_below_omega0(scn, cavity, dw_ec)
    return value, dw_ec, tag


def _vacuum(cavity) -> TaylorCubic:
    """The empty cavity's background as a dispersionless cubic."""
    return TaylorCubic(cavity.n0, 0.0, 0.0, cavity.omega0)


def _effective_profile(scn: Scenario, cavity):
    profile = scn.profile()
    return _vacuum(cavity) if profile is None else profile


def _eta_tag(convention: str, against: str) -> str:
    scale = "2*G" if convention == "paper" else "G"
    return f"eta = ({scale}/{against})^(2/3), {convention} convention"


def _add_half_linewidth(rp: Report, profile, cavity) -> float | None:
    """Add G of the path-averaged medium where it is defined, and return it."""
    g = effective_half_linewidth(effective_taylor(profile, cavity))
    if g is not None:
        rp.add("half_linewidth", g, "rad/s", "G = sqrt(-n1/n3) of the path-averaged medium")
    return g


def _add_shifted_width(rp: Report, key: str, cavity, t: TaylorCubic, dw_dis: float) -> None:
    """Add the local group index at w0 + dw_dis and the linewidth there, as `key`."""
    widths = shifted_linewidth(cavity.gamma_ec, t, dw_dis)
    rp.add("local_group_index", widths.local_ng, "", "n_g(w0) + 3*n3*w0*dw_dis^2")
    tag = _CUBIC_WIDTH if widths.from_cubic else "gamma_ec/n_g(w0 + dw_dis)"
    rp.add(key, widths.gamma_dis, "rad/s", tag)


def _add_earth(rp: Report, key: str, rate: float) -> None:
    rp.add(f"{key}_earth", rate / OMEGA_EARTH, "Omega_earth", "Omega_min/Omega_earth")


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

# `spectrum` is imported by the three commands that scan a trace or a sweep,
# so the others start without loading it.


def _cmd_sagnac(scn: Scenario, rp: Report) -> None:
    geom = scn.geometry()
    omega = scn.omega0()
    omega_rot, _, _ = _drive(scn, None, rotation_only=True)
    mass = scn._float("particle_mass_kg")
    rot = RotationState.from_geometry(omega_rot, geom)
    try:
        mw = None if mass is None else matter_wave_phase(mass, geom, rot)
    except ValueError as exc:
        raise ScenarioError(f"{scn.source}: {exc}") from None
    ph = vacuum_sagnac(geom, rot, omega)
    rp.add("beta", ph.beta, "", "beta = Omega*R_eff/c0")
    rp.add("delta_t_first_order", ph.delta_t_first_order, "s", "dt0 = 2*A*Omega/c0^2")
    rp.add("delta_t", ph.delta_t, "s", "dt = 2*A*Omega/(c0^2*(1 - beta^2))")
    rp.add("delta_phi_first_order", ph.delta_phi_first_order, "rad", "dphi0 = omega*dt0")
    rp.add("delta_phi", ph.delta_phi, "rad", "dphi = omega*dt")

    profile = scn.profile()
    if profile is not None:
        n0 = float(profile.index(omega))
        n_g = float(group_index(profile, omega))
        rp.add("medium_index", n0, "", "n(w0)")
        rp.add("medium_group_index", n_g, "", "n_g = n + w0*(dn/dw)")
        try:
            rp.add("fresnel_drag", fresnel_drag(n0), "", "alpha_F = 1 - 1/n^2")
            rp.add(
                "laub_drag",
                laub_drag(n0, n_g),
                "",
                "alpha_L = 1 - 1/n0^2 + (n_g - n0)/n0^2",
            )
            rp.add(
                "comoving_phase",
                comoving_phase(n0, geom, rot, omega),
                "rad",
                "n^2*(1 - alpha_F)*dphi: equals dphi for every n",
            )
            rel = relative_rotation_phase(profile, geom, rot, omega)
            rp.add(
                "relative_rotation_phase",
                rel,
                "rad",
                "(1 + n_g - n0)*dphi: dispersive pull survives",
            )
            if ph.delta_phi != 0.0:
                rp.add("relative_scaling", rel / ph.delta_phi, "", "(1 + n_g - n0)")
        except ValueError:
            rp.note("drag phases skipped: phase index below 1 at this frequency")

    if mw is not None:
        rp.add("matter_wave_phase", mw, "rad", "dphi_m = 4*pi*m*A*Omega/h")
        if ph.delta_phi_first_order != 0.0:
            rp.add(
                "matter_to_light_ratio",
                mw / ph.delta_phi_first_order,
                "",
                "m*c0^2/(hbar*omega)",
            )


def _cmd_split(scn: Scenario, rp: Report) -> None:
    cavity = scn.cavity()
    omega_rot, _, _ = _drive(scn, cavity, rotation_only=True)
    base = splitting_no_dispersion(cavity, omega_rot)
    rp.add("gamma_ec", cavity.gamma_ec, "rad/s", "gamma_ec = 2*pi*c0/(n0*L*F)")
    rp.add("dw_ccw", base.dw_minus, "rad/s", "+(w0/(c0*n0))*2*Omega*A/P")
    rp.add("dw_cw", base.dw_plus, "rad/s", "-(w0/(c0*n0))*2*Omega*A/P")
    rp.add("splitting", base.splitting, "rad/s", "dw0 = (w0/(c0*n0))*4*Omega*A/P")
    rp.add("splitting_hz", base.splitting / TWO_PI, "Hz", "dw0/(2*pi)")
    rp.add(
        "equivalent_delta_length",
        rotation_to_length(cavity, omega_rot),
        "m",
        "dL_eff = -P*Omega*R_eff/(n0*c0), ccw direction",
    )
    profile = scn.profile()
    if profile is not None:
        resp = rotation_response(profile, cavity, omega_rot)
        rp.add("dw_ccw_dispersive", resp.dw_minus, "rad/s", "cubic root scaled by n(w0)/n(w0+dw)")
        rp.add("dw_cw_dispersive", resp.dw_plus, "rad/s", "cubic root scaled by n(w0)/n(w0+dw)")
        rp.add("splitting_dispersive", resp.splitting, "rad/s", "dw_ccw_dis - dw_cw_dis")
        if base.splitting != 0.0:
            rp.add("enhancement", resp.splitting / base.splitting, "", "eta = splitting_dispersive/splitting")
        rp.add("local_group_index", resp.width.local_ng, "", "n_g(w0) + 3*n3*w0*dw^2")
        gamma_tag = _CUBIC_WIDTH if resp.width.from_cubic else "gamma_ec/n_g at the shifted resonance"
        rp.add("gamma_dispersive", resp.width.gamma_dis, "rad/s", gamma_tag)


def _cmd_shift(scn: Scenario, rp: Report) -> None:
    cavity = scn.cavity()
    _, dw_ec, tag = _drive(scn, cavity)
    rp.add("dw_ec", dw_ec, "rad/s", tag)
    t = effective_taylor(_effective_profile(scn, cavity), cavity)
    rp.add("group_index", t.ng0, "", "n_g = n0_eff + w0*n1_eff")
    dw_dis = shift_cubic(dw_ec, t)
    rp.add("dw_dis", dw_dis, "rad/s", "root of n3*w0*x^3 + n_g*x = dw_ec")
    rp.add("dw_dis_hz", dw_dis / TWO_PI, "Hz", "dw_dis/(2*pi)")
    if dw_ec != 0.0:
        rp.add("enhancement", dw_dis / dw_ec, "", "eta = dw_dis/dw_ec")
    g = effective_half_linewidth(t)
    if g is not None and dw_ec > 0.0:
        rp.add(
            "enhancement_analytic",
            enhancement_eta(g, dw_ec, rp.convention),
            "",
            _eta_tag(rp.convention, "dw_ec"),
        )
    rp.add("feedback_gain", feedback_gain(t), "", "G_fb = 1 - n_g/n0")
    _add_shifted_width(rp, "gamma_dis", cavity, t, dw_dis)


def _cmd_linewidth(scn: Scenario, rp: Report) -> None:
    cavity = scn.cavity()
    _, dw_ec, _ = _drive(scn, cavity)
    rp.add("gamma_ec", cavity.gamma_ec, "rad/s", "gamma_ec = 2*pi*c0/(n0*L*F)")
    rp.add("ring_down_time", cavity.ring_down_time, "s", "tau_c = 1/gamma_ec")
    t = effective_taylor(_effective_profile(scn, cavity), cavity)
    rp.add("group_index", t.ng0, "", "n_g = n0_eff + w0*n1_eff")
    # the shift before the widths, so that a drive whose shift and width
    # both reach omega0 is refused for its shift, as by `shift` and `split`
    dw_dis = shift_cubic(dw_ec, t) if dw_ec != 0.0 else None
    gamma_self = linewidth_cubic(cavity.gamma_ec, t)
    rp.add("gamma_dis", gamma_self, "rad/s", _CUBIC_WIDTH)
    try:
        gamma_airy = airy_linewidth_cubic(cavity.gamma_ec, t)
        rp.add(
            "gamma_dis_airy",
            gamma_airy,
            "rad/s",
            "positive root of (n3*w0/4)*g^3 + n_g*g = gamma_ec",
        )
        rp.add("airy_ratio", gamma_airy / gamma_self, "", "2^(2/3) at the white-light point")
    except (ComputationError, ValueError):
        rp.note("airy linewidth unavailable for these coefficients")
    if dw_dis is not None:
        rp.add("dw_dis", dw_dis, "rad/s", "root of n3*w0*x^3 + n_g*x = dw_ec")
        _add_shifted_width(rp, "gamma_shifted", cavity, t, dw_dis)


def _cmd_spectrum(scn: Scenario, rp: Report) -> None:
    from .spectrum import trace

    cavity = scn.cavity()
    profile = _effective_profile(scn, cavity)
    _, dw_ec, tag = _drive(scn, cavity)
    delta_length = cavity.length_for_shift(dw_ec)
    rp.add("dw_ec", dw_ec, "rad/s", tag)
    rp.add("delta_length", delta_length, "m", "dL = -dw_ec*L/w0")
    result = trace(profile, cavity, delta_length)
    shift = result.resonance - cavity.omega0
    rp.add("resonance", result.resonance, "rad/s", "argmin of sin^2(Psi/2) near the peak sample")
    rp.add("shift", shift, "rad/s", "resonance - w0")
    rp.add("shift_hz", shift / TWO_PI, "Hz", "shift/(2*pi)")
    if dw_ec != 0.0:
        rp.add("enhancement_numeric", shift / dw_ec, "", "eta = shift/dw_ec")
    rp.add("fwhm", result.fwhm, "rad/s", "width between the roots of Psi = +-2*asin(sqrt(s_half))")
    rp.add("fwhm_hz", result.fwhm / TWO_PI, "Hz", "fwhm/(2*pi)")
    rp.add_trace("spectrum", result)


def _cmd_fig4(scn: Scenario, rp: Report) -> None:
    from .spectrum import sweep_enhancement

    cavity = scn.cavity()
    kind, values = scn.input_values()
    if kind != "empty_cavity_shift_hz" or len(values) < 2:
        raise ScenarioError(
            f"{scn.source}: this command needs empty_cavity_shift_hz as a range"
        )
    if values.min() <= 0.0:
        raise ScenarioError(f"{scn.source}: this command needs positive empty_cavity_shift_hz values")
    # the range's largest drive, on a Python float, so that 2*pi times it
    # overflows to inf without a numpy warning
    _require_below_omega0(scn, cavity, TWO_PI * float(values.max()))
    profile = scn.profile()
    if profile is None:
        raise ScenarioError(f"{scn.source}: this command needs a dispersive medium")
    samples = sweep_enhancement(profile, cavity, TWO_PI * values)
    _add_half_linewidth(rp, profile, cavity)
    rp.add("points", float(len(samples)), "", "sweep length")
    dev = max(abs(s.eta_numeric / s.eta_analytic_derived - 1.0) for s in samples)
    rp.add(
        "max_rel_dev_derived",
        dev,
        "",
        "max |eta_numeric/eta_analytic_derived - 1| over the sweep",
    )
    rp.add_table(
        "fig4",
        ["dw_ec", "eta_numeric", "eta_analytic_derived", "eta_analytic_paper"],
        [(s.dw_ec, s.eta_numeric, s.eta_analytic_derived, s.eta_analytic_paper) for s in samples],
    )


def _cmd_fig5(scn: Scenario, rp: Report) -> None:
    from .spectrum import trace

    cavity = scn.cavity()
    if cavity.fill_fraction != 1.0:
        raise ScenarioError(f"{scn.source}: this command assumes fill_fraction = 1")
    if scn.input_kind() != "empty_cavity_shift_hz":
        raise ScenarioError(f"{scn.source}: this command needs empty_cavity_shift_hz")
    shift_hz, dw_ec, tag = _drive(scn, cavity)
    if shift_hz <= 0.0:
        raise ScenarioError(f"{scn.source}: this command needs a positive empty_cavity_shift_hz")
    dw_target = TWO_PI * scn.require("enhanced_shift_target_hz")
    if dw_target <= dw_ec:
        raise ScenarioError(f"{scn.source}: target shift must exceed the empty-cavity shift")
    eta_target = dw_target / dw_ec
    rp.add("dw_ec", dw_ec, "rad/s", tag)
    rp.add("dw_target", dw_target, "rad/s", "2*pi*enhanced_shift_target_hz")
    rp.add("eta_target", eta_target, "", "eta = dw_target/dw_ec")
    try:
        g_derived = dw_ec * eta_target ** 1.5
    except OverflowError:
        raise ScenarioError(
            f"{scn.source}: target enhancement {eta_target:.3g} too large: "
            "the half linewidth dw_ec*eta^(3/2) overflows"
        ) from None
    g_paper = 0.5 * g_derived
    rp.add(
        "half_linewidth_derived",
        g_derived,
        "rad/s",
        "G = dw_ec*eta^(3/2), derived convention",
    )
    rp.add(
        "fwhm_derived_hz",
        g_derived / math.pi,
        "Hz",
        "G/pi, derived convention",
    )
    rp.add(
        "half_linewidth_paper",
        g_paper,
        "rad/s",
        "G = dw_ec*eta^(3/2)/2, paper convention",
    )
    rp.add("fwhm_paper_hz", g_paper / math.pi, "Hz", "G/pi, paper convention")
    rp.note("simulating with the derived-convention half linewidth")

    profile = cad_tune(half_linewidth=g_derived, center=cavity.omega0)
    vacuum = _vacuum(cavity)
    delta_length = cavity.length_for_shift(dw_ec)
    rp.add("delta_length", delta_length, "m", "dL = -dw_ec*L/w0")

    trace_vac = trace(vacuum, cavity, delta_length)
    shift_vac = trace_vac.resonance - cavity.omega0
    rp.add("shift_vacuum", shift_vac, "rad/s", "numeric resonance - w0, empty cavity")
    trace_dis = trace(profile, cavity, delta_length)
    shift_dis = trace_dis.resonance - cavity.omega0
    rp.add("shift_dispersive", shift_dis, "rad/s", "numeric resonance - w0, medium in")
    rp.add("eta_realized", shift_dis / dw_ec, "", "eta = shift_dispersive/dw_ec")
    rp.add(
        "target_deviation",
        shift_dis / dw_target - 1.0,
        "",
        "shift_dispersive/dw_target - 1",
    )
    rp.add_trace("fig5_vacuum", trace_vac)
    rp.add_trace("fig5_dispersive", trace_dis)


def _sensitivity_core(scn: Scenario, rp: Report):
    cavity = scn.cavity()
    budget = scn.budget()
    if budget is None:
        raise ScenarioError(f"{scn.source}: this command needs a noise budget")
    rp.add("gamma_ec", cavity.gamma_ec, "rad/s", "gamma_ec = 2*pi*c0/(n0*L*F)")
    if budget.has_photon_budget:
        n_phot = budget.photon_number(cavity.omega0)
        rp.add("photon_number", n_phot, "", "N = eta_q*P*tau/(hbar*w0)")
    rp.add("snr", budget.snr_for(cavity.omega0), "", "given snr, else sqrt(N)")
    profile = scn.profile()
    g = None if profile is None else _add_half_linewidth(rp, profile, cavity)
    # both commands divide by the rotation scale
    _require_rotation_scale(scn, cavity)
    return cavity, budget, g


def _dispersive_floor(
    rp: Report, cavity, budget, g: float, dw_laser: float, key: str
) -> tuple[float, float]:
    """Add the enhancement at dw_ec = dw_laser and the rotation floor it gives, as `key`."""
    eta = enhancement_eta(g, dw_laser, rp.convention)
    rp.add("enhancement", eta, "", _eta_tag(rp.convention, "dw_laser"))
    floor = min_rotation(cavity, budget, "rlg_dispersive", g, rp.convention)
    rp.add(key, floor, "rad/s", f"Omega_min = dw_laser/(eta*scale), {rp.convention} convention")
    return eta, floor


def _cmd_sensitivity(scn: Scenario, rp: Report) -> None:
    cavity, budget, g = _sensitivity_core(scn, rp)
    omega_in = _drive(scn, cavity)[0] if scn.input_kind() == "rotation_rate_rad_s" else 0.0
    rp.add("rotation_scale", cavity.rotation_scale, "rad/s per rad/s", "(w0/(c0*n0))*2*A/P, per direction")

    dw_passive = min_shift_passive(cavity, budget)
    rp.add("min_shift_passive", dw_passive, "rad/s", "dw_min = gamma_ec/SNR")
    rp.add("min_length_passive", min_length(dw_passive, cavity), "m", "dL_min = dw_min*L/w0")
    omega_passive = min_rotation(cavity, budget, "passive_empty")
    rp.add("min_rotation_passive", omega_passive, "rad/s", "Omega_min = dw_min/scale")

    if budget.has_photon_budget:
        dw_laser = laser_linewidth(cavity, budget)
        rp.add("laser_linewidth", dw_laser, "rad/s", "dw_laser = gamma_ec/sqrt(N)")
        omega_empty = min_rotation(cavity, budget, "rlg_empty")
        rp.add("min_rotation_rlg_empty", omega_empty, "rad/s", "Omega_min = dw_laser/scale")
        _add_earth(rp, "min_rotation_rlg_empty", omega_empty)
        if g is not None:
            eta, omega_dis = _dispersive_floor(
                rp, cavity, budget, g, dw_laser, "min_rotation_rlg_dispersive"
            )
            _add_earth(rp, "min_rotation_rlg_dispersive", omega_dis)
            rp.add(
                "min_length_passive_dispersive",
                min_length_passive_dispersive(cavity, budget, eta),
                "m",
                "((eta/3)*dw_min/eta)*L/w0 = dL_min/3 for every eta",
            )
    if omega_in > 0.0:
        rp.add("drive_rotation", omega_in, "rad/s", "scenario drive input")
        rp.add("drive_over_passive_floor", omega_in / omega_passive, "", "drive/min_rotation_passive")


def _cmd_lens_thirring(scn: Scenario, rp: Report) -> None:
    cavity, budget, g = _sensitivity_core(scn, rp)
    rp.add("omega_earth", OMEGA_EARTH, "rad/s", "sidereal rotation rate")
    rp.add("surface_fraction", LENSE_THIRRING_FRACTION, "", "frame-dragging to spin ratio at the surface")
    rp.add(
        "omega_lense_thirring",
        lens_thirring_rate(),
        "rad/s",
        "Omega_LT = 5.6e-10*Omega_earth",
    )
    if not budget.has_photon_budget:
        raise ScenarioError(f"{scn.source}: this command needs output_power_w and measurement_time_s")
    dw_laser = laser_linewidth(cavity, budget)
    rp.add("laser_linewidth", dw_laser, "rad/s", "dw_laser = gamma_ec/sqrt(N)")
    if g is not None:
        _, floor = _dispersive_floor(rp, cavity, budget, g, dw_laser, "min_rotation")
    else:
        floor = min_rotation(cavity, budget, "rlg_empty")
        rp.add("min_rotation", floor, "rad/s", "Omega_min = dw_laser/scale")
    margin = lens_thirring_margin(floor)
    rp.add("margin", margin, "", "margin = Omega_LT/Omega_min")
    rp.note("resolvable: yes" if margin >= 1.0 else "resolvable: no")


COMMANDS = {
    "sagnac": (_cmd_sagnac, [], "open-loop counterpropagating delay and drag phases"),
    "split": (_cmd_split, [], "rotation-induced mode splitting of the ring"),
    "shift": (_cmd_shift, [], "dispersion-modified resonance shift"),
    "linewidth": (_cmd_linewidth, [], "self-consistent and shifted linewidths"),
    "spectrum": (_cmd_spectrum, [], "numeric transmission trace around one resonance"),
    "fig4": (_cmd_fig4, ["enhancement-sweep"], "numeric vs analytic enhancement sweep"),
    "fig5": (_cmd_fig5, ["shift-demo"], "back-derived medium realizing a target shift"),
    "sensitivity": (_cmd_sensitivity, [], "noise floors for shift, length, and rotation"),
    "lens-thirring": (_cmd_lens_thirring, [], "margin against the frame-dragging rate"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastlight",
        description="fast-light ring-cavity response and sensitivity calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, aliases, help_text) in COMMANDS.items():
        p = sub.add_parser(name, aliases=aliases, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario file (key=value or JSON)")
        p.add_argument("--out", default=None, help="directory for result files")
        p.add_argument(
            "--format",
            choices=OUTPUT_FORMATS,
            default=None,
            help="result file format (default: scenario output_format or csv)",
        )
        p.add_argument(
            "--convention",
            choices=ETA_CONVENTIONS,
            default=None,
            help="enhancement convention (default: scenario convention or derived)",
        )
        p.set_defaults(handler=handler, canonical=name)
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    scn = load_scenario(args.scenario)
    convention = args.convention or scn.convention
    fmt = args.format or scn.output_format
    out_dir = args.out or scn.output_dir
    report = Report(args.canonical, scn, convention)
    args.handler(scn, report)
    try:
        wrote = _write_outputs(report, Path(out_dir) if out_dir else None, fmt)
    except OSError as exc:
        raise ScenarioError(f"cannot write output to {out_dir}: {exc}") from None
    try:
        print(report.render(wrote), flush=True)
    except BrokenPipeError:
        # the reader closed stdout (say `| head -1`) after the files were
        # written; point the flush at exit to devnull and end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def main(argv=None) -> int:
    try:
        return run(argv)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, ValueError, ArithmeticError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
