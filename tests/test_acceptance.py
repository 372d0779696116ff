"""Acceptance gate: twelve behavioural criteria, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each test prints exactly one line, PASS or FAIL, with the measured numbers
and the pinned tolerance, then asserts. Randomized checks use seeded RNGs
so the gate is deterministic.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import time

from oracle_utils import bisect_cubic_branch, random_cubic_case
from test_dispersion import fd_group_index, fd_step, random_profile

from fastlight.cli import main
from fastlight.constants import C0, OMEGA_EARTH
from fastlight.dispersion import (
    TaylorCubic,
    cad_tune,
    group_index,
)
from fastlight.resonator import (
    RingCavity,
    airy_linewidth_cubic,
    effective_half_linewidth,
    effective_taylor,
    enhancement_eta,
    linewidth_cubic,
    shift_cubic,
    shifted_linewidth,
)
from fastlight.sagnac import LoopGeometry, RotationState, comoving_phase, relative_rotation_phase, vacuum_sagnac
from fastlight.scenario import load_scenario
from fastlight.sensitivity import (
    NoiseBudget,
    lens_thirring_margin,
    min_length,
    min_length_passive_dispersive,
    min_rotation,
    min_shift_passive,
)
from fastlight.spectrum import sweep_enhancement, trace

W0 = 2.0 * math.pi * 5.0e14
G = 2.0 * math.pi * 1.0e6
CIRCLE = LoopGeometry.circular(1.0)
SQUARE = LoopGeometry(area=1.0, perimeter=4.0)
TABLETOP = "scenarios/tabletop_rlg.scenario"
SWEEP = "scenarios/cad_sweep.scenario"
CBRT4 = 2.0 ** (2.0 / 3.0)


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {n:>2}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def cavity(finesse: float = 1.0e3) -> RingCavity:
    return RingCavity(geometry=CIRCLE, finesse=finesse, omega0=W0)


def cad_cavity(gamma_over_g: float) -> RingCavity:
    # FSR is numerically c0 for r = 1 m, so finesse sets gamma_ec directly
    return RingCavity(geometry=CIRCLE, finesse=C0 / (gamma_over_g * G), omega0=W0)


def band_factor(value: float, target: float) -> float:
    return max(value / target, target / value)


def test_criterion_01_comoving_invariance():
    rot = RotationState.from_geometry(OMEGA_EARTH, SQUARE)
    base = vacuum_sagnac(SQUARE, rot, W0).delta_phi
    rng = random.Random(101)
    samples = [1.0, 1.33, 1.5, 2.0, 3.5] + [rng.uniform(1.0, 20.0) for _ in range(200)]
    worst = max(abs(comoving_phase(n, SQUARE, rot, W0) / base - 1.0) for n in samples)
    verdict(
        1,
        worst < 1e-12,
        f"co-moving phase equals the vacuum phase for every index; "
        f"max rel dev {worst:.2e} over 5 pinned + 200 random n (tol 1e-12)",
    )


def test_criterion_02_slow_light_scaling():
    rot = RotationState.from_geometry(OMEGA_EARTH, SQUARE)
    base = vacuum_sagnac(SQUARE, rot, W0).delta_phi
    worst = 0.0
    for ng in (1e2, 1e4, 1e8):
        profile = TaylorCubic(1.0, (ng - 1.0) / W0, 0.0, W0)
        ratio = abs(relative_rotation_phase(profile, SQUARE, rot, W0)) / base
        worst = max(worst, abs(ratio / ng - 1.0))
    verdict(
        2,
        worst < 1e-6,
        f"|relative phase|/vacuum phase tracks n_g over {{1e2, 1e4, 1e8}}; "
        f"max rel dev {worst:.2e} (tol 1e-6)",
    )


def test_criterion_03_enhancement_law_at_zero_group_index():
    t = cad_tune(G, W0).taylor()
    worst = 0.0
    worst_conv = 0.0
    for k in range(25):
        dw = G * 10.0 ** (-8.0 + 6.0 * k / 24.0)
        eta = shift_cubic(dw, t) / dw
        worst = max(worst, abs(eta / enhancement_eta(G, dw, "derived") - 1.0))
        ratio = enhancement_eta(G, dw, "paper") / enhancement_eta(G, dw, "derived")
        worst_conv = max(worst_conv, abs(ratio / CBRT4 - 1.0))
    verdict(
        3,
        worst < 1e-9 and worst_conv < 1e-12,
        f"eta = (G/dw_ec)^(2/3) over dw_ec/G in [1e-8, 1e-2]; max rel dev "
        f"{worst:.2e} (tol 1e-9); paper/derived = 2^(2/3) to {worst_conv:.2e}",
    )


def test_criterion_04_enhancement_sweep_matches_spectrum():
    start = time.monotonic()
    shifts = [r * G for r in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1.0 / 27.0, 1.0)]
    samples = sweep_enhancement(cad_tune(G, W0), cavity(), shifts)
    tight = max(
        abs(s.eta_numeric / s.eta_analytic_derived - 1.0)
        for s in samples
        if s.dw_ec <= 1.001e-3 * G
    )
    loose = max(
        abs(s.eta_numeric / s.eta_analytic_derived - 1.0)
        for s in samples
        if s.dw_ec <= 1.001 * G / 27.0
    )
    etas = [s.eta_numeric for s in samples]
    saturated = etas[-1]
    monotone = all(a > b for a, b in zip(etas, etas[1:]))
    elapsed = time.monotonic() - start
    verdict(
        4,
        tight <= 0.01 and loose <= 0.05 and 1.0 < saturated < 3.0 and monotone and elapsed < 20.0,
        f"numeric eta within {tight:.2%} of analytic up to dw_dis = G/10 (tol 1%) "
        f"and {loose:.2%} up to G/3 (tol 5%); eta(dw_ec = G) = {saturated:.3f} "
        f"saturates toward O(1); {elapsed:.1f}s (limit 20s)",
    )


def test_criterion_05_target_shift_back_derivation():
    dw_ec = 2.0 * math.pi * 3.0e5
    dw_target = 2.0 * math.pi * 9.5e6
    eta = dw_target / dw_ec
    g_derived = dw_ec * eta ** 1.5
    g_paper = 0.5 * g_derived
    # both back-derived linewidths must reproduce the target eta in their
    # own convention
    conv_dev = max(
        abs(enhancement_eta(g_derived, dw_ec, "derived") / eta - 1.0),
        abs(enhancement_eta(g_paper, dw_ec, "paper") / eta - 1.0),
    )
    cav = cavity()
    delta_length = -dw_ec * cav.round_trip_length / cav.omega0
    tr = trace(cad_tune(g_derived, W0), cav, delta_length)
    dev = (tr.resonance - W0) / dw_target - 1.0
    verdict(
        5,
        abs(dev) <= 0.05 and conv_dev < 1e-12,
        f"a 300 kHz empty-cavity pull is stretched to 9.5 MHz: numeric shift "
        f"off target by {dev:+.2%} (tol 5%); back-derived G consistent in "
        f"both conventions to {conv_dev:.2e}",
    )


def test_criterion_06_white_light_linewidth():
    t = cad_tune(G, W0).taylor()
    profile = cad_tune(G, W0)
    worst_wlc = 0.0
    worst_form = 0.0
    for ratio in (1e-4, 1e-3, 1e-2):
        cav = cad_cavity(ratio)
        numeric = trace(profile, cav, 0.0).fwhm
        analytic = airy_linewidth_cubic(cav.gamma_ec, t)
        worst_wlc = max(worst_wlc, abs(numeric / analytic - 1.0))
        # the resonance-condition form (G^2 gamma_ec)^(1/3) sits exactly
        # 2^(2/3) below the transmission-peak width
        plain = linewidth_cubic(cav.gamma_ec, t)
        cube_root = (G * G * cav.gamma_ec) ** (1.0 / 3.0)
        worst_form = max(
            worst_form,
            abs(plain / cube_root - 1.0),
            abs(analytic / (CBRT4 * plain) - 1.0),
        )
    worst_linear = 0.0
    cav = cad_cavity(1e-4)
    for ng in (0.01, 0.1, 0.5, 1.0):
        numeric = trace(cad_tune(G, W0, group_index_target=ng), cav, 0.0).fwhm
        worst_linear = max(worst_linear, abs(numeric * ng / cav.gamma_ec - 1.0))
    verdict(
        6,
        worst_wlc <= 0.05 and worst_form < 1e-9 and worst_linear <= 0.01,
        f"numeric FWHM at n_g = 0 within {worst_wlc:.2%} of the broadened "
        f"analytic width for gamma_ec/G in [1e-4, 1e-2] (tol 5%), which is "
        f"2^(2/3) x (G^2 gamma_ec)^(1/3) to {worst_form:.1e}; linear regime "
        f"gamma_ec/n_g holds to {worst_linear:.2%} for n_g in [0.01, 1] (tol 1%)",
    )


def test_criterion_07_shifted_linewidth():
    t = cad_tune(G, W0).taylor()
    gamma_ec = cavity().gamma_ec
    worst_alg = 0.0
    for r in (1e-4, 1e-3, 1e-2):
        dw_dis = r * G
        widths = shifted_linewidth(gamma_ec, t, dw_dis)
        eta = (G / dw_dis) ** 2
        worst_alg = max(worst_alg, abs(widths.gamma_dis / ((eta / 3.0) * gamma_ec) - 1.0))
    cav = cad_cavity(1e-5)
    profile = cad_tune(G, W0)
    worst_num = 0.0
    for r in (1e-4, 1e-3):
        dw_ec = r * G
        dw_dis = shift_cubic(dw_ec, t)
        expected = shifted_linewidth(cav.gamma_ec, t, dw_dis).gamma_dis
        numeric = trace(profile, cav, -dw_ec * cav.round_trip_length / cav.omega0).fwhm
        worst_num = max(worst_num, abs(numeric / expected - 1.0))
    verdict(
        7,
        worst_alg < 1e-9 and worst_num <= 0.10,
        f"linewidth at the pulled resonance equals (eta/3)*gamma_ec to "
        f"{worst_alg:.2e} (tol 1e-9); numeric FWHM within {worst_num:.2%} "
        f"for dw_ec <= 1e-3 G (tol 10%)",
    )


def test_criterion_08_passive_length_null():
    cav = cavity()
    budget = NoiseBudget(1.0e-3, 1.0)
    base = min_length(min_shift_passive(cav, budget), cav)
    worst = max(
        abs(min_length_passive_dispersive(cav, budget, eta) / base - 1.0 / 3.0)
        * 3.0
        for eta in (1.0, 10.0, 1e4, 1e8)
    )
    verdict(
        8,
        worst < 1e-12,
        f"dispersive length floor is exactly baseline/3, independent of eta "
        f"over [1, 1e8]; max rel dev {worst:.2e} (tol 1e-12)",
    )


def test_criterion_09_tabletop_design_point():
    scn = load_scenario(TABLETOP)
    cav = scn.cavity()
    budget = scn.budget()
    g = effective_half_linewidth(effective_taylor(scn.profile(), cav))
    dw_laser = cav.gamma_ec / math.sqrt(budget.photon_number(cav.omega0))

    eta = enhancement_eta(g, dw_laser, "paper")
    eta_dev = abs(eta / 1.8e6 - 1.0)

    floor_dis = min_rotation(cav, budget, "rlg_dispersive", g, "paper") / OMEGA_EARTH
    factor_dis = band_factor(floor_dis, 1e-11)
    floor_empty = min_rotation(cav, budget, "rlg_empty") / OMEGA_EARTH
    factor_empty = band_factor(floor_empty, 1.5e-5)

    # the CLI must print the full arithmetic trail, every number tagged
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["sensitivity", "--scenario", TABLETOP])
    out = buf.getvalue()
    trail = ("photon_number", "laser_linewidth", "enhancement", "min_rotation_rlg_dispersive_earth", "min_rotation_rlg_empty_earth")
    trail_ok = code == 0 and all(
        any(line.startswith(f"{key} = ") and "[" in line for line in out.splitlines())
        for key in trail
    )
    verdict(
        9,
        eta_dev <= 0.10 and factor_dis <= 3.0 and factor_empty <= 5.0 and trail_ok,
        f"eta = {eta:.3e} vs 1.8e6 ({eta_dev:.1%}, tol 10%); dispersive floor "
        f"{floor_dis:.2e} Omega_earth vs 1e-11 (factor {factor_dis:.2f}, tol 3); "
        f"empty floor {floor_empty:.2e} vs 1.5e-5 (factor {factor_empty:.2f}, "
        f"tol 5, known bookkeeping gap); arithmetic trail printed: {trail_ok}",
    )


def test_criterion_10_frame_dragging_margin():
    scn = load_scenario(TABLETOP)
    cav = scn.cavity()
    budget = scn.budget()
    g = effective_half_linewidth(effective_taylor(scn.profile(), cav))
    margin = lens_thirring_margin(min_rotation(cav, budget, "rlg_dispersive", g, "paper"))
    factor = band_factor(margin, 56.0)
    verdict(
        10,
        factor <= 3.0,
        f"frame-dragging rate sits {margin:.1f}x above the dispersive floor "
        f"vs 56 expected (factor {factor:.2f}, tol 3)",
    )


def test_criterion_11_independent_oracles():
    rng = random.Random(1181)
    worst_root = 0.0
    for _ in range(1000):
        t, d = random_cubic_case(rng)
        a = t.n3 * t.omega_ref
        b = t.n0 + t.n1 * t.omega_ref
        x = shift_cubic(d, t)
        ref = bisect_cubic_branch(a, b, d)
        worst_root = max(worst_root, abs(x / ref - 1.0))
    worst_fd = 0.0
    for _ in range(200):
        profile, w = random_profile(rng)
        exact = float(group_index(profile, w))
        approx = fd_group_index(profile, w, fd_step(profile, w))
        worst_fd = max(worst_fd, abs(approx - exact) / max(1.0, abs(exact)))
    verdict(
        11,
        worst_root < 1e-10 and worst_fd < 1e-5,
        f"analytic cubic root vs bisection: max rel dev {worst_root:.2e} over "
        f"1000 random cases (tol 1e-10); group index vs finite differences: "
        f"{worst_fd:.2e} over 200 random profiles (tol 1e-5)",
    )


def test_criterion_12_determinism(tmp_path):
    payloads = []
    for name in ("first", "second"):
        out_dir = tmp_path / name
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["fig4", "--scenario", SWEEP, "--out", str(out_dir)])
        assert code == 0
        payloads.append((out_dir / "fig4.csv").read_bytes())
    identical = payloads[0] == payloads[1]
    verdict(
        12,
        identical,
        f"repeated enhancement-sweep runs wrote byte-identical CSV "
        f"({len(payloads[0])} bytes): {identical}",
    )
