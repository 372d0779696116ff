"""Transmission sweeps: dephasing identities, resonance pulls, numeric widths."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from collections import Counter
from unittest import mock
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from oracle_utils import bisect, psi_and_slope, rtsafe_psi_root

from fastlight.constants import C0, OMEGA_EARTH
from fastlight.dispersion import (
    ConstantIndex,
    LorentzianAbsorptive,
    TaylorCubic,
    cad_tune,
    group_index,
)
from fastlight.errors import ComputationError
from fastlight.resonator import (
    RingCavity,
    airy_linewidth_cubic,
    cubic_root,
    effective_half_linewidth,
    effective_taylor,
    enhancement_eta,
    rotation_response,
    rotation_to_length,
    shift_cubic,
    shifted_linewidth,
)
from fastlight.sagnac import LoopGeometry
from fastlight import spectrum
from fastlight.scenario import load_scenario
from fastlight.spectrum import (
    EnhancementSample,
    SweepGrid,
    _step,
    _width_estimate,
    auto_grid,
    find_resonance,
    measure_fwhm,
    sweep_enhancement,
    trace,
    transmission,
)

W0 = 2.0 * math.pi * 5.0e14
G = 2.0 * math.pi * 1.0e6
CIRCLE = LoopGeometry.circular(1.0)


def cavity(finesse: float = 1.0e3) -> RingCavity:
    return RingCavity(geometry=CIRCLE, finesse=finesse, omega0=W0)


def cad_cavity(gamma_over_g: float) -> RingCavity:
    # FSR is numerically c0 for r = 1 m, so finesse sets gamma_ec directly
    gamma_ec = gamma_over_g * G
    return RingCavity(geometry=CIRCLE, finesse=C0 / gamma_ec, omega0=W0)


VACUUM = TaylorCubic(1.0, 0.0, 0.0, W0)
CAD_SWEEP = Path(__file__).resolve().parents[1] / "scenarios" / "cad_sweep.scenario"


def full_model_shift(dw_ec: float) -> float:
    # self-consistency against the complete line: u^3/(1 + u^2) = dw_ec/G,
    # solved by an independent bracketing root finder
    r = dw_ec / G
    u = bisect(lambda v: v ** 3 / (1.0 + v * v) - r, 0.0, 2.0 + 2.0 * r)
    return u * G


def oracle_psi(profile, cav: RingCavity, dl: float, omega: float) -> float:
    # Psi from the three-call oracle, independent of the bound kernel
    return psi_and_slope(profile, cav, dl, omega)[0]


def half_maximum_level(profile, cav: RingCavity, dl: float, res: float) -> float:
    # sin^2(Psi/2) at half the peak transmission T_res, from the Airy form
    k = (2.0 * cav.finesse / math.pi) ** 2
    return (1.0 + 2.0 * k * math.sin(0.5 * oracle_psi(profile, cav, dl, res)) ** 2) / k


def kernel(profile, cav: RingCavity):
    return spectrum._RoundTrip(profile, cav)


# ------------------------------------------------------------- dephasing


def test_dephasing_zero_on_resonance():
    assert kernel(VACUUM, cavity()).psi_and_slope(0.0, W0)[0] == 0.0
    assert kernel(cad_tune(G, W0), cavity()).psi_and_slope(0.0, W0)[0] == 0.0


def test_dephasing_half_linewidth_is_pi_over_finesse():
    cav = cavity()
    psi, _ = kernel(VACUUM, cav).psi_and_slope(0.0, W0 + cav.gamma_ec / 2.0)
    # the offset quantizes to the frequency lattice (ulp ~ 0.5 rad/s here),
    # which caps the agreement near 1e-6
    assert psi == pytest.approx(math.pi / cav.finesse, rel=1e-5)


def test_dephasing_accepts_arrays():
    cav = cavity()
    omegas = np.array([[W0 - 1e5, W0, W0 + 1e5], [W0 - 2e5, W0, W0 + 2e5]])
    psi = kernel(VACUUM, cav).psi_array(omegas, [0.0, 0.0])
    assert psi.shape == (2, 3)
    assert (psi[:, 1] == 0.0).all()
    assert (psi[:, 0] == -psi[:, 2]).all()


SCALAR_PROFILES = [
    TaylorCubic(1.5, 0.0, 0.0, W0),
    TaylorCubic(n0=1.0, n1=4.0e-14, n3=0.0, omega_ref=W0),
    cad_tune(G, W0),
    cad_tune(G, W0).taylor(),
]


@pytest.mark.parametrize(
    "profile", SCALAR_PROFILES, ids=["TaylorCubic-constant", "TaylorCubic-linear", "LorentzianAbsorptive", "TaylorCubic"]
)
def test_scalar_dephasing_and_slope_match_the_array_path_bitwise(profile):
    # partial fill and a background index other than 1 bring every term in
    cav = RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0, n0=1.2, fill_fraction=0.6)
    dl = -1e-3 * G * cav.round_trip_length / W0
    omegas = W0 + np.linspace(-3.0 * G, 3.0 * G, 13)
    length, fill, nb = cav.round_trip_length, cav.fill_fraction, cav.n0
    rt = kernel(profile, cav)
    psi_array = rt.psi_array(omegas[None, :], [dl])[0]
    t_array = transmission(profile, cav, dl, omegas.reshape(13, 1))
    assert t_array.shape == (13, 1)
    for w, expected, t_expected in zip(omegas, psi_array, t_array.ravel()):
        psi, slope = rt.psi_and_slope(dl, float(w))
        assert psi == expected
        assert slope == (length * (fill * group_index(profile, w) + (1.0 - fill) * nb) + nb * dl) / C0
        # the public transmission takes a scalar omega as a 0-d array; np.sin
        # need not round alike on one sample and on a longer row
        for omega in (w, float(w)):
            t = transmission(profile, cav, dl, omega)
            assert t == pytest.approx(t_expected, rel=1e-14)
    # the locate step takes Psi at the peak sample and its neighbours from
    # the scan: on a real auto_grid grid every scan value is the scalar Psi,
    # and centre + (neighbour - centre) is the neighbour itself
    grid = auto_grid(profile, cav, dl)
    (w,), (psi_scan,), _, _ = spectrum._scan(rt, [(dl, grid.center, grid.half_span)], grid.points)
    assert [rt.psi_and_slope(dl, x)[0] for x in w.tolist()] == psi_scan.tolist()
    centre, neighbour = w[1:], w[:-1]
    assert np.array_equal(centre + (neighbour - centre), neighbour)
    assert np.array_equal(neighbour + (centre - neighbour), centre)


@dataclass(frozen=True)
class CountingLorentzian(LorentzianAbsorptive):
    """A Lorentzian that counts its fused evaluations, `_response`, which
    the round-trip kernel calls and `response`, `index`, `index_change` and
    `dindex_domega` also go through, at a float and over an array, with the
    slope or, as a scan pass takes it, without."""

    calls: Counter = field(default_factory=Counter, compare=False)
    scalar: list = field(default_factory=list, compare=False)  # (omega, base)

    def _response(self, omega, base, slope=True):
        if np.ndim(omega) == 0:
            self.calls["response"] += 1
            self.scalar.append((float(omega), float(base)))
        else:
            self.calls["array response"] += 1
            self.calls["array response points"] += int(np.size(omega))
        return super()._response(omega, base, slope)


@pytest.mark.parametrize("dw_ec", [0.0, 1e-6 * G, 1e-3 * G, 1e-1 * G])
def test_one_index_evaluation_per_scalar_psi(monkeypatch, dw_ec):
    # every scalar Psi, with its slope, evaluates the medium once
    scn = load_scenario(CAD_SWEEP)
    cad, cav = scn.profile(), scn.cavity()
    profile = CountingLorentzian(cad.strength, cad.half_linewidth, cad.center)
    dl = -dw_ec * cav.round_trip_length / cav.omega0
    grid = auto_grid(profile, cav, dl)
    psis = Counter()
    kernel = spectrum._RoundTrip.psi_and_slope

    def counting(rt, delta_length, omega):
        psis["psi"] += 1
        return kernel(rt, delta_length, omega)

    monkeypatch.setattr(spectrum._RoundTrip, "psi_and_slope", counting)
    start, before = len(profile.scalar), profile.calls["response"]
    find_resonance(profile, cav, dl, grid)
    assert profile.calls["response"] - before == psis["psi"] > 0
    # each against the cavity's own resonance
    located = profile.scalar[start:]
    assert {base for _, base in located} == {cav.omega0}
    # Psi at the peak sample and at both neighbours comes from the grid scan
    i = int(np.argmax(transmission(cad, cav, dl, grid.omegas)))
    assert not {w for w, _ in located} & {float(grid.omegas[i - 1]), float(grid.omegas[i + 1])}


def test_auto_grid_builds_the_cubic_model_once(monkeypatch):
    # the shift and the width estimate share one path-averaged cubic, and a
    # sweep builds one cubic for all of its shifts
    calls = Counter()
    build = spectrum.effective_taylor

    def counting(profile, cav):
        calls["effective_taylor"] += 1
        return build(profile, cav)

    monkeypatch.setattr(spectrum, "effective_taylor", counting)
    cav = cad_cavity(1e-2)
    auto_grid(cad_tune(G, W0), cav, -1e-3 * G * cav.round_trip_length / W0)
    assert calls["effective_taylor"] == 1
    calls.clear()
    sweep_enhancement(cad_tune(G, W0), cav, [1e-6 * G, 1e-4 * G, 1e-3 * G, 1e-2 * G])
    assert calls["effective_taylor"] == 1


def test_the_kernel_derives_its_own_cubic():
    # the path-averaged cubic and its Airy width; test_trace_of_an_off_centre_line
    # checks that a line off the cavity resonance leaves the cubic None
    cav = RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0, n0=1.2, fill_fraction=0.6)
    rt = kernel(cad_tune(G, W0), cav)
    assert rt.taylor == effective_taylor(cad_tune(G, W0), cav)
    assert rt.airy == airy_linewidth_cubic(cav.gamma_ec, rt.taylor)


def test_transmission_peak_and_half_point():
    cav = cavity()
    assert transmission(VACUUM, cav, 0.0, W0) == 1.0
    for sign in (-1.0, 1.0):
        t_half = transmission(VACUUM, cav, 0.0, W0 + sign * cav.gamma_ec / 2.0)
        assert t_half == pytest.approx(0.5, rel=1e-5)


# ------------------------------------------------------------- resonance


def test_vacuum_resonance_found_exactly():
    cav = cavity()
    grid = auto_grid(VACUUM, cav, 0.0)
    assert find_resonance(VACUUM, cav, 0.0, grid) == pytest.approx(W0, abs=1.0)


@pytest.mark.parametrize("dl", [0.0, 1e-8, -2.0 * math.pi * 3.0e5 * 2.0 * math.pi / W0])
def test_vacuum_resonance_and_width_are_exact(dl):
    # In vacuum Psi = (L + dL)*(omega - omega_res)/c0 exactly, so the
    # resonance is the double nearest omega0*L/(L + dL) and the half-maximum
    # points sit 2*asin(sqrt(s_half))/slope either side of it.
    cav = cavity()
    length = cav.round_trip_length
    res = find_resonance(VACUUM, cav, dl, auto_grid(VACUUM, cav, dl))
    assert abs((res - W0) + W0 * dl / (length + dl)) <= 0.5 * math.ulp(res) * (1.0 + 1e-6)
    s_half = half_maximum_level(VACUUM, cav, dl, res)
    exact = 4.0 * math.asin(math.sqrt(s_half)) * C0 / (length + dl)
    assert abs(measure_fwhm(VACUUM, cav, dl, res) - exact) <= 2e-9 * cav.gamma_ec


def test_resonance_shift_linear_in_length_change():
    cav = cavity()
    dl = 1e-8  # offsets ~5e6 rad/s, far above the frequency lattice
    r1 = find_resonance(VACUUM, cav, dl, auto_grid(VACUUM, cav, dl))
    r2 = find_resonance(VACUUM, cav, 2.0 * dl, auto_grid(VACUUM, cav, 2.0 * dl))
    assert (r2 - W0) / (r1 - W0) == pytest.approx(2.0, rel=1e-6)
    assert r1 - W0 == pytest.approx(-W0 * dl / cav.round_trip_length, rel=1e-6)


def test_cad_resonance_matches_full_model():
    cav = cavity()
    profile = cad_tune(G, W0)
    for ratio in (1e-5, 1e-3, 1e-2):
        dw_ec = ratio * G
        dl = -dw_ec * cav.round_trip_length / W0
        res = find_resonance(profile, cav, dl, auto_grid(profile, cav, dl))
        assert res - W0 == pytest.approx(full_model_shift(dw_ec), rel=2e-5)


def test_resonance_stable_under_grid_refinement():
    cav = cavity()
    profile = cad_tune(G, W0)
    dw_ec = 1e-2 * G
    dl = -dw_ec * cav.round_trip_length / W0
    grid = auto_grid(profile, cav, dl)
    r1 = find_resonance(profile, cav, dl, grid)
    fine = SweepGrid(center=grid.center, half_span=grid.half_span, points=8001)
    r2 = find_resonance(profile, cav, dl, fine)
    assert abs(r2 - r1) <= 3e-6 * abs(r1 - W0)


def oracle_cases():
    """(profile, cavity, delta_length) on the vacuum and cad_sweep cavities.

    delta_length = 0 on the cad_sweep cavity is the white-light centre, where
    Psi and its slope both vanish at omega0.
    """
    scn = load_scenario(CAD_SWEEP)
    cad, cad_cav = scn.profile(), scn.cavity()
    vac = cavity()
    cases = [(VACUUM, vac, 0.0), (VACUUM, vac, 1e-8)]
    for dw_ec in (0.0, 1e-6 * G, 1e-3 * G, 1e-1 * G):
        cases.append((cad, cad_cav, -dw_ec * cad_cav.round_trip_length / cad_cav.omega0))
    return cases


def ulp_floor(omega: float, tol: float) -> float:
    # Psi is evaluated at absolute frequencies, so no root is resolved more
    # finely than the spacing of doubles around omega.
    return max(tol, math.ulp(omega))


@pytest.mark.parametrize("profile, cav, dl", oracle_cases())
def test_find_resonance_matches_bisection_of_psi(profile, cav, dl):
    grid = auto_grid(profile, cav, dl)
    res = find_resonance(profile, cav, dl, grid)
    h = _step(grid.half_span, grid.points)
    u = bisect(lambda v: oracle_psi(profile, cav, dl, res + v), -h, h)
    assert abs(u) <= ulp_floor(res, h / 1e4)


@pytest.mark.parametrize("profile, cav, dl", oracle_cases())
def test_fwhm_ends_sit_on_the_half_maximum_level(profile, cav, dl):
    res = find_resonance(profile, cav, dl, auto_grid(profile, cav, dl))
    width = measure_fwhm(profile, cav, dl, res)
    s_half = half_maximum_level(profile, cav, dl, res)

    def excess(v: float) -> float:
        return math.sin(0.5 * oracle_psi(profile, cav, dl, res + v)) ** 2 - s_half

    # each crossing lies within one width of the resonance
    right = bisect(excess, 0.0, width)
    left = bisect(excess, 0.0, -width)
    rt = spectrum._RoundTrip(profile, cav)
    tol = ulp_floor(res, 1e-9 * _width_estimate(rt, res - cav.omega0))
    assert abs(width - (right - left)) <= 2.0 * tol


def test_resonance_and_width_on_a_neighbouring_mode():
    cav = cavity()
    fsr = cav.free_spectral_range
    grid = SweepGrid(center=W0 + fsr + 1.0e4, half_span=5.0 * cav.gamma_ec, points=2001)
    res = find_resonance(VACUUM, cav, 0.0, grid)
    assert res == pytest.approx(W0 + fsr, abs=1.0)
    assert measure_fwhm(VACUUM, cav, 0.0, res) == pytest.approx(cav.gamma_ec, rel=1e-3)


def test_find_resonance_where_psi_only_touches_zero():
    # n_g = -1 with curvature 1/G^2: Psi ~ (L/c0)(-d + d^3/G^2) has a local
    # minimum at d = G/sqrt(3). Lift it to just above zero with a length
    # change; the transmission peak is then where the slope of Psi vanishes.
    cav = cavity()
    profile = TaylorCubic(1.0, -2.0 / W0, 1.0 / (G * G * W0), W0)
    turn = W0 + G / math.sqrt(3.0)
    lift = 0.1 * math.pi / cav.finesse
    dl = (lift - oracle_psi(profile, cav, 0.0, turn)) * C0 / turn
    # the grid is offset so that no sample sits on the turning point
    grid = SweepGrid(center=turn + 3.3e3, half_span=0.3 * G, points=4001)
    res = find_resonance(profile, cav, dl, grid)
    h = _step(grid.half_span, grid.points)

    def slope(v: float) -> float:
        return cav.round_trip_length * group_index(profile, res + v) + dl

    u = bisect(slope, -h, h)
    assert abs(u) <= ulp_floor(res, h / 1e4)
    assert oracle_psi(profile, cav, dl, res) > 0.0


def test_find_resonance_rejects_edge_peak():
    cav = cavity()
    grid = SweepGrid(center=W0 + 5.0e6, half_span=1.0e6, points=1001)
    with pytest.raises(ComputationError, match="not bracketed"):
        find_resonance(VACUUM, cav, 0.0, grid)


def test_find_resonance_rejects_multiple_peaks():
    # n_g = -1 with curvature 1/G^2 places extra dephasing zeros at +-G
    cav = cavity()
    profile = TaylorCubic(1.0, -2.0 / W0, 1.0 / (G * G * W0), W0)
    grid = SweepGrid(center=W0, half_span=2.0 * G, points=4001)
    with pytest.raises(ComputationError, match="found 3"):
        find_resonance(profile, cav, 0.0, grid)


@pytest.mark.parametrize("ratio", [1e-5, 3e-5])
def test_auto_grid_refuses_a_step_below_the_spacing_of_doubles(ratio):
    # ulp(w0) is 0.5 rad/s at 500 THz; resolving gamma_ec = 3e-5 G (188
    # rad/s) would take a 0.47 rad/s step, so samples would repeat
    cav = cad_cavity(ratio)
    profile = cad_tune(G, W0, group_index_target=1.0)
    with pytest.raises(ComputationError, match="^linewidth below the spacing of doubles at this frequency"):
        trace(profile, cav, 0.0)


def test_linewidth_above_the_spacing_of_doubles_still_resolves():
    cav = cad_cavity(1e-4)
    result = trace(cad_tune(G, W0, group_index_target=1.0), cav, 0.0)
    assert result.fwhm == pytest.approx(cav.gamma_ec, rel=1e-9)


@pytest.mark.parametrize("dw_ec", [0.0, 1.0e4])
@pytest.mark.parametrize("offset", [2.0 * G, -3.0 * G], ids=["plus-2G", "minus-3G"])
def test_trace_of_an_off_centre_line(offset, dw_ec):
    # Off centre the cubic does not apply (0.5 G would still pass the
    # centring check of effective_taylor), so the grid estimates fall back
    # on the empty cavity and the Newton polish on Psi.
    cav = cad_cavity(1e-3)
    profile = cad_tune(G, W0 + offset)
    assert kernel(profile, cav).taylor is None
    dl = cav.length_for_shift(dw_ec)
    grid = auto_grid(profile, cav, dl)
    h = _step(grid.half_span, grid.points)
    result = trace(profile, cav, dl)
    u = bisect(lambda v: oracle_psi(profile, cav, dl, result.resonance + v), -h, h)
    assert abs(u) <= math.ulp(result.resonance)
    ng = float(group_index(profile, result.resonance))
    assert result.fwhm == pytest.approx(cav.gamma_ec / ng, rel=1e-2)


@pytest.mark.parametrize(
    "profile, nb, fill, rate",
    [
        (cad_tune(G, W0), 1.0, 1.0, OMEGA_EARTH),
        (cad_tune(G, W0), 1.45, 1.0, OMEGA_EARTH),
        (cad_tune(G, W0, group_index_target=-0.45), 1.45, 0.5, OMEGA_EARTH),
        (TaylorCubic(1.5, 0.0, 0.0, W0), 1.0, 1.0, 1e-2),
    ],
    ids=["cad-nb-1", "cad-nb-1.45", "cad-nb-1.45-fill-0.5", "index-1.5-nb-1"],
)
def test_rotation_splitting_matches_its_spectrum_twin(profile, nb, fill, rate):
    # the splitting of `split` against two traces, each at the length change
    # equivalent to one direction's rotation shift, within criterion 4's 1%;
    # a background index other than 1 and a partial fill are modelled, as
    # they are for the length-driven shift
    cav = RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0, n0=nb, fill_fraction=fill)
    analytic = rotation_response(profile, cav, rate).splitting
    assert traced_splitting(profile, cav, rate) == pytest.approx(analytic, rel=1e-2)


def traced_splitting(profile, cav: RingCavity, rate: float) -> float:
    """ccw - cw resonance of two traces, each at the length change
    equivalent to one direction's rotation shift."""
    ccw, cw = (trace(profile, cav, rotation_to_length(cav, r)).resonance for r in (rate, -rate))
    return ccw - cw


@settings(max_examples=100, deadline=None)
@given(
    nb=st.floats(min_value=1.0, max_value=2.0),
    fill=st.floats(min_value=0.2, max_value=1.0),
    log_ratio=st.floats(min_value=-6.0, max_value=math.log10(1.0 / 27.0)),
)
def test_rotation_splitting_matches_its_spectrum_twin_at_any_background_and_fill(nb, fill, log_ratio):
    # a CAD medium tuned to the white-light point of the path, at a rotation
    # whose empty-cavity shift is 1e-6 G to G/27. Criterion 4's bands are
    # 1% up to dw_dis = G/10 and 5% up to G/3, which its n_b = 1 sweep
    # reaches at dw_ec = 1e-3 G and G/27; a background index above 1 pulls
    # the same dw_ec further (at n_b = 2 and fill 1, to 0.42 G at G/27, where
    # the cubic misses by 6.2%, as it does for the length-driven shift), so
    # the band goes by the analytic dw_dis
    cav = RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0, n0=nb, fill_fraction=fill)
    profile = cad_tune(G, W0, group_index_target=-(1.0 - fill) * nb / fill)
    rate = 10.0 ** log_ratio * G / cav.rotation_scale
    response = rotation_response(profile, cav, rate)
    dw_dis = max(abs(response.dw_minus), abs(response.dw_plus))
    deviation = abs(traced_splitting(profile, cav, rate) / response.splitting - 1.0)
    if dw_dis <= 1.001 * G / 10.0:
        assert deviation <= 0.01
    elif dw_dis <= 1.001 * G / 3.0:
        assert deviation <= 0.05
    else:
        event("dw_dis beyond G/3: no band")


def test_a_length_change_of_the_whole_round_trip_is_refused():
    # the CLI's drive bound |dw_ec| < omega0 keeps every scenario from here;
    # a library caller still gets the refusal, before any scan
    cav = cavity()
    for dl in (-cav.round_trip_length, -2.0 * cav.round_trip_length):
        with pytest.raises(ComputationError, match="the length change leaves no positive round trip"):
            trace(VACUUM, cav, dl)


# ----------------------------------------------------------------- width


def test_vacuum_fwhm_matches_cavity_linewidth():
    cav = cavity()
    res = find_resonance(VACUUM, cav, 0.0, auto_grid(VACUUM, cav, 0.0))
    width = measure_fwhm(VACUUM, cav, 0.0, res)
    assert width == pytest.approx(cav.gamma_ec, rel=1e-3)


def test_wlc_fwhm_matches_cubic_broadening_law():
    for ratio in (1e-4, 1e-3, 1e-2):
        cav = cad_cavity(ratio)
        profile = cad_tune(G, W0)
        result = trace(profile, cav, 0.0)
        t = profile.taylor()
        analytic = airy_linewidth_cubic(cav.gamma_ec, t)
        assert result.fwhm == pytest.approx(analytic, rel=1e-2)


def test_linear_regime_fwhm():
    cav = cad_cavity(1e-4)
    profile = cad_tune(G, W0, group_index_target=0.5)
    result = trace(profile, cav, 0.0)
    assert result.fwhm == pytest.approx(cav.gamma_ec / 0.5, rel=1e-2)


def test_shifted_resonance_fwhm():
    cav = cad_cavity(1e-5)
    profile = cad_tune(G, W0)
    t = profile.taylor()
    dw_ec = 1e-3 * G
    dl = -dw_ec * cav.round_trip_length / W0
    result = trace(profile, cav, dl)
    shift = result.resonance - W0
    expected = shifted_linewidth(cav.gamma_ec, t, shift).gamma_dis
    assert result.fwhm == pytest.approx(expected, rel=0.1)


def test_trace_fields_consistent():
    cav = cavity()
    result = trace(VACUUM, cav, 0.0)
    assert result.omega.shape == result.transmission.shape
    grid = auto_grid(VACUUM, cav, 0.0)
    assert np.array_equal(result.omega, grid.omegas)
    assert np.array_equal(result.transmission, transmission(VACUUM, cav, 0.0, grid.omegas))
    assert result.resonance == find_resonance(VACUUM, cav, 0.0, grid)
    assert result.transmission.max() <= 1.0
    assert result.resonance == pytest.approx(W0, abs=1.0)
    assert result.fwhm == pytest.approx(cav.gamma_ec, rel=1e-3)


def test_a_trace_owns_its_arrays():
    # the scan builds Psi and T in place, in arrays of its own call, so a
    # later trace leaves an earlier one's samples as they were
    cav, profile = cad_cavity(1e-2), cad_tune(G, W0)
    first = trace(profile, cav, cav.length_for_shift(1e-3 * G))
    omega, t = first.omega.copy(), first.transmission.copy()
    second = trace(profile, cav, cav.length_for_shift(2e-3 * G))
    for a, b in [(first.omega, first.transmission), (first.omega, second.omega), (first.transmission, second.transmission)]:
        assert not np.shares_memory(a, b)
    assert np.array_equal(first.omega, omega)
    assert np.array_equal(first.transmission, t)


def test_a_scan_reads_its_samples_and_leaves_them_as_they_were():
    # Psi and T are built in arrays of the pass's own, never in the samples
    # that trace returns: psi_array only reads omega, and a trace's omega is
    # its grid's samples
    cav, profile = cad_cavity(1e-2), cad_tune(G, W0)
    dl = cav.length_for_shift(1e-3 * G)
    grid = auto_grid(profile, cav, dl)
    omega = grid.omegas[None, :]
    before = omega.copy()
    psi = kernel(profile, cav).psi_array(omega, [dl])
    assert np.array_equal(omega, before)
    assert not np.shares_memory(psi, omega)
    assert np.array_equal(trace(profile, cav, dl).omega, grid.omegas)


def test_transmission_at_a_float_is_a_numpy_float():
    cav, profile = cad_cavity(1e-2), cad_tune(G, W0)
    for omega in (W0, np.float64(W0 + 1.0)):
        assert type(transmission(profile, cav, 0.0, omega)) is np.float64
    assert transmission(profile, cav, 0.0, [W0, W0 + 1.0]).shape == (2,)


def test_a_full_scan_pass_peaks_below_six_of_its_arrays():
    # a pass of 160 sweep rows holds 8,160 samples, one array of 64 KiB at
    # the _SCAN_SAMPLES budget. With the medium's n and change taken
    # without the slope, and both they and Psi and T built in place, it
    # peaks at about 5.3 such arrays by tracemalloc; a step into a fresh
    # array for each operation took it to 8
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    rt = spectrum._RoundTrip(profile, cav)
    rows = [spectrum._row(rt, cav.length_for_shift(dw)) for dw in 2.0 * math.pi * scn.input_values()[1]]
    rows = (rows * 5)[: spectrum._SCAN_SAMPLES // spectrum._SWEEP_POINTS]
    assert len(rows) == 160
    spectrum._scan(rt, rows, spectrum._SWEEP_POINTS)
    tracemalloc.start()
    try:
        spectrum._scan(rt, rows, spectrum._SWEEP_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (8 * spectrum._SCAN_SAMPLES) < 6.0


@pytest.mark.parametrize("fill", [1.0, 0.3])
@pytest.mark.parametrize("nb", [1.0, 1.45])
def test_constant_index_matches_a_centred_dispersionless_cubic_bitwise(nb, fill):
    # ConstantIndex expands about 1 rad/s, not about the cavity resonance;
    # a cubic without dispersion must not care where it is expanded
    cav = RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0, n0=nb, fill_fraction=fill)
    shim, cubic = ConstantIndex(nb), TaylorCubic(nb, 0.0, 0.0, W0)
    assert effective_taylor(shim, cav) == effective_taylor(cubic, cav)
    dl = cav.length_for_shift(0.3 * cav.gamma_ec)
    got, want = trace(shim, cav, dl), trace(cubic, cav, dl)
    assert (got.resonance, got.fwhm) == (want.resonance, want.fwhm)
    assert rotation_response(shim, cav, OMEGA_EARTH) == rotation_response(cubic, cav, OMEGA_EARTH)


# ------------------------------------------------------------------ grids


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(center=W0, half_span=1e6, points=1000)  # even
    with pytest.raises(ValueError):
        SweepGrid(center=W0, half_span=1e6, points=100)  # even
    with pytest.raises(ValueError):
        SweepGrid(center=W0, half_span=1e6, points=49)  # too coarse
    assert SweepGrid(center=W0, half_span=1e6, points=51).points == spectrum._SWEEP_POINTS
    grid = SweepGrid(center=W0, half_span=1e6, points=101)
    assert _step(grid.half_span, grid.points) == pytest.approx(2e4, rel=1e-12)
    with pytest.raises(ValueError):
        SweepGrid(center=W0, half_span=2.0 * W0, points=1001)
    # a step below the spacing of doubles (0.5 rad/s at W0) repeats samples
    with pytest.raises(ValueError, match="spacing of doubles"):
        SweepGrid(center=W0, half_span=1e-3, points=2001)
    with pytest.raises(ValueError, match="spacing of doubles"):
        SweepGrid(center=W0, half_span=5e-324, points=2001)  # the step is 0.0
    grid = SweepGrid(center=W0, half_span=1e6, points=1001)
    assert _step(grid.half_span, grid.points) == pytest.approx(2e6 / 1000.0, rel=1e-12)
    assert grid.omegas[0] == pytest.approx(W0 - 1e6, rel=1e-12)
    assert grid.omegas[-1] == pytest.approx(W0 + 1e6, rel=1e-12)


@st.composite
def sample_rows(draw):
    """(centers, half_spans, points): one to eight grids of one point count.

    The count is drawn once per call: 51, 101, 2,001 or any odd count up to
    80,001. Centres span 1e12 to 1e16 rad/s and half spans run from a few
    ulps of the centre up to 40% of it.
    """
    points = draw(st.one_of(st.sampled_from([51, 101, 2001]), st.integers(50, 40_000).map(lambda n: 2 * n + 1)))
    centers, half_spans = [], []
    for _ in range(draw(st.integers(1, 8))):
        center = 10.0 ** draw(st.floats(12.0, 16.0))
        ulps = math.log10(0.4 * center / math.ulp(center))
        centers.append(center)
        half_spans.append(math.ulp(center) * 10.0 ** draw(st.floats(0.3, ulps)))
    return centers, half_spans, points


@settings(max_examples=200, deadline=None)
@given(case=sample_rows())
# a rare grid whose last sample needs the endpoint store: start + 2000*step
# misses the stop by 0.25 rad/s
@example(case=([1530768657771612.5], [558967330912315.8], 2001))
def test_sample_rows_are_linspace_bit_for_bit(case):
    centers, half_spans, points = case
    w = spectrum._sample_rows(centers, half_spans, points)
    assert w.shape == (len(centers), points)
    for row, center, half_span in zip(w, centers, half_spans):
        assert np.array_equal(row, np.linspace(center - half_span, center + half_span, points))


def per_row_peak(t) -> tuple[int, int]:
    """np.argmax of one row and its count of significant maxima, as the
    locate step computed them one row at a time."""
    i = int(np.argmax(t))
    interior = t[1:-1]
    peaks = (interior > t[:-2]) & (interior >= t[2:]) & (interior >= 0.5 * t[i])
    return i, int(np.count_nonzero(peaks))


def airy_row(points: int, offset: float) -> np.ndarray:
    """An Airy line over +-2.5 widths, its centre offset by a fraction of a step."""
    x = np.linspace(-2.5, 2.5, points) - offset * 5.0 / (points - 1)
    return 1.0 / (1.0 + x * x)


PEAK_ROWS = {
    "tie": [0.0, 1.0, 1.0, 0.5, 0.0],
    "plateau": [0.0, 0.2, 0.9, 0.9, 0.9, 0.1, 0.0],
    "two peaks": [0.0, 1.0, 0.0, 0.8, 0.0],
    "small second peak": [0.0, 1.0, 0.0, 0.4, 0.0],
    "first sample": [1.0, 0.5, 0.2, 0.6, 0.1],
    "last sample": [0.1, 0.5, 0.2, 0.3, 1.0],
    "rising to the boundary": [0.0, 0.2, 0.5, 0.9, 0.95],
    "falling from the boundary": [0.9, 0.1, 0.5, 0.2, 0.1],
    "flat": [0.5, 0.5, 0.5, 0.5, 0.5],
    "NaN inside": [0.0, 0.5, math.nan, 0.9, 0.1],
    "NaN first": [math.nan, 0.5, 0.9, 0.5, 0.1],
    "NaN last": [0.1, 0.5, 0.9, 0.5, math.nan],
    "inf": [0.0, 0.5, math.inf, 0.9, 0.1],
    "-inf": [-math.inf, 0.5, 0.9, 0.5, 0.1],
    "signed zeros": [-0.0, 0.0, -0.0, 0.0, -0.0],
    "51 points": airy_row(51, -0.2),
    "101 points": airy_row(101, 0.3),
    "2,001 points": airy_row(2001, -0.4),
}


def padded_rows() -> list[np.ndarray]:
    """The rows of PEAK_ROWS, each padded at its start with copies of its
    first sample to the length of the longest.

    A copy of the first sample is never above the sample after it, so the
    padding adds no significant maximum, and a peak on the first or last
    sample of a row stays on its first or last sample.
    """
    rows = [np.array(r, dtype=float) for r in PEAK_ROWS.values()]
    points = max(len(r) for r in rows)
    return [np.pad(r, (points - len(r), 0), mode="edge") for r in rows]


@pytest.mark.parametrize("order", ["table", "reversed"])
def test_pass_wide_peaks_equal_per_row_argmax_and_count(order):
    # every row of the table in one pass, in two orders, so each row sits
    # among different rows; then each row alone
    rows = padded_rows()
    # the padding keeps each case: its count, and its peak on the first
    # sample or, shifted by the padding, where it was
    for original, row in zip(PEAK_ROWS.values(), rows):
        i, count = per_row_peak(np.array(original, dtype=float))
        assert per_row_peak(row) == (0 if i == 0 else i + len(row) - len(original), count)
    if order == "reversed":
        rows.reverse()
    want = [per_row_peak(r) for r in rows]
    peaks, counts = spectrum._peaks(np.array(rows))
    assert list(zip(peaks, counts)) == want
    assert want[-1 if order == "table" else 0] == (1000, 1)
    for row, expected in zip(rows, want):
        (peak,), (count,) = spectrum._peaks(row[None, :])
        assert (peak, count) == expected


def test_auto_grid_resolves_the_width():
    cav = cavity()
    profile = cad_tune(G, W0)
    dw_ec = 1e-3 * G
    dl = -dw_ec * cav.round_trip_length / W0
    grid = auto_grid(profile, cav, dl)
    shift = full_model_shift(dw_ec)
    width = shifted_linewidth(cav.gamma_ec, profile.taylor(), shift).gamma_dis
    assert _step(grid.half_span, grid.points) < width / 10.0
    assert abs(grid.center - (W0 + shift)) < grid.half_span / 2.0


def test_auto_grid_rejects_span_beyond_free_spectral_range():
    wide_open = RingCavity(geometry=CIRCLE, finesse=1.01, omega0=W0)
    with pytest.raises(ComputationError, match="free spectral range"):
        auto_grid(VACUUM, wide_open, 0.0)


@pytest.mark.parametrize("dw_ec_hz", [1e-17, 1e-20, 1e-300])
def test_shift_estimate_of_a_sub_ulp_shift_stays_in_the_window(dw_ec_hz):
    # on cad_sweep's cavity the cubic seed sits below the spacing of doubles
    # at omega0 (0.5 rad/s); a Newton step from there leaves the 0.35-FSR
    # window, and the estimate must keep its last iterate inside it
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    rt = spectrum._RoundTrip(profile, cav)
    estimate = spectrum._shift_estimate(rt, cav.length_for_shift(2.0 * math.pi * dw_ec_hz))
    assert 0.0 <= estimate <= 0.5


# ------------------------------------------------------------- eta sweep


def test_sweep_enhancement_distinguishes_conventions():
    cav = cavity()
    profile = cad_tune(G, W0)
    values = [1e-6 * G, 1e-4 * G, 1e-2 * G]
    samples = sweep_enhancement(profile, cav, values)
    two_thirds = 2.0 ** (2.0 / 3.0)
    for s in samples:
        assert s.eta_analytic_paper / s.eta_analytic_derived == pytest.approx(two_thirds, rel=1e-12)
        # numeric response follows the derived convention, never the doubled one
        assert abs(s.eta_numeric / s.eta_analytic_derived - 1.0) < 0.05
        assert abs(s.eta_numeric / s.eta_analytic_paper - 1.0) > 0.3


def test_sweep_enhancement_validation():
    cav = cavity()
    profile = cad_tune(G, W0)
    with pytest.raises(ComputationError, match="zero group index"):
        sweep_enhancement(cad_tune(G, W0, group_index_target=0.5), cav, [1e-4 * G, 1e2 * G])
    with pytest.raises(ComputationError, match="four decades"):
        sweep_enhancement(profile, cav, [1e-3 * G, 1e-2 * G])
    with pytest.raises(ComputationError, match="half linewidth"):
        sweep_enhancement(profile, cav, [1e-4 * G, 2.0 * G])
    with pytest.raises(ComputationError, match="under 1,000 spacings of doubles"):
        sweep_enhancement(profile, cav, [1e-300 * G, 1e-290 * G])
    with pytest.raises(ValueError):
        sweep_enhancement(profile, cav, [])


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
def test_sweep_enhancement_rejects_non_finite_shifts(monkeypatch, bad, where):
    # NaN passes both a v <= 0 test and the four-decade test; it must be
    # refused before any grid is built
    def no_grid(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(spectrum, "_row", no_grid)
    scn = load_scenario(CAD_SWEEP)
    values = [1e-3, 100.0]
    values.insert(where, bad)
    with pytest.raises(ValueError, match="positive and finite"):
        sweep_enhancement(scn.profile(), scn.cavity(), values)


@pytest.mark.parametrize(
    "locate_fails, grid_fails, message",
    [(1, 3, "locate"), (2, 6, "locate"), (5, 2, "grid"), (None, 3, "grid")],
    ids=["same-pass", "earlier-pass", "grid-first", "grid-only"],
)
def test_sweep_reports_the_first_failing_shift(monkeypatch, locate_fails, grid_fails, message):
    # a locate failure at shift j comes before a grid failure at a later
    # shift k, though the pass holding j is scanned only once k's grid is due
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    shifts = [2.0 * math.pi * 1e-2 * 10.0 ** (k / 4.0) for k in range(33)]
    locate, row = spectrum._locate_resonance, spectrum._row

    def failing_locate(rt, dl, *rest):
        if locate_fails is not None and dl == cav.length_for_shift(shifts[locate_fails]):
            raise ComputationError("locate")
        return locate(rt, dl, *rest)

    def failing_row(rt, dl):
        if dl == cav.length_for_shift(shifts[grid_fails]):
            raise ComputationError("grid")
        return row(rt, dl)

    monkeypatch.setattr(spectrum, "_locate_resonance", failing_locate)
    monkeypatch.setattr(spectrum, "_row", failing_row)
    # passes of four of the leading sweep rows: shifts 1 and 3 share the
    # first pass, and shifts 2 and 6 fall in different passes
    monkeypatch.setattr(spectrum, "_SCAN_SAMPLES", 4 * spectrum._SWEEP_POINTS)
    with pytest.raises(ComputationError, match=f"^{message}$"):
        sweep_enhancement(profile, cav, shifts)


@pytest.mark.parametrize(
    "radius, finesse, line, error, message",
    [
        # a ring far shorter than a wavelength: its free spectral range
        # c0/r = 1e17 rad/s is 32 omega0, so 2.5 widths fit in 40% of it
        # and still reach below zero
        (C0 / 1e17, 100.0, 1e15, ComputationError, "half span must be positive and keep the grid above zero"),
        # gamma_ec = 3 rad/s: a twentieth of a width is below the spacing of
        # doubles at omega0, 0.5 rad/s
        (1.0, 1e8, G, ComputationError, "linewidth below the spacing of doubles at this frequency"),
    ],
    ids=["half-span-reaching-zero", "step-below-the-spacing-of-doubles"],
)
def test_a_sweep_row_is_refused_as_its_grid_was(radius, finesse, line, error, message):
    # a sweep row is no SweepGrid, but a row that one would have refused is
    # refused with the same message, as a ComputationError: the estimates
    # set the row, not the caller. A centre that is not positive is not
    # reached: the shift estimate keeps every iterate above zero frequency
    cav = RingCavity(geometry=LoopGeometry.circular(radius), finesse=finesse, omega0=W0)
    with pytest.raises(error, match=f"^{message}"):
        sweep_enhancement(cad_tune(line, W0), cav, [line * 10.0 ** -k for k in range(4, -1, -1)])


@dataclass(frozen=True)
class RecordingLorentzian(LorentzianAbsorptive):
    """A Lorentzian that records, for each unchecked evaluation, the least
    frequency it is given (NaN if any is NaN) and its base."""

    seen: list = field(default_factory=list, compare=False)

    def _response(self, omega, base, slope=True):
        self.seen.append((float(np.min(omega)), base))
        return super()._response(omega, base, slope)


def recording(profile: LorentzianAbsorptive) -> RecordingLorentzian:
    return RecordingLorentzian(profile.strength, profile.half_linewidth, profile.center)


def test_a_shift_estimate_stays_above_zero_frequency():
    # a ring of 4 nm: its free spectral range is 450 omega0, so the shift
    # estimate's window of 0.35 of it reaches far below zero frequency. A
    # Newton step that lands there leaves the window, as one beyond it does,
    # so the medium, which the kernel evaluates unchecked, never sees a
    # frequency that is not positive, and the sweep ends with the scan's
    # own refusal
    w0, g, d = 164196591697531.03, 426990841642454.6, 5.886135894888685
    cav = RingCavity(geometry=LoopGeometry.circular(4.081598016040356e-09), finesse=68444787.51595391, omega0=w0)
    profile = recording(cad_tune(g, w0))
    with pytest.raises(ComputationError, match="^transmission maximum sits on the grid edge"):
        sweep_enhancement(profile, cav, [g * 10.0 ** (-d + d * k / 4) for k in range(4)])
    assert profile.seen and min(least for least, _ in profile.seen) > 0.0


def test_a_half_maximum_search_stays_above_zero_frequency():
    # a ring of 0.16 nm with a line of G = 0.023 omega0: its free spectral
    # range is 61 omega0 and its width estimate 0.16 omega0, so ten width
    # estimates below the resonance reach below zero frequency. The FWHM
    # bracket stops there, as beyond ten estimates, and the trace ends with
    # that refusal, having evaluated the medium above zero frequency only
    w0 = 3.0453349160942296e16
    cav = RingCavity(geometry=LoopGeometry.circular(1.6245073675634547e-10), finesse=31.17147431137849, omega0=w0)
    profile = recording(cad_tune(692982567436191.4, w0))
    with pytest.raises(ComputationError, match="^half-maximum crossing not bracketed within ten width estimates$"):
        trace(profile, cav, cav.length_for_shift(12654929.88338659))
    assert profile.seen and min(least for least, _ in profile.seen) > 0.0


def test_a_half_maximum_search_tests_its_first_probe_too(monkeypatch):
    # a vacuum ring whose width estimate is five times omega0: the first
    # probe below a resonance at omega0/2 already lies below zero frequency,
    # and the bracket refuses it as it refuses the later probes, before the
    # medium is evaluated there
    w0 = 1e12
    cav = RingCavity(geometry=LoopGeometry.circular(C0 / (100.0 * w0)), finesse=20.0, omega0=w0)
    assert cav.gamma_ec == pytest.approx(5.0 * w0)
    seen = []
    kernel = spectrum._RoundTrip.psi_and_slope
    monkeypatch.setattr(spectrum._RoundTrip, "psi_and_slope", lambda rt, dl, omega: seen.append(omega) or kernel(rt, dl, omega))
    with pytest.raises(ComputationError, match="^half-maximum crossing not bracketed within ten width estimates$"):
        measure_fwhm(TaylorCubic(1.0, 0.0, 0.0, w0), cav, 0.0, 0.5 * w0)
    assert max(seen) > 0.5 * w0 and min(seen) > 0.0


@st.composite
def extreme_cad_cases(draw):
    """(omega0, radius, finesse, G, shifts, trace shift) of a CAD cavity far
    outside the shipped scenarios: omega0 from 1e12 to 1e17 rad/s, a free
    spectral range c0/r of 1e-3 to 1e3 omega0, finesse up to 1e22, G from
    1e-12 to 3 omega0, and nine log-spaced shifts over 4 to 9 decades up to
    G, one of which is traced."""
    unit = st.floats(min_value=0.0, max_value=1.0)
    w0 = 10.0 ** (12.0 + 5.0 * draw(unit))
    radius = C0 / (w0 * 10.0 ** (-3.0 + 6.0 * draw(unit)))
    finesse = 10.0 ** (22.0 * draw(st.floats(min_value=1e-3, max_value=1.0)))
    g = w0 * 10.0 ** (-12.0 + (12.0 + math.log10(3.0)) * draw(unit))
    decades = 4.0 + 5.0 * draw(unit)
    shifts = [g * 10.0 ** (-decades * k / 8.0) for k in range(8, -1, -1)]
    return w0, radius, finesse, g, shifts, draw(st.sampled_from(shifts))


@settings(max_examples=200, deadline=None)
@given(case=extreme_cad_cases())
@example(case=(
    3.0453349160942296e16, 1.6245073675634547e-10, 31.17147431137849, 692982567436191.4,
    [692982567436191.4 * 10.0 ** -k for k in range(4, -1, -1)], 12654929.88338659,
))
@example(case=(W0, C0 / 1e17, 100.0, 1e15, [1e15 * 10.0 ** -k for k in range(4, -1, -1)], 1e13))
def test_every_frequency_the_kernel_evaluates_is_above_zero(case):
    # the round-trip kernel evaluates its medium unchecked: the window of
    # the shift estimate and of the FWHM bracket, the grid refusals and the
    # root brackets keep every frequency a sweep or a trace hands it above
    # zero, against the cavity's resonance
    w0, radius, finesse, g, shifts, traced = case
    profile = recording(cad_tune(g, w0))
    cav = RingCavity(geometry=LoopGeometry.circular(radius), finesse=finesse, omega0=w0)
    for run in (lambda: sweep_enhancement(profile, cav, shifts), lambda: trace(profile, cav, cav.length_for_shift(traced))):
        try:
            run()
        except ComputationError as exc:
            event(f"refused: {str(exc)[:40]}")
    for least, base in profile.seen:
        assert least > 0.0 and base == w0


def test_public_entry_points_refuse_a_frequency_that_is_not_positive():
    # the kernel trusts its frequencies, so each public call that takes a
    # caller's frequency checks it, with the medium's own refusal; NaN is
    # not positive either, alone or in an array
    cav = cad_cavity(1e-2)
    for profile in (cad_tune(G, W0), cad_tune(G, W0).taylor()):
        for bad in (0.0, -1.0, math.nan):
            for call in (
                lambda: profile.response(bad, W0),
                lambda: profile.response(W0, bad),
                lambda: profile.index(bad),
                lambda: profile.index_change(bad, W0),
                lambda: profile.index_change(np.array([W0, bad]), W0),
                lambda: profile.dindex_domega(bad),
                lambda: group_index(profile, bad),
                lambda: transmission(profile, cav, 0.0, bad),
                lambda: transmission(profile, cav, 0.0, [W0, bad]),
                lambda: measure_fwhm(profile, cav, 0.0, bad),
            ):
                with pytest.raises(ValueError, match="^optical frequency must be positive$"):
                    call()


@settings(max_examples=200, deadline=None)
@given(case=extreme_cad_cases())
# the FWHM bracket of this trace reached below zero frequency
@example(case=(
    3.0453349160942296e16, 1.6245073675634547e-10, 31.17147431137849, 692982567436191.4,
    [692982567436191.4 * 10.0 ** -k for k in range(4, -1, -1)], 12654929.88338659,
))
# these sweep rows and this trace grid reached below zero frequency
@example(case=(W0, C0 / 1e17, 100.0, 1e15, [1e15 * 10.0 ** -k for k in range(4, -1, -1)], 1e13))
def test_extreme_sweeps_and_traces_give_finite_values_or_a_computation_error(case):
    w0, radius, finesse, g, shifts, traced = case
    profile = cad_tune(g, w0)
    cav = RingCavity(geometry=LoopGeometry.circular(radius), finesse=finesse, omega0=w0)
    try:
        samples = sweep_enhancement(profile, cav, shifts)
        assert all(math.isfinite(x) for sample in samples for x in sample)
    except ComputationError as exc:
        event(f"sweep refused: {str(exc)[:40]}")
    try:
        result = trace(profile, cav, cav.length_for_shift(traced))
        assert math.isfinite(result.resonance) and math.isfinite(result.fwhm)
        assert np.isfinite(result.omega).all() and np.isfinite(result.transmission).all()
    except ComputationError as exc:
        event(f"trace refused: {str(exc)[:40]}")


def test_a_sweeps_value_type_calls_do_not_grow_with_its_shifts(monkeypatch):
    # the per-shift steps read floats that the call binds once: no grid is
    # built, and no group index or round-trip length is read, per shift
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    calls = Counter()
    new = SweepGrid.__new__

    def counting_new(cls, *args, **kwargs):
        calls["SweepGrid"] += 1
        return new(cls, *args, **kwargs)

    def counting(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(SweepGrid, "__new__", counting_new)
    monkeypatch.setattr(TaylorCubic, "ng0", property(counting("ng0", TaylorCubic.ng0.fget)))
    monkeypatch.setattr(TaylorCubic, "local_ng", counting("local_ng", TaylorCubic.local_ng))
    monkeypatch.setattr(RingCavity, "round_trip_length", property(counting("L", RingCavity.round_trip_length.fget)))
    per_sweep = []
    for points in (33, 65):
        calls.clear()
        # the Lorentzian's rows are centred on its exact cubic's roots, its
        # Taylor cubic's on `_shift_estimate`
        for medium in (profile, profile.taylor()):
            sweep_enhancement(medium, cav, 2.0 * math.pi * np.logspace(-2.0, 6.0, points))
        per_sweep.append(dict(calls))
    assert per_sweep[0] == per_sweep[1]
    # the counters see the per-call reads
    assert per_sweep[0]["ng0"] > 0 and per_sweep[0]["L"] > 0


def test_a_cad_sweep_evaluates_no_psi_before_its_first_scan(monkeypatch):
    # the Lorentzian's rows are centred on the exact cubic's roots, so Psi
    # is first evaluated by the locate steps; its Taylor cubic's rows still
    # take Newton steps on Psi
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    shifts = 2.0 * math.pi * scn.input_values()[1]
    events = []
    kernel, scan = spectrum._RoundTrip.psi_and_slope, spectrum._scan
    monkeypatch.setattr(spectrum._RoundTrip, "psi_and_slope", lambda rt, dl, omega: events.append("psi") or kernel(rt, dl, omega))
    monkeypatch.setattr(spectrum, "_scan", lambda *args: events.append("scan") or scan(*args))
    sweep_enhancement(profile, cav, shifts)
    assert events.index("scan") == 0 and events.count("psi") > 0
    events.clear()
    sweep_enhancement(profile.taylor(), cav, shifts)
    assert events.index("scan") >= len(shifts)


class Offset(Exception):
    """Raised in place of `_estimates`, with the offset `_row` gave it."""


def row_offsets(profile, cav: RingCavity, lengths) -> list:
    """Per length change, the offset `_row` hands `_estimates` for its row:
    the root of the exact cubic that the kernel binds, or None where the
    row is left to `_shift_estimate`."""
    rt = spectrum._RoundTrip(profile, cav)

    def offset(rt, dl, shift):
        raise Offset(shift)

    offsets = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectrum, "_estimates", offset)
        for dl in lengths:
            with pytest.raises(Offset) as raised:
                spectrum._row(rt, dl)
            offsets.append(raised.value.args[0])
    return offsets


def test_the_exact_centre_is_gated_per_kernel_and_per_row():
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    lengths = [cav.length_for_shift(2.0 * math.pi * dw) for dw in scn.input_values()[1]]
    assert None not in row_offsets(profile, cav, lengths)

    def exact(profile, cav):
        return spectrum._RoundTrip(profile, cav).exact

    # the Taylor cubic and a line off omega0 have no exact cubic here
    assert exact(profile.taylor(), cav) is None
    off = LorentzianAbsorptive(profile.strength, profile.half_linewidth, profile.center * (1.0 + 1e-12))
    assert exact(off, cav) is None
    # the 4 nm ring of the test above: its estimate's window of 0.35 of the
    # free spectral range reaches below zero frequency
    w0, g = 164196591697531.03, 426990841642454.6
    ring = RingCavity(geometry=LoopGeometry.circular(4.081598016040356e-09), finesse=68444787.51595391, omega0=w0)
    assert exact(cad_tune(g, w0), ring) is None
    # cad_sweep with a fill of 1e-300: the line tuned to a group index near
    # -1e300 makes the medium's response overflow
    thin = RingCavity(geometry=cav.geometry, finesse=cav.finesse, omega0=cav.omega0, fill_fraction=1e-300)
    strong = cad_tune(profile.half_linewidth, cav.omega0, group_index_target=-(1.0 - 1e-300) / 1e-300)
    assert exact(strong, thin) is None
    # per row: at n_b = 2 and fill 0.5, n_e = 1.5 and e = 2*dL/L, so the
    # cubic's leading coefficient n_e + e is 0 at dL = -0.75*L and -0.3 at
    # -0.9*L; those rows fall back, and a small row of the same kernel keeps
    # the exact root (a gate on the call's largest length change sent all
    # three to the fallback)
    two = RingCavity(geometry=cav.geometry, finesse=cav.finesse, omega0=cav.omega0, n0=2.0, fill_fraction=0.5)
    small = two.length_for_shift(1e-2 * profile.half_linewidth)
    offsets = row_offsets(profile, two, [small, -0.75 * two.round_trip_length, -0.9 * two.round_trip_length])
    assert offsets[0] is not None and offsets[1:] == [None, None]


def test_exact_row_centres_are_zeros_of_psi():
    # a line of G = omega0/100 on a ring whose free spectral range is
    # omega0/10, so that e = n_b*dL/L reaches 1e-2 and each coefficient of
    # the cubic matters: Psi, from the three-call oracle, changes sign
    # within 1e-9 of each root
    w0, g = 1e12, 1e10
    cav = RingCavity(geometry=LoopGeometry.circular(C0 / (0.1 * w0)), finesse=1e3, omega0=w0)
    profile = cad_tune(g, w0)
    lengths = [cav.length_for_shift(g * 10.0 ** -k) for k in range(4, -1, -1)]
    shifts = row_offsets(profile, cav, lengths)
    assert None not in shifts
    for dl, x in zip(lengths, shifts):
        lo, hi = (oracle_psi(profile, cav, dl, w0 + x * (1.0 + side * 1e-9)) for side in (-1.0, 1.0))
        assert lo < 0.0 < hi, (x, lo, hi)


def test_sweep_scans_its_grids_in_passes_not_one_per_shift():
    # a pass ends only at the sample budget: cad_sweep's 33 grids of 51
    # points hold 1,683 samples, one pass and one array evaluation of the
    # medium; a per-shift scan would make 33
    scn = load_scenario(CAD_SWEEP)
    cad, cav = scn.profile(), scn.cavity()
    profile = CountingLorentzian(cad.strength, cad.half_linewidth, cad.center)
    shifts = 2.0 * math.pi * scn.input_values()[1]
    assert len(shifts) == 33
    points = [sweep_grid(cad, cav, cav.length_for_shift(dw)).points for dw in shifts]
    assert points == [51] * 33
    assert sum(points) == 1683 <= spectrum._SCAN_SAMPLES
    sweep_enhancement(profile, cav, shifts)
    assert profile.calls["array response"] == 1
    assert profile.calls["array response points"] == 1683


def margin_widened(profile, cav: RingCavity, shifts) -> int:
    """How many of the shifts `auto_grid`'s margin of 10% of the shift would
    give a wider grid than the sweep's 2.5 widths."""
    rt = spectrum._RoundTrip(profile, cav)
    widened = 0
    for dw in shifts:
        shift = spectrum._shift_estimate(rt, cav.length_for_shift(dw))
        widened += 0.1 * abs(shift) > 2.5 * _width_estimate(rt, shift)
    return widened


def exact_cubic(profile: LorentzianAbsorptive, cav: RingCavity, dl: float) -> tuple[float, ...]:
    """(c3, c2, c1, c0) of the exact resonance cubic of a Lorentzian centred
    at omega0, (n_e + e)*x^3 + (e*w0 - f*A*G)*x^2 + G^2*(ng0 + e)*x +
    e*w0*G^2 = 0 with e = n_b*dL/L, from the profile's and the cavity's own
    fields, in the float steps the kernel binds."""
    fill, nb, w0 = cav.fill_fraction, cav.n0, cav.omega0
    ag, gg = profile.strength * profile.half_linewidth, profile.half_linewidth * profile.half_linewidth
    ne = fill + (1.0 - fill) * nb
    e = nb * dl / cav.round_trip_length
    return ne + e, e * w0 - fill * ag, gg * (ne - fill * ag * w0 / gg + e), e * w0 * gg


def test_sweep_grids_have_51_points_over_2_5_widths_at_the_exact_root(monkeypatch):
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    shifts = 2.0 * math.pi * scn.input_values()[1]
    scanned = []
    scan = spectrum._scan

    def capturing(rt, rows, points):
        scanned.extend((dl, SweepGrid(center, half_span, points)) for dl, center, half_span in rows)
        return scan(rt, rows, points)

    monkeypatch.setattr(spectrum, "_scan", capturing)
    sweep_enhancement(profile, cav, shifts)
    assert [dl for dl, _ in scanned] == [cav.length_for_shift(dw) for dw in shifts]
    rt = spectrum._RoundTrip(profile, cav)
    for dl, grid in scanned:
        shift = cubic_root(*exact_cubic(profile, cav, dl))[0]
        assert grid == SweepGrid(center=cav.omega0 + shift, half_span=2.5 * _width_estimate(rt, shift), points=51)
    # three of the 33 grids are the ones the 10% margin used to widen, to
    # up to 793 points
    assert margin_widened(profile, cav, shifts) == 3


def test_sweep_grids_are_sized_to_the_line_not_to_2001_points():
    # a sweep grid keeps a step of a tenth of the width, not the 2,001-point
    # floor of a trace, so cad_sweep scans under a thirtieth of the samples
    # 33 floor-sized grids would hold
    scn = load_scenario(CAD_SWEEP)
    cad, cav = scn.profile(), scn.cavity()
    profile = CountingLorentzian(cad.strength, cad.half_linewidth, cad.center)
    shifts = 2.0 * math.pi * scn.input_values()[1]
    assert sweep_enhancement(profile, cav, shifts) == sweep_enhancement(cad, cav, shifts)
    scanned = profile.calls["array response points"]
    assert profile.calls["array response"] >= 1
    assert 30 * scanned <= len(shifts) * 2001


def sweep_grid(profile, cav: RingCavity, dl: float) -> SweepGrid:
    """The grid `sweep_enhancement` scans for the length change dl: its
    row's centre and half span, at the sweep's point count."""
    rt = spectrum._RoundTrip(profile, cav)
    _, center, half_span = spectrum._row(rt, dl)
    return SweepGrid(center, half_span, spectrum._SWEEP_POINTS)


def captured_xtols(monkeypatch) -> list[float]:
    """The tolerances `_psi_root` is called with from now on."""
    xtols = []
    root = spectrum._psi_root

    def capturing(*args):
        xtols.append(args[-1])
        return root(*args)

    monkeypatch.setattr(spectrum, "_psi_root", capturing)
    return xtols


@pytest.mark.parametrize("dw_ec", [0.0, 1e-6 * G, 1e-4 * G, 1e-3 * G])
@pytest.mark.parametrize("points", [51, 101])
def test_a_sweep_row_locates_at_its_2001_point_twins_double(monkeypatch, points, dw_ec):
    # the locate tolerance is the 2,001-point step over 1e4 on both grids,
    # so the coarser scan changes only the bracket the root starts from, and
    # a row of 51 points, the sweep's, or of 101 locates at the same double
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    dl = cav.length_for_shift(dw_ec)
    row = sweep_grid(profile, cav, dl)
    assert row.points == 51
    coarse = SweepGrid(center=row.center, half_span=row.half_span, points=points)
    twin = SweepGrid(center=row.center, half_span=row.half_span, points=2001)
    xtols = captured_xtols(monkeypatch)
    assert find_resonance(profile, cav, dl, coarse) == find_resonance(profile, cav, dl, twin)
    assert xtols == [_step(twin.half_span, twin.points) / 1e4] * 2


def test_locate_tolerance_above_2001_points_is_the_grid_step(monkeypatch):
    cav = cavity()
    grid = SweepGrid(center=W0, half_span=2.5 * cav.gamma_ec, points=4001)
    xtols = captured_xtols(monkeypatch)
    assert find_resonance(VACUUM, cav, 0.0, grid) == pytest.approx(W0, abs=1.0)
    assert xtols == [_step(grid.half_span, grid.points) / 1e4]
    assert _step(grid.half_span, grid.points) < grid.half_span / 1000.0


# ------------------------------------------- spectrum against the cubic

# Every ComputationError a trace may raise for a cavity it cannot resolve.
KNOWN_REFUSALS = (
    "requested response does not fit inside a single free spectral range",
    "grid would need more than 2e6 points",
    "transmission maximum sits on the grid edge",
    "linewidth below the spacing of doubles at this frequency",
    "round-trip phase neither crosses zero nor turns",
    "round-trip phase root did not converge",
    "half-maximum crossing not bracketed",
    "round-trip phase does not cross the half-maximum level",
)

# (log10 gamma_ec/G range, log10 dw_ec/G range or None for dw_ec = 0), per
# regime the acceptance criteria pin:
#   sweep   - criterion 4: the resonance within 1% of shift_cubic for
#             dw_ec <= 1e-3 G and within 5% up to G/27, on the sweep
#             cavities of perfbench/gen.py; at n_b = 1 these are
#             dw_dis <= G/10 and G/3, by which the bands are keyed, since
#             a background index pulls the same dw_ec further;
#   white   - criterion 6: at dw_ec = 0 and n_g = 0 the FWHM within 5% of
#             airy_linewidth_cubic, for gamma_ec/G in [1e-4, 1e-2];
#   linear  - criterion 6: at dw_ec = 0 and n_g in [0.01, 1] the FWHM within
#             1% of gamma_ec/n_g;
#   shifted - criterion 7: on the trace cavities of perfbench/gen.py, for
#             dw_ec in [1e-4, 1e-3] G, the FWHM within 10% of
#             gamma_ec/n_g(w0 + dw_dis), and the resonance in the band of
#             its dw_dis.
REGIMES = {
    "sweep": ((-2.3, -1.3), (-8.0, math.log10(1.0 / 27.0))),
    "white": ((-4.0, -2.0), None),
    "linear": ((-5.0, -4.0), None),
    "shifted": ((-5.0, -4.0), (-4.0, -3.0)),
}


@st.composite
def cad_traces(draw, regimes=tuple(sorted(REGIMES))):
    """(regime, profile, cavity, dw_ec) of a CAD cavity in one regime.

    Radius, frequency and line FWHM span the sweep ranges of
    perfbench/gen.py; the background index is drawn from [1, 2], and the medium
    fills all or part of the loop and is tuned so that the path-averaged
    group index over the background index is 0 (or n_g in the linear regime).
    The regime is one of `regimes`.
    """
    regime = draw(st.sampled_from(regimes))
    ratios, shifts = REGIMES[regime]
    unit = st.floats(min_value=0.0, max_value=1.0)
    radius = 10.0 ** (-0.5 + 0.8 * draw(unit))
    w0 = 2.0 * math.pi * (3.0e14 + 3.0e14 * draw(unit))
    g = math.pi * 10.0 ** (5.7 + draw(unit))
    fill = draw(st.one_of(st.just(1.0), st.floats(min_value=0.2, max_value=1.0)))
    nb = draw(st.floats(min_value=1.0, max_value=2.0))
    ng = 10.0 ** (-2.0 * draw(unit)) if regime == "linear" else 0.0
    ratio = 10.0 ** (ratios[0] + (ratios[1] - ratios[0]) * draw(unit))
    geom = LoopGeometry.circular(radius)
    # gamma_ec = FSR/F and FSR = 2*pi*c0/(nb*L)
    finesse = 2.0 * math.pi * C0 / (nb * geom.perimeter * ratio * g)
    cav = RingCavity(geometry=geom, finesse=finesse, omega0=w0, n0=nb, fill_fraction=fill)
    # path group index fill*n_g(medium) + (1 - fill)*nb = ng*nb; a line
    # cannot reach a group index above 1, so the min caps the target there
    profile = cad_tune(g, w0, group_index_target=min(1.0, (ng * nb - (1.0 - fill) * nb) / fill))
    dw_ec = 0.0 if shifts is None else g * 10.0 ** (shifts[0] + (shifts[1] - shifts[0]) * draw(unit))
    return regime, profile, cav, dw_ec


@settings(max_examples=200, deadline=None)
@given(case=cad_traces())
def test_trace_matches_the_cubic_over_the_cad_cavity_space(case):
    regime, profile, cav, dw_ec = case
    event(f"regime: {regime}")
    try:
        result = trace(profile, cav, cav.length_for_shift(dw_ec))
    except ComputationError as exc:
        assert str(exc).startswith(KNOWN_REFUSALS), str(exc)
        event(f"refused: {exc}")
        return
    t = effective_taylor(profile, cav)
    g = effective_half_linewidth(t)
    shift = result.resonance - cav.omega0
    dw_dis = shift_cubic(dw_ec, t)
    if dw_ec == 0.0:
        assert shift == dw_dis == 0.0
    elif dw_dis <= g / 3.0:
        band = 0.01 if dw_dis <= 0.1 * g else 0.05
        event(f"band: {band:.0%}")
        assert abs(shift / dw_dis - 1.0) <= band
    else:
        event("dw_dis beyond G/3: no band")
    if regime == "white":
        assert abs(result.fwhm / airy_linewidth_cubic(cav.gamma_ec, t) - 1.0) <= 0.05
    elif regime == "linear":
        assert abs(result.fwhm * t.ng0 / cav.gamma_ec - 1.0) <= 0.01
    elif regime == "shifted":
        assert abs(result.fwhm / shifted_linewidth(cav.gamma_ec, t, dw_dis).gamma_dis - 1.0) <= 0.10


# ------------------------------------------------ batched sweep scan


def per_shift_sweep(profile, cav: RingCavity, values) -> list[EnhancementSample]:
    """`sweep_enhancement` as one grid, one np.linspace scan, one argmax and
    peak count, and one locate per shift, the loop that the batched scan
    replaces.

    Its grids are `auto_grid`'s: a floor of 2,001 points, and a span of 10%
    of the shift where that is wider than 2.5 widths. The sweep's own grids
    have 51 points over 2.5 widths, so it is also the oracle that the
    coarser and narrower sweep grids locate every resonance at the same
    double as the old ones.
    """
    t = effective_taylor(profile, cav)
    g = effective_half_linewidth(t)
    rt = kernel(profile, cav)
    samples = []
    for dw in values:
        dl = cav.length_for_shift(dw)
        grid = auto_grid(profile, cav, dl)
        w = np.linspace(grid.center - grid.half_span, grid.center + grid.half_span, grid.points)
        psi = rt.psi_array(w[None, :], [dl])[0]
        i, count = per_row_peak(transmission(profile, cav, dl, w))
        j = np.clip([i - 1, i, i + 1], 0, grid.points - 1)
        near = (w[j].tolist(), psi[j].tolist(), i, count)
        res = spectrum._locate_resonance(rt, dl, grid.half_span, grid.points, near)
        eta = (res - cav.omega0) / dw
        samples.append(EnhancementSample(dw, eta, enhancement_eta(g, dw, "derived"), enhancement_eta(g, dw, "paper")))
    return samples


@st.composite
def cad_sweeps(draw):
    """(profile, cavity, shifts): a cavity of the `sweep` regime above with
    17, 33 or 65 log-spaced shifts over 4-8 decades up to G, as
    perfbench/gen.py draws them. Their largest shifts get `auto_grid` grids
    above 2,001 points.
    """
    _, profile, cav, _ = draw(cad_traces(regimes=["sweep"]))
    g = profile.half_linewidth
    points = draw(st.sampled_from([17, 33, 65]))
    lo = g * 10.0 ** -(4.0 + 4.0 * draw(st.floats(min_value=0.0, max_value=1.0)))
    shifts = [lo * (g / lo) ** (k / (points - 1)) for k in range(points - 1)] + [g]
    return profile, cav, shifts


@settings(max_examples=60, deadline=None)
@given(case=cad_sweeps())
def test_batched_sweep_equals_the_per_shift_loop_bit_for_bit(case):
    profile, cav, shifts = case
    # every draw holds shifts whose sweep grid is narrower than the oracle's
    assert margin_widened(profile, cav, shifts) > 0
    try:
        want = per_shift_sweep(profile, cav, shifts)
    except ComputationError as exc:
        event("refused")
        with pytest.raises(ComputationError) as got:
            sweep_enhancement(profile, cav, shifts)
        assert str(got.value) == str(exc)
        return
    if any(auto_grid(profile, cav, cav.length_for_shift(dw)).points > 2001 for dw in shifts):
        event("grids above 2,001 points")
    assert sweep_enhancement(profile, cav, shifts) == want
    # a sweep of up to 160 shifts is one scan pass; at seven grids a pass,
    # as more shifts would be, these take several
    with mock.patch.object(spectrum, "_SCAN_SAMPLES", 7 * spectrum._SWEEP_POINTS):
        assert sweep_enhancement(profile, cav, shifts) == want


def exact_cubic_roots(profile: LorentzianAbsorptive, cav: RingCavity, dl: float) -> list[float]:
    """Every real root of `exact_cubic`, by bisection on each interval where
    it is monotone: between its turning points, from the quadratic formula,
    and the Cauchy bound of its roots."""
    c3, c2, c1, c0 = exact_cubic(profile, cav, dl)
    bound = 1.0 + max(abs(c2), abs(c1), abs(c0)) / abs(c3)
    ends = [-bound, bound]
    disc = c2 * c2 - 3.0 * c3 * c1
    if disc > 0.0:
        ends[1:1] = sorted((-c2 + side * math.sqrt(disc)) / (3.0 * c3) for side in (-1.0, 1.0))

    def cubic(x):
        return ((c3 * x + c2) * x + c1) * x + c0

    return [
        bisect(cubic, lo, hi, rounds=2200)
        for lo, hi in zip(ends, ends[1:])
        if min(cubic(lo), cubic(hi)) <= 0.0 <= max(cubic(lo), cubic(hi))
    ]


def psi_resolution(profile, cav: RingCavity, dl: float, omega: float) -> float:
    """How far the rounding of Psi's terms can move its zero near omega:
    four roundings of the sum of their magnitudes, over Psi's slope."""
    n, dn, dn_domega = profile.response(omega, cav.omega0)
    length, fill, nb, w0 = cav.round_trip_length, cav.fill_fraction, cav.n0, cav.omega0
    delta = omega - w0
    terms = fill * length * (abs(dn * w0) + abs(n * delta)) + (1.0 - fill) * length * nb * abs(delta)
    slope = length * (fill * (n + omega * dn_domega) + (1.0 - fill) * nb) + nb * dl
    return 4.0 * 2.0 ** -52 * (terms + abs(nb * dl * omega)) / abs(slope)


def extreme_sweeps(case):
    w0, radius, finesse, g, shifts, _ = case
    return cad_tune(g, w0), RingCavity(geometry=LoopGeometry.circular(radius), finesse=finesse, omega0=w0), shifts


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(cad_sweeps(), extreme_cad_cases().map(extreme_sweeps)))
def test_every_located_resonance_agrees_with_the_exact_cubic(case):
    # each resonance the sweep locates is an exact cubic's root, to half a
    # spacing of doubles at omega0 (its rounding), the locate tolerance, and
    # how far the rounding of Psi's terms moves its zero: that last is
    # negligible on the sweep cavities, but not where the extreme draws put
    # the root at 1e-3 omega0 on a slope of 1e-3
    profile, cav, shifts = case
    located, turns = [], []
    locate, turn = spectrum._locate_resonance, spectrum._psi_turn

    def recording(rt, dl, half_span, points, near):
        located.append((dl, half_span, points, locate(rt, dl, half_span, points, near)))
        return located[-1][-1]

    def turning(rt, dl, *rest):
        turns.append(dl)
        return turn(rt, dl, *rest)

    with mock.patch.object(spectrum, "_locate_resonance", recording), mock.patch.object(spectrum, "_psi_turn", turning):
        try:
            sweep_enhancement(profile, cav, shifts)
        except ComputationError as exc:
            event(f"refused: {str(exc)[:40]}")
    w0 = cav.omega0
    # a peak where Psi only touches its level is a turn of Psi, no root
    for dl, half_span, points, resonance in (row for row in located if row[0] not in turns):
        xtol = min(_step(half_span, points), half_span / 1000.0) / 1e4
        bound = 0.5 * math.ulp(w0) + xtol + psi_resolution(profile, cav, dl, resonance)
        assert min(abs((resonance - w0) - x) for x in exact_cubic_roots(profile, cav, dl)) <= bound


# ------------------------------------------- the bound kernel and its oracle


@st.composite
def kernel_cases(draw):
    """(profile, cavity, length change, grid): a CAD cavity of `cad_traces`,
    any regime, or a `TaylorCubic` of SCALAR_PROFILES in a partly filled
    cavity, and a 101-point grid of two line widths about the resonance."""
    if draw(st.booleans()):
        _, profile, cav, dw_ec = draw(cad_traces())
        width = profile.half_linewidth
    else:
        profile = draw(st.sampled_from([p for p in SCALAR_PROFILES if isinstance(p, TaylorCubic)]))
        nb = draw(st.sampled_from([1.0, 1.45]))
        fill = draw(st.floats(min_value=0.2, max_value=1.0))
        cav = RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0, n0=nb, fill_fraction=fill)
        dw_ec = draw(st.floats(min_value=-1.0, max_value=1.0)) * cav.gamma_ec
        width = cav.gamma_ec
    grid = SweepGrid(center=cav.omega0 + dw_ec, half_span=2.0 * width, points=101)
    return profile, cav, cav.length_for_shift(dw_ec), grid


@settings(max_examples=100, deadline=None)
@given(case=kernel_cases())
def test_bound_kernel_and_scan_equal_three_profile_calls_bit_for_bit(case):
    # the kernel binds the cavity once and evaluates the medium once per
    # Psi; the oracle reads the cavity afresh and calls index, index_change
    # and dindex_domega apart. A two-row scan gives each row its own dL.
    profile, cav, dl, grid = case
    rt = spectrum._RoundTrip(profile, cav)
    rows = [(dl, grid.center, grid.half_span), (0.5 * dl, grid.center, grid.half_span)]
    w, psi, _, _ = spectrum._scan(rt, rows, grid.points)
    for length, w, psi in zip([dl, 0.5 * dl], w, psi):
        for omega, psi_scan in zip(w.tolist(), psi.tolist()):
            want = psi_and_slope(profile, cav, length, omega)
            assert rt.psi_and_slope(length, omega) == want
            assert psi_scan == want[0]


@settings(max_examples=30, deadline=None)
@given(case=cad_sweeps())
def test_sweeps_and_traces_raise_no_warning(case):
    # no step of a sweep or a trace may overflow, divide by zero or take an
    # invalid value on the way
    profile, cav, shifts = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (
            lambda: sweep_enhancement(profile, cav, shifts),
            lambda: trace(profile, cav, cav.length_for_shift(shifts[len(shifts) // 2])),
        ):
            try:
                run()
            except ComputationError as exc:
                event(f"refused: {exc}")


# ------------------------------------------------------- the root polish


class RecordingRoundTrip:
    """A round trip that records each frequency Psi is evaluated at."""

    def __init__(self, rt):
        self.rt, self.omegas = rt, []

    def psi_and_slope(self, delta_length, omega):
        self.omegas.append(omega)
        return self.rt.psi_and_slope(delta_length, omega)


def recording_polish(calls: list):
    """`_psi_root`, appending to `calls` each call's round trip, the
    frequencies that call evaluated Psi at, and the rest of its arguments."""
    root = spectrum._psi_root

    def recording(rt, *args):
        polished = RecordingRoundTrip(rt)
        calls.append((rt, polished.omegas, *args))
        return root(polished, *args)

    return recording


def test_no_polish_evaluates_psi_twice_at_one_double(monkeypatch):
    # a Newton step that lands on the double it was taken from would be
    # taken again from the same Psi; the polish returns its offset instead
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    calls = []
    monkeypatch.setattr(spectrum, "_psi_root", recording_polish(calls))
    sweep_enhancement(profile, cav, 2.0 * math.pi * scn.input_values()[1])
    trace(profile, cav, cav.length_for_shift(1e-3 * profile.half_linewidth))
    # 33 locates, and the trace's locate and two half-maximum crossings
    assert len(calls) == 36
    for _, omegas, *_ in calls:
        assert len(set(omegas)) == len(omegas), omegas


def polish_outcome(root, *args) -> str:
    """What a root polish returns, as its repr, or the refusal it raises."""
    try:
        return repr(root(*args))
    except ComputationError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(sweep=cad_sweeps(), traced=cad_traces(), scale=st.floats(min_value=-3.0, max_value=3.0))
def test_polish_returns_every_offset_of_the_loop_without_its_stop(sweep, traced, scale):
    # every bracket a sweep's locates and a trace's locate and half-maximum
    # crossings hand the polish, at its own tolerance and at that tolerance
    # times 10^scale: the offset equals, bit for bit, that of the loop that
    # evaluates Psi again at the double it has just evaluated
    profile, cav, shifts = sweep
    _, trace_profile, trace_cav, dw_ec = traced
    calls = []
    with mock.patch.object(spectrum, "_psi_root", recording_polish(calls)):
        for run in (
            lambda: sweep_enhancement(profile, cav, shifts),
            lambda: trace(trace_profile, trace_cav, trace_cav.length_for_shift(dw_ec)),
        ):
            try:
                run()
            except ComputationError as exc:
                event(f"refused: {str(exc)[:40]}")
    for rt, _, *args in calls:
        for xtol in (args[-1], args[-1] * 10.0 ** scale):
            reference = RecordingRoundTrip(rt)
            want = polish_outcome(rtsafe_psi_root, reference, *args[:-1], xtol)
            assert polish_outcome(spectrum._psi_root, rt, *args[:-1], xtol) == want
            if any(a == b for a, b in zip(reference.omegas, reference.omegas[1:])):
                event("the loop evaluates one double twice in a row")
