"""Transmission sweeps: dephasing identities, resonance pulls, numeric widths."""

from __future__ import annotations

import math
import warnings
from collections import Counter
from unittest import mock
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from oracle_utils import bisect, psi_and_slope

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
    effective_half_linewidth,
    effective_taylor,
    enhancement_eta,
    rotation_response,
    shift_cubic,
    shifted_linewidth,
)
from fastlight.sagnac import LoopGeometry
from fastlight import spectrum
from fastlight.scenario import load_scenario
from fastlight.spectrum import (
    EnhancementSample,
    SweepGrid,
    _cubic_model,
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
    return spectrum._RoundTrip(profile, cav, None)


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
        # the public transmission gives a float for a scalar omega; math.sin
        # and np.sin need not round alike
        for omega in (w, float(w)):
            t = transmission(profile, cav, dl, omega)
            assert type(t) is float
            assert t == pytest.approx(t_expected, rel=1e-14)
    # the locate step takes Psi at the peak sample and its neighbours from
    # the scan: on a real auto_grid grid every scan value is the scalar Psi,
    # and centre + (neighbour - centre) is the neighbour itself
    ((w, psi_scan, _, _, _),) = spectrum._scan(rt, [dl], [auto_grid(profile, cav, dl)])
    assert [rt.psi_and_slope(dl, x)[0] for x in w.tolist()] == psi_scan.tolist()
    centre, neighbour = w[1:], w[:-1]
    assert np.array_equal(centre + (neighbour - centre), neighbour)
    assert np.array_equal(neighbour + (centre - neighbour), centre)


@dataclass(frozen=True)
class CountingLorentzian(LorentzianAbsorptive):
    """A Lorentzian that counts its fused evaluations, `response`, which
    `index`, `index_change` and `dindex_domega` also go through."""

    calls: Counter = field(default_factory=Counter, compare=False)
    scalar: list = field(default_factory=list, compare=False)  # (omega, base)

    def response(self, omega, base):
        if np.ndim(omega) == 0:
            self.calls["response"] += 1
            self.scalar.append((float(omega), float(base)))
        else:
            self.calls["array response"] += 1
            self.calls["array response points"] += int(np.size(omega))
        return super().response(omega, base)


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
    h = grid.resolution
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
    rt = spectrum._RoundTrip(profile, cav, _cubic_model(profile, cav))
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
    h = grid.resolution

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
    assert _cubic_model(profile, cav) is None
    dl = cav.length_for_shift(dw_ec)
    h = auto_grid(profile, cav, dl).resolution
    result = trace(profile, cav, dl)
    u = bisect(lambda v: oracle_psi(profile, cav, dl, result.resonance + v), -h, h)
    assert abs(u) <= math.ulp(result.resonance)
    ng = float(group_index(profile, result.resonance))
    assert result.fwhm == pytest.approx(cav.gamma_ec / ng, rel=1e-2)


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
        SweepGrid(center=W0, half_span=1e6, points=99)  # too coarse
    assert SweepGrid(center=W0, half_span=1e6, points=101).resolution == pytest.approx(2e4, rel=1e-12)
    with pytest.raises(ValueError):
        SweepGrid(center=W0, half_span=2.0 * W0, points=1001)
    # a step below the spacing of doubles (0.5 rad/s at W0) repeats samples
    with pytest.raises(ValueError, match="spacing of doubles"):
        SweepGrid(center=W0, half_span=1e-3, points=2001)
    with pytest.raises(ValueError, match="spacing of doubles"):
        SweepGrid(center=W0, half_span=5e-324, points=2001)  # the step is 0.0
    grid = SweepGrid(center=W0, half_span=1e6, points=1001)
    assert grid.resolution == pytest.approx(2e6 / 1000.0, rel=1e-12)
    assert grid.omegas[0] == pytest.approx(W0 - 1e6, rel=1e-12)
    assert grid.omegas[-1] == pytest.approx(W0 + 1e6, rel=1e-12)


@st.composite
def sample_rows(draw):
    """(centers, half_spans, points): one to eight grids of one point count.

    The count is drawn once per call: 101, 2,001 or any odd count up to
    80,001. Centres span 1e12 to 1e16 rad/s and half spans run from a few
    ulps of the centre up to 40% of it.
    """
    points = draw(st.one_of(st.sampled_from([101, 2001]), st.integers(50, 40_000).map(lambda n: 2 * n + 1)))
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
    assert grid.resolution < width / 10.0
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
    rt = spectrum._RoundTrip(profile, cav, _cubic_model(profile, cav))
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

    monkeypatch.setattr(spectrum, "_grid", no_grid)
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
    locate, grid = spectrum._locate_resonance, spectrum._grid

    def failing_locate(rt, dl, *rest):
        if locate_fails is not None and dl == cav.length_for_shift(shifts[locate_fails]):
            raise ComputationError("locate")
        return locate(rt, dl, *rest)

    def failing_grid(rt, dl, *rest):
        if dl == cav.length_for_shift(shifts[grid_fails]):
            raise ComputationError("grid")
        return grid(rt, dl, *rest)

    monkeypatch.setattr(spectrum, "_locate_resonance", failing_locate)
    monkeypatch.setattr(spectrum, "_grid", failing_grid)
    # passes of four of the leading 101-point grids: shifts 1 and 3 share
    # the first pass, and shifts 2 and 6 fall in different passes
    monkeypatch.setattr(spectrum, "_SCAN_SAMPLES", 4 * 101)
    with pytest.raises(ComputationError, match=f"^{message}$"):
        sweep_enhancement(profile, cav, shifts)


def test_sweep_scans_its_grids_in_passes_not_one_per_shift():
    # a pass ends only at the sample budget: cad_sweep's 33 grids of 101
    # points hold 3,333 samples, one pass and one array evaluation of the
    # medium; a per-shift scan would make 33
    scn = load_scenario(CAD_SWEEP)
    cad, cav = scn.profile(), scn.cavity()
    profile = CountingLorentzian(cad.strength, cad.half_linewidth, cad.center)
    shifts = 2.0 * math.pi * scn.input_values()[1]
    assert len(shifts) == 33
    points = [sweep_grid(cad, cav, cav.length_for_shift(dw)).points for dw in shifts]
    assert points == [101] * 33
    assert sum(points) == 3333 <= spectrum._SCAN_SAMPLES
    sweep_enhancement(profile, cav, shifts)
    assert profile.calls["array response"] == 1
    assert profile.calls["array response points"] == 3333


def margin_widened(profile, cav: RingCavity, shifts) -> int:
    """How many of the shifts `auto_grid`'s margin of 10% of the shift would
    give a wider grid than the sweep's 2.5 widths."""
    rt = spectrum._RoundTrip(profile, cav, effective_taylor(profile, cav))
    widened = 0
    for dw in shifts:
        shift = spectrum._shift_estimate(rt, cav.length_for_shift(dw))
        widened += 0.1 * abs(shift) > 2.5 * _width_estimate(rt, shift)
    return widened


def test_sweep_grids_have_101_points_over_2_5_widths_at_the_polished_shift(monkeypatch):
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    shifts = 2.0 * math.pi * scn.input_values()[1]
    scanned = []
    scan = spectrum._scan

    def capturing(rt, lengths, grids):
        scanned.extend(zip(lengths, grids))
        return scan(rt, lengths, grids)

    monkeypatch.setattr(spectrum, "_scan", capturing)
    sweep_enhancement(profile, cav, shifts)
    assert [dl for dl, _ in scanned] == [cav.length_for_shift(dw) for dw in shifts]
    rt = spectrum._RoundTrip(profile, cav, effective_taylor(profile, cav))
    for dl, grid in scanned:
        shift = spectrum._shift_estimate(rt, dl)
        assert grid == SweepGrid(center=cav.omega0 + shift, half_span=2.5 * _width_estimate(rt, shift), points=101)
    # three of the 33 grids are the ones the 10% margin used to widen, to
    # up to 793 points
    assert margin_widened(profile, cav, shifts) == 3


def test_sweep_grids_are_sized_to_the_line_not_to_2001_points():
    # a sweep grid keeps a step of a twentieth of the width, not the
    # 2,001-point floor of a trace, so cad_sweep scans under a fifth of the
    # samples 33 floor-sized grids would hold
    scn = load_scenario(CAD_SWEEP)
    cad, cav = scn.profile(), scn.cavity()
    profile = CountingLorentzian(cad.strength, cad.half_linewidth, cad.center)
    shifts = 2.0 * math.pi * scn.input_values()[1]
    assert sweep_enhancement(profile, cav, shifts) == sweep_enhancement(cad, cav, shifts)
    scanned = profile.calls["array response points"]
    assert profile.calls["array response"] >= 1
    assert 5 * scanned <= len(shifts) * 2001


def sweep_grid(profile, cav: RingCavity, dl: float) -> SweepGrid:
    """The grid `sweep_enhancement` scans for the length change dl."""
    rt = spectrum._RoundTrip(profile, cav, effective_taylor(profile, cav))
    return spectrum._grid(rt, dl)


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
def test_a_101_point_grid_locates_at_its_2001_point_twins_double(monkeypatch, dw_ec):
    # the locate tolerance is the 2,001-point step over 1e4 on both grids,
    # so the coarser scan changes only the bracket the root starts from
    scn = load_scenario(CAD_SWEEP)
    profile, cav = scn.profile(), scn.cavity()
    dl = cav.length_for_shift(dw_ec)
    coarse = sweep_grid(profile, cav, dl)
    assert coarse.points == 101
    twin = SweepGrid(center=coarse.center, half_span=coarse.half_span, points=2001)
    xtols = captured_xtols(monkeypatch)
    assert find_resonance(profile, cav, dl, coarse) == find_resonance(profile, cav, dl, twin)
    assert xtols == [twin.resolution / 1e4] * 2


def test_locate_tolerance_above_2001_points_is_the_grid_step(monkeypatch):
    cav = cavity()
    grid = SweepGrid(center=W0, half_span=2.5 * cav.gamma_ec, points=4001)
    xtols = captured_xtols(monkeypatch)
    assert find_resonance(VACUUM, cav, 0.0, grid) == pytest.approx(W0, abs=1.0)
    assert xtols == [grid.resolution / 1e4]
    assert grid.resolution < grid.half_span / 1000.0


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
#             cavities of perfbench/gen.py;
#   white   - criterion 6: at dw_ec = 0 and n_g = 0 the FWHM within 5% of
#             airy_linewidth_cubic, for gamma_ec/G in [1e-4, 1e-2];
#   linear  - criterion 6: at dw_ec = 0 and n_g in [0.01, 1] the FWHM within
#             1% of gamma_ec/n_g;
#   shifted - criterion 7: on the trace cavities of perfbench/gen.py, for
#             dw_ec in [1e-4, 1e-3] G, the FWHM within 10% of
#             gamma_ec/n_g(w0 + dw_dis), and the resonance within 1%.
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
    perfbench/gen.py; the background index is 1 or 1.45, and the medium
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
    nb = draw(st.sampled_from([1.0, 1.45]))
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
    else:
        band = 0.01 if dw_ec <= 1e-3 * g else 0.05
        assert abs(shift / dw_dis - 1.0) <= band
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
    have 101 points over 2.5 widths, so it is also the oracle that the
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
        res = spectrum._locate_resonance(rt, dl, grid, w, psi, i, count)
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
    # a sweep of up to 81 shifts is one scan pass; at seven grids a pass,
    # as more shifts would be, these take several
    with mock.patch.object(spectrum, "_SCAN_SAMPLES", 7 * 101):
        assert sweep_enhancement(profile, cav, shifts) == want


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
    rt = spectrum._RoundTrip(profile, cav, None)
    rows = spectrum._scan(rt, [dl, 0.5 * dl], [grid, grid])
    for length, (w, psi, _, _, _) in zip([dl, 0.5 * dl], rows):
        for omega, psi_scan in zip(w.tolist(), psi.tolist()):
            want = psi_and_slope(profile, cav, length, omega)
            assert rt.psi_and_slope(length, omega) == want
            assert psi_scan == want[0]


@settings(max_examples=30, deadline=None)
@given(case=cad_sweeps())
def test_sweeps_and_traces_raise_no_warning(case):
    # Psi is built in place in the medium's response; no step of a sweep or
    # a trace may overflow, divide by zero or take an invalid value on the way
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
