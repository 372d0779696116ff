"""Loop phases: velocity composition, drag coefficients, rotation fringes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st
from oracle_utils import relativistic_compose

from fastlight.constants import C0, HBAR, OMEGA_EARTH
from fastlight.dispersion import TaylorCubic
from fastlight.sagnac import (
    LoopGeometry,
    RotationState,
    comoving_phase,
    fresnel_drag,
    laub_drag,
    matter_wave_phase,
    relative_rotation_phase,
    vacuum_sagnac,
)

SQUARE = LoopGeometry(area=1.0, perimeter=4.0)
OMEGA_1UM = 2.0 * math.pi * C0 / 1.0e-6


def spin(rate: float, geometry: LoopGeometry = SQUARE) -> RotationState:
    return RotationState.from_geometry(rate, geometry)


def test_compose_preserves_light_speed():
    for v in (1.0, 1e3, -2.5e7, 0.9 * C0):
        assert relativistic_compose(C0, v) == pytest.approx(C0, rel=1e-14)
        assert relativistic_compose(-C0, v) == pytest.approx(-C0, rel=1e-14)


def test_compose_first_order_is_fresnel_drag():
    n = 1.5
    v = 1.0
    dragged = relativistic_compose(C0 / n, v) - C0 / n
    assert dragged == pytest.approx(v * fresnel_drag(n), rel=1e-6)


def test_compose_rejects_superluminal_inputs():
    with pytest.raises(ValueError):
        relativistic_compose(1.1 * C0, 0.0)
    with pytest.raises(ValueError):
        relativistic_compose(0.0, C0)


def test_vacuum_phase_frozen():
    # unit area, unit rate, 1 um light: dphi = 4*pi/(lambda*c0)
    result = vacuum_sagnac(SQUARE, spin(1.0), OMEGA_1UM)
    assert result.delta_phi_first_order == pytest.approx(0.041916900439033636, rel=1e-12)
    assert result.delta_phi_first_order == pytest.approx(4.0 * math.pi / (1.0e-6 * C0), rel=1e-12)
    assert result.beta == pytest.approx(0.5 / C0, rel=1e-12)
    assert result.delta_phi == result.delta_t * OMEGA_1UM
    assert result.delta_t == pytest.approx(
        result.delta_t_first_order / (1.0 - result.beta ** 2), rel=1e-15
    )


def test_vacuum_phase_exact_correction_visible_at_high_beta():
    fast = vacuum_sagnac(SQUARE, spin(1.0e8), OMEGA_1UM)
    assert fast.beta == pytest.approx(0.5e8 / C0, rel=1e-12)
    expected = 1.0 / (1.0 - fast.beta ** 2)
    assert fast.delta_phi / fast.delta_phi_first_order == pytest.approx(expected, rel=1e-12)


def test_matter_wave_phase_frozen():
    mass_rb87 = 1.44316060e-25
    phase = matter_wave_phase(mass_rb87, SQUARE, spin(OMEGA_EARTH))
    assert phase == pytest.approx(199582.31732387497, rel=1e-12)


def test_matter_wave_equals_light_at_compton_frequency():
    mass = 1.44316060e-25
    omega_compton = mass * C0 * C0 / HBAR
    optical = vacuum_sagnac(SQUARE, spin(OMEGA_EARTH), omega_compton)
    assert matter_wave_phase(mass, SQUARE, spin(OMEGA_EARTH)) == pytest.approx(
        optical.delta_phi_first_order, rel=1e-12
    )


def test_drag_coefficients_frozen():
    assert fresnel_drag(1.0) == 0.0
    assert fresnel_drag(1.5) == pytest.approx(0.5555555555555556, abs=1e-15)
    assert laub_drag(1.5, 1.5) == fresnel_drag(1.5)
    assert laub_drag(1.0, 100.0) == pytest.approx(99.0, rel=1e-14)
    with pytest.raises(ValueError):
        fresnel_drag(0.99)
    with pytest.raises(ValueError):
        laub_drag(0.5, 1.0)


def test_comoving_phase_equals_vacuum_for_tabulated_indices():
    base = vacuum_sagnac(SQUARE, spin(OMEGA_EARTH), OMEGA_1UM).delta_phi
    for n in (1.0, 1.33, 1.5, 2.0, 3.5):
        phi = comoving_phase(n, SQUARE, spin(OMEGA_EARTH), OMEGA_1UM)
        assert abs(phi / base - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=1.0, max_value=20.0))
def test_comoving_phase_is_index_free(n):
    base = vacuum_sagnac(SQUARE, spin(OMEGA_EARTH), OMEGA_1UM).delta_phi
    phi = comoving_phase(n, SQUARE, spin(OMEGA_EARTH), OMEGA_1UM)
    assert abs(phi / base - 1.0) < 1e-12


def test_relative_rotation_scales_with_group_index():
    base = vacuum_sagnac(SQUARE, spin(OMEGA_EARTH), OMEGA_1UM).delta_phi
    for ng in (1e2, 1e4, 1e8):
        profile = TaylorCubic(1.0, (ng - 1.0) / OMEGA_1UM, 0.0, OMEGA_1UM)
        phi = relative_rotation_phase(profile, SQUARE, spin(OMEGA_EARTH), OMEGA_1UM)
        assert phi / base == pytest.approx(ng, rel=1e-9)


def test_relative_rotation_collapses_for_dispersionless_media():
    base = vacuum_sagnac(SQUARE, spin(OMEGA_EARTH), OMEGA_1UM).delta_phi
    for n in (1.0, 1.5, 3.0):
        phi = relative_rotation_phase(TaylorCubic(n, 0.0, 0.0, OMEGA_1UM), SQUARE, spin(OMEGA_EARTH), OMEGA_1UM)
        assert phi == pytest.approx(base, rel=1e-12)


def test_relative_rotation_sign_tracks_group_index():
    base = vacuum_sagnac(SQUARE, spin(OMEGA_EARTH), OMEGA_1UM).delta_phi
    # n_g = 0: fringe vanishes
    flat = TaylorCubic(1.0, -1.0 / OMEGA_1UM, 0.0, OMEGA_1UM)
    assert abs(relative_rotation_phase(flat, SQUARE, spin(OMEGA_EARTH), OMEGA_1UM)) < 1e-12 * base
    # n_g < 0: fringe reverses
    fast = TaylorCubic(1.0, -3.0 / OMEGA_1UM, 0.0, OMEGA_1UM)
    assert relative_rotation_phase(fast, SQUARE, spin(OMEGA_EARTH), OMEGA_1UM) < 0.0


def test_geometry_construction():
    circle = LoopGeometry.circular(1.0)
    assert circle.area == pytest.approx(math.pi, rel=1e-15)
    assert circle.perimeter == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert circle.effective_radius == pytest.approx(1.0, rel=1e-12)
    assert SQUARE.effective_radius == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        LoopGeometry(area=-1.0, perimeter=4.0)
    with pytest.raises(ValueError):
        LoopGeometry(area=1.0, perimeter=4.0, radius=3.0)


def test_rotation_state_construction():
    state = spin(2.0)
    assert state.tangential_speed == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        RotationState(omega_rot=1.0, tangential_speed=C0)
