"""Index profiles: finite-difference oracles, series fidelity, tuning."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastlight.dispersion import (
    LorentzianAbsorptive,
    TaylorCubic,
    cad_tune,
    group_index,
)
from fastlight.errors import ComputationError

W0 = 2.0 * math.pi * 5.0e14
G = 2.0 * math.pi * 1.0e6


def fd_group_index(profile, omega: float, step: float) -> float:
    # n_g = d(n*w)/dw = n(w) + d((n - n(w))*w)/dw, differenced on the index
    # deviation so tiny index excursions are not lost against n ~ 1.
    # the rounded evaluation points define the true span; a nominal 2*step
    # denominator would be off by the frequency lattice spacing
    wp = omega + step
    wm = omega - step
    hi = float(profile.index_change(wp, omega)) * wp
    lo = float(profile.index_change(wm, omega)) * wm
    return float(profile.index(omega)) + (hi - lo) / (wp - wm)


def fd_step(profile, omega: float) -> float:
    # Truncation is set by the curvature scale: the line width for resonant
    # profiles, the frequency itself otherwise.
    if isinstance(profile, LorentzianAbsorptive):
        return profile.half_linewidth / 3000.0
    if isinstance(profile, TaylorCubic) and profile.n1 < 0.0 < profile.n3:
        return math.sqrt(-profile.n1 / profile.n3) / 3000.0
    return omega * 1e-7


def random_profile(rng: random.Random):
    """One random profile plus an evaluation frequency near its features."""
    kind = rng.choice(("constant", "linear", "lorentzian", "taylor"))
    w0 = 10.0 ** rng.uniform(14.5, 15.8)
    if kind == "constant":
        return TaylorCubic(rng.uniform(1.0, 3.0), 0.0, 0.0, w0), w0
    if kind == "linear":
        n0 = rng.uniform(1.0, 2.0)
        ng = 10.0 ** rng.uniform(-2.0, 6.0)
        return TaylorCubic(n0, (ng - n0) / w0, 0.0, w0), w0 * rng.uniform(0.99, 1.01)
    g = 10.0 ** rng.uniform(4.0, 9.0)
    # keep A*w0/g within [1e-3, 3]: spans weak lines through past-critical
    a = g / w0 * 10.0 ** rng.uniform(-3.0, math.log10(3.0))
    detune = rng.uniform(-3.0, 3.0) * g
    if kind == "lorentzian":
        return LorentzianAbsorptive(a, g, w0), w0 + detune
    return TaylorCubic(1.0, -a / g, a / g ** 3, w0), w0 + detune


def test_group_index_matches_finite_differences():
    rng = random.Random(914)
    for _ in range(60):
        profile, w = random_profile(rng)
        exact = float(group_index(profile, w))
        approx = fd_group_index(profile, w, fd_step(profile, w))
        assert abs(approx - exact) <= 1e-5 * max(1.0, abs(exact))


def test_group_index_linear_slow_light():
    ng = 100.0
    profile = TaylorCubic(1.0, (ng - 1.0) / W0, 0.0, W0)
    assert float(group_index(profile, W0)) == pytest.approx(ng, rel=1e-12)


def test_lorentzian_taylor_coefficients_frozen():
    profile = LorentzianAbsorptive(2.0e-9, G, W0)
    t = profile.taylor()
    assert t.n0 == 1.0
    assert t.omega_ref == W0
    assert t.n1 == pytest.approx(-3.183098861837907e-16, rel=1e-12)
    assert t.n3 == pytest.approx(8.062883608299874e-30, rel=1e-12)


def test_taylor_is_third_order_series_of_lorentzian():
    # The remainder of the odd cubic against the full line is exactly
    # A*u^5/(1 + u^2); a strong line keeps the difference above rounding.
    a = 1e-3
    profile = LorentzianAbsorptive(a, G, W0)
    t = profile.taylor()
    for u in (0.05, 0.1, 0.2, 0.3):
        w = W0 + u * G
        diff = float(t.index(w)) - float(profile.index(w))
        assert diff == pytest.approx(a * u ** 5 / (1.0 + u * u), rel=1e-4)


def test_index_change_antisymmetric_exactly():
    profile = LorentzianAbsorptive(2.0e-9, G, W0)
    for d in (0.5, 2.0, 1024.5, 6283185.5, 1.0e8):
        up = float(profile.index_change(W0 + d, W0))
        dn = float(profile.index_change(W0 - d, W0))
        assert up == -dn


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1.0, max_value=1e9))
def test_index_change_antisymmetry_property(delta):
    profile = LorentzianAbsorptive(5.0e-8, G, W0)
    w_plus = W0 + delta
    w_minus = 2.0 * W0 - w_plus  # exact mirror of the rounded w_plus
    up = float(profile.index_change(w_plus, W0))
    dn = float(profile.index_change(w_minus, W0))
    assert up == -dn


def test_index_change_consistent_with_direct_difference():
    profile = LorentzianAbsorptive(1.0e-4, G, W0)
    for d in (0.1 * G, G, 5.0 * G):
        direct = float(profile.index(W0 + d)) - float(profile.index(W0))
        stable = float(profile.index_change(W0 + d, W0))
        assert stable == pytest.approx(direct, abs=4e-16)


def test_lorentzian_slope_extremes():
    a = 2.0e-9
    profile = LorentzianAbsorptive(a, G, W0)
    assert float(profile.dindex_domega(W0)) == pytest.approx(-a / G, rel=1e-14)
    # slope crosses zero at one half linewidth off center
    assert abs(float(profile.dindex_domega(W0 + G))) < (a / G) * 1e-6
    assert abs(float(profile.dindex_domega(W0 - G))) < (a / G) * 1e-6


def test_index_deviation_peaks_at_half_linewidth():
    a = 2.0e-9
    profile = LorentzianAbsorptive(a, G, W0)
    assert float(profile.index(W0 - G)) == pytest.approx(1.0 + a / 2.0, rel=1e-12)
    assert float(profile.index(W0 + G)) == pytest.approx(1.0 - a / 2.0, rel=1e-12)


def test_cad_tune_hits_group_index_target():
    for target in (0.0, 0.5, 1.0, -1.0, -10.0):
        profile = cad_tune(G, W0, group_index_target=target)
        ng = float(group_index(profile, W0))
        assert ng == pytest.approx(target, abs=1e-12 * (1.0 + abs(target)))


def test_cad_tune_default_strength():
    profile = cad_tune(G, W0)
    assert profile.strength == pytest.approx(2.0e-9, rel=1e-12)
    assert profile.half_linewidth == G
    assert profile.center == W0


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=1e3, max_value=1e9),
    st.floats(min_value=-100.0, max_value=1.0),
)
def test_cad_tune_target_property(g, target):
    profile = cad_tune(g, W0, group_index_target=target)
    ng = float(group_index(profile, W0))
    assert ng == pytest.approx(target, abs=1e-9 * (1.0 + abs(target)))


def written_out(profile, omega, base):
    """(n(omega), n(omega) - n(base), dn/domega) as three expressions that
    share nothing, each in the operation order it had on its own."""
    if isinstance(profile, LorentzianAbsorptive):
        a, g = profile.strength, profile.half_linewidth
        x, xb = omega - profile.center, base - profile.center
        den = g * g + x * x
        num = (x - xb) * (g * g - x * xb)
        return (
            1.0 - a * g * x / (g * g + x * x),
            -a * g * num / ((g * g + x * x) * (g * g + xb * xb)),
            -a * g * (g * g - x * x) / (den * den),
        )
    x, xb = omega - profile.omega_ref, base - profile.omega_ref
    return (
        profile.n0 + profile.n1 * x + profile.n3 * x * x * x,
        (x - xb) * (profile.n1 + profile.n3 * (x * x + x * xb + xb * xb)),
        profile.n1 + 3.0 * profile.n3 * x * x,
    )


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.floats(min_value=-3.0, max_value=3.0))
def test_fused_response_equals_each_formula_alone_bitwise(rng, base_offset):
    # sharing x, G^2 + x^2 and d between the three parts changes no bit, at
    # a float and over an array, with the slope or without, and each
    # projection is its part
    profile, omega = random_profile(rng)
    base = omega + base_offset * fd_step(profile, omega) * 3000.0
    assert profile.response(omega, base) == written_out(profile, omega, base)
    omegas = omega + np.linspace(-2.0, 2.0, 9) * fd_step(profile, omega) * 3000.0
    for got, want in zip(profile.response(omegas, base), written_out(profile, omegas, base)):
        assert np.array_equal(got, want)
    # without the slope, the two other parts alone, built in place
    assert profile.response(omega, base, slope=False) == written_out(profile, omega, base)[:2]
    got = profile.response(omegas, base, slope=False)
    assert len(got) == 2
    for got, want in zip(got, written_out(profile, omegas, base)):
        assert np.array_equal(got, want)
    n, dn, slope = profile.response(omega, base)
    assert (profile.index(omega), profile.index_change(omega, base), profile.dindex_domega(omega)) == (n, dn, slope)
    assert group_index(profile, omega) == n + omega * slope


def test_int_frequencies_evaluate_as_their_floats():
    # an int frequency or int array is checked and evaluated as the floats
    # of equal value, with an array base of omega's shape taken element for
    # element; a non-positive int is refused, and an empty array passes
    wc = 3 * 10**15
    for profile in (LorentzianAbsorptive(1e-9, 1e7, float(wc)), TaylorCubic(1.0, -1e-16, 1e-30, float(wc))):
        w = np.array([wc - 10**7, wc, wc + 3 * 10**7])
        for got, want in zip(profile.response(w, w[::-1]), profile.response(w * 1.0, w[::-1] * 1.0)):
            assert got.dtype == float and np.array_equal(got, want)
        assert profile.response(wc + 10**7, wc) == profile.response(float(wc + 10**7), float(wc))
        assert profile.index_change(np.array([], dtype=int), wc).size == 0
        for bad in (lambda: profile.index(0), lambda: profile.index_change(np.array([wc, -1]), wc)):
            with pytest.raises(ValueError, match="optical frequency must be positive"):
                bad()


def test_an_array_evaluation_broadcasts_and_takes_float64():
    # `response` hands the formulas both frequencies as float64 arrays, omega
    # widened to their broadcast shape: a (5,) omega against a (2, 1) base
    # gives the (2, 5) of float calls, and a float32 omega a float64 change
    omega = W0 + G * np.linspace(-2.0, 2.0, 5)
    base = W0 + G * np.array([[0.5], [-1.0]])
    for profile in (LorentzianAbsorptive(2.0e-9, G, W0), TaylorCubic(1.0, -1e-16, 1e-30, W0)):
        change = profile.index_change(omega, base)
        assert change.shape == (2, 5) and change.dtype == np.float64
        assert change.tolist() == [[profile.index_change(w, b) for w in omega.tolist()] for b in base[:, 0].tolist()]
        for part in profile.response(omega, base):
            assert part.shape == (2, 5)
        narrow = omega.astype(np.float32)
        change = profile.index_change(narrow, base)
        assert change.dtype == np.float64
        assert np.array_equal(change, profile.index_change(narrow.astype(float), base))


def test_an_underflowing_line_centre_is_named():
    # G^2 + x^2 underflows to 0 at the line centre; the refusal names the
    # line width where it first divides, and the line still evaluates away
    # from the centre
    profile = LorentzianAbsorptive(1.0, 1e-300, W0)
    message = r"medium linewidth too narrow for the Lorentzian line: .* \(G = 1e-300 rad/s\)"
    for evaluate in (profile.index, profile.dindex_domega, lambda w: profile.index_change(W0 + 1.0, w)):
        with pytest.raises(ComputationError, match=message):
            evaluate(W0)
    assert profile.index(W0 + 1.0) == 1.0


def test_an_underflowing_slope_denominator_leaves_the_index():
    # (G^2)^2 underflows at the line centre where G^2 does not: the index
    # there is still exactly 1, and the slope takes the -inf an array gets
    profile = LorentzianAbsorptive(1.0, 1e-100, W0)
    n, dn, slope = profile.response(W0, W0 + 1.0)
    assert (type(n), type(dn), type(slope)) == (float, float, float)
    assert n == profile.index(W0) == 1.0
    assert slope == profile.dindex_domega(W0) == -math.inf
    assert dn == profile.index_change(W0, W0 + 1.0) == 1e-100
    with np.errstate(divide="ignore", invalid="ignore"):
        assert profile.dindex_domega(np.array([W0]))[0] == slope


def test_cad_tune_refuses_an_overflowing_strength():
    # A = G*(1 - target)/w0 overflows when w0 underflows towards 0
    w0 = 2.0 * math.pi * 5e-324
    with pytest.raises(ComputationError, match=r"line centre frequency too low .* \(w0 = 2.96e-323 rad/s\)"):
        cad_tune(G, w0)


def test_cad_tune_rejects_unreachable_target():
    with pytest.raises(ValueError):
        cad_tune(G, W0, group_index_target=1.5)


def test_taylor_coefficients_passthrough_and_mapping():
    t = TaylorCubic(1.0, -1e-16, 1e-30, W0)
    assert t.taylor() is t
    lin = TaylorCubic(1.2, 3e-16, 0.0, W0)
    tl = lin.taylor()
    assert (tl.n0, tl.n1, tl.n3, tl.omega_ref) == (1.2, 3e-16, 0.0, W0)
    const = TaylorCubic(1.5, 0.0, 0.0, W0)
    tc = const.taylor()
    assert (tc.n0, tc.n1, tc.n3) == (1.5, 0.0, 0.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        TaylorCubic(0.0, 0.0, 0.0, W0)
    with pytest.raises(ValueError):
        LorentzianAbsorptive(1e-9, -G, W0)
    with pytest.raises(ValueError):
        LorentzianAbsorptive(-1e-9, G, W0)
    with pytest.raises(ValueError):
        TaylorCubic(1.0, 0.0, 0.0, -W0)
    profile = TaylorCubic(1.0, 0.0, 0.0, W0)
    with pytest.raises(ValueError):
        profile.index(-1.0)
