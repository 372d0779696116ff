"""Ring-cavity shifts and linewidths against bisection oracles and frozen values."""

from __future__ import annotations

import math
import random
import re
import warnings
from fractions import Fraction

import pytest

from oracle_utils import (
    bisect,
    bisect_cubic_branch,
    bisect_positive_root,
    bisect_smaller_positive_root,
    length_to_rotation,
    random_cubic_case,
)

from fastlight.constants import C0, OMEGA_EARTH
from fastlight.dispersion import (
    LorentzianAbsorptive,
    TaylorCubic,
    cad_tune,
)
from fastlight.errors import ComputationError
from fastlight.resonator import (
    RingCavity,
    ShiftedLinewidth,
    _continuous_root,
    _positive_linewidth_root,
    airy_linewidth_cubic,
    cubic_root,
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
from fastlight.sagnac import LoopGeometry

W0 = 2.0 * math.pi * 5.0e14
G = 2.0 * math.pi * 1.0e6
CIRCLE = LoopGeometry.circular(1.0)


def tabletop() -> RingCavity:
    return RingCavity(geometry=CIRCLE, finesse=1.0e3, omega0=W0)


def cad_taylor() -> TaylorCubic:
    return cad_tune(G, W0).taylor()


# ---------------------------------------------------------------- cavity


def test_cavity_derived_quantities():
    cav = tabletop()
    assert cav.round_trip_length == pytest.approx(2.0 * math.pi, rel=1e-15)
    # r = 1 m makes the FSR numerically equal to c0
    assert cav.free_spectral_range == pytest.approx(C0, rel=1e-15)
    assert cav.gamma_ec == pytest.approx(299792.458, rel=1e-15)
    assert cav.ring_down_time == pytest.approx(1.0 / 299792.458, rel=1e-15)


def test_cavity_validation():
    with pytest.raises(ValueError):
        RingCavity(geometry=CIRCLE, finesse=0.5, omega0=W0)
    with pytest.raises(ValueError):
        RingCavity(geometry=CIRCLE, finesse=1e3, omega0=-W0)
    with pytest.raises(ValueError):
        RingCavity(geometry=CIRCLE, finesse=1e3, omega0=W0, fill_fraction=0.0)


# ------------------------------------------------------- bare splitting


def test_splitting_scale_frozen():
    result = splitting_no_dispersion(tabletop(), 1.0)
    assert result.splitting == pytest.approx(20958450.219516817, rel=1e-12)
    assert result.dw_minus == pytest.approx(result.splitting / 2.0, rel=1e-15)
    assert result.dw_plus == -result.dw_minus
    assert result.width is None


def test_splitting_against_first_principles():
    # per direction: (w0/c0/n0) * 2*A*Omega/P, here A/P = 1/2
    cav = tabletop()
    omega_rot = OMEGA_EARTH
    expected = (W0 / C0) * omega_rot
    result = splitting_no_dispersion(cav, omega_rot)
    assert result.dw_minus == pytest.approx(expected, rel=1e-12)


def test_rotation_to_length_frozen_and_invertible():
    cav = tabletop()
    dl = rotation_to_length(cav, OMEGA_EARTH)
    assert dl == pytest.approx(-1.5283144808509707e-12, rel=1e-12)
    assert length_to_rotation(cav, dl) == pytest.approx(OMEGA_EARTH, rel=1e-12)


def test_length_and_rotation_shifts_are_consistent():
    # the equivalent length change must reproduce the per-direction shift
    cav = tabletop()
    dl = rotation_to_length(cav, OMEGA_EARTH)
    dw_from_length = -cav.omega0 * dl / cav.round_trip_length
    assert dw_from_length == pytest.approx(
        splitting_no_dispersion(cav, OMEGA_EARTH).dw_minus, rel=1e-12
    )


# ------------------------------------------------------------ the cubic


def test_shift_cubic_cad_frozen():
    # empty-cavity shift of 2*pi*1 rad/s against a 1 MHz half line: the
    # cube-root law lands on 2*pi*1e4
    t = cad_taylor()
    dw = shift_cubic(2.0 * math.pi, t)
    assert dw == pytest.approx(2.0 * math.pi * 1.0e4, rel=1e-9)


def test_shift_cubic_matches_bisection_in_every_regime():
    cases = [
        TaylorCubic(1.0, 1.0 / W0, 1e-30, W0),    # slow, b = 2
        TaylorCubic(1.0, -1.0 / W0, 1e-30, W0),   # critical, b ~ 0
        TaylorCubic(1.0, -3.0 / W0, 1e-28, W0),   # fast, b = -2
    ]
    for t in cases:
        a = t.n3 * t.omega_ref
        b = t.n0 + t.n1 * t.omega_ref
        for d in (1e-4, 12.0, 5e4, -3e3):
            x = shift_cubic(d, t)
            assert x == pytest.approx(bisect_cubic_branch(a, b, d), rel=1e-10)


def test_shift_cubic_randomized_against_bisection():
    rng = random.Random(551)
    for _ in range(200):
        t, d = random_cubic_case(rng)
        a = t.n3 * t.omega_ref
        b = t.n0 + t.n1 * t.omega_ref
        x = shift_cubic(d, t)
        ref = bisect_cubic_branch(a, b, d)
        assert x == pytest.approx(ref, rel=1e-10), (t, d)


def test_shift_cubic_bisection_fallback_reaches_tiny_roots():
    # n3*w0 is subnormal, so the root 1e-70 is d/b to the last bit: the
    # polish seeds from d/b, the smaller of the two one-term roots, and
    # ends there, inside its bracket [0, 8e82] and far below the 2^-200
    # floor of a fixed 200 halvings of it
    t = TaylorCubic(n0=1.0, n1=3.2e-6, n3=5e-324, omega_ref=2.0 * math.pi * 5e14)
    dw_ec = 2.0 * math.pi * 1.6e-61
    assert shift_cubic(dw_ec, t) == pytest.approx(dw_ec / t.ng0, rel=1e-12, abs=0.0)


def test_continuous_root_fallback_when_d_over_a_overflows():
    # q = d/a overflows, and with it the seed (d/a)^(1/3); the bracket's
    # upper end 2*d^(1/3)/a^(1/3) does not
    a, d = 3.4975146060174276e-189, 7.72673919488669e145
    root, multi = _continuous_root(a, 0.0, d)
    assert not multi
    assert root == pytest.approx(math.exp((math.log(d) - math.log(a)) / 3.0), rel=1e-12)


def test_continuous_root_three_root_fallback_underflows_to_zero():
    # the middle root, about -3.3e-371, is below the smallest double, and so
    # is its bracket's end 2d/b: the bracket [-0, 0] has no double inside
    root, multi = _continuous_root(9.04319973126187e134, -2.5451874639356627e132, 8.43416297685972e-239)
    assert multi
    assert root == 0.0


def exact_cubic(a: float, b: float, d: float):
    """a*x^3 + b*x - d in exact rational arithmetic."""
    return lambda x: Fraction(a) * Fraction(x) ** 3 + Fraction(b) * Fraction(x) - Fraction(d)


def test_middle_root_of_a_cubic_term_too_weak_for_b_over_a_is_d_over_b():
    # a Taylor medium of n3 = 5e-324 s^3/rad^3 at n_g = -10 on the tabletop
    # ring at Earth rate: b/a overflows, and the middle root's polish,
    # seeded from d/b, lands on it
    a, b, d = 1.5521530033659566e-308, -9.995574287564276, 764.1572404254854
    assert _continuous_root(a, b, d) == (d / b, True)
    # with b = -1e300 the turning point sqrt(-b/3)/sqrt(a) lies beyond the
    # doubles too, so the middle root's bracket ends at 2d/b instead
    a, b, d = 5e-324, -1e300, 764.0
    assert _continuous_root(a, b, d) == (d / b, True)
    # and where d/b underflows to -0 as well, so that the seed sits on the
    # bracket's end, the bracket [-0, 0] gives the root that the doubles
    # can carry, not the midpoint of [-inf, 0]
    assert _continuous_root(5e-324, -1e300, 1e-30) == (0.0, True)


def test_continuous_root_takes_no_newton_step_that_overflows():
    # d/b, about 3e-392, underflows to 0, the bracket's lower end, so the
    # polish starts halfway up [0, 2*(d/a)^(1/3)] = [0, 6.3e21], where b*x
    # overflows: the Newton step from there is refused, not taken, and the
    # halvings end at the root the doubles carry, 0
    assert _continuous_root(1.2671448898369965e-155, 1.3527451799891255e301, 3.948230259740751e-91) == (0.0, False)
    # the largest of three roots, 1.46e69: its seed (d/a)^(1/3) = 1.4e-64
    # lies below the turning point, and x*(a*x^2 + b) overflows to -inf at
    # the middle of its bracket
    a, b, d = 2.073168574678015e122, -4.413691468589974e260, 5.424503635087161e-70
    root, multi = _continuous_root(a, b, d, largest=True)
    assert multi
    f = exact_cubic(a, b, d)
    assert f(math.nextafter(root, -math.inf)) * f(math.nextafter(root, math.inf)) <= 0


def test_a_newton_step_is_taken_where_the_bracket_test_product_underflows():
    # the middle root lies within an ulp of its seed d/b = -2.2e-223; there
    # the bracket test's two factors are 9.3e-215 and -7.7e-199, whose
    # product underflows to -0, so a test of the product's sign refuses the
    # one Newton step that lands and halves 53 times instead, to the other
    # neighbour of the root
    a, b, d = 3.589114731134473e-299, -3.5815716278369315e24, 7.745252726401775e-199
    seed = d / b
    step = seed - (seed * (a * seed * seed + b) - d) / (3.0 * a * seed * seed + b)
    assert step != seed
    assert _continuous_root(a, b, d) == (step, True)
    f = exact_cubic(a, b, d)
    assert f(seed) * f(step) < 0


@pytest.mark.parametrize(
    "a, b, d",
    [
        (1.4628104301592875e-118, -0.08225903932037426, 1.476833480668227e307),
        (-3.307630014325619e204, 1.0912382354724608e-74, -2.6678275059292693e-15),
    ],
    ids=["p-cubed-overflows", "discriminant-underflows"],
)
def test_one_real_root_or_three_is_read_off_the_fold(a, b, d):
    # drives 2e250 and 1e199 times the fold drive -(2/3)*b*turn: one real
    # root, although the discriminant q^2/4 + p^3/27 of p = b/a and q = d/a
    # reads three in doubles, its p^3 overflowing in the first cubic and
    # underflowing to -0, with q^2 to 0, in the second
    root, multi = _continuous_root(a, b, d)
    assert not multi
    f = exact_cubic(a, b, d)
    assert f(math.nextafter(root, -math.inf)) * f(math.nextafter(root, math.inf)) <= 0


@pytest.mark.parametrize(
    "a, b, d, multi",
    [
        (-6.22595521006791e-277, 1.4680511390031188e33, -7.93142109018069e232, False),
        (1.108564183225188e288, -1.5607907749888235e-69, 8.966838123882747e-254, True),
    ],
    ids=["b-over-a-overflows", "b-over-a-underflows"],
)
def test_the_fold_is_read_where_b_over_a_is_no_normal_double(a, b, d, multi):
    # b/a is -inf in the first cubic (after the sign flip that makes a > 0)
    # and -0 in the second, which would put the turning point sqrt(-b/(3a))
    # at inf and at 0; sqrt(-b/3)/sqrt(a) puts it at 2.8e154 and 6.9e-180,
    # so that the drive is beyond the fold in the first (one real root) and
    # within it in the second (three, the continuous one the middle)
    root, got = _continuous_root(a, b, d)
    f = exact_cubic(a, b, d)
    assert f(math.nextafter(root, -math.inf)) * f(math.nextafter(root, math.inf)) <= 0
    p, q = Fraction(b) / Fraction(a), Fraction(d) / Fraction(a)
    assert got == multi == (4 * p ** 3 + 27 * q ** 2 < 0)
    if multi:
        # between the turning points, where the slope 3ax^2 + b has the
        # sign opposite to a's
        assert 3 * Fraction(root) ** 2 + p < 0


def test_linewidth_is_the_largest_root_where_the_trigonometric_form_cannot_be_formed():
    # three real roots, with p*m = (b/a)*2*sqrt(-b/(3a)) below the smallest
    # double, where the trigonometric form gives NaN: the polish finds the
    # largest root in its bracket [turn, 2*(turn + (d/a)^(1/3))]
    a, b, gamma_ec = 1e200, -1e-50, 1e-180
    turn = math.sqrt(-b / (3.0 * a))
    expected = bisect(exact_cubic(a, b, gamma_ec), turn, 2.0 * turn)
    assert _positive_linewidth_root(a, b, gamma_ec) == pytest.approx(expected, rel=1e-15)


def test_shift_cubic_negative_curvature_solves_its_cubic():
    t_neg = TaylorCubic(1.0, 0.5 / W0, -2e-29, W0)
    a = t_neg.n3 * W0
    b = t_neg.n0 + t_neg.n1 * W0
    for d in (1e-3, 7.5, 2e3):
        x = shift_cubic(d, t_neg)
        residual = a * x ** 3 + b * x - d
        assert abs(residual) <= 1e-12 * (abs(b * x) + abs(d))
        # the normal-curvature root bends the other way around the linear
        # one (resolvable once the cubic term clears double precision)
        assert x >= d / b >= shift_cubic(d, TaylorCubic(1.0, 0.5 / W0, 2e-29, W0))
        if d >= 1e3:
            assert x > d / b > shift_cubic(d, TaylorCubic(1.0, 0.5 / W0, 2e-29, W0))


def test_shift_cubic_odd_in_the_drive():
    for t in (TaylorCubic(1.0, 0.5 / W0, 2e-29, W0), TaylorCubic(1.0, 0.5 / W0, -2e-29, W0)):
        for d in (1e-3, 7.5, 2e3):
            assert shift_cubic(-d, t) == -shift_cubic(d, t)


def test_shift_cubic_zero_and_degenerate():
    t = cad_taylor()
    assert shift_cubic(0.0, t) == 0.0
    # n_g and curvature both exactly zero: no response exists
    degenerate = TaylorCubic(1.0, -1.0, 0.0, 1.0)
    with pytest.raises(ComputationError):
        shift_cubic(1.0, degenerate)
    # pure linear fallback
    lin = TaylorCubic(1.0, 1.0 / W0, 0.0, W0)
    assert shift_cubic(3.0, lin) == pytest.approx(1.5, rel=1e-12)


def test_shift_cubic_names_the_multivalued_branch_by_its_local_group_index():
    # three real roots: the middle one is returned without a warning, and
    # the negative slope of the cubic there, the local group index, says so
    t = TaylorCubic(1.0, -3.0 / W0, 1e-26, W0)  # n_g = -2, deep fold
    a = t.n3 * W0
    b = t.n0 + t.n1 * W0
    turn = math.sqrt(-b / (3.0 * a))
    d_fold = 2.0 * a * turn ** 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = shift_cubic(0.1 * d_fold, t)
    assert abs(x) <= turn * (1.0 + 1e-12)
    assert t.local_ng(x) < 0.0


@pytest.mark.parametrize("dw_ec", [W0, -W0, 2.0 * W0, -1e300])
def test_shift_cubic_refuses_a_root_of_omega0_or_more(dw_ec):
    # the cubic is an expansion about w0: in an empty background (n_g = 1)
    # the root is the drive itself, and one of w0 or more is refused by name
    t = TaylorCubic(1.0, 0.0, 0.0, W0)
    assert shift_cubic(math.nextafter(W0, 0.0), t) == math.nextafter(W0, 0.0)
    with pytest.raises(ComputationError, match=re.escape(f"the dispersive shift {dw_ec:.3g} rad/s is not below omega0")):
        shift_cubic(dw_ec, t)


# ------------------------------------------------------------- eta laws


def test_enhancement_conventions():
    for dw in (1e-2, 1.0, 1e3):
        derived = enhancement_eta(G, dw, convention="derived")
        paper_like = enhancement_eta(G, dw, convention="paper")
        assert derived == pytest.approx((G / dw) ** (2.0 / 3.0), rel=1e-14)
        assert paper_like / derived == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-14)
    with pytest.raises(ValueError):
        enhancement_eta(G, 1.0, convention="other")
    with pytest.raises(ValueError):
        enhancement_eta(G, 0.0)


def test_enhancement_matches_cubic_solution():
    t = cad_taylor()
    for dw_ec in (1e-3, 1.0, 1e2):
        x = shift_cubic(dw_ec, t)
        assert x / dw_ec == pytest.approx(enhancement_eta(G, dw_ec), rel=1e-9)


# ----------------------------------------------------------- linewidths


def test_linewidth_cad_frozen():
    gamma_ec = 299792.458
    t = cad_taylor()
    broadened = linewidth_cubic(gamma_ec, t)
    assert broadened == pytest.approx(2278908.1062118723, rel=1e-12)
    assert broadened == pytest.approx((G * G * gamma_ec) ** (1.0 / 3.0), rel=1e-9)


def test_airy_linewidth_is_quarter_curvature():
    gamma_ec = 299792.458
    t = cad_taylor()
    quartered = TaylorCubic(t.n0, t.n1, t.n3 / 4.0, t.omega_ref)
    assert airy_linewidth_cubic(gamma_ec, t) == linewidth_cubic(gamma_ec, quartered)
    ratio = airy_linewidth_cubic(gamma_ec, t) / linewidth_cubic(gamma_ec, t)
    assert ratio == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-12)


def test_linewidth_cubic_against_bisection():
    rng = random.Random(772)
    for _ in range(100):
        t, _ = random_cubic_case(rng)
        gamma_ec = 10.0 ** rng.uniform(0.0, 8.0)
        a = t.n3 * t.omega_ref
        b = t.n0 + t.n1 * t.omega_ref
        got = linewidth_cubic(gamma_ec, t)
        assert got == pytest.approx(bisect_positive_root(a, b, gamma_ec), rel=1e-10)


def test_linewidths_with_negative_curvature_against_bisection():
    # n3 < 0: both widths are the smaller of two positive roots, which
    # continues from the linear regime; the draws run from a cubic term that
    # is negligible at the width (gamma_ec a 1e-12 share of the fold drive)
    # to within a millionth of the fold, where the two roots merge
    rng = random.Random(915)
    for i in range(200):
        w0 = 10.0 ** rng.uniform(14.0, 16.0)
        ng = 10.0 ** rng.uniform(-2.0, 2.0)
        gamma_ec = 10.0 ** rng.uniform(0.0, 8.0)
        share = 10.0 ** rng.uniform(-12.0, -1.0) if i % 2 else 1.0 - 10.0 ** rng.uniform(-6.0, -0.05)
        # the fold drive (2/3)*n_g*turn with turn = sqrt(n_g/(3|a|)) is gamma_ec/share
        turn = 1.5 * gamma_ec / (share * ng)
        t = TaylorCubic(1.0, (ng - 1.0) / w0, -ng / (3.0 * turn * turn * w0), w0)
        a = t.n3 * t.omega_ref
        b = t.n0 + t.n1 * t.omega_ref
        assert linewidth_cubic(gamma_ec, t) == pytest.approx(bisect_smaller_positive_root(a, b, gamma_ec), rel=1e-10)
        airy = airy_linewidth_cubic(gamma_ec, t)
        assert airy == pytest.approx(bisect_smaller_positive_root(0.25 * a, b, gamma_ec), rel=1e-10)


def test_linewidth_linear_regime():
    # a dispersionless cubic (n3 = 0) is the linear regime: both widths are
    # gamma_ec/n_g exactly, the same polish's a = 0 case
    for gamma_ec in (1.0, 299792.458, 3.7e9):
        for ng in (2.0, 0.37, 4.0 / 3.0, 12.5):
            t = TaylorCubic(1.0, (ng - 1.0) / W0, 0.0, W0)
            assert linewidth_cubic(gamma_ec, t) == airy_linewidth_cubic(gamma_ec, t) == gamma_ec / t.ng0
    # an exact n_g = 0 has neither term and n_g < 0 no positive root
    w0 = 2.0 ** 50
    flat = TaylorCubic(1.0, -1.0 / w0, 0.0, w0)
    assert flat.ng0 == 0.0
    fast = TaylorCubic(1.0, -3.0 / W0, 0.0, W0)  # n_g = -2
    assert fast.ng0 < 0.0
    for width in (linewidth_cubic, airy_linewidth_cubic):
        with pytest.raises(ComputationError, match="^degenerate response: no linear or cubic term$"):
            width(1.0, flat)
        with pytest.raises(ComputationError, match="^no positive linewidth root for these coefficients$"):
            width(1.0, fast)
    with pytest.raises(ValueError):
        linewidth_cubic(-1.0, TaylorCubic(1.0, 1.0 / W0, 0.0, W0))


def test_a_linear_width_that_is_zero_is_refused():
    # gamma_ec/n_g at zero, where the group index overflows or the width
    # underflows, is a root that is not positive, refused as any other
    overflow = TaylorCubic(1.0, 1e300, 0.0, W0)
    assert overflow.ng0 == math.inf
    slow = TaylorCubic(1.0, 1.0 / W0, 0.0, W0)  # n_g = 2
    assert 5e-324 / slow.ng0 == 0.0
    refused = "^no positive linewidth root for these coefficients$"
    for gamma_ec, t in ((1.0, overflow), (5e-324, slow)):
        for width in (linewidth_cubic, airy_linewidth_cubic, lambda g, t: shifted_linewidth(g, t, 0.0)):
            with pytest.raises(ComputationError, match=refused):
                width(gamma_ec, t)


def test_shifted_linewidth_refuses_a_width_budget_that_is_not_positive():
    # on the linear width's side (local n_g > 0) and on the cubic's alike
    t = cad_taylor()
    for dw in (0.0, 1e-2 * G):
        assert (t.local_ng(dw) > 0.0) == (dw > 0.0)
        with pytest.raises(ValueError, match="^empty-cavity linewidth must be positive$"):
            shifted_linewidth(-1.0, t, dw)


def test_shifted_linewidth_local_group_index():
    gamma_ec = 100.0
    t = cad_taylor()
    for dw in (1e-3 * G, 1e-2 * G, 1e-1 * G):
        res = shifted_linewidth(gamma_ec, t, dw)
        assert res.gamma_dis == pytest.approx(gamma_ec * G * G / (3.0 * dw * dw), rel=1e-9)
        assert res.local_ng == pytest.approx(3.0 * t.n3 * W0 * dw * dw, rel=1e-9)
        assert not res.from_cubic
    # still at the white-light point: no linear width, so the cubic root
    res = shifted_linewidth(gamma_ec, t, 0.0)
    assert res.from_cubic
    assert res.local_ng == t.ng0
    assert res.gamma_dis == linewidth_cubic(gamma_ec, t)


def test_shifted_linewidth_slow_regime():
    slow = TaylorCubic(1.0, 1.0 / W0, 1e-32, W0)
    res = shifted_linewidth(10.0, slow, 1.0)
    assert res.gamma_dis == pytest.approx(5.0, rel=1e-6)
    assert not res.from_cubic


def test_every_width_of_omega0_or_more_is_refused():
    # each width comes from the cubic, an expansion about omega0: a finite
    # one of omega0 or more is refused, naming it
    refused = r"^the linewidth \S+ rad/s is not below omega0 = \S+ rad/s: the cubic is an expansion about the resonance$"
    fast = TaylorCubic(1.0, -11.0 / W0, 1e-300, W0)  # n_g = -10, a cubic term that barely counts
    for width in (linewidth_cubic, airy_linewidth_cubic):
        with pytest.raises(ComputationError, match=refused):
            width(1e8, fast)
    # without dispersion every width is gamma_ec, the linear one included
    vacuum = TaylorCubic(1.0, 0.0, 0.0, W0)
    below = math.nextafter(W0, 0.0)
    assert linewidth_cubic(below, vacuum) == airy_linewidth_cubic(below, vacuum) == below
    assert shifted_linewidth(below, vacuum, 0.0).gamma_dis == below
    for width in (linewidth_cubic, airy_linewidth_cubic, lambda g, t: shifted_linewidth(g, t, 0.0)):
        with pytest.raises(ComputationError, match=refused):
            width(W0, vacuum)
    # at rest, the linear width standing in for the cubic root is refused too
    small = RingCavity(geometry=LoopGeometry.circular(1e-9), finesse=1.01, omega0=1e6)
    assert small.gamma_ec > small.omega0
    with pytest.raises(ComputationError, match=refused):
        rotation_response(TaylorCubic(1.0, 0.0, 0.0, 1e6), small, 0.0)
    # and a root refused for reaching omega0 is not replaced by the linear
    # width, here 0.97*omega0: with n3 < 0 the root lies above it, 1.04*omega0
    ng = small.gamma_ec / 0.97e6
    steep = TaylorCubic(1.0, (ng - 1.0) / 1e6, -ng / 1.55e19, 1e6)
    assert linewidth_cubic(small.gamma_ec, TaylorCubic(1.0, (ng - 1.0) / 1e6, 0.0, 1e6)) < small.omega0
    with pytest.raises(ComputationError, match=refused):
        rotation_response(steep, small, 0.0)


def test_effective_half_linewidth_roundtrip():
    t = cad_taylor()
    assert effective_half_linewidth(t) == pytest.approx(G, rel=1e-12)
    assert effective_half_linewidth(TaylorCubic(1.0, 1e-16, 1e-30, W0)) is None


def test_feedback_gain():
    t = cad_taylor()
    assert feedback_gain(t) == pytest.approx(1.0, rel=1e-12)  # n_g = 0: unity gain
    half = TaylorCubic(1.0, -0.5 / W0, 0.0, W0)  # n_g = 0.5
    assert feedback_gain(half) == pytest.approx(0.5, rel=1e-12)


# ----------------------------------------------------- composite response


def test_effective_taylor_scales_with_fill():
    cav = RingCavity(geometry=CIRCLE, finesse=1e3, omega0=W0, fill_fraction=0.5)
    profile = LorentzianAbsorptive(2e-9, G, W0)
    t_full = profile.taylor()
    t_half = effective_taylor(profile, cav)
    assert t_half.n1 == pytest.approx(0.5 * t_full.n1, rel=1e-12)
    assert t_half.n3 == pytest.approx(0.5 * t_full.n3, rel=1e-12)
    assert t_half.n0 == pytest.approx(1.0, rel=1e-12)


def test_effective_taylor_partial_fill_cad_target():
    # half fill wants the medium at n_g = -1 so the path-averaged n_g is zero
    cav = RingCavity(geometry=CIRCLE, finesse=1e3, omega0=W0, fill_fraction=0.5)
    profile = cad_tune(G, W0, group_index_target=1.0 - 1.0 / 0.5)
    t = effective_taylor(profile, cav)
    assert t.n0 + t.n1 * W0 == pytest.approx(0.0, abs=1e-12)


def test_effective_taylor_rejects_off_center_profile():
    cav = tabletop()
    profile = LorentzianAbsorptive(2e-9, G, W0 * (1.0 + 1e-6))
    with pytest.raises(ComputationError):
        effective_taylor(profile, cav)


def test_effective_taylor_accepts_off_centre_dispersionless_profile():
    # without dispersion the cubic has no centre to match
    t = effective_taylor(TaylorCubic(1.5, 0.0, 0.0, 1.01 * W0), tabletop())
    assert (t.n0, t.n1, t.n3, t.omega_ref) == (1.5, 0.0, 0.0, W0)


def test_rotation_response_vacuum_matches_bare_splitting():
    cav = tabletop()
    base = splitting_no_dispersion(cav, OMEGA_EARTH)
    resp = rotation_response(TaylorCubic(cav.n0, 0.0, 0.0, W0), cav, OMEGA_EARTH)
    assert resp.dw_minus == pytest.approx(base.dw_minus, rel=1e-14)
    assert resp.dw_plus == pytest.approx(base.dw_plus, rel=1e-14)
    assert resp.splitting / base.splitting == pytest.approx(1.0, rel=1e-12)


def test_rotation_response_constant_medium_any_background():
    # a dispersionless medium cannot alter the splitting, whatever n0 is
    cav = RingCavity(geometry=CIRCLE, finesse=1e3, omega0=W0, n0=1.5)
    base = splitting_no_dispersion(cav, OMEGA_EARTH)
    resp = rotation_response(TaylorCubic(1.5, 0.0, 0.0, W0), cav, OMEGA_EARTH)
    assert resp.dw_minus == pytest.approx(base.dw_minus, rel=1e-14)
    assert resp.splitting / base.splitting == pytest.approx(1.0, rel=1e-12)


def test_rotation_response_cad_frozen():
    cav = tabletop()
    resp = rotation_response(cad_tune(G, W0), cav, OMEGA_EARTH)
    base = splitting_no_dispersion(cav, OMEGA_EARTH)
    assert resp.dw_minus == pytest.approx(311301.2202797185, rel=1e-9)
    assert resp.splitting / base.splitting == pytest.approx(407.3784867570103, rel=1e-9)
    assert resp.width.local_ng == pytest.approx(0.007364159123575452, rel=1e-9)
    assert resp.width.gamma_dis == pytest.approx(40709665.960401535, rel=1e-9)
    assert not resp.width.from_cubic
    # counter-propagating shifts mirror to well below the drag asymmetry
    assert resp.dw_plus == pytest.approx(-resp.dw_minus, rel=1e-9)
    assert resp.splitting == pytest.approx(resp.dw_minus - resp.dw_plus, rel=1e-12)


def test_rotation_response_zero_rate():
    cav = tabletop()
    resp = rotation_response(cad_tune(G, W0), cav, 0.0)
    assert resp.dw_plus == 0.0 and resp.dw_minus == 0.0 and resp.splitting == 0.0
    # at the white-light point the width is the linewidth_cubic root
    assert resp.width.from_cubic
    assert resp.width.local_ng == cad_taylor().ng0
    assert resp.width.gamma_dis == pytest.approx(linewidth_cubic(cav.gamma_ec, cad_taylor()), rel=1e-12)


def test_rotation_response_at_rest_beyond_the_fold_takes_the_linear_width():
    # n3 < 0 at n_g = 1: the cubic's fold, (2/3)*n_g*sqrt(n_g/(3*|n3|*w0)),
    # is far below gamma_ec, so linewidth_cubic has no positive root and
    # the width at rest is gamma_ec/n_g
    cav = tabletop()
    beyond = TaylorCubic(1.0, 0.0, -1e-6 / W0, W0)
    with pytest.raises(ComputationError, match="no positive linewidth root for these coefficients"):
        linewidth_cubic(cav.gamma_ec, beyond)
    resp = rotation_response(beyond, cav, 0.0)
    assert (resp.dw_plus, resp.dw_minus, resp.splitting) == (0.0, 0.0, 0.0)
    assert resp.width == ShiftedLinewidth(cav.gamma_ec, 1.0, from_cubic=False)



@pytest.mark.parametrize(
    "roots",
    [(2.0,), (-3.0, 0.5, 4.0), (-1e3, 2.0, 5e3), (-7.0, -1.0, -0.25)],
    ids=["one-real", "three-symmetric", "three-spread", "three-negative"],
)
@pytest.mark.parametrize("c3", [1.0, -2.5, 1e-9])
def test_cubic_root_is_the_only_or_the_middle_real_root(roots, c3):
    # c3*(x - r1)*(x - r2)*(x - r3), or c3*(x - r)*(x^2 + 1) for one real
    # root, solved in its depressed form, against bisection of the cubic;
    # the symmetric roots depress to q = 0, where the root is y = 0 itself
    if len(roots) == 1:
        (r,) = roots
        coeffs = (c3, -c3 * r, c3, -c3 * r)
        want = r
    else:
        r1, r2, r3 = roots
        coeffs = (c3, -c3 * (r1 + r2 + r3), c3 * (r1 * r2 + r1 * r3 + r2 * r3), -c3 * r1 * r2 * r3)
        want = r2
    a, b, c, d = coeffs
    x, multivalued = cubic_root(*coeffs)
    assert multivalued == (len(roots) == 3)
    spread = max(abs(r) for r in roots)
    oracle = bisect(lambda v: ((a * v + b) * v + c) * v + d, want - 1e-3 * spread, want + 1e-3 * spread)
    assert x == pytest.approx(oracle, rel=1e-12, abs=1e-12 * spread)
