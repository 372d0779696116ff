"""Ring-cavity mode splitting and dispersion-modified resonance response.

Rotation at Omega splits the counterpropagating resonances of an empty ring
(round trip L = P, phase index n0) by

    dw0 = (w0 / (c0*n0)) * 4*Omega*A/P        (full splitting)
    dw0+- = -+(w0 / (c0*n0)) * 2*Omega*A/P    (per direction)

equivalent to a per-direction effective length change dL = -P*Omega*R/(n0*c0).
An intracavity dispersive medium rescales each shift self-consistently: with
the odd-cubic index model the dispersion-modified shift x solves

    n3*w0 * x^3 + n_g * x = dw_ec,

whose x/dw_ec ratio is the enhancement. The cubic's indices are relative
to the background index n_b (`effective_taylor`), so n_g here is the group
index over n_b and the drive is the empty-cavity shift as it stands. At
the critically anomalous dispersion point (n_g = 0) the root is
(dw_ec * G^2)^(1/3), i.e. eta = (G/dw_ec)^(2/3) in the convention that
follows from the cubic coefficients ("derived"); the commonly quoted headline
form (2G/dw_ec)^(2/3) is exactly 2^(2/3) larger and is available as the
"paper" convention. Both are first class throughout.

Linewidths follow the same cubic with two flavors: `linewidth_cubic` solves
the printed self-consistent form n3*w0*g^3 + n_g*g = gamma_ec, while
`airy_linewidth_cubic` solves (n3*w0/4)*g^3 + n_g*g = gamma_ec, which is what
the Airy transmission model actually produces for a full width (the half-max
detuning is g/2, so the cubic term picks up 1/8 against a half-width budget of
1/2). The two agree in the linear regime and differ by exactly 2^(2/3) at the
white-light point; keeping both surfaces the discrepancy instead of hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C0
from .dispersion import DispersionProfile, TaylorCubic
from .errors import ComputationError
from .sagnac import LoopGeometry

ETA_CONVENTIONS = ("derived", "paper")


@dataclass(frozen=True)
class RingCavity:
    """Ring resonator: loop geometry, finesse, background index, resonance.

    `fill_fraction` is the fraction of the round trip occupied by the
    dispersive medium; it enters the analytic algebra only through
    path-averaged Taylor coefficients (and through the CAD tuning target
    n_g = -(1 - fill_fraction)*n0/fill_fraction of the medium itself).
    """

    geometry: LoopGeometry
    finesse: float
    omega0: float
    n0: float = 1.0
    fill_fraction: float = 1.0

    def __post_init__(self):
        if self.finesse <= 1.0:
            raise ValueError("finesse must exceed 1")
        if self.omega0 <= 0.0:
            raise ValueError("resonance frequency must be positive")
        if self.n0 <= 0.0:
            raise ValueError("background index must be positive")
        if not 0.0 < self.fill_fraction <= 1.0:
            raise ValueError("fill fraction must lie in (0, 1]")

    @property
    def round_trip_length(self) -> float:
        return self.geometry.perimeter

    @property
    def free_spectral_range(self) -> float:
        return 2.0 * math.pi * C0 / (self.n0 * self.round_trip_length)

    @property
    def gamma_ec(self) -> float:
        """Empty-cavity linewidth (FWHM, rad/s): FSR / finesse."""
        return self.free_spectral_range / self.finesse

    @property
    def ring_down_time(self) -> float:
        return 1.0 / self.gamma_ec

    @property
    def rotation_scale(self) -> float:
        """Per-direction resonance shift per unit rotation rate: (w0/(c0*n0))*2A/P."""
        return (self.omega0 / (C0 * self.n0)) * self.geometry.effective_radius

    def shift_for_length(self, delta_length: float) -> float:
        """Empty-cavity resonance pull of a round-trip length change: -w0*dL/L."""
        return -self.omega0 * delta_length / self.round_trip_length

    def length_for_shift(self, dw_ec: float) -> float:
        """Round-trip length change whose empty-cavity pull is dw_ec: -dw_ec*L/w0."""
        return -dw_ec * self.round_trip_length / self.omega0


@dataclass(frozen=True)
class ShiftResult:
    """Per-direction resonance shifts and their splitting dw_minus - dw_plus.

    `width` is the linewidth at the shifted resonances, which only
    `rotation_response` gives; it is None for the bare ring. The enhancement
    is this splitting over the bare one, where that is not zero.
    """

    dw_plus: float
    dw_minus: float
    splitting: float
    width: ShiftedLinewidth | None = None


@dataclass(frozen=True)
class ShiftedLinewidth:
    """Linewidth at a displaced resonance, from the local group index.

    `local_ng` is the group index there over the background index, as in
    `effective_taylor`. `gamma_dis` is gamma_ec/local_ng, unless
    `from_cubic` says it is the `linewidth_cubic` root.
    """

    gamma_dis: float
    local_ng: float
    from_cubic: bool = False


# --------------------------------------------------------------------------
# depressed-cubic real roots: a*x^3 + b*x - d = 0
# --------------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _newton_polish(a: float, b: float, d: float, x: float, bound: float | None = None) -> float:
    # Quadratic cleanup of a closed-form root. Only used on simple roots,
    # where the derivative cannot vanish; `bound` confines the iteration to
    # the branch between the turning points (the descending middle segment),
    # so a near-fold step cannot escape onto a different root.
    for _ in range(32):
        fx = x * (a * x * x + b) - d
        fpx = 3.0 * a * x * x + b
        if fpx == 0.0:
            break
        dx = fx / fpx
        nxt = x - dx
        if bound is not None and abs(nxt) > bound:
            break
        x = nxt
        if abs(dx) <= 4.0 * _EPS * abs(x):
            break
    return x


def _bisect(a: float, b: float, d: float, neg: float, pos: float) -> float:
    # Root of f(x) = a*x^3 + b*x - d between the ends where f(neg) <= 0 <= f(pos),
    # in either order. Halves until the midpoint equals an end; the doubles
    # span 1,024 + 1,074 binades, so 2,200 halvings always get there.
    for _ in range(2200):
        mid = 0.5 * (neg + pos)
        if mid == neg or mid == pos:
            break
        if mid * (a * mid * mid + b) - d < 0.0:
            neg = mid
        else:
            pos = mid
    return mid


def _residual_ok(a: float, b: float, d: float, x: float) -> bool:
    scale = abs(a * x * x * x) + abs(b * x) + abs(d)
    return abs(x * (a * x * x + b) - d) <= 1e-10 * scale + 1e-300


def _cardano(p: float, q: float, disc: float) -> float:
    # The one real root of x^3 + p*x - q = 0 where disc = q^2/4 + p^3/27 > 0.
    # The square root takes the sign of q so the two terms of u never cancel.
    u = _cbrt(0.5 * q + math.copysign(math.sqrt(disc), q))
    return u - p / (3.0 * u)


def _trig_roots(p: float, q: float) -> list[float]:
    # The three real roots of x^3 + p*x - q = 0 where disc <= 0 (so p < 0),
    # in the order k = 0, 1, 2 of m*cos(phi/3 - 2*pi*k/3).
    m = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(min(1.0, max(-1.0, -3.0 * q / (p * m))))
    return [m * math.cos(phi / 3.0 - 2.0 * math.pi * k / 3.0) for k in range(3)]


def _continuous_root(a: float, b: float, d: float) -> tuple[float, bool]:
    """Root of a*x^3 + b*x - d = 0 on the branch continuous from d -> 0.

    Returns (root, multivalued). `multivalued` is True when three real roots
    exist (possible only where a and b differ in sign), in which case the
    branch that passes through zero is returned. A cubic term too weak for
    (b/a)^3 to be a double is solved all the same, giving d/b as a = 0 does.
    """
    if a == 0.0:
        if b == 0.0:
            if d == 0.0:
                return 0.0, False
            raise ComputationError("degenerate response: no linear or cubic term")
        return d / b, False
    if d == 0.0:
        return 0.0, False
    if a < 0.0:
        a, b, d = -a, -b, -d
    if d < 0.0:
        root, multi = _continuous_root(a, b, -d)
        return -root, multi

    p = b / a
    q = d / a
    try:
        disc = 0.25 * q * q + p ** 3 / 27.0
    except OverflowError:
        # a cubic term too weak to matter: for p > 0 Cardano's root fails
        # the residual check and bisection finds it, for p < 0 the bounded
        # polish of the middle root lands on d/b
        disc = math.copysign(math.inf, p)
    # p >= 0 gives disc > 0 unless q*q underflows
    if disc > 0.0 or p >= 0.0:
        x = _newton_polish(a, b, d, _cardano(p, q, disc))
        if not _residual_ok(a, b, d, x):
            # unique root: f(0) = -d < 0 and f grows without bound
            hi = 1.0
            while hi * (a * hi * hi + b) - d < 0.0:
                hi *= 2.0
                if hi > 1e300:
                    raise ComputationError("cubic bisection failed to bracket a root")
            x = _bisect(a, b, d, 0.0, hi)
        return x, False

    # Three real roots; k = 1 of the trigonometric form is the branch that
    # equals 0 at d = 0 and moves continuously with d.
    x = _trig_roots(p, q)[1]
    # the angle carries an absolute rounding ~eps, which is a poor relative
    # error when the middle root sits near zero; polish within the branch
    # between the turning points +-turn
    turn = math.sqrt(-p / 3.0)
    x = _newton_polish(a, b, d, x, bound=turn)
    if not _residual_ok(a, b, d, x):
        # descending segment: f(-turn) >= 0 >= f(turn)
        x = _bisect(a, b, d, turn, -turn)
    return x, True


# --------------------------------------------------------------------------
# splitting and shifts
# --------------------------------------------------------------------------


def splitting_no_dispersion(cavity: RingCavity, omega_rot: float) -> ShiftResult:
    """Counterpropagating resonance shifts of the bare (dispersionless) ring."""
    per_direction = cavity.rotation_scale * omega_rot
    return ShiftResult(
        dw_plus=-per_direction,
        dw_minus=per_direction,
        splitting=2.0 * per_direction,
    )


def rotation_to_length(cavity: RingCavity, omega_rot: float) -> float:
    """Per-direction effective round-trip length change equivalent to rotation.

    dL = -P*Omega*R/(n0*c0) with R = 2A/P, i.e. the length change whose
    resonance pull equals the counterclockwise shift dw_minus.
    """
    geom = cavity.geometry
    return -geom.perimeter * omega_rot * geom.effective_radius / (cavity.n0 * C0)


def shift_cubic(dw_ec: float, taylor: TaylorCubic) -> float:
    """Self-consistent dispersion-modified shift for the odd-cubic index model.

    Solves n3*w0 * x^3 + n_g * x = dw_ec (w0 the expansion point, n_g the
    group index there) for the branch continuous from x = 0 at dw_ec = 0.
    The local group index `taylor.local_ng(x)` is the cubic's slope at the
    root, so it names the branch: it is negative where n3 > 0 and n_g < 0
    give three real roots (x is the middle one), where n3 < 0 and the drive
    is beyond the fold (the continuous branch has ended), and where n_g < 0
    with n3 <= 0.

    Domain: the cubic is an expansion about w0, so a root of magnitude w0 or
    more lies outside the model and is refused, naming it.
    """
    x = _continuous_root(taylor.n3 * taylor.omega_ref, taylor.ng0, dw_ec)[0]
    if not abs(x) < taylor.omega_ref:
        raise ComputationError(
            f"the dispersive shift {x:.3g} rad/s is not below omega0 = {taylor.omega_ref:.3g} rad/s "
            "in magnitude: the cubic is an expansion about the resonance"
        )
    return x


def enhancement_eta(half_linewidth: float, dw_ec: float, convention: str = "derived") -> float:
    """Shift enhancement at the critically anomalous dispersion point.

    convention "derived": eta = (G/dw_ec)^(2/3), which is what the cubic
    coefficients n1 = -A/G, n3 = A/G^3 actually produce. convention "paper":
    eta = (2G/dw_ec)^(2/3), the commonly quoted headline form, exactly 2^(2/3)
    larger. Both are exposed because the two appear side by side in the
    literature without a reconciling factor.
    """
    if half_linewidth <= 0.0:
        raise ValueError("half linewidth must be positive")
    if dw_ec <= 0.0:
        raise ValueError("empty-cavity shift must be positive")
    if convention not in ETA_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; expected one of {ETA_CONVENTIONS}")
    scale = 2.0 * half_linewidth if convention == "paper" else half_linewidth
    return (scale / dw_ec) ** (2.0 / 3.0)


# --------------------------------------------------------------------------
# linewidths
# --------------------------------------------------------------------------


def linewidth_linear(gamma_ec: float, n_g: float) -> float:
    """Linear-regime linewidth gamma_dis = gamma_ec / n_g."""
    if gamma_ec <= 0.0:
        raise ValueError("empty-cavity linewidth must be positive")
    if n_g == 0.0:
        raise ComputationError(
            "group index is zero: the linear linewidth diverges at the "
            "critically anomalous dispersion point, use linewidth_cubic"
        )
    if n_g < 0.0:
        raise ComputationError("negative group index has no linear linewidth")
    return gamma_ec / n_g


def _positive_linewidth_root(a: float, b: float, gamma_ec: float) -> float:
    if gamma_ec <= 0.0:
        raise ValueError("empty-cavity linewidth must be positive")
    if a == 0.0:
        return linewidth_linear(gamma_ec, b)
    # a < 0: the continuous root is the smaller of two positive roots, which
    # continues from the linear regime; a > 0 with three real roots (b < 0):
    # it is negative, and the width is the largest root
    root, multivalued = _continuous_root(a, b, gamma_ec)
    if multivalued and a > 0.0:
        root = max(_trig_roots(b / a, gamma_ec / a))
    if root <= 0.0:
        raise ComputationError("no positive linewidth root for these coefficients")
    return root


def linewidth_cubic(gamma_ec: float, taylor: TaylorCubic) -> float:
    """Self-consistent linewidth in the printed convention.

    Positive root of n3*w0 * g^3 + n_g * g = gamma_ec; at n_g = 0 this is
    (G^2 * gamma_ec)^(1/3) for the tuned Lorentzian coefficients.
    """
    return _positive_linewidth_root(taylor.n3 * taylor.omega_ref, taylor.ng0, gamma_ec)


def airy_linewidth_cubic(gamma_ec: float, taylor: TaylorCubic) -> float:
    """Self-consistent FWHM of the Airy transmission model.

    The half-maximum sits at detuning g/2, so the cubic dephasing term enters
    with 1/8 against a half-width budget of gamma_ec/2: the positive root of
    (n3*w0/4) * g^3 + n_g * g = gamma_ec. Exceeds `linewidth_cubic` by exactly
    2^(2/3) at the white-light point and matches it in the linear regime.
    """
    return _positive_linewidth_root(0.25 * taylor.n3 * taylor.omega_ref, taylor.ng0, gamma_ec)


def effective_half_linewidth(taylor: TaylorCubic) -> float | None:
    """Recover the Lorentzian half linewidth G = sqrt(-n1/n3) when defined."""
    if taylor.n1 < 0.0 < taylor.n3:
        return math.sqrt(-taylor.n1 / taylor.n3)
    return None


def shifted_linewidth(gamma_ec: float, taylor: TaylorCubic, dw_dis: float) -> ShiftedLinewidth:
    """Linewidth at a resonance displaced by dw_dis from the expansion point.

    Evaluates the local group index n_g(w0 + dw_dis) = n_g(w0) + 3*n3*w0*dw_dis^2
    and returns gamma_ec over it. Where it is not positive (at the white-light
    point, or on a branch `shift_cubic` names by a negative slope) the width
    is the `linewidth_cubic` root instead, with `from_cubic` set.
    """
    if gamma_ec <= 0.0:
        raise ValueError("empty-cavity linewidth must be positive")
    local_ng = taylor.local_ng(dw_dis)
    if local_ng <= 0.0:
        return ShiftedLinewidth(linewidth_cubic(gamma_ec, taylor), local_ng, from_cubic=True)
    return ShiftedLinewidth(gamma_ec / local_ng, local_ng)


def feedback_gain(taylor: TaylorCubic) -> float:
    """Round-trip frequency-pull gain G = 1 - n_g/n0 of the linear response.

    The closed-loop factor 1/(1 - G) = n0/n_g reproduces the linear shift
    scaling (exactly 1/n_g for n0 = 1).
    """
    return 1.0 - taylor.ng0 / taylor.n0


# --------------------------------------------------------------------------
# composed response
# --------------------------------------------------------------------------


def effective_taylor(profile: DispersionProfile, cavity: RingCavity) -> TaylorCubic:
    """Path-averaged cubic of the round trip, relative to the background index.

    The medium occupies fill_fraction of the loop and the cavity background
    the rest, so n1 and n3 scale by the fill fraction and the center index
    averages accordingly. All three are then divided by the background index
    n_b: the cubic is measured against the background-filled empty cavity,
    whose resonance pull and linewidth are dw_ec and gamma_ec, so those are
    its drives as they stand and its group index is n_g/n_b. The profile must
    be centered on the cavity resonance for the expansion to apply; one
    without dispersion has no centre to match.
    """
    t = profile.taylor()
    off_centre = abs(t.omega_ref - cavity.omega0) > 1e-9 * cavity.omega0
    if off_centre and (t.n1 != 0.0 or t.n3 != 0.0):
        raise ComputationError(
            "profile reference frequency must match the cavity resonance "
            "for the analytic response (the numeric spectrum path has no "
            "such restriction)"
        )
    fill = cavity.fill_fraction
    return TaylorCubic(
        n0=(fill * t.n0 + (1.0 - fill) * cavity.n0) / cavity.n0,
        n1=fill * t.n1 / cavity.n0,
        n3=fill * t.n3 / cavity.n0,
        omega_ref=cavity.omega0,
    )


def _path_index(profile: DispersionProfile, cavity: RingCavity, omega):
    fill = cavity.fill_fraction
    return fill * profile.index(omega) + (1.0 - fill) * cavity.n0


def rotation_response(profile: DispersionProfile, cavity: RingCavity, omega_rot: float) -> ShiftResult:
    """Dispersion-modified counterpropagating response to rotation.

    Composes the bare splitting with the self-consistent cubic per direction,
    applies the per-direction correction factors n(w0)/n(w0 + dw), and
    assembles the splitting and the linewidth at the displaced resonances.
    At rest the shifts are zero and the width is the `linewidth_cubic` root,
    or the linear width where that has none.

    Domain: that of `shift_cubic` in each direction, |shift| < omega0, so
    every displaced resonance sits at a positive frequency, where the
    profile is defined. Any background index and fill fraction apply, and
    it adds no refusal to those of the functions it calls.
    """
    base = splitting_no_dispersion(cavity, omega_rot)
    t = effective_taylor(profile, cavity)
    if omega_rot == 0.0:
        try:
            gamma, from_cubic = linewidth_cubic(cavity.gamma_ec, t), True
        except ComputationError:
            gamma, from_cubic = linewidth_linear(cavity.gamma_ec, t.ng0), False
        return ShiftResult(0.0, 0.0, 0.0, ShiftedLinewidth(gamma, t.ng0, from_cubic))

    raw_minus = shift_cubic(base.dw_minus, t)
    raw_plus = shift_cubic(base.dw_plus, t)
    n_center = _path_index(profile, cavity, cavity.omega0)
    dw_minus = raw_minus * n_center / _path_index(profile, cavity, cavity.omega0 + raw_minus)
    dw_plus = raw_plus * n_center / _path_index(profile, cavity, cavity.omega0 + raw_plus)

    mean_shift = 0.5 * (abs(dw_minus) + abs(dw_plus))
    width = shifted_linewidth(cavity.gamma_ec, t, mean_shift)
    return ShiftResult(dw_plus, dw_minus, dw_minus - dw_plus, width)
