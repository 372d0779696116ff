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

Every root of these cubics comes from one bracketed polish: the root of the
cubic with one term dropped, (d/a)^(1/3) or d/b, seeds Newton steps that
stay inside a bracket known from the coefficients, halving it wherever a
step would leave it or the seed is not finite, so no root needs a closed
form or a fallback. `cubic_root` brings a cubic with a quadratic term, such
as the exact resonance cubic of a Lorentzian line, to the same form.

Linewidths follow the same cubic with two flavors: `linewidth_cubic` solves
the printed self-consistent form n3*w0*g^3 + n_g*g = gamma_ec, while
`airy_linewidth_cubic` solves (n3*w0/4)*g^3 + n_g*g = gamma_ec, which is what
the Airy transmission model actually produces for a full width (the half-max
detuning is g/2, so the cubic term picks up 1/8 against a half-width budget of
1/2). The two agree in the linear regime and differ by exactly 2^(2/3) at the
white-light point; keeping both surfaces the discrepancy instead of hiding it.
The linear regime is the same cubic with n3 = 0, solved by the same polish,
whose a = 0 case is gamma_ec/n_g: every width here is a root of one solver.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import C0
from .dispersion import DispersionProfile, TaylorCubic
from .errors import ComputationError

ETA_CONVENTIONS = ("derived", "paper")


class RingCavity(namedtuple("RingCavity", "geometry finesse omega0 n0 fill_fraction")):
    """Ring resonator: loop geometry (a `sagnac.LoopGeometry`), finesse,
    resonance omega0 and background index n0.

    `fill_fraction` is the fraction of the round trip occupied by the
    dispersive medium; it enters the analytic algebra only through
    path-averaged Taylor coefficients (and through the CAD tuning target
    n_g = -(1 - fill_fraction)*n0/fill_fraction of the medium itself).
    """

    __slots__ = ()

    def __new__(cls, geometry, finesse, omega0, n0=1.0, fill_fraction=1.0):
        if finesse <= 1.0:
            raise ValueError("finesse must exceed 1")
        if omega0 <= 0.0:
            raise ValueError("resonance frequency must be positive")
        if n0 <= 0.0:
            raise ValueError("background index must be positive")
        if not 0.0 < fill_fraction <= 1.0:
            raise ValueError("fill fraction must lie in (0, 1]")
        self = super().__new__(cls, geometry, finesse, omega0, n0, fill_fraction)
        if self.free_spectral_range == math.inf:
            raise ValueError(
                f"the free spectral range 2*pi*c0/(n0*L) overflows for n0 = {self.n0:.3g} "
                f"and L = {self.round_trip_length:.3g} m"
            )
        return self

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


class ShiftResult(namedtuple("ShiftResult", "dw_plus dw_minus splitting width", defaults=(None,))):
    """Per-direction resonance shifts and their splitting dw_minus - dw_plus.

    `width` is the `ShiftedLinewidth` at the shifted resonances, which only
    `rotation_response` gives; it is None for the bare ring. The enhancement
    is this splitting over the bare one, where that is not zero.
    """

    __slots__ = ()


class ShiftedLinewidth(namedtuple("ShiftedLinewidth", "gamma_dis local_ng from_cubic", defaults=(False,))):
    """Linewidth at a displaced resonance, from the local group index.

    `local_ng` is the group index there over the background index, as in
    `effective_taylor`. `gamma_dis` is the linear width gamma_ec/local_ng,
    the root of the linewidth cubic without its cubic term, unless
    `from_cubic` (False by default) says it is the `linewidth_cubic` root.
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# depressed-cubic real roots: a*x^3 + b*x - d = 0
# --------------------------------------------------------------------------

_EPS = 2.220446049250313e-16


def _polish(a: float, b: float, d: float, x: float, neg: float, pos: float) -> float:
    # Root of f(x) = a*x^3 + b*x - d between neg and pos (either order), where
    # f(neg) < 0 < f(pos), from the seed x: rtsafe, as in `spectrum._psi_root`.
    # Each evaluation narrows the bracket; a Newton step that lands inside it
    # is taken, to |dx| <= 4*eps*|x| as a plain polish would, and the
    # midpoint otherwise (a zero, overflowing or NaN step fails the test), as
    # for a seed outside the bracket or not finite. The step lands inside
    # where its distances past the two ends, times f', have opposite signs:
    # read from the signs, not from their product, which can underflow.
    if not (neg < x < pos or pos < x < neg):
        x = 0.5 * (neg + pos)
    # the doubles span 1,024 + 1,074 binades, so 2,200 halvings end anywhere
    for _ in range(2200):
        fx = x * (a * x * x + b) - d
        if fx == 0.0:
            return x
        neg, pos = (x, pos) if fx < 0.0 else (neg, x)
        fpx = 3.0 * a * x * x + b
        p, q = (x - neg) * fpx - fx, (x - pos) * fpx - fx
        if p < 0.0 < q or q < 0.0 < p:
            dx = fx / fpx
            x -= dx
            if abs(dx) <= 4.0 * _EPS * abs(x):
                return x
        else:
            x = 0.5 * (neg + pos)
            if x == neg or x == pos:
                return x
    return x


def _continuous_root(a: float, b: float, d: float, largest: bool = False) -> tuple[float, bool]:
    """Root of a*x^3 + b*x - d = 0 on the branch continuous from d -> 0.

    Returns (root, multivalued). `multivalued` is True when three real roots
    exist (possible only where a and b differ in sign), in which case the
    branch that passes through zero is returned, or with `largest` (for
    a, d > 0) the largest root. Which case holds is read off the fold drive
    -(2/3)*b*turn, with turn = sqrt(-b/3)/sqrt(a) where f' = 0: its square
    roots halve the exponents, so it overflows or underflows far later than
    b/a would. Every root is a `_polish` in a bracket known from a, b and d,
    seeded from a root of the cubic with one term dropped, so a seed that is
    not finite costs halvings, not the root. A cubic term too weak to
    matter gives d/b, as a = 0 does.
    """
    if a == 0.0:
        if b == 0.0:
            if d == 0.0:
                return 0.0, False
            raise ComputationError("degenerate response: no linear or cubic term")
        return d / b, False
    if d == 0.0:
        # the roots are 0 and, where a and b differ in sign, +-sqrt(-b/a)
        return 0.0, b != 0.0 and (a < 0.0) != (b < 0.0)
    if a < 0.0:
        a, b, d = -a, -b, -d
    if d < 0.0:
        root, multi = _continuous_root(a, b, -d)
        return -root, multi

    turn = math.sqrt(-b / 3.0) / math.sqrt(a) if b < 0.0 else 0.0
    multi = d < -2.0 / 3.0 * b * turn
    if largest or not multi:
        # The unique root, or the largest of three: f = -2*a*turn^3 - d < 0
        # at the turning point and f >= 7d at 2*(turn + (d/a)^(1/3)). Seeded
        # from the root without the linear term, (d/a)^(1/3), or, where
        # b > 0 and it is smaller, from d/b, the root without the cubic
        # term: both terms then push f up, so the root lies below each, and
        # Newton steps from the smaller descend to it.
        seed = (d / a) ** (1.0 / 3.0)
        if b > 0.0:
            seed = min(seed, d / b)
        return _polish(a, b, d, seed, turn, 2.0 * (turn + d ** (1.0 / 3.0) / a ** (1.0 / 3.0))), multi
    # Three real roots; the middle one is the branch that equals 0 at d = 0
    # and moves continuously with d. It lies on the descending segment,
    # further from zero than d/b (there a*x^3 < 0 adds to b*x), so d/b
    # seeds it inside its bracket: f(0) = -d < 0, and f > 0 at -turn and, where 2d/b > -turn, at 2d/b (there
    # 12*a*d^2 < |b|^3, so f(2d/b) = d*(1 - 8*a*d^2/|b|^3) > d/3). That end
    # also holds the root near d/b where a cubic term too weak to matter
    # puts the turning point beyond the doubles.
    return _polish(a, b, d, d / b, 0.0, max(d / b * 2.0, -turn)), True


def cubic_root(c3: float, c2: float, c1: float, c0: float) -> tuple[float, bool]:
    """Real root of c3*x^3 + c2*x^2 + c1*x + c0 = 0 (c3 not zero), and
    whether there are three.

    Depressed by x = y - s, s = c2/(3*c3), to y^3 + p*y + q = 0 and solved
    by `_continuous_root`, so one bracketed polish gives the root: the only
    real one, or else the middle one of three. Depressing reuses the
    brackets `_continuous_root` already holds for every case, where a
    quadratic term in `_polish` would need new ones. Its cost is that the
    branch continuous from q -> 0 passes through x = -s, not x = 0; with a
    single real root that selects nothing, so a caller that needs the branch
    through 0 reads `multivalued`. The root is resolved relative to the
    larger of |x| and |s|, and at a fold, where two roots meet, `multivalued`
    holds only to the rounding of p and q.
    """
    b, c, d = c2 / c3, c1 / c3, c0 / c3
    s = b / 3.0
    y, multivalued = _continuous_root(1.0, c - b * s, s * (c - 2.0 * s * s) - d)
    return y - s, multivalued


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
    return shift_root(taylor.n3 * taylor.omega_ref, taylor.ng0, taylor.omega_ref, dw_ec)


def shift_root(a: float, ng0: float, omega0: float, dw_ec: float) -> float:
    """`shift_cubic` on the cubic's coefficients, for a caller that binds
    them once: the continuous root of a*x^3 + ng0*x = dw_ec, with
    a = n3*omega0, refused where |x| is omega0 or more."""
    x = _continuous_root(a, ng0, dw_ec)[0]
    if not abs(x) < omega0:
        raise ComputationError(
            f"the dispersive shift {x:.3g} rad/s is not below omega0 = {omega0:.3g} rad/s "
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


def _width_below_omega0(gamma: float, taylor: TaylorCubic) -> float:
    # a finite width of omega0 or more lies outside the expansion about the
    # resonance, as a shift does in `shift_cubic`; one that overflows to inf
    # is left to the CLI report, which names the line it would print
    if taylor.omega_ref <= gamma < math.inf:
        raise ComputationError(
            f"the linewidth {gamma:.3g} rad/s is not below omega0 = {taylor.omega_ref:.3g} rad/s: "
            "the cubic is an expansion about the resonance"
        )
    return gamma


def _positive_linewidth_root(a: float, b: float, gamma_ec: float) -> float:
    if gamma_ec <= 0.0:
        raise ValueError("empty-cavity linewidth must be positive")
    # a = 0: the linear width gamma_ec/b, refused where b is not positive or
    # so large that the width underflows to zero; a < 0: the continuous root
    # is the smaller of two positive roots, which continues from the linear
    # regime; a > 0 with three real roots (b < 0): it is negative, and the
    # width is the largest root
    root = _continuous_root(a, b, gamma_ec, largest=a > 0.0)[0]
    if root <= 0.0:
        raise ComputationError("no positive linewidth root for these coefficients")
    return root


def linewidth_cubic(gamma_ec: float, taylor: TaylorCubic) -> float:
    """Self-consistent linewidth in the printed convention.

    Positive root of n3*w0 * g^3 + n_g * g = gamma_ec; at n_g = 0 this is
    (G^2 * gamma_ec)^(1/3) for the tuned Lorentzian coefficients. With
    n3 = 0 it is the linear width gamma_ec/n_g, bit for bit, and a width
    that is not positive (n_g <= 0, or gamma_ec/n_g underflowing to zero)
    is refused, as every other root that is not.

    Domain: that of `shift_cubic`, so a finite root of w0 or more is
    refused, naming it; so is every width of `airy_linewidth_cubic`,
    `shifted_linewidth` and `rotation_response`.
    """
    root = _positive_linewidth_root(taylor.n3 * taylor.omega_ref, taylor.ng0, gamma_ec)
    return _width_below_omega0(root, taylor)


def airy_linewidth_cubic(gamma_ec: float, taylor: TaylorCubic) -> float:
    """Self-consistent FWHM of the Airy transmission model.

    The half-maximum sits at detuning g/2, so the cubic dephasing term enters
    with 1/8 against a half-width budget of gamma_ec/2: the positive root of
    (n3*w0/4) * g^3 + n_g * g = gamma_ec. Exceeds `linewidth_cubic` by exactly
    2^(2/3) at the white-light point and matches it in the linear regime.
    """
    root = _positive_linewidth_root(0.25 * taylor.n3 * taylor.omega_ref, taylor.ng0, gamma_ec)
    return _width_below_omega0(root, taylor)


def effective_half_linewidth(taylor: TaylorCubic) -> float | None:
    """Recover the Lorentzian half linewidth G = sqrt(-n1/n3) when defined."""
    if taylor.n1 < 0.0 < taylor.n3:
        return math.sqrt(-taylor.n1 / taylor.n3)
    return None


def shifted_linewidth(gamma_ec: float, taylor: TaylorCubic, dw_dis: float) -> ShiftedLinewidth:
    """Linewidth at a resonance displaced by dw_dis from the expansion point.

    Evaluates the local group index n_g(w0 + dw_dis) = n_g(w0) + 3*n3*w0*dw_dis^2
    and returns the linear width gamma_ec over it, the root of the linewidth
    cubic without its cubic term. Where it is not positive (at the
    white-light point, or on a branch `shift_cubic` names by a negative
    slope) the width is the `linewidth_cubic` root instead, with
    `from_cubic` set.
    """
    local_ng = taylor.local_ng(dw_dis)
    if local_ng <= 0.0:
        return ShiftedLinewidth(linewidth_cubic(gamma_ec, taylor), local_ng, from_cubic=True)
    return ShiftedLinewidth(
        _width_below_omega0(_positive_linewidth_root(0.0, local_ng, gamma_ec), taylor), local_ng
    )


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
    or, where that has none, the linear width: the same root without the
    cubic term.

    Domain: that of `shift_cubic` in each direction, |shift| < omega0, so
    every displaced resonance sits at a positive frequency, where the
    profile is defined, and a width below omega0, the linear width at rest
    too. Any background index and fill fraction apply, and it adds no other
    refusal to those of the functions it calls.
    """
    base = splitting_no_dispersion(cavity, omega_rot)
    t = effective_taylor(profile, cavity)
    if omega_rot == 0.0:
        # the linear width stands in only where the cubic has no positive
        # root, not where its root is refused for reaching omega0
        try:
            gamma, from_cubic = _positive_linewidth_root(t.n3 * t.omega_ref, t.ng0, cavity.gamma_ec), True
        except ComputationError:
            gamma, from_cubic = _positive_linewidth_root(0.0, t.ng0, cavity.gamma_ec), False
        return ShiftResult(0.0, 0.0, 0.0, ShiftedLinewidth(_width_below_omega0(gamma, t), t.ng0, from_cubic))

    raw_minus = shift_cubic(base.dw_minus, t)
    raw_plus = shift_cubic(base.dw_plus, t)
    n_center = _path_index(profile, cavity, cavity.omega0)
    dw_minus = raw_minus * n_center / _path_index(profile, cavity, cavity.omega0 + raw_minus)
    dw_plus = raw_plus * n_center / _path_index(profile, cavity, cavity.omega0 + raw_plus)

    mean_shift = 0.5 * (abs(dw_minus) + abs(dw_plus))
    width = shifted_linewidth(cavity.gamma_ec, t, mean_shift)
    return ShiftResult(dw_plus, dw_minus, dw_minus - dw_plus, width)
