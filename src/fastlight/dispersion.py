"""Refractive-index profiles and their frequency derivatives.

Two index models carry the physics. The workhorse is the antisymmetric
Lorentzian profile of a gain doublet / absorptive line,

    n(w) = 1 - A*G*(w - wc) / (G^2 + (w - wc)^2),

where G is half the absorption FWHM and A sets the strength. Around the line
center it expands to the odd cubic

    n(w) ~= 1 + n1*(w - wc) + n3*(w - wc)^3,   n1 = -A/G,  n3 = A/G^3,

so the quadratic term vanishes identically; `TaylorCubic` is that cubic, and
with n3 = 0 it is also the constant and linear medium. The group index is
n_g(w) = n(w) + w * dn/dw everywhere in this package; choosing A so that
n_g(wc) hits a target (zero for critically anomalous dispersion) is what
`cad_tune` does.

Each profile evaluates n(w), n(w) - n(base) and dn/dw together in
`response`, which computes their shared terms once; `index`,
`index_change` and `dindex_domega` are its parts. All frequencies are
angular (rad/s). Evaluation accepts scalars or numpy arrays; a float
evaluation executes numpy only in the Lorentzian's underflow fallback.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from ._numpy import np
from .errors import ComputationError


def _check_omega(omega, base) -> None:
    # Python and numpy float scalars skip the array round trip; like the
    # array test, the comparison lets NaN through.
    if isinstance(omega, float) and isinstance(base, float):
        bad = omega <= 0.0 or base <= 0.0
    else:
        bad = (np.asarray(omega) <= 0.0).any() or (np.asarray(base) <= 0.0).any()
    if bad:
        raise ValueError("optical frequency must be positive")


class _Projections:
    """index, index_change and dindex_domega, each one part of the profile's
    fused `response`, so that each formula is written once."""

    __slots__ = ()

    def index(self, omega):
        return self.response(omega, omega)[0]

    def index_change(self, omega, base):
        return self.response(omega, base)[1]

    def dindex_domega(self, omega):
        return self.response(omega, omega)[2]


@dataclass(frozen=True)
class LorentzianAbsorptive(_Projections):
    """Antisymmetric index profile of a Lorentzian line centered at `center`.

    `half_linewidth` is half the absorption FWHM (rad/s); `strength` is the
    dimensionless amplitude A. The index deviation peaks at +-A/2 one
    half-linewidth away from center.

    Unlike the package's other value types, which are named tuples, it is
    a frozen dataclass: perfbench's `CountingLorentzian` subclasses it as
    one, adding a field.
    """

    strength: float
    half_linewidth: float
    center: float

    def __post_init__(self):
        if self.half_linewidth <= 0.0:
            raise ValueError("half linewidth must be positive")
        if self.strength < 0.0:
            raise ValueError("profile strength must be non-negative")
        if self.center <= 0.0:
            raise ValueError("line center must be positive")

    def response(self, omega, base):
        """(n(omega), n(omega) - n(base), dn/domega), sharing x = omega - wc
        and G^2 + x^2.

        The change is written proportional to (omega - base), so the small
        difference never comes from cancelling two near-equal values. A
        float division by zero is handled where it is raised, so no
        evaluation pays a check for it: G^2 + x^2 is G^2 at the line centre,
        and G^2 underflowing to 0 is refused; where only (G^2)^2 underflows,
        the parts that divide by it take the inf or nan that numpy's floats,
        and an array, give there, and the index keeps its value.
        """
        _check_omega(omega, base)
        g = self.half_linewidth
        ag = self.strength * g
        gg = g * g
        x = omega - self.center
        xb = base - self.center
        den = gg + x * x
        try:
            return (
                1.0 - ag * x / den,
                -ag * ((x - xb) * (gg - x * xb)) / (den * (gg + xb * xb)),
                -ag * (gg - x * x) / (den * den),
            )
        except ZeroDivisionError:
            if gg == 0.0:
                raise ComputationError(
                    "medium linewidth too narrow for the Lorentzian line: G^2 + (w - wc)^2 "
                    f"underflows to 0 at the line centre (G = {g:.3g} rad/s)"
                ) from None
        with np.errstate(divide="ignore", invalid="ignore"):
            return tuple(float(part) for part in self.response(np.float64(omega), np.float64(base)))

    def taylor(self) -> TaylorCubic:
        """Exact third-order series about the line center: n1 = -A/G, n3 = A/G^3.

        The quadratic term vanishes identically.
        """
        a, g = self.strength, self.half_linewidth
        try:
            g3 = g ** 3
        except OverflowError:
            # still an OverflowError, which the CLI reports at exit 3: a
            # ComputationError would tell `spectrum` only that the cubic does
            # not apply, and it would scan a line whose G^2 may have
            # overflowed too
            raise OverflowError(
                f"medium linewidth too wide for the cubic expansion: G^3 overflows (G = {g:.3g} rad/s)"
            ) from None
        if g3 == 0.0:
            raise ComputationError(
                f"medium linewidth too narrow for the cubic expansion: G^3 underflows to 0 (G = {g:.3g} rad/s)"
            )
        return TaylorCubic(n0=1.0, n1=-a / g, n3=a / g3, omega_ref=self.center)


class TaylorCubic(_Projections, namedtuple("TaylorCubic", "n0 n1 n3 omega_ref")):
    """Odd cubic index model: n(w) = n0 + n1*d + n3*d^3 with d = w - omega_ref.

    `_Projections` comes first, so its `index` shadows the tuple's.
    """

    __slots__ = ()

    def __new__(cls, n0, n1, n3, omega_ref):
        if n0 <= 0.0:
            raise ValueError("phase index must be positive")
        if omega_ref <= 0.0:
            raise ValueError("reference frequency must be positive")
        return super().__new__(cls, n0, n1, n3, omega_ref)

    def response(self, omega, base):
        """(n(omega), n(omega) - n(base), dn/domega), sharing d = omega - omega_ref."""
        _check_omega(omega, base)
        n1, n3 = self.n1, self.n3
        d = omega - self.omega_ref
        db = base - self.omega_ref
        return (
            self.n0 + n1 * d + n3 * d * d * d,
            (d - db) * (n1 + n3 * (d * d + d * db + db * db)),
            n1 + 3.0 * n3 * d * d,
        )

    def taylor(self) -> TaylorCubic:
        """The cubic is its own expansion."""
        return self

    @property
    def ng0(self) -> float:
        """Group index at the expansion point: n_g = n0 + omega_ref*n1."""
        return self.n0 + self.n1 * self.omega_ref

    def local_ng(self, dw: float) -> float:
        """Group index n_g(w0) + 3*n3*w0*dw^2 at w0 + dw, to leading order in dw/w0."""
        return self.ng0 + 3.0 * self.n3 * self.omega_ref * dw * dw


DispersionProfile = LorentzianAbsorptive | TaylorCubic


def group_index(profile: DispersionProfile, omega):
    """Group index n_g = n + omega * dn/domega, from the analytic derivative."""
    n, _, slope = profile.response(omega, omega)
    return n + omega * slope


def ConstantIndex(n0: float) -> TaylorCubic:
    """Dispersionless medium of phase index n0: a cubic with n1 = n3 = 0.

    Its only caller is perfbench/layers.py; delete it once that file builds
    the `TaylorCubic` itself. The reference frequency of 1 rad/s is
    arbitrary: the index is n0 for any |omega - 1| below about 5e102 rad/s,
    where d^3 stays finite.
    """
    return TaylorCubic(n0, 0.0, 0.0, 1.0)


def cad_tune(half_linewidth: float, center: float, group_index_target: float = 0.0) -> LorentzianAbsorptive:
    """Lorentzian profile whose group index at line center hits a target.

    n_g(center) = 1 - A*center/G, so A = G*(1 - target)/center. The default
    target 0 is the critically anomalous dispersion (white-light cavity)
    condition; targets below zero arise for partially filled cavities.
    """
    if half_linewidth <= 0.0:
        raise ValueError("half linewidth must be positive")
    if center <= 0.0:
        raise ValueError("line center must be positive")
    if group_index_target > 1.0:
        raise ValueError("a Lorentzian of this sign cannot reach group index above 1 at center")
    strength = half_linewidth * (1.0 - group_index_target) / center
    if not math.isfinite(strength):
        raise ComputationError(
            "line centre frequency too low for the CAD tuning: the strength "
            f"G*(1 - target)/w0 overflows (w0 = {center:.3g} rad/s)"
        )
    return LorentzianAbsorptive(strength=strength, half_linewidth=half_linewidth, center=center)
