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

All frequencies are angular (rad/s). Evaluation accepts scalars or numpy
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_omega(omega) -> None:
    # Python and numpy float scalars skip the array round trip; like the
    # array test, the comparison lets NaN through.
    if isinstance(omega, float):
        bad = omega <= 0.0
    else:
        bad = (np.asarray(omega) <= 0.0).any()
    if bad:
        raise ValueError("optical frequency must be positive")


@dataclass(frozen=True)
class LorentzianAbsorptive:
    """Antisymmetric index profile of a Lorentzian line centered at `center`.

    `half_linewidth` is half the absorption FWHM (rad/s); `strength` is the
    dimensionless amplitude A. The index deviation peaks at +-A/2 one
    half-linewidth away from center.
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

    def index(self, omega):
        _check_omega(omega)
        x = omega - self.center
        g = self.half_linewidth
        return 1.0 - self.strength * g * x / (g * g + x * x)

    def dindex_domega(self, omega):
        _check_omega(omega)
        x = omega - self.center
        g = self.half_linewidth
        den = g * g + x * x
        return -self.strength * g * (g * g - x * x) / (den * den)

    def index_change(self, omega, base):
        # n(omega) - n(base) in a form proportional to (omega - base), so the
        # small difference never comes from cancelling two near-equal values.
        _check_omega(omega)
        _check_omega(base)
        x = omega - self.center
        xb = base - self.center
        g = self.half_linewidth
        num = (x - xb) * (g * g - x * xb)
        return -self.strength * g * num / ((g * g + x * x) * (g * g + xb * xb))

    def taylor(self) -> TaylorCubic:
        """Exact third-order series about the line center: n1 = -A/G, n3 = A/G^3.

        The quadratic term vanishes identically.
        """
        a, g = self.strength, self.half_linewidth
        return TaylorCubic(n0=1.0, n1=-a / g, n3=a / g ** 3, omega_ref=self.center)


@dataclass(frozen=True)
class TaylorCubic:
    """Odd cubic index model: n(w) = n0 + n1*d + n3*d^3 with d = w - omega_ref."""

    n0: float
    n1: float
    n3: float
    omega_ref: float

    def __post_init__(self):
        if self.n0 <= 0.0:
            raise ValueError("phase index must be positive")
        if self.omega_ref <= 0.0:
            raise ValueError("reference frequency must be positive")

    def index(self, omega):
        _check_omega(omega)
        d = omega - self.omega_ref
        return self.n0 + self.n1 * d + self.n3 * d * d * d

    def dindex_domega(self, omega):
        _check_omega(omega)
        d = omega - self.omega_ref
        return self.n1 + 3.0 * self.n3 * d * d

    def index_change(self, omega, base):
        _check_omega(omega)
        _check_omega(base)
        x = omega - self.omega_ref
        xb = base - self.omega_ref
        return (x - xb) * (self.n1 + self.n3 * (x * x + x * xb + xb * xb))

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
    return profile.index(omega) + omega * profile.dindex_domega(omega)


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
    return LorentzianAbsorptive(strength=strength, half_linewidth=half_linewidth, center=center)
