"""Open-path rotation-induced phases and drag coefficients.

A closed optical loop of area A rotating at Omega splits the counterpropagating
arrival times by

    dt = 2*A*Omega / (c0^2 * (1 - beta^2)),    beta = v/c0,  v = Omega*R,

independent of any co-moving medium: filling the loop with an index-n medium
multiplies the flat-space result by n^2*(1 - alpha_F), and the Fresnel drag
coefficient alpha_F = 1 - 1/n^2 cancels the factor exactly. A medium that does
NOT co-rotate breaks the cancellation through dispersive (Laub) drag and the
fringe shift scales with the group index instead.

Matter waves obey the same geometry with the Compton frequency m*c0^2/hbar in
place of the optical one, giving dphi = 4*pi*m*A*Omega/h.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import C0, PLANCK
from .dispersion import DispersionProfile, group_index


class LoopGeometry(namedtuple("LoopGeometry", "area perimeter radius")):
    """Enclosed area and perimeter of the sensing loop, in SI units.

    `radius` is optional; when given it must be consistent with a circle of
    the same area and perimeter. The effective radius 2A/P is what enters
    tangential speeds for non-circular loops (it equals R for a circle).
    """

    __slots__ = ()

    def __new__(cls, area, perimeter, radius=None):
        if area <= 0.0:
            raise ValueError("loop area must be positive")
        if perimeter <= 0.0:
            raise ValueError("loop perimeter must be positive")
        if radius is not None:
            if radius <= 0.0:
                raise ValueError("loop radius must be positive")
            if not math.isclose(area, math.pi * radius ** 2, rel_tol=1e-12):
                raise ValueError("radius inconsistent with area for a circular loop")
            if not math.isclose(perimeter, 2.0 * math.pi * radius, rel_tol=1e-12):
                raise ValueError("radius inconsistent with perimeter for a circular loop")
        return super().__new__(cls, area, perimeter, radius)

    @classmethod
    def circular(cls, radius: float) -> "LoopGeometry":
        # the sign first: squaring -1e300 overflows before any other check
        if radius <= 0.0:
            raise ValueError("loop radius must be positive")
        # radius ** 2 raises OverflowError from about 1.34e154 m on
        area = math.pi * radius ** 2 if radius < 1e154 else math.inf
        if area == math.inf:
            raise ValueError(f"loop radius {radius:g} m is too large: the loop area overflows")
        return cls(area=area, perimeter=2.0 * math.pi * radius, radius=radius)

    @property
    def effective_radius(self) -> float:
        return 2.0 * self.area / self.perimeter


class RotationState(namedtuple("RotationState", "omega_rot tangential_speed")):
    """Rotation rate and the rim speed it implies."""

    __slots__ = ()

    def __new__(cls, omega_rot, tangential_speed):
        if abs(tangential_speed) >= C0:
            raise ValueError("tangential speed must stay below c0")
        return super().__new__(cls, omega_rot, tangential_speed)

    @classmethod
    def from_geometry(cls, omega_rot: float, geometry: LoopGeometry) -> "RotationState":
        return cls(omega_rot=omega_rot, tangential_speed=omega_rot * geometry.effective_radius)


class SagnacPhase(
    namedtuple("SagnacPhase", "delta_t delta_phi delta_t_first_order delta_phi_first_order beta")
):
    """Counterpropagating time-delay and phase splitting of one loop."""

    __slots__ = ()


def vacuum_sagnac(geometry: LoopGeometry, rotation: RotationState, omega: float) -> SagnacPhase:
    """Exact empty-loop splitting, plus its beta << 1 approximation."""
    if omega <= 0.0:
        raise ValueError("optical frequency must be positive")
    beta = rotation.tangential_speed / C0
    dt_flat = 2.0 * geometry.area * rotation.omega_rot / (C0 * C0)
    dt = dt_flat / (1.0 - beta * beta)
    return SagnacPhase(
        delta_t=dt,
        delta_phi=omega * dt,
        delta_t_first_order=dt_flat,
        delta_phi_first_order=omega * dt_flat,
        beta=beta,
    )


def matter_wave_phase(mass: float, geometry: LoopGeometry, rotation: RotationState) -> float:
    """Sagnac phase of a massive particle: dphi = 4*pi*m*A*Omega/h.

    Identical to the first-order optical phase with the Compton frequency
    m*c0^2/hbar substituted for the optical frequency.
    """
    if mass <= 0.0:
        raise ValueError("particle mass must be positive")
    return 4.0 * math.pi * mass * geometry.area * rotation.omega_rot / PLANCK


def fresnel_drag(n: float) -> float:
    """Fresnel drag coefficient alpha_F = 1 - 1/n^2."""
    if n < 1.0:
        raise ValueError("phase index below 1 is outside this drag model")
    return 1.0 - 1.0 / (n * n)


def laub_drag(n0: float, n_g: float) -> float:
    """Dispersive (Laub) drag coefficient alpha_L = 1 - 1/n0^2 + (n_g - n0)/n0^2."""
    if n0 < 1.0:
        raise ValueError("phase index below 1 is outside this drag model")
    return 1.0 - 1.0 / (n0 * n0) + (n_g - n0) / (n0 * n0)


def comoving_phase(n: float, geometry: LoopGeometry, rotation: RotationState, omega: float) -> float:
    """Fringe shift with the medium co-rotating: n^2*(1 - alpha_F) times the
    empty-loop phase, which collapses to the empty-loop phase for every n."""
    base = vacuum_sagnac(geometry, rotation, omega)
    return n * n * (1.0 - fresnel_drag(n)) * base.delta_phi


def relative_rotation_phase(
    profile: DispersionProfile, geometry: LoopGeometry, rotation: RotationState, omega: float
) -> float:
    """Fringe shift when the medium does not co-rotate with the loop.

    The non-dispersive part of the drag cancels exactly as in the co-moving
    case; what survives is the dispersive pull, so

        dphi = (n0^2*(1 - alpha_F) + (n_g - n0)) * dphi0 = (1 + n_g - n0) * dphi0.

    With n0 = 1 this is n_g*dphi0 exactly, and it collapses back to dphi0 when
    the medium is dispersionless (n_g = n0). The returned value is signed with
    the slow-light (n_g > n0) case positive; only the magnitude is anchored by
    the underlying model.
    """
    n0 = float(profile.index(omega))
    n_g = float(group_index(profile, omega))
    base = vacuum_sagnac(geometry, rotation, omega)
    scale = n0 * n0 * (1.0 - fresnel_drag(n0)) + (n_g - n0)
    return scale * base.delta_phi
