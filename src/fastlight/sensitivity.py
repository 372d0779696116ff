"""Noise-limited resolution of cavity-based rotation and length sensing.

The chain runs: photon budget -> smallest resolvable resonance shift ->
equivalent length change or rotation rate. Two architectures are covered,
a passive resonator probed externally (resolution gamma_ec/SNR) and an
active ring laser whose beat-note resolution is the quantum-limited laser
linewidth gamma_ec/sqrt(N) with N detected photons.

The fast-light enhancement eta enters the two observables differently. A
dispersion-enhanced frequency shift is eta times larger while the linewidth
it must beat grows only as eta/3, so rotation resolution improves by the
full factor eta; a length measurement referred back to the empty-cavity
scale loses the factor eta again and keeps only the fixed 3-fold linewidth
narrowing. Both statements are exposed as code below.

Open question: design-sheet baselines for a meter-scale empty ring laser
are usually quoted near 1.5e-5 Omega_earth, while composing the laser
linewidth with the per-direction shift scale from the same inputs (1 mW,
1 s, finesse 1e3) lands at about 7e-6 Omega_earth. The gap is a fixed
factor of order 2 and traces to bookkeeping that such quotes leave
unstated: per-direction shift versus full beat-note splitting, frequency
versus angular frequency, and where sqrt(N) enters the SNR. None of these
choices can be recovered from the quoted number alone, so this module
commits to one self-consistent chain (per-direction scale, angular units,
SNR = sqrt(N)) and the command-line front end prints every intermediate
value so the chain can be audited against any other convention.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .constants import HBAR, LENSE_THIRRING_FRACTION, OMEGA_EARTH
from .errors import ComputationError
from .resonator import RingCavity, enhancement_eta

MODES = ("passive_empty", "rlg_empty", "rlg_dispersive")


class NoiseBudget(namedtuple("NoiseBudget", "output_power measurement_time snr quantum_efficiency")):
    """Detection resources: either a photon budget, an SNR, or both.

    When both are supplied they must agree (SNR = sqrt(N) within 1e-6
    relative) so a scenario cannot silently carry two inconsistent noise
    floors.
    """

    __slots__ = ()

    def __new__(cls, output_power=None, measurement_time=None, snr=None, quantum_efficiency=1.0):
        if output_power is not None and output_power <= 0.0:
            raise ValueError("output power must be positive")
        if measurement_time is not None and measurement_time <= 0.0:
            raise ValueError("measurement time must be positive")
        if snr is not None and snr <= 0.0:
            raise ValueError("snr must be positive")
        if not 0.0 < quantum_efficiency <= 1.0:
            raise ValueError("quantum efficiency must lie in (0, 1]")
        if (output_power is None) != (measurement_time is None):
            raise ValueError("output power and measurement time must be given together")
        if output_power is None and snr is None:
            raise ValueError("need a photon budget (power and time) or an snr")
        return super().__new__(cls, output_power, measurement_time, snr, quantum_efficiency)

    @property
    def has_photon_budget(self) -> bool:
        return self.output_power is not None

    def photon_number(self, omega: float) -> float:
        """Detected photons N = eta_q * P * tau / (hbar * omega)."""
        if not self.has_photon_budget:
            raise ComputationError("no photon budget in this noise model")
        if omega <= 0.0:
            raise ValueError("frequency must be positive")
        energy = HBAR * omega
        if energy == 0.0:
            raise ComputationError(f"the photon energy hbar*w0 underflows to 0 (w0 = {omega:.3g} rad/s)")
        photons = self.quantum_efficiency * self.output_power * self.measurement_time / energy
        if photons == 0.0:
            # every shot-noise limit divides by the SNR sqrt(N)
            raise ComputationError("the shot-noise SNR underflows to 0: the photon budget detects no photons")
        return photons

    def snr_for(self, omega: float) -> float:
        """Effective SNR: the explicit value, else shot-noise sqrt(N)."""
        self.check_consistency(omega)
        if self.snr is not None:
            return self.snr
        return math.sqrt(self.photon_number(omega))

    def check_consistency(self, omega: float) -> None:
        if self.snr is None or not self.has_photon_budget:
            return
        shot = math.sqrt(self.photon_number(omega))
        if abs(self.snr - shot) > 1e-6 * shot:
            raise ComputationError(
                f"snr {self.snr:.6e} conflicts with the photon budget "
                f"(shot-noise snr {shot:.6e})"
            )


def laser_linewidth(cavity: RingCavity, budget: NoiseBudget) -> float:
    """Quantum-limited beat-note resolution gamma_ec / sqrt(N) at the cavity resonance."""
    budget.check_consistency(cavity.omega0)
    return cavity.gamma_ec / math.sqrt(budget.photon_number(cavity.omega0))


def min_shift_passive(cavity: RingCavity, budget: NoiseBudget) -> float:
    """Smallest resolvable resonance shift of a passively probed cavity."""
    return cavity.gamma_ec / budget.snr_for(cavity.omega0)


def min_length(dw_min: float, cavity: RingCavity) -> float:
    """Length change equivalent to a resolvable shift: dL = dw * L / omega0."""
    return -cavity.length_for_shift(dw_min)


def min_length_passive_dispersive(cavity: RingCavity, budget: NoiseBudget, eta: float) -> float:
    """Resolvable length change with an intracavity fast-light medium.

    The smallest resolvable dispersion-modified shift is (eta/3) * gamma_ec/SNR
    (the linewidth narrows to eta/3 of gamma_ec), but the equivalent length
    change divides the shift by eta again: the result is min_length(...)/3 for
    every eta, i.e. a fixed 3-fold gain, not an eta-fold one.
    """
    if eta <= 0.0:
        raise ValueError("enhancement must be positive")
    dw_dis_min = (eta / 3.0) * min_shift_passive(cavity, budget)
    return min_length(dw_dis_min / eta, cavity)


def min_rotation(
    cavity: RingCavity,
    budget: NoiseBudget,
    mode: str,
    half_linewidth: float | None = None,
    convention: str = "derived",
) -> float:
    """Smallest resolvable rotation rate for a given sensing architecture.

    passive_empty    gamma_ec/SNR against the per-direction shift scale
    rlg_empty        laser linewidth against the same scale
    rlg_dispersive   rlg_empty divided by the shift enhancement eta, with eta
                     evaluated at dw_ec = laser linewidth for the medium's
                     half linewidth (required argument) in the requested
                     convention
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    scale = cavity.rotation_scale
    if mode == "passive_empty":
        return min_shift_passive(cavity, budget) / scale
    dw_laser = laser_linewidth(cavity, budget)
    empty = dw_laser / scale
    if mode == "rlg_empty":
        return empty
    if half_linewidth is None:
        raise ValueError("rlg_dispersive needs the medium half linewidth")
    eta = enhancement_eta(half_linewidth, dw_laser, convention)
    return empty / eta


def lens_thirring_rate() -> float:
    """Frame-dragging rate at the surface of the Earth."""
    return LENSE_THIRRING_FRACTION * OMEGA_EARTH


def lens_thirring_margin(min_rotation_rate: float) -> float:
    """How many times smaller than the target signal the noise floor sits."""
    if min_rotation_rate <= 0.0:
        raise ValueError("minimum rotation rate must be positive")
    return lens_thirring_rate() / min_rotation_rate
