"""Numeric transmission spectra for the dispersive ring cavity.

This is the measurement-style path: build the round-trip dephasing directly
from the index profile, sweep an Airy transmission over a frequency grid, and
locate resonances and linewidths the way an experiment would, with no cubic
expansion anywhere. It serves as the independent check of the analytic
response in `resonator`.

The dephasing is evaluated in a catastrophe-free arrangement. Writing
delta = omega - omega0 and dn = n(omega) - n(omega0), the accumulated
round-trip phase minus the resonant reference is

    Psi * c0 = fill*L * (dn*omega0 + n(omega)*delta)
             + (1 - fill)*L * n0 * delta
             + n0 * dL * omega

which is algebraically exact (no subtraction of two 1e15-scale phases) and
keeps Psi accurate to machine epsilon near resonance, where sin^2(Psi/2)
lives on scales as small as 1e-40. The length change dL is applied to the
background segment of the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C0
from .dispersion import DispersionProfile, TaylorCubic
from .errors import ComputationError
from .resonator import (
    RingCavity,
    airy_linewidth_cubic,
    effective_half_linewidth,
    effective_taylor,
    enhancement_eta,
    shift_cubic_branch,
)


@dataclass(frozen=True)
class SweepGrid:
    """Uniform frequency grid for a transmission sweep."""

    center: float
    half_span: float
    points: int

    def __post_init__(self):
        if self.center <= 0.0:
            raise ValueError("grid center must be positive")
        if not 0.0 < self.half_span < self.center:
            raise ValueError("half span must be positive and keep the grid above zero")
        if self.points < _SWEEP_MIN_POINTS or self.points % 2 == 0:
            raise ValueError(f"grid needs an odd point count of at least {_SWEEP_MIN_POINTS}")
        # a finer step repeats samples, and a zero step leaves only one
        if self.resolution < math.ulp(self.center + self.half_span):
            raise ValueError("grid step must not fall below the spacing of doubles")

    @property
    def omegas(self) -> np.ndarray:
        return _sample_rows([self.center], [self.half_span], self.points)[0]

    @property
    def resolution(self) -> float:
        return 2.0 * self.half_span / (self.points - 1)


def _sample_rows(centers, half_spans, points: int) -> np.ndarray:
    """Uniform samples, one row per (center, half_span) pair.

    Each row is np.linspace(center - half_span, center + half_span, points)
    bit for bit: the same step, multiply, add and endpoint store.
    """
    start = np.subtract(centers, half_spans)[:, None]
    stop = np.add(centers, half_spans)[:, None]
    w = np.arange(points) * ((stop - start) / (points - 1)) + start
    w[:, -1:] = stop
    return w


@dataclass(frozen=True)
class SpectrumTrace:
    omega: np.ndarray
    transmission: np.ndarray
    resonance: float
    fwhm: float


def _psi(cavity: RingCavity, delta_length: float, omega, n_at, dn):
    """Psi at omega from n(omega) and n(omega) - n(omega0), in the exact form."""
    length = cavity.round_trip_length
    fill = cavity.fill_fraction
    nb = cavity.n0
    delta = omega - cavity.omega0
    psi_c0 = (
        fill * length * (dn * cavity.omega0 + n_at * delta)
        + (1.0 - fill) * length * nb * delta
        + nb * delta_length * omega
    )
    return psi_c0 / C0


def round_trip_dephasing(profile: DispersionProfile, cavity: RingCavity, delta_length: float, omega):
    """Round-trip phase relative to the unperturbed resonance (exact form).

    A scalar omega is evaluated on Python floats and gives a float; an array
    gives an array. Both run the same expression, so they agree bitwise.
    The Newton iterations take Psi together with its slope from
    `_psi_and_slope` instead.
    """
    # isinstance first: np.ndim costs about a microsecond on a float
    if isinstance(omega, float) or np.ndim(omega) == 0:
        omega = float(omega)
    else:
        omega = np.asarray(omega, dtype=float)
    return _psi(cavity, delta_length, omega, profile.index(omega), profile.index_change(omega, cavity.omega0))


def _airy_k(cavity: RingCavity) -> float:
    """The coefficient k = (2F/pi)^2 of sin^2(Psi/2) in the Airy transmission."""
    return (2.0 * cavity.finesse / math.pi) ** 2


def _airy(cavity: RingCavity, psi):
    """Airy transmission at round-trip phase psi (a float or an array)."""
    k = _airy_k(cavity)
    if isinstance(psi, float):
        return 1.0 / (1.0 + k * math.sin(0.5 * psi) ** 2)
    return 1.0 / (1.0 + k * np.sin(0.5 * psi) ** 2)


def transmission(profile: DispersionProfile, cavity: RingCavity, delta_length: float, omega):
    """Airy transmission 1 / (1 + (2F/pi)^2 sin^2(Psi/2))."""
    return _airy(cavity, round_trip_dephasing(profile, cavity, delta_length, omega))


# Most samples one scan pass holds: 64 KiB per array, or 81 rows of 101
# points, more than the longest sweep `perfbench` draws (65 shifts). A pass
# pays numpy's per-call cost once for all of its rows. Sweep passes end where
# the point count changes long before this (3.3 rows on average, and a budget
# of 65,536 gave the same passes and time); it bounds passes of larger grids.
# Larger passes of 2,001-point grids were slower under glibc on Linux: the
# allocator handed their temporaries back to the system, and every pass
# faulted them in again (about 500 page faults per sweep of about 38 shifts
# at 10,240 samples or more, none at 8,192).
_SCAN_SAMPLES = 8_192


def _scan(profile, cavity, delta_lengths, grids) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, Psi, T), one row per grid, Psi kept for the locate step.

    The grids share one point count, and row j has length change
    delta_lengths[j]. Every element runs the expressions of the array path
    of `round_trip_dephasing` and `_airy`, so a row equals the scan of its
    grid alone bit for bit.
    """
    w = _sample_rows([g.center for g in grids], [g.half_span for g in grids], grids[0].points)
    delta_length = np.array(delta_lengths, dtype=float)[:, None]
    psi = _psi(cavity, delta_length, w, profile.index(w), profile.index_change(w, cavity.omega0))
    return w, psi, _airy(cavity, psi)


def _psi_and_slope(profile, cavity, delta_length, omega) -> tuple[float, float]:
    """(Psi, dPsi/domega) at a scalar omega, from one evaluation of n(omega).

    The slope is (L*(fill*n_g + (1 - fill)*n0) + n0*dL)/c0, with the group
    index n_g = n + omega*dn/domega sharing n(omega) with Psi.
    """
    omega = float(omega)
    n_at = profile.index(omega)
    psi = _psi(cavity, delta_length, omega, n_at, profile.index_change(omega, cavity.omega0))
    fill = cavity.fill_fraction
    ng_path = fill * (n_at + omega * profile.dindex_domega(omega)) + (1.0 - fill) * cavity.n0
    return psi, (cavity.round_trip_length * ng_path + cavity.n0 * delta_length) / C0


# Bisection alone takes the widest bracket used here (ten width estimates,
# tolerance 1e-9 of one) to its tolerance in 34 steps.
_ROOT_ITERATIONS = 100


def _nearest_mode(psi: float) -> float:
    """The resonance level 2*pi*m nearest to a round-trip phase."""
    return 2.0 * math.pi * round(psi / (2.0 * math.pi))


def _psi_root(
    profile, cavity, delta_length, base: float, target: float,
    lo: float, psi_lo: float, hi: float, psi_hi: float, xtol: float,
):
    """Offset u in [lo, hi] where Psi(base + u) = target.

    The caller passes Psi at both bracket ends, which it has already
    evaluated; lo and hi must be the offsets actually evaluated, i.e.
    (base + u) - base, not the nominal u. Returns None when Psi - target has
    the same sign at both ends.

    Safeguarded Newton-bisection (rtsafe, Numerical Recipes 9.4) on the exact
    slope from `_psi_and_slope`, falling back to halving the bracket wherever
    a Newton step would leave it or converge too slowly. Psi can only be
    evaluated at the double nearest base + u, so each Newton step starts from
    that point; the steps, and the offset returned, are therefore not
    quantised to the ulp of omega. Stops once an iterate moves by less than
    xtol, or once the bracket is down to two ulps of base, below which Psi
    cannot tell its points apart.
    """
    f_lo = psi_lo - target
    f_hi = psi_hi - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        return None
    neg, pos = (lo, hi) if f_lo < 0.0 else (hi, lo)
    floor = 2.0 * math.ulp(base)
    u = 0.5 * (lo + hi)
    step = step_old = abs(hi - lo)
    for _ in range(_ROOT_ITERATIONS):
        omega = base + u
        at = omega - base
        psi, slope = _psi_and_slope(profile, cavity, delta_length, omega)
        f = psi - target
        if f == 0.0:
            # also the white-light centre, where the slope is 0 as well
            return at
        if f < 0.0:
            neg = at
        else:
            pos = at
        # Newton only if it lands inside the bracket (a zero or non-finite
        # slope fails this) and at least halves the step before last
        inside = ((at - neg) * slope - f) * ((at - pos) * slope - f) < 0.0
        if inside and abs(2.0 * f) <= abs(step_old * slope):
            nxt = at - f / slope
        else:
            nxt = neg + 0.5 * (pos - neg)
        step_old, step = step, nxt - u
        u = nxt
        if abs(step) < xtol or abs(pos - neg) <= floor:
            return u
    raise ComputationError("round-trip phase root did not converge")


def _psi_turn(profile, cavity, delta_length, base: float, lo: float, hi: float, xtol: float) -> float:
    """Offset u in [lo, hi] where the slope of Psi(base + u) changes sign.

    Bisection to xtol (at least two ulps of base); raises ComputationError
    when the slope has one sign at both ends.
    """

    def slope(u: float) -> float:
        return _psi_and_slope(profile, cavity, delta_length, base + u)[1]

    s_lo, s_hi = slope(lo), slope(hi)
    if not (s_lo < 0.0 < s_hi or s_hi < 0.0 < s_lo):
        raise ComputationError(
            "round-trip phase neither crosses zero nor turns next to the transmission peak"
        )
    tol = max(xtol, 2.0 * math.ulp(base))
    while abs(hi - lo) > tol:
        mid = 0.5 * (lo + hi)
        if (slope(mid) < 0.0) == (s_lo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_resonance(profile: DispersionProfile, cavity: RingCavity, delta_length: float, grid: SweepGrid) -> float:
    """Locate the transmission maximum inside the grid.

    Scans the grid, demands exactly one significant local maximum away from
    the edges, then solves Psi = 2*pi*m between the neighbouring samples,
    with m the mode order nearest the peak sample (0 for the mode of
    omega0). The absolute tolerance is the grid step over 1e4, but never
    coarser than the step of 2,001 points over the same span (half_span/1e7),
    so a coarse sweep grid locates as finely as an `auto_grid` grid with its
    2,001-point floor. Where Psi only touches that level without crossing
    it, sin^2(Psi/2) is smallest where the slope of Psi changes sign, and
    that point is returned instead.
    """
    w, psi, t = _scan(profile, cavity, [delta_length], [grid])
    return _locate_resonance(profile, cavity, delta_length, grid, w[0], psi[0], t[0])


def _locate_resonance(profile, cavity, delta_length, grid: SweepGrid, w, psi, t) -> float:
    """The locate step of `find_resonance`, given the grid scan w, Psi, T.

    The scalar and array paths of Psi agree bitwise, and centre plus the
    exact difference of two neighbouring samples is the neighbour itself, so
    the scan's Psi serves as Psi at the peak sample and at both bracket ends.
    """
    i = int(np.argmax(t))
    if i == 0 or i == grid.points - 1:
        raise ComputationError(
            "transmission maximum sits on the grid edge: resonance not bracketed"
        )
    t_max = t[i]
    interior = t[1:-1]
    peaks = (interior > t[:-2]) & (interior >= t[2:]) & (interior >= 0.5 * t_max)
    count = int(np.count_nonzero(peaks))
    if count != 1:
        raise ComputationError(
            f"expected exactly one significant transmission maximum, found {count}"
        )
    center = float(w[i])
    order = _nearest_mode(float(psi[i]))
    lo, hi = float(w[i - 1]) - center, float(w[i + 1]) - center
    # the step of 2,001 points over this span, or this grid's step if finer
    xtol = min(grid.resolution, grid.half_span / 1000.0) / 1e4
    u = _psi_root(profile, cavity, delta_length, center, order, lo, float(psi[i - 1]), hi, float(psi[i + 1]), xtol)
    if u is None:
        u = _psi_turn(profile, cavity, delta_length, center, lo, hi, xtol)
    return float(center + u)


def _cubic_model(profile: DispersionProfile, cavity: RingCavity) -> TaylorCubic | None:
    """The path-averaged cubic of `resonator`, or None where it does not apply."""
    try:
        return effective_taylor(profile, cavity)
    except ComputationError:
        return None


def _width_estimate(cavity: RingCavity, taylor: TaylorCubic | None, shift: float) -> float:
    gamma_ec = cavity.gamma_ec
    candidates = []
    if taylor is not None:
        try:
            candidates.append(airy_linewidth_cubic(gamma_ec, taylor))
        except (ComputationError, ValueError):
            pass
        local_ng = taylor.local_ng(shift)
        if local_ng > 0.0:
            candidates.append(gamma_ec / local_ng)
    return min(candidates) if candidates else gamma_ec


def _shift_estimate(
    profile: DispersionProfile, cavity: RingCavity, delta_length: float, taylor: TaylorCubic | None
) -> float:
    """Estimated displacement of the resonance caused by delta_length.

    A cubic-model seed polished by guarded Newton iteration on Psi = 0; the
    polish handles regimes the cubic misses (strong saturation, off-center
    profiles) and falls back to the seed when it fails to settle.
    """
    dw_ec = cavity.shift_for_length(delta_length)
    seed = dw_ec
    if taylor is not None:
        try:
            seed, _ = shift_cubic_branch(dw_ec, taylor)
        except ComputationError:
            pass

    omega = cavity.omega0 + seed
    best = seed
    limit = 0.35 * cavity.free_spectral_range
    for _ in range(60):
        if not math.isfinite(omega) or abs(omega - cavity.omega0) > limit:
            return best
        f, fp = _psi_and_slope(profile, cavity, delta_length, omega)
        if fp == 0.0 or not math.isfinite(fp):
            return best
        step = f / fp
        omega -= step
        if math.isfinite(omega):
            best = omega - cavity.omega0
        if abs(step) <= 1e-12 * abs(omega):
            break
    return best


# fewest points an `auto_grid` grid gets; `trace` returns its samples
_MIN_POINTS = 2001
# fewest points a sweep grid, or any grid, gets; a sweep reports only the
# resonances
_SWEEP_MIN_POINTS = 101


def auto_grid(
    profile: DispersionProfile,
    cavity: RingCavity,
    delta_length: float,
) -> SweepGrid:
    """Grid sized to resolve the displaced resonance.

    Centered on the estimated resonance, spanning the larger of 2.5 predicted
    widths and 10% of the predicted shift, with resolution finer than a
    twentieth of the width and at least 2,001 points, so that `trace` shows
    the line finely. Raises when the length change leaves no positive round
    trip, or when the span would exceed 40% of the free spectral range (no
    single-resonance grid exists there).
    """
    return _grid(profile, cavity, delta_length, _cubic_model(profile, cavity), _MIN_POINTS)


def _grid(profile, cavity, delta_length, taylor: TaylorCubic | None, min_points: int) -> SweepGrid:
    """`auto_grid` given the path-averaged cubic (None where it does not apply)
    and the fewest points the grid may have.

    `sweep_enhancement` passes 101. Its grids span what `auto_grid`'s span,
    so the single-peak check covers the same 2.5 widths or more, at a step
    of up to a twentieth of the width instead of the 2,001-point floor's
    four-hundredth on a span of 2.5 widths.
    """
    if cavity.round_trip_length + delta_length <= 0.0:
        raise ComputationError("the length change leaves no positive round trip")
    shift = _shift_estimate(profile, cavity, delta_length, taylor)
    width = _width_estimate(cavity, taylor, shift)
    half_span = max(2.5 * width, 0.1 * abs(shift))
    if half_span > 0.4 * cavity.free_spectral_range:
        raise ComputationError(
            "requested response does not fit inside a single free spectral range"
        )
    needed = int(math.ceil(2.0 * half_span / (width / 20.0))) + 1
    points = max(min_points, needed)
    if points % 2 == 0:
        points += 1
    if points > 2_000_001:
        raise ComputationError("grid would need more than 2e6 points")
    center = cavity.omega0 + shift
    # a finer step repeats samples, and the scan then sees many maxima
    step = 2.0 * half_span / (points - 1)
    spacing = math.ulp(center + half_span)
    if step < spacing:
        raise ComputationError(
            "linewidth below the spacing of doubles at this frequency: "
            f"grid step {step:.3g} rad/s, spacing {spacing:.3g} rad/s"
        )
    return SweepGrid(center=center, half_span=half_span, points=points)


def measure_fwhm(
    profile: DispersionProfile,
    cavity: RingCavity,
    delta_length: float,
    resonance: float,
) -> float:
    """Full width at half maximum of the transmission resonance.

    Works on the round-trip phase directly: the half-maximum level relative
    to the peak value T_res is s_half = (1 + 2 k s_res)/k in sin^2(Psi/2),
    with k = (2F/pi)^2, which stays exact even when the peak does not quite
    reach 1. Brackets each side by geometric expansion (factor 1.6, up to ten
    width estimates), then solves Psi = 2*pi*m +- 2*asin(sqrt(s_half)) there,
    with the sign Psi takes at the bracket's outer end.
    """
    k = _airy_k(cavity)
    resonance = float(resonance)

    def psi_at(u: float) -> tuple[float, float]:
        # (the offset actually evaluated, Psi there); the subtraction is
        # exact since omega and resonance are close
        omega = resonance + u
        return omega - resonance, round_trip_dephasing(profile, cavity, delta_length, omega)

    psi_res = round_trip_dephasing(profile, cavity, delta_length, resonance)
    s_res = math.sin(0.5 * psi_res) ** 2
    s_half = (1.0 + 2.0 * k * s_res) / k
    order = _nearest_mode(psi_res)
    estimate = _width_estimate(cavity, _cubic_model(profile, cavity), resonance - cavity.omega0)

    def crossing(side: float) -> float:
        lo, psi_lo = 0.0, psi_res
        hi = estimate / 8.0
        at, psi = psi_at(side * hi)
        while math.sin(0.5 * psi) ** 2 < s_half:
            lo, psi_lo = at, psi
            hi *= 1.6
            if hi > 10.0 * estimate:
                raise ComputationError(
                    "half-maximum crossing not bracketed within ten width estimates"
                )
            at, psi = psi_at(side * hi)
        target = order + math.copysign(2.0 * math.asin(math.sqrt(s_half)), psi - order)
        off = _psi_root(profile, cavity, delta_length, resonance, target, lo, psi_lo, at, psi, 1e-9 * estimate)
        if off is None:
            raise ComputationError("round-trip phase does not cross the half-maximum level")
        return abs(off)

    return crossing(+1.0) + crossing(-1.0)


def trace(
    profile: DispersionProfile,
    cavity: RingCavity,
    delta_length: float,
) -> SpectrumTrace:
    """Sweep, locate, and width-measure a single resonance on the `auto_grid` grid."""
    grid = auto_grid(profile, cavity, delta_length)
    w, psi, t = _scan(profile, cavity, [delta_length], [grid])
    resonance = _locate_resonance(profile, cavity, delta_length, grid, w[0], psi[0], t[0])
    fwhm = measure_fwhm(profile, cavity, delta_length, resonance)
    return SpectrumTrace(omega=w[0], transmission=t[0], resonance=resonance, fwhm=fwhm)


@dataclass(frozen=True)
class EnhancementSample:
    dw_ec: float
    eta_numeric: float
    eta_analytic_derived: float
    eta_analytic_paper: float


def sweep_enhancement(
    profile: DispersionProfile,
    cavity: RingCavity,
    dw_ec_values,
) -> list[EnhancementSample]:
    """Numeric enhancement curve against both analytic conventions.

    For each empty-cavity shift the equivalent length change
    dL = -dw_ec * L / omega0 is applied, the displaced resonance located
    numerically, and eta_numeric = (resonance - omega0) / dw_ec recorded
    beside (G/dw_ec)^(2/3) and (2G/dw_ec)^(2/3).

    Requires a profile tuned to zero group index at the cavity resonance and
    a shift list spanning at least four decades, none above the recovered
    half linewidth.
    """
    t = effective_taylor(profile, cavity)
    if abs(t.ng0) > 1e-6:
        raise ComputationError(
            "enhancement sweep requires a profile tuned to zero group index "
            f"at the cavity resonance (got {t.ng0:.3e})"
        )
    g = effective_half_linewidth(t)
    if g is None:
        raise ComputationError("enhancement sweep requires anomalous cubic coefficients")
    values = [float(v) for v in dw_ec_values]
    # the comparison also rejects NaN and inf, which would pass a v <= 0 test
    if not values or not all(0.0 < v < math.inf for v in values):
        raise ValueError("shift values must be positive and finite")
    lo, hi = min(values), max(values)
    if hi / lo < 1e4 * (1.0 - 1e-12):
        raise ComputationError("shift list must span at least four decades")
    if hi > g * (1.0 + 1e-9):
        raise ComputationError("shift list must stay at or below the half linewidth")

    # consecutive grids of one point count are scanned in one pass of at
    # most _SCAN_SAMPLES samples, then located one by one in order
    resonances = []
    run = []  # (delta_length, grid) of the pass being gathered

    def locate_run():
        if run:
            lengths, grids = zip(*run)
            for dl, grid, row in zip(lengths, grids, zip(*_scan(profile, cavity, lengths, grids))):
                resonances.append(_locate_resonance(profile, cavity, dl, grid, *row))
            run.clear()

    for dw in values:
        delta_length = cavity.length_for_shift(dw)
        try:
            grid = _grid(profile, cavity, delta_length, t, _SWEEP_MIN_POINTS)
        except Exception:
            # whatever the grid raises, a locate failure at an earlier
            # shift is reported first, as when each shift ran alone
            locate_run()
            raise
        if run and (grid.points != run[0][1].points or (len(run) + 1) * grid.points > _SCAN_SAMPLES):
            locate_run()
        run.append((delta_length, grid))
    locate_run()
    return [
        EnhancementSample(
            dw_ec=dw,
            eta_numeric=(resonance - cavity.omega0) / dw,
            eta_analytic_derived=enhancement_eta(g, dw, "derived"),
            eta_analytic_paper=enhancement_eta(g, dw, "paper"),
        )
        for dw, resonance in zip(values, resonances)
    ]
