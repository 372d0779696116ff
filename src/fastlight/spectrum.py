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

Each public call binds its medium and cavity once into a `_RoundTrip`
kernel, which reads the cavity's constants once and takes Psi, at a float
for a Newton step or over the samples of a scan pass, from one `response`
of the medium per evaluation. A scan pass holds grids of one point count
as the rows of one array.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .constants import C0
from .dispersion import DispersionProfile
from .errors import ComputationError
from .resonator import (
    RingCavity,
    airy_linewidth_cubic,
    effective_half_linewidth,
    effective_taylor,
    enhancement_eta,
    shift_cubic,
)


class SweepGrid(namedtuple("SweepGrid", "center half_span points")):
    """Uniform frequency grid for a transmission sweep."""

    __slots__ = ()

    def __new__(cls, center, half_span, points):
        if center <= 0.0:
            raise ValueError("grid center must be positive")
        if not 0.0 < half_span < center:
            raise ValueError("half span must be positive and keep the grid above zero")
        if points < _SWEEP_POINTS or points % 2 == 0:
            raise ValueError(f"grid needs an odd point count of at least {_SWEEP_POINTS}")
        self = super().__new__(cls, center, half_span, points)
        # a finer step repeats samples, and a zero step leaves only one
        if self.resolution < math.ulp(center + half_span):
            raise ValueError("grid step must not fall below the spacing of doubles")
        return self

    @property
    def omegas(self) -> np.ndarray:
        return _sample_rows([self.center], [self.half_span], self.points)[0]

    @property
    def resolution(self) -> float:
        return 2.0 * self.half_span / (self.points - 1)


def _sample_rows(centers, half_spans, points: int) -> np.ndarray:
    """Uniform samples, one row of `points` samples per centre.

    Row j is np.linspace(centers[j] - half_spans[j], centers[j] +
    half_spans[j], points) bit for bit: linspace's step (stop - start) /
    (points - 1), the index within the row times that step, plus start, and
    then the endpoint store.
    """
    start = np.subtract(centers, half_spans)[:, None]
    stop = np.add(centers, half_spans)
    w = np.arange(points) * ((stop[:, None] - start) / (points - 1))
    w += start
    w[:, -1] = stop
    return w


class SpectrumTrace(namedtuple("SpectrumTrace", "omega transmission resonance fwhm")):
    """A sampled transmission (two arrays) with its resonance and FWHM."""

    __slots__ = ()


class _RoundTrip:
    """Psi and T of one medium in one cavity, with the cavity's constants
    bound once, and the path-averaged cubic that sizes the grids.

    `sweep_enhancement`, `trace`, `auto_grid`, `find_resonance`,
    `measure_fwhm` and `transmission` each bind one per call. Every Psi,
    at a float (`psi_and_slope`) or over an array (`psi_array`), takes one
    `response` of the medium and runs the expression of the module
    docstring in the same order, so the two agree bitwise. The arrays a
    call builds belong to that call alone. `taylor` is the medium's
    `effective_taylor` (None where that refuses it), and `airy` its
    `airy_linewidth_cubic` (None where that has no root), which does not
    depend on the shift.
    """

    __slots__ = (
        "cavity", "response", "omega0", "length", "nb", "fill", "medium", "background",
        "background_index", "fsr", "gamma_ec", "k", "taylor", "airy",
    )

    def __init__(self, profile: DispersionProfile, cavity: RingCavity):
        length, fill, nb = cavity.round_trip_length, cavity.fill_fraction, cavity.n0
        self.cavity = cavity
        self.response = profile.response
        self.omega0 = cavity.omega0
        self.length, self.nb, self.fill = length, nb, fill
        # the factors fill*L and (1 - fill)*L*n_b of Psi*c0, and the
        # background's share (1 - fill)*n_b of the path's group index
        self.medium = fill * length
        self.background = (1.0 - fill) * length * nb
        self.background_index = (1.0 - fill) * nb
        self.fsr = cavity.free_spectral_range
        self.gamma_ec = cavity.gamma_ec
        # the coefficient (2F/pi)^2 of sin^2(Psi/2) in the Airy transmission
        try:
            self.k = (2.0 * cavity.finesse / math.pi) ** 2
        except OverflowError:
            raise ComputationError(
                f"finesse too high for the Airy transmission: (2F/pi)^2 overflows (F = {cavity.finesse:.3g})"
            ) from None
        self.taylor = self.airy = None
        try:
            self.taylor = effective_taylor(profile, cavity)
        except ComputationError:
            return
        try:
            self.airy = airy_linewidth_cubic(self.gamma_ec, self.taylor)
        except (ComputationError, ValueError):
            pass

    def psi_and_slope(self, delta_length: float, omega: float) -> tuple[float, float]:
        """(Psi, dPsi/domega) at a float omega.

        The slope is (L*(fill*n_g + (1 - fill)*n_b) + n_b*dL)/c0, with the
        group index n_g = n + omega*dn/domega from the response that gives Psi.
        """
        omega0 = self.omega0
        n_at, dn, dn_domega = self.response(omega, omega0)
        delta = omega - omega0
        nb_dl = self.nb * delta_length
        psi = (self.medium * (dn * omega0 + n_at * delta) + self.background * delta + nb_dl * omega) / C0
        slope = (self.length * (self.fill * (n_at + omega * dn_domega) + self.background_index) + nb_dl) / C0
        return psi, slope

    def psi_array(self, omega: np.ndarray, delta_lengths) -> np.ndarray:
        """Psi over a (rows, points) array omega, row j with length change
        delta_lengths[j]: the expression of `psi_and_slope`, with n_b*dL a
        column of one entry per row. The medium's slope goes unused.
        """
        n_at, dn = self.response(omega, self.omega0)[:2]
        nb_dl = np.array([self.nb * dl for dl in delta_lengths])[:, None]
        delta = omega - self.omega0
        return (self.medium * (dn * self.omega0 + n_at * delta) + self.background * delta + nb_dl * omega) / C0

    def transmission(self, psi):
        """Airy transmission 1 / (1 + k sin^2(Psi/2)) of an array Psi."""
        return 1.0 / (1.0 + self.k * np.sin(0.5 * psi) ** 2)


def transmission(profile: DispersionProfile, cavity: RingCavity, delta_length: float, omega):
    """Airy transmission 1 / (1 + (2F/pi)^2 sin^2(Psi/2)) over an array omega.

    The result has omega's shape. A float is taken as a 0-d array and gives
    a NumPy float.
    """
    rt = _RoundTrip(profile, cavity)
    omega = np.asarray(omega, dtype=float)
    return rt.transmission(rt.psi_array(omega.reshape(1, -1), [delta_length]).reshape(omega.shape))


# Most samples one scan pass holds: 64 KiB per array, or 81 sweep grids. A
# pass pays numpy's per-call cost once for all of its rows, so a `perfbench`
# `sweep` op (17 to 65 shifts and a trace) takes two passes. A full pass
# peaks at eight such arrays, in the medium's response (512 KiB by
# tracemalloc for 81 grids).
_SCAN_SAMPLES = 8_192


def _scan(rt: _RoundTrip, delta_lengths, grids) -> list[tuple]:
    """(omega, Psi, T, peak, count) per grid, Psi kept for the locate step.

    One pass over grids of one point count: each is a row of one array, and
    row j has length change delta_lengths[j]. Every element runs the
    expressions of `_RoundTrip.psi_array` and `_RoundTrip.transmission`, so
    a row equals the scan of its grid alone bit for bit. peak and count come
    from `_peaks`.
    """
    w = _sample_rows([g.center for g in grids], [g.half_span for g in grids], grids[0].points)
    psi = rt.psi_array(w, delta_lengths)
    t = rt.transmission(psi)
    return list(zip(w, psi, t, *_peaks(t)))


def _peaks(t) -> tuple[list[int], list[int]]:
    """Each row's peak sample and its number of significant maxima.

    t is a (rows, points) array, three points or more. A row's peak is its
    np.argmax, its first largest sample. Its significant maxima are the
    interior samples above the one before, at least the one after, and at
    least half the row's maximum; a row holding NaN has a NaN maximum, which
    leaves it none.
    """
    mid = t[:, 1:-1]
    significant = (mid > t[:, :-2]) & (mid >= t[:, 2:]) & (mid >= 0.5 * t.max(axis=1, keepdims=True))
    return t.argmax(axis=1).tolist(), significant.sum(axis=1).tolist()


# Bisection alone takes the widest bracket used here (ten width estimates,
# tolerance 1e-9 of one) to its tolerance in 34 steps.
_ROOT_ITERATIONS = 100


def _nearest_mode(psi: float) -> float:
    """The resonance level 2*pi*m nearest to a round-trip phase."""
    return 2.0 * math.pi * round(psi / (2.0 * math.pi))


def _psi_root(
    rt: _RoundTrip, delta_length, base: float, target: float,
    lo: float, psi_lo: float, hi: float, psi_hi: float, xtol: float,
):
    """Offset u in [lo, hi] where Psi(base + u) = target.

    The caller passes Psi at both bracket ends, which it has already
    evaluated; lo and hi must be the offsets actually evaluated, i.e.
    (base + u) - base, not the nominal u. Returns None when Psi - target has
    the same sign at both ends.

    Safeguarded Newton-bisection (rtsafe, Numerical Recipes 9.4) on the exact
    slope from `_RoundTrip.psi_and_slope`, falling back to halving the
    bracket wherever a Newton step would leave it or converge too slowly.
    Psi can only be evaluated at the double nearest base + u, so each Newton
    step starts from that point; the steps, and the offset returned, are
    therefore not quantised to the ulp of omega. Stops once an iterate moves
    by less than xtol, or once the bracket is down to two ulps of base, below
    which Psi cannot tell its points apart.
    """
    f_lo = psi_lo - target
    f_hi = psi_hi - target
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
        return None
    psi_and_slope = rt.psi_and_slope
    neg, pos = (lo, hi) if f_lo < 0.0 else (hi, lo)
    floor = 2.0 * math.ulp(base)
    u = 0.5 * (lo + hi)
    step = step_old = abs(hi - lo)
    for _ in range(_ROOT_ITERATIONS):
        omega = base + u
        at = omega - base
        psi, slope = psi_and_slope(delta_length, omega)
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


def _psi_turn(rt: _RoundTrip, delta_length, base: float, lo: float, hi: float, xtol: float) -> float:
    """Offset u in [lo, hi] where the slope of Psi(base + u) changes sign.

    Bisection to xtol (at least two ulps of base); raises ComputationError
    when the slope has one sign at both ends.
    """

    def slope(u: float) -> float:
        return rt.psi_and_slope(delta_length, base + u)[1]

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
    rt = _RoundTrip(profile, cavity)
    ((w, psi, _, i, count),) = _scan(rt, [delta_length], [grid])
    return _locate_resonance(rt, delta_length, grid, w, psi, i, count)


def _locate_resonance(rt: _RoundTrip, delta_length, grid: SweepGrid, w, psi, i: int, count: int) -> float:
    """The locate step of `find_resonance`, given the grid scan w and Psi,
    the peak sample i and the count of significant maxima from `_peaks`.

    The scalar and array paths of Psi agree bitwise, and centre plus the
    exact difference of two neighbouring samples is the neighbour itself, so
    the scan's Psi serves as Psi at the peak sample and at both bracket ends.
    """
    if i == 0 or i == grid.points - 1:
        raise ComputationError(
            "transmission maximum sits on the grid edge: resonance not bracketed"
        )
    if count != 1:
        raise ComputationError(
            f"expected exactly one significant transmission maximum, found {count}"
        )
    w_lo, center, w_hi = w[i - 1:i + 2].tolist()
    psi_lo, psi_at, psi_hi = psi[i - 1:i + 2].tolist()
    order = _nearest_mode(psi_at)
    lo, hi = w_lo - center, w_hi - center
    # the step of 2,001 points over this span, or this grid's step if finer
    xtol = min(grid.resolution, grid.half_span / 1000.0) / 1e4
    u = _psi_root(rt, delta_length, center, order, lo, psi_lo, hi, psi_hi, xtol)
    if u is None:
        u = _psi_turn(rt, delta_length, center, lo, hi, xtol)
    return float(center + u)


def _width_estimate(rt: _RoundTrip, shift: float) -> float:
    """Predicted FWHM at a resonance shifted by `shift`: the smaller of the
    cubic's Airy width and gamma_ec over its local group index, of those
    that apply, or else gamma_ec."""
    gamma_ec, taylor = rt.gamma_ec, rt.taylor
    candidates = [] if rt.airy is None else [rt.airy]
    if taylor is not None:
        local_ng = taylor.local_ng(shift)
        if local_ng > 0.0:
            candidates.append(gamma_ec / local_ng)
    return min(candidates) if candidates else gamma_ec


def _shift_estimate(rt: _RoundTrip, delta_length: float) -> float:
    """Estimated displacement of the resonance caused by delta_length.

    A cubic-model seed polished by guarded Newton iteration on Psi = 0; the
    polish handles regimes the cubic misses (strong saturation, off-center
    profiles) and falls back to the seed when it fails to settle. Raises
    where Psi or its slope is not finite at the seed, whether it overflows
    or is NaN: the scan centred there would see no finite transmission.
    """
    dw_ec = rt.cavity.shift_for_length(delta_length)
    seed = dw_ec
    if rt.taylor is not None:
        try:
            seed = shift_cubic(dw_ec, rt.taylor)
        except ComputationError:
            pass

    psi_and_slope = rt.psi_and_slope
    omega0 = rt.omega0
    omega = omega0 + seed
    best = seed
    limit = 0.35 * rt.fsr
    for i in range(60):
        if not math.isfinite(omega) or abs(omega - omega0) > limit:
            return best
        f, fp = psi_and_slope(delta_length, omega)
        if i == 0 and not (math.isfinite(f) and math.isfinite(fp)):
            raise ComputationError(
                "round-trip phase or its slope is not finite at the estimated resonance: the medium's "
                f"response is too strong to scan (Psi = {f:.3g}, dPsi/domega = {fp:.3g} s)"
            )
        if fp == 0.0 or not math.isfinite(fp):
            return best
        step = f / fp
        omega -= step
        if math.isfinite(omega) and abs(omega - omega0) <= limit:
            best = omega - omega0
        if abs(step) <= 1e-12 * abs(omega):
            break
    return best


# fewest points an `auto_grid` grid gets; `trace` returns its samples
_MIN_POINTS = 2001
# points of every sweep grid, and the fewest any grid gets; a sweep reports
# only the resonances
_SWEEP_POINTS = 101


def auto_grid(
    profile: DispersionProfile,
    cavity: RingCavity,
    delta_length: float,
) -> SweepGrid:
    """Grid sized to resolve the displaced resonance.

    Centered on the estimated resonance, spanning the larger of 2.5 predicted
    widths and 10% of the predicted shift, with resolution finer than a
    twentieth of the width and at least 2,001 points, so that `trace` shows
    the line finely. Sweep grids drop the 10% margin (see `_grid`); these
    keep it, because `trace` returns their samples, and because the margin
    widens the step of the 2,001 points on a line so narrow that 2.5 widths
    alone would put it below the spacing of doubles. Raises when the length
    change leaves no positive round trip, when the span would exceed 40% of
    the free spectral range (no single-resonance grid exists there), or when
    the step would fall below the spacing of doubles.
    """
    return _trace_grid(_RoundTrip(profile, cavity), delta_length)


def _trace_grid(rt: _RoundTrip, delta_length) -> SweepGrid:
    """`auto_grid` given the call's round trip, with its cubic."""
    shift, width = _estimates(rt, delta_length)
    half_span = _in_one_fsr(rt, max(2.5 * width, 0.1 * abs(shift)))
    # an odd count, so that a sample sits on the centre
    points = max(_MIN_POINTS, int(math.ceil(2.0 * half_span / (width / 20.0))) + 1) | 1
    if points > 2_000_001:
        raise ComputationError("grid would need more than 2e6 points")
    return _checked_grid(rt.omega0 + shift, half_span, points)


def _grid(rt: _RoundTrip, delta_length) -> SweepGrid:
    """The grid `sweep_enhancement` scans for one shift: 101 points over 2.5
    predicted widths either side of the shift estimate, a step of a
    twentieth of the width. It refuses as `auto_grid` does, and never needs
    its cap on the point count.

    `_shift_estimate` has already polished the centre by Newton steps on the
    exact Psi, so a sweep grid needs no margin of 10% of the shift; and with
    one point count for every sweep grid, a scan pass is one rectangular
    array.
    """
    shift, width = _estimates(rt, delta_length)
    return _checked_grid(rt.omega0 + shift, _in_one_fsr(rt, 2.5 * width), _SWEEP_POINTS)


def _estimates(rt: _RoundTrip, delta_length) -> tuple[float, float]:
    """(shift, width): the polished shift estimate and the predicted FWHM
    there; raises when the length change leaves no positive round trip."""
    if rt.length + delta_length <= 0.0:
        raise ComputationError("the length change leaves no positive round trip")
    shift = _shift_estimate(rt, delta_length)
    return shift, _width_estimate(rt, shift)


def _in_one_fsr(rt: _RoundTrip, half_span: float) -> float:
    """half_span, refused where it exceeds 40% of the free spectral range."""
    if half_span > 0.4 * rt.fsr:
        raise ComputationError(
            "requested response does not fit inside a single free spectral range"
        )
    return half_span


def _checked_grid(center: float, half_span: float, points: int) -> SweepGrid:
    """The grid, refused where its step falls below the spacing of doubles."""
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
    return _measure_fwhm(_RoundTrip(profile, cavity), delta_length, float(resonance))


def _measure_fwhm(rt: _RoundTrip, delta_length: float, resonance: float) -> float:
    """`measure_fwhm` given the call's round trip, with its cubic."""
    k = rt.k
    estimate = _width_estimate(rt, resonance - rt.omega0)
    psi_and_slope = rt.psi_and_slope

    def psi_at(u: float) -> tuple[float, float]:
        # (the offset actually evaluated, Psi there); the subtraction is
        # exact since omega and resonance are close
        omega = resonance + u
        return omega - resonance, psi_and_slope(delta_length, omega)[0]

    psi_res = psi_and_slope(delta_length, resonance)[0]
    s_res = math.sin(0.5 * psi_res) ** 2
    s_half = (1.0 + 2.0 * k * s_res) / k
    order = _nearest_mode(psi_res)

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
        off = _psi_root(rt, delta_length, resonance, target, lo, psi_lo, at, psi, 1e-9 * estimate)
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
    rt = _RoundTrip(profile, cavity)
    grid = _trace_grid(rt, delta_length)
    ((w, psi, t, i, count),) = _scan(rt, [delta_length], [grid])
    resonance = _locate_resonance(rt, delta_length, grid, w, psi, i, count)
    fwhm = _measure_fwhm(rt, delta_length, resonance)
    return SpectrumTrace(omega=w, transmission=t, resonance=resonance, fwhm=fwhm)


class EnhancementSample(
    namedtuple("EnhancementSample", "dw_ec eta_numeric eta_analytic_derived eta_analytic_paper")
):
    """One shift of an enhancement sweep: eta measured and from both conventions."""

    __slots__ = ()


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

    Works in two steps. It sizes a `_grid` grid of 101 points over 2.5
    predicted widths for each shift, up to the first that is refused; then
    it scans those grids in passes of 81 consecutive ones and locates each
    resonance in order. A refusal of the first step propagates only after
    the second, so that a locate failure at an earlier shift is reported
    first.

    Requires a profile tuned to zero group index at the cavity resonance and
    a shift list spanning at least four decades, none above the recovered
    half linewidth, whose smallest shift moves the cubic's resonance by at
    least 1,000 spacings of doubles at omega0. The kernel's cubic serves
    these checks and the grids alike; where it has none, `effective_taylor`
    is called once more only to raise its refusal.
    """
    rt = _RoundTrip(profile, cavity)
    t = rt.taylor or effective_taylor(profile, cavity)
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
    # the resonance omega0 + x is rounded to half a spacing of doubles, so
    # eta = x/dw_ec is resolved to 0.05% at 1,000 spacings
    smallest = shift_cubic(lo, t)
    spacing = math.ulp(cavity.omega0)
    if abs(smallest) < 1000.0 * spacing:
        raise ComputationError(
            f"smallest shift too close to the resonance: its cubic shift {smallest:.3g} rad/s "
            f"is under 1,000 spacings of doubles ({spacing:.3g} rad/s) at omega0"
        )

    sized, resonances = [], []  # sized: (delta_length, grid) per shift
    try:
        for dw in values:
            delta_length = cavity.length_for_shift(dw)
            sized.append((delta_length, _grid(rt, delta_length)))
    finally:
        # whatever a grid raises propagates only once the grids before it
        # are located, so that a locate failure at an earlier shift is
        # reported first, as when each shift ran alone
        per_pass = _SCAN_SAMPLES // _SWEEP_POINTS
        for start in range(0, len(sized), per_pass):
            lengths, grids = zip(*sized[start:start + per_pass])
            for dl, grid, (w, psi, _, i, count) in zip(lengths, grids, _scan(rt, lengths, grids)):
                resonances.append(_locate_resonance(rt, dl, grid, w, psi, i, count))
    return [
        EnhancementSample(
            dw_ec=dw,
            eta_numeric=(resonance - cavity.omega0) / dw,
            eta_analytic_derived=enhancement_eta(g, dw, "derived"),
            eta_analytic_paper=enhancement_eta(g, dw, "paper"),
        )
        for dw, resonance in zip(values, resonances)
    ]
