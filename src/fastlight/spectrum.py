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
kernel, which reads the cavity's constants and the path-averaged cubic's
coefficients once, as floats, and takes Psi from one unchecked `_response`
of the medium per evaluation: at a float for a Newton step with the slope,
over the samples of a scan pass without it. Frequencies are checked once,
at the boundary: `transmission` and `measure_fwhm` check the ones their
caller gives, and every other frequency the kernel evaluates lies in a grid
or a window that this module keeps above zero. A scan pass holds grids of
one point count as the rows of one array, and builds Psi and T in place, in
arrays of its own, never in the samples. A sweep's grid for one shift is a
row (delta_length, centre, half_span), with no value type: its per-shift
steps, the shift and width estimates, the row's refusals and the locate
step, read only the kernel's floats and the three samples about the row's
peak that the pass gathers. A row holds 51 samples, a tenth of a width
apart: the samples only bracket the peak, since the locate's tolerance
does not depend on their count.

A sweep row is centred on an estimate of its resonance. For a Lorentzian
line centred at omega0, Psi = 0 is exactly a cubic in omega - omega0, and
the estimate is that cubic's root, from one bracketed solve in `resonator`
with no evaluation of Psi, wherever a gate shows it safe: its half that
depends only on the medium and the cavity once per call, in `_RoundTrip`,
and its half that depends on the length change once per row, in `_row`.
Every other row, and every `auto_grid` grid, is centred by
`_shift_estimate`: Newton steps on Psi from the Taylor cubic's root. The
estimate only places the grid; the resonance is located from the scanned
samples and polished on Psi, so the numeric path stays independent of both
cubics. The polish evaluates Psi at no double twice in a row: a Newton step
that lands back on the double it was taken from ends it, with the offset
the next pass would return.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._numpy import np
from .constants import C0
from .dispersion import DispersionProfile, LorentzianAbsorptive, _check_omega
from .errors import ComputationError
from .resonator import (
    RingCavity,
    airy_linewidth_cubic,
    cubic_root,
    effective_half_linewidth,
    effective_taylor,
    shift_cubic,
    shift_root,
)


class SweepGrid(namedtuple("SweepGrid", "center half_span points")):
    """Uniform frequency grid for a transmission sweep."""

    __slots__ = ()

    def __new__(cls, center, half_span, points):
        _above_zero(center, half_span)
        if points < _SWEEP_POINTS or points % 2 == 0:
            raise ValueError(f"grid needs an odd point count of at least {_SWEEP_POINTS}")
        # a finer step repeats samples, and a zero step leaves only one
        if _step(half_span, points) < math.ulp(center + half_span):
            raise ValueError("grid step must not fall below the spacing of doubles")
        return super().__new__(cls, center, half_span, points)

    @property
    def omegas(self) -> np.ndarray:
        return _sample_rows([self.center], [self.half_span], self.points)[0]


def _above_zero(center: float, half_span: float, error: type = ValueError) -> None:
    """Refuse a grid whose centre is not positive or whose span reaches
    zero: as `error`, ValueError for a grid the caller built."""
    if center <= 0.0:
        raise error("grid center must be positive")
    if not 0.0 < half_span < center:
        raise error("half span must be positive and keep the grid above zero")


def _step(half_span: float, points: int) -> float:
    """Sample step of a grid of `points` samples over centre +- half_span."""
    return 2.0 * half_span / (points - 1)


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


# Where a sweep row's finiteness bound (see `_RoundTrip`) stays below this,
# no intermediate of Psi or its slope reaches the largest double, 1.8e308:
# each is at most a sum of four terms, none above the bound
_FINITE = 1e300


class _RoundTrip:
    """Psi and T of one medium in one cavity, with the cavity's constants
    bound once, and the path-averaged cubic that sizes the grids.

    `sweep_enhancement`, `trace`, `auto_grid`, `find_resonance`,
    `measure_fwhm` and `transmission` each bind one per call. Every Psi
    takes one response of the medium, at a float (`psi_and_slope`) with
    the slope and over an array (`psi_array`) without it, and runs the
    expression of the module docstring in the same order, so the two agree
    bitwise. The arrays a call builds belong to that call alone.
    `taylor` is the medium's `effective_taylor` (None where that refuses
    it), and `airy` its `airy_linewidth_cubic` (None where that has no
    root), which does not depend on the shift. `exact` holds the
    shift-independent coefficients of the exact cubic whose root is
    Psi = 0, from which `_row` centres a sweep row, and is None wherever no
    row can use them.

    `exact` is bound only for a Lorentzian centred at omega0 with a Taylor
    cubic, where `_shift_estimate`'s window, 0.35 of the free spectral range
    about omega0, stays above zero frequency, and where G^4 > 0, so that
    neither the bound nor ng0 divides by zero. With it goes the bound that
    keeps Psi and its slope finite within that window, so that
    `_shift_estimate` would never meet its refusal of a response too strong
    to scan. Within the window |x| <= X, so every intermediate of
    `psi_and_slope` and of the Lorentzian's `_response` (bx = 0 at base
    omega0) is a product of at most L, n_b, |n_b*dL|, A*G, X, w0 + X and
    G^2 + X^2 (twice), or such a product over G^2 or G^4 (G^2 + x^2 >= G^2),
    or a sum of up to four of those; so the product of all eight, each taken
    as at least 1, over min(G^2, 1)^2 bounds every term. `exact` is refused
    where the seven factors that do not depend on dL already reach
    `_FINITE`, and otherwise binds `_FINITE` over their product and n_b as
    `drive`: a row whose |dL| stays below it keeps the whole product below
    `_FINITE`.

    The response is the medium's unchecked `_response`, so each frequency
    evaluated here must already be above zero, and one guard bounds each:
    the public `transmission` and `measure_fwhm` check the frequencies
    their caller gives; `SweepGrid` and `_checked_grid` keep a scan's
    samples above zero, and a root between two of them stays inside that
    bracket; `_in_window` is tested before each Newton step of the shift
    estimate and each probe of the FWHM bracket, whose root stays between
    the resonance and a probe or two probes. The base is always omega0.

    A sweep's per-shift steps read only the floats bound here, no value
    type: L and omega0 for `RingCavity`'s length-for-shift conversions,
    and, where there is a cubic, `cubic` = n3*omega0 and `ng0` for
    `shift_root`, and `curvature` = 3*n3*omega0, with which
    ng0 + curvature*dw*dw is `TaylorCubic.local_ng(dw)` bit for bit.
    """

    __slots__ = (
        "response", "omega0", "length", "nb", "fill", "medium", "background",
        "background_index", "fsr", "gamma_ec", "k", "taylor", "airy", "cubic", "ng0", "curvature", "exact",
    )

    def __init__(self, profile: DispersionProfile, cavity: RingCavity):
        length, fill, nb = cavity.round_trip_length, cavity.fill_fraction, cavity.n0
        self.response = profile._response
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
        self.taylor = self.airy = self.exact = None
        try:
            self.taylor = t = effective_taylor(profile, cavity)
        except ComputationError:
            return
        # effective_taylor sets omega_ref to omega0, the bound of shift_root
        self.cubic, self.ng0, self.curvature = t.n3 * t.omega_ref, t.ng0, 3.0 * t.n3 * t.omega_ref
        w0, limit = self.omega0, 0.35 * self.fsr
        if isinstance(profile, LorentzianAbsorptive) and profile.center == w0 and limit < w0:
            # Psi = 0 times (G^2 + x^2)*c0/L, with x = omega - omega0 and
            # e = n_b*dL/L, is exactly the cubic
            #   (n_e + e)*x^3 + (e*w0 - f*A*G)*x^2 + G^2*(ng0 + e)*x + e*w0*G^2 = 0
            # with n_e = f + (1 - f)*n_b and ng0 = n_e - f*A*w0/G, the path's
            # group index at omega0; bound as (n_e, f*A*G, ng0, G^2), then
            # the largest |dL| a row may have and the floats `_row` reads
            nag, gg = profile._nag_gg
            top = max(gg + limit * limit, 1.0)
            bound = (
                max(length, 1.0) * max(nb, 1.0) * max(-nag, 1.0) * max(limit, 1.0) * max(w0 + limit, 1.0) * top * top
                / min(gg, 1.0) ** 2 if gg * gg > 0.0 else math.inf
            )
            if bound < _FINITE:
                ne = fill + self.background_index
                self.exact = (
                    ne, -fill * nag, ne + fill * nag * w0 / gg, gg, _FINITE / bound / nb, nb, length, w0, limit,
                )
        try:
            self.airy = airy_linewidth_cubic(self.gamma_ec, t)
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
        delta_lengths[j]: the steps of `psi_and_slope`'s expression, with
        n_b*dL a column of one entry per row, each done in place.

        The medium gives n and the change without the slope, as two fresh
        arrays; Psi is built in the change's, and n's holds the other
        products. omega is only read.
        """
        omega0 = self.omega0
        n_at, psi = self.response(omega, omega0, slope=False)
        delta = omega - omega0
        psi *= omega0
        n_at *= delta
        psi += n_at
        psi *= self.medium
        delta *= self.background
        psi += delta
        np.multiply(np.multiply(self.nb, delta_lengths)[:, None], omega, out=n_at)
        psi += n_at
        psi /= C0
        return psi

    def transmission(self, psi: np.ndarray) -> np.ndarray:
        """Airy transmission 1 / (1 + k sin^2(Psi/2)) of an array Psi, built
        in place in one fresh array; Psi is only read."""
        t = np.multiply(psi, 0.5)
        np.sin(t, out=t)
        np.square(t, out=t)
        t *= self.k
        t += 1.0
        return np.divide(1.0, t, out=t)


def transmission(profile: DispersionProfile, cavity: RingCavity, delta_length: float, omega):
    """Airy transmission 1 / (1 + (2F/pi)^2 sin^2(Psi/2)) over an array omega.

    The result has omega's shape. A float is taken as a 0-d array and gives
    a NumPy float.
    """
    rt = _RoundTrip(profile, cavity)
    omega = np.asarray(omega, dtype=float)
    _check_omega(omega, rt.omega0)
    return rt.transmission(rt.psi_array(omega.reshape(1, -1), [delta_length])).reshape(omega.shape)[()]


# Most samples one scan pass holds: 64 KiB per array, or 160 sweep rows of
# 51. A pass pays numpy's per-call cost, about 43 us, once for all of its
# rows, so a `perfbench` `sweep` op (17 to 65 shifts and a trace) takes two
# passes. A full pass peaks at about 5.3 such arrays, in the Lorentzian's
# evaluation: the samples and its four working arrays (337 KiB by
# tracemalloc for 160 rows).
_SCAN_SAMPLES = 8_192


def _scan(rt: _RoundTrip, rows, points: int) -> tuple:
    """(omega, Psi, T, near): one pass over grids of `points` samples.

    Each row (delta_length, centre, half_span) is a grid over centre +-
    half_span, one row of each array. Every element runs the expressions of
    `_RoundTrip.psi_array` and `_RoundTrip.transmission`, so a row equals
    the scan of its grid alone bit for bit; each of the three arrays is the
    pass's own, and Psi and T are built in place, never in omega. near
    holds, per row, what the locate step reads: the omega and the Psi
    samples before, at and after the peak (held inside the row), and the
    peak and count of `_peaks`.
    """
    lengths, centers, half_spans = zip(*rows)
    w = _sample_rows(centers, half_spans, points)
    psi = rt.psi_array(w, lengths)
    t = rt.transmission(psi)
    peaks, counts = _peaks(t)
    # flat indices of the samples before, at and after each row's peak
    at = peaks[:, None] + (-1, 0, 1)
    np.maximum(at, 0, out=at)
    np.minimum(at, points - 1, out=at)
    at += np.arange(0, w.size, points)[:, None]
    return w, psi, t, list(zip(w.take(at).tolist(), psi.take(at).tolist(), peaks.tolist(), counts.tolist()))


def _peaks(t) -> tuple[np.ndarray, np.ndarray]:
    """Each row's peak sample and its number of significant maxima, as two
    integer arrays.

    t is a (rows, points) array, three points or more. A row's peak is its
    np.argmax, its first largest sample. Its significant maxima are the
    interior samples above the one before, at least the one after, and at
    least half the row's maximum; a row holding NaN has a NaN maximum, which
    leaves it none.
    """
    peaks = t.argmax(axis=1)
    mid = t[:, 1:-1]
    significant = mid > t[:, :-2]
    significant &= mid >= t[:, 2:]
    significant &= mid >= 0.5 * t.max(axis=1, keepdims=True)
    return peaks, significant.sum(axis=1)


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

    It also stops after a Newton step to an offset nxt for which base + nxt
    is the double just evaluated, where the Newton test would pass again
    with this step as the step before last, and xtol is positive. The next
    pass would then evaluate the same Psi and slope, keep the bracket and
    take the same step to nxt again, a step of 0, below xtol: so the offset
    returned is the one that pass would return, bit for bit, one evaluation
    of Psi sooner (on the last pass allowed, the offset the loop would not
    reach before giving up).
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
        # slope fails this; read from the two signs, as `resonator._polish`
        # does, since their product can underflow) and at least halves the
        # step before last
        p, q = (at - neg) * slope - f, (at - pos) * slope - f
        if (p < 0.0 < q or q < 0.0 < p) and abs(2.0 * f) <= abs(step_old * slope):
            nxt = at - f / slope
            # the next pass would evaluate omega again, pass this test with
            # step as its step_old, and return nxt with a zero step
            if base + nxt == omega and abs(2.0 * f) <= abs(step * slope) and 0.0 < xtol:
                return nxt
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
    (near,) = _scan(rt, [(delta_length, grid.center, grid.half_span)], grid.points)[3]
    return _locate_resonance(rt, delta_length, grid.half_span, grid.points, near)


def _locate_resonance(rt: _RoundTrip, delta_length, half_span: float, points: int, near) -> float:
    """The locate step of `find_resonance` on a grid of `points` samples
    over centre +- half_span, given the grid's entry of `_scan`'s near.

    The scalar and array paths of Psi agree bitwise, and centre plus the
    exact difference of two neighbouring samples is the neighbour itself, so
    the scan's Psi serves as Psi at the peak sample and at both bracket ends.
    """
    (w_lo, center, w_hi), (psi_lo, psi_at, psi_hi), i, count = near
    if i == 0 or i == points - 1:
        raise ComputationError(
            "transmission maximum sits on the grid edge: resonance not bracketed"
        )
    if count != 1:
        raise ComputationError(
            f"expected exactly one significant transmission maximum, found {count}"
        )
    order = _nearest_mode(psi_at)
    lo, hi = w_lo - center, w_hi - center
    # the step of 2,001 points over this span, or this grid's step if finer
    xtol = min(_step(half_span, points), half_span / 1000.0) / 1e4
    u = _psi_root(rt, delta_length, center, order, lo, psi_lo, hi, psi_hi, xtol)
    if u is None:
        u = _psi_turn(rt, delta_length, center, lo, hi, xtol)
    return float(center + u)


def _width_estimate(rt: _RoundTrip, shift: float) -> float:
    """Predicted FWHM at a resonance shifted by `shift`: the smaller of the
    cubic's Airy width and gamma_ec over its local group index, of those
    that apply, or else gamma_ec."""
    candidates = [] if rt.airy is None else [rt.airy]
    if rt.taylor is not None:
        local_ng = rt.ng0 + rt.curvature * shift * shift
        if local_ng > 0.0:
            candidates.append(rt.gamma_ec / local_ng)
    return min(candidates) if candidates else rt.gamma_ec


def _in_window(omega: float, centre: float, limit: float) -> bool:
    """Whether the shift estimate or the FWHM bracket may evaluate Psi at
    omega, tested once before each of their evaluations: a finite frequency
    above zero, within `limit` of `centre` (omega0 or the resonance). Once
    the free spectral range exceeds about 2.9 omega0, the estimate's 0.35
    share of it reaches below zero, where the medium has no index; so can
    ten width estimates of a line that wide."""
    return 0.0 < omega < math.inf and abs(omega - centre) <= limit


def _shift_estimate(rt: _RoundTrip, delta_length: float) -> float:
    """Estimated displacement of the resonance caused by delta_length.

    A cubic-model seed polished by guarded Newton iteration on Psi = 0; the
    polish handles regimes the cubic misses (strong saturation, off-center
    profiles) and falls back to the seed when it fails to settle. Raises
    where Psi or its slope is not finite at the seed, whether it overflows
    or is NaN: the scan centred there would see no finite transmission.

    It centres every `auto_grid` grid, and the sweep rows that `_row`
    leaves to it: those of Taylor media, of lines off omega0, and of
    kernels or rows the exact centre's gate refuses.
    """
    omega0 = rt.omega0
    # the empty-cavity pull -w0*dL/L of RingCavity.shift_for_length
    seed = -omega0 * delta_length / rt.length
    if rt.taylor is not None:
        try:
            seed = shift_root(rt.cubic, rt.ng0, omega0, seed)
        except ComputationError:
            pass

    psi_and_slope = rt.psi_and_slope
    omega = omega0 + seed
    best = seed
    limit = 0.35 * rt.fsr
    if not _in_window(omega, omega0, limit):
        return best
    for i in range(60):
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
        if not _in_window(omega, omega0, limit):
            return best
        best = omega - omega0
        if abs(step) <= 1e-12 * abs(omega):
            break
    return best


# fewest points an `auto_grid` grid gets; `trace` returns its samples
_MIN_POINTS = 2001
# points of every sweep row, a tenth of a width apart over 2.5 estimated
# widths either side, and the fewest any grid gets; a sweep reports only the
# resonances, and a row's samples only bracket its peak
_SWEEP_POINTS = 51


def auto_grid(
    profile: DispersionProfile,
    cavity: RingCavity,
    delta_length: float,
) -> SweepGrid:
    """Grid sized to resolve the displaced resonance.

    Centered on the estimated resonance, spanning the larger of 2.5 predicted
    widths and 10% of the predicted shift, with resolution finer than a
    twentieth of the width and at least 2,001 points, so that `trace` shows
    the line finely. Sweep grids drop the 10% margin (see `_row`); these
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
    shift, width = _estimates(rt, delta_length, None)
    half_span = _in_one_fsr(rt, max(2.5 * width, 0.1 * abs(shift)))
    # an odd count, so that a sample sits on the centre
    points = max(_MIN_POINTS, int(math.ceil(2.0 * half_span / (width / 20.0))) + 1) | 1
    if points > 2_000_001:
        raise ComputationError("grid would need more than 2e6 points")
    return SweepGrid(*_checked_grid(rt.omega0 + shift, half_span, points), points)


def _row(rt: _RoundTrip, delta_length) -> tuple[float, float, float]:
    """The row `sweep_enhancement` scans for one shift, (delta_length,
    centre, half_span): a grid of 51 points over 2.5 predicted widths
    either side of the resonance offset, a step of a tenth of the width. It
    refuses as `auto_grid` does, and never needs its cap on the point count.

    The offset is the root of the exact cubic that `_RoundTrip` binds, with
    no evaluation of Psi, where the kernel has one and the row passes the
    two tests of its own drive: the cubic's leading coefficient n_e + e
    stays positive, and |dL| stays below the kernel's `drive`, which
    keeps Psi and its slope finite in the window. The row is left to
    `_shift_estimate`, too, where its cubic has three real roots, so that
    the offset s = c2/(3*c3) of `cubic_root`'s depressed form cannot pick
    another branch than the one through x = 0 (s is about -G^2/(3*w0) at
    CAD tuning, far below a spacing of doubles at omega0 on every shipped
    cavity), and where the root lies outside the estimate's window. Where
    the cubic has one real root, it is the only frequency at which Psi = 0.

    Either centre already sits on a root of the exact Psi, so a sweep grid
    needs no margin of 10% of the shift, and its peak is found at or beside
    the middle sample. The locate's tolerance is the 2,001-point step over
    1e4 at any count up to 2,001, so the count decides only the bracket the
    polish starts from, and 51 points are enough to bracket the peak. With
    one point count for every sweep grid, a scan pass is one rectangular
    array.
    """
    shift = None
    if rt.exact is not None:
        ne, fag, ng0, gg, drive, nb, length, w0, limit = rt.exact
        e = nb * delta_length / length
        if ne + e > 0.0 and -drive < delta_length < drive:
            x, multivalued = cubic_root(ne + e, e * w0 - fag, gg * (ng0 + e), e * w0 * gg)
            if not multivalued and abs(x) <= limit:
                shift = x
    shift, width = _estimates(rt, delta_length, shift)
    return (delta_length, *_checked_grid(rt.omega0 + shift, _in_one_fsr(rt, 2.5 * width), _SWEEP_POINTS))


def _estimates(rt: _RoundTrip, delta_length, shift) -> tuple[float, float]:
    """(shift, width): the resonance offset, `_shift_estimate`'s where
    `shift` is None, and the predicted FWHM there; raises when the length
    change leaves no positive round trip."""
    if rt.length + delta_length <= 0.0:
        raise ComputationError("the length change leaves no positive round trip")
    if shift is None:
        shift = _shift_estimate(rt, delta_length)
    return shift, _width_estimate(rt, shift)


def _in_one_fsr(rt: _RoundTrip, half_span: float) -> float:
    """half_span, refused where it exceeds 40% of the free spectral range."""
    if half_span > 0.4 * rt.fsr:
        raise ComputationError(
            "requested response does not fit inside a single free spectral range"
        )
    return half_span


def _checked_grid(center: float, half_span: float, points: int) -> tuple[float, float]:
    """(center, half_span) of a grid of `points` samples, refused where its
    step falls below the spacing of doubles, then where it reaches zero,
    both as a `ComputationError`: the estimates set this grid, not the
    caller."""
    # a finer step repeats samples, and the scan then sees many maxima
    step = _step(half_span, points)
    spacing = math.ulp(center + half_span)
    if step < spacing:
        raise ComputationError(
            "linewidth below the spacing of doubles at this frequency: "
            f"grid step {step:.3g} rad/s, spacing {spacing:.3g} rad/s"
        )
    _above_zero(center, half_span, ComputationError)
    return center, half_span


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
    width estimates, and above zero frequency, where the medium has no
    index), then solves Psi = 2*pi*m +- 2*asin(sqrt(s_half)) there, with the
    sign Psi takes at the bracket's outer end.
    """
    rt = _RoundTrip(profile, cavity)
    resonance = float(resonance)
    _check_omega(resonance, rt.omega0)
    return _measure_fwhm(rt, delta_length, resonance)


def _measure_fwhm(rt: _RoundTrip, delta_length: float, resonance: float) -> float:
    """`measure_fwhm` given the call's round trip, with its cubic."""
    k = rt.k
    estimate = _width_estimate(rt, resonance - rt.omega0)
    psi_and_slope = rt.psi_and_slope

    def psi_at(u: float) -> tuple[float, float]:
        # (the offset actually evaluated, Psi there), refused outside the
        # window; the subtraction is exact since omega and resonance are close
        omega = resonance + u
        if not _in_window(omega, resonance, 10.0 * estimate):
            raise ComputationError("half-maximum crossing not bracketed within ten width estimates")
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
    w, _, t, (near,) = _scan(rt, [(delta_length, grid.center, grid.half_span)], grid.points)
    resonance = _locate_resonance(rt, delta_length, grid.half_span, grid.points, near)
    fwhm = _measure_fwhm(rt, delta_length, resonance)
    return SpectrumTrace(omega=w[0], transmission=t[0], resonance=resonance, fwhm=fwhm)


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

    Works in two steps. It sizes a `_row` for each shift, (delta_length,
    centre, half_span) of a grid of 51 points over 2.5 predicted widths, a
    tenth of a width apart, centred on the exact cubic's root where the
    kernel binds that cubic and the row's own length change passes its
    gate, and on `_shift_estimate` elsewhere, up to the first row that is
    refused; then it scans those rows in passes of 160 consecutive ones and
    locates each resonance in order. A refusal of the first step propagates
    only after the second, so that a locate failure at an earlier shift is
    reported first. Per shift, both steps read only floats that the kernel
    binds once per call: no grid, cubic or cavity value type.

    Requires a profile tuned to zero group index at the cavity resonance and
    a shift list spanning at least four decades, none above the recovered
    half linewidth, whose smallest shift moves the cubic's resonance by at
    least 1,000 spacings of doubles at omega0. The kernel's cubic serves
    these checks and the grids alike; where it has none, `effective_taylor`
    is called once more only to raise its refusal. Each sample's analytic
    etas are `enhancement_eta`'s expressions, bit for bit, with G checked
    once.
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

    # the length change -dw_ec*L/w0 of RingCavity.length_for_shift
    lengths = [-dw * rt.length / rt.omega0 for dw in values]
    rows, resonances = [], []
    try:
        for dl in lengths:
            rows.append(_row(rt, dl))
    finally:
        # whatever a row raises propagates only once the rows before it
        # are located, so that a locate failure at an earlier shift is
        # reported first, as when each shift ran alone
        per_pass = _SCAN_SAMPLES // _SWEEP_POINTS
        for start in range(0, len(rows), per_pass):
            batch = rows[start:start + per_pass]
            for (dl, _, half_span), near in zip(batch, _scan(rt, batch, _SWEEP_POINTS)[3]):
                resonances.append(_locate_resonance(rt, dl, half_span, _SWEEP_POINTS, near))
    # each analytic column is enhancement_eta's expression, with G and 2G
    # checked once; tuple.__new__ skips the named tuple's Python __new__
    new, g2 = tuple.__new__, 2.0 * g
    return [
        new(EnhancementSample, (dw, (resonance - rt.omega0) / dw, (g / dw) ** (2.0 / 3.0), (g2 / dw) ** (2.0 / 3.0)))
        for dw, resonance in zip(values, resonances)
    ]
