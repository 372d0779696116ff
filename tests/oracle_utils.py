"""Independent oracles shared by the test modules.

The library solves its depressed cubics with a bracketed Newton polish,
seeded from the roots of the cubic with one term dropped; the root finders
here are interval bisection only, so agreement is meaningful. The closed forms at the end are ones the
library never evaluates: relativistic velocity composition, whose first
order is the Fresnel drag, and the rotation rate of a length change, the
inverse of `resonator.rotation_to_length`. `psi_and_slope` is the
round-trip phase and its slope from three separate profile calls, with the
cavity read afresh at every evaluation, against which the bound kernel of
`spectrum` is checked. `rtsafe_psi_root` is no independent solver: it is
`spectrum._psi_root`'s loop without the stop at a repeated evaluation, the
reference that the stop changes no offset it returns.
"""

from __future__ import annotations

import math
import random

from fastlight.constants import C0
from fastlight.dispersion import TaylorCubic
from fastlight.errors import ComputationError
from fastlight.resonator import RingCavity


def bisect(f, lo: float, hi: float, rounds: int = 200) -> float:
    """Root of f in [lo, hi] by interval bisection; f must change sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise AssertionError("bisection bracket does not straddle a root")
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def bisect_cubic_branch(a: float, b: float, d: float) -> float:
    """Root of a*x^3 + b*x = d continuous from (d=0, x=0). Requires a > 0.

    For b < 0 the branch lives between the turning points until the fold
    swallows it, after which the single surviving real root is returned,
    matching a solver that tracks the physical response.
    """
    if a <= 0.0:
        raise ValueError("normalized to a > 0; flip signs first")
    if d == 0.0:
        return 0.0
    if d < 0.0:
        return -bisect_cubic_branch(a, b, -d)

    def f(x: float) -> float:
        return a * x * x * x + b * x - d

    if b >= 0.0:
        hi = 1.0
        while f(hi) < 0.0:
            hi *= 2.0
        return bisect(f, 0.0, hi)
    turn = math.sqrt(-b / (3.0 * a))
    if f(-turn) > 0.0:
        # three real roots; the continuous one sits between the extrema
        return bisect(f, -turn, turn)
    hi = 2.0 * turn + 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return bisect(f, turn, hi)


def bisect_positive_root(a: float, b: float, d: float) -> float:
    """The unique positive root of a*x^3 + b*x = d for a > 0, d > 0."""
    if a <= 0.0 or d <= 0.0:
        raise ValueError("needs a > 0 and d > 0")

    def f(x: float) -> float:
        return a * x * x * x + b * x - d

    lo = 0.0 if b >= 0.0 else math.sqrt(-b / (3.0 * a))
    hi = 2.0 * lo + 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return bisect(f, lo, hi)


def bisect_smaller_positive_root(a: float, b: float, d: float) -> float:
    """The smaller positive root of a*x^3 + b*x = d for a < 0 < b, d > 0.

    f(x) = a*x^3 + b*x - d is -d at 0 and rises to its maximum at the
    turning point sqrt(b/(3|a|)), which must reach zero.
    """
    if a >= 0.0 or b <= 0.0 or d <= 0.0:
        raise ValueError("needs a < 0 < b and d > 0")

    def f(x: float) -> float:
        return a * x * x * x + b * x - d

    return bisect(f, 0.0, math.sqrt(b / (3.0 * -a)))


def random_cubic_case(rng: random.Random) -> tuple[TaylorCubic, float]:
    """A random anomalous-dispersion cubic plus a driving shift.

    The driving term is synthesized from a target root location so every
    response regime (linear, cubic-dominated, near-fold, past-fold) appears.
    """
    w0 = 10.0 ** rng.uniform(14.0, 16.0)
    g = 10.0 ** rng.uniform(3.0, 9.0)
    strength = 10.0 ** rng.uniform(-12.0, -3.0)
    pick = rng.random()
    if pick < 0.4:
        ng = 0.0
    elif pick < 0.8:
        ng = rng.uniform(0.0, 50.0)
    else:
        ng = rng.uniform(-5.0, 0.0)
    t = TaylorCubic(1.0, (ng - 1.0) / w0, strength / g ** 3, w0)
    a = t.n3 * w0
    b = t.n0 + t.n1 * w0
    x = math.copysign(10.0 ** rng.uniform(-6.0, 1.0) * g, rng.random() - 0.5)
    d = a * x ** 3 + b * x
    return t, d


def psi_and_slope(profile, cavity: RingCavity, delta_length: float, omega) -> tuple[float, float]:
    """(Psi, dPsi/domega) at a scalar omega from `index`, `index_change` and
    `dindex_domega`, in the exact form of the `spectrum` docstring:

        Psi*c0 = fill*L*(dn*w0 + n*delta) + (1 - fill)*L*n_b*delta + n_b*dL*omega

    and the slope (L*(fill*n_g + (1 - fill)*n_b) + n_b*dL)/c0.
    """
    omega = float(omega)
    length, fill, nb = cavity.round_trip_length, cavity.fill_fraction, cavity.n0
    n_at = profile.index(omega)
    dn = profile.index_change(omega, cavity.omega0)
    delta = omega - cavity.omega0
    psi_c0 = (
        fill * length * (dn * cavity.omega0 + n_at * delta)
        + (1.0 - fill) * length * nb * delta
        + nb * delta_length * omega
    )
    ng_path = fill * (n_at + omega * profile.dindex_domega(omega)) + (1.0 - fill) * nb
    return psi_c0 / C0, (length * ng_path + nb * delta_length) / C0


def rtsafe_psi_root(rt, delta_length, base, target, lo, psi_lo, hi, psi_hi, xtol):
    """Offset u in [lo, hi] where Psi(base + u) = target, by the
    safeguarded Newton-bisection of `spectrum._psi_root` with every pass
    evaluating Psi, even at the double the pass before evaluated; None
    where Psi - target has one sign at both ends."""
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
    for _ in range(100):
        omega = base + u
        at = omega - base
        psi, slope = rt.psi_and_slope(delta_length, omega)
        f = psi - target
        if f == 0.0:
            return at
        if f < 0.0:
            neg = at
        else:
            pos = at
        p, q = (at - neg) * slope - f, (at - pos) * slope - f
        if (p < 0.0 < q or q < 0.0 < p) and abs(2.0 * f) <= abs(step_old * slope):
            nxt = at - f / slope
        else:
            nxt = neg + 0.5 * (pos - neg)
        step_old, step = step, nxt - u
        u = nxt
        if abs(step) < xtol or abs(pos - neg) <= floor:
            return u
    raise ComputationError("round-trip phase root did not converge")


def relativistic_compose(v_phase: float, v_boost: float) -> float:
    """Relativistic velocity composition (v_phase + v_boost)/(1 + v_phase*v_boost/c0^2)."""
    if abs(v_phase) > C0:
        raise ValueError("phase velocity magnitude cannot exceed c0")
    if abs(v_boost) >= C0:
        raise ValueError("boost speed must stay below c0")
    return (v_phase + v_boost) / (1.0 + v_phase * v_boost / (C0 * C0))


def length_to_rotation(cavity: RingCavity, delta_length: float) -> float:
    """Rotation rate whose per-direction length change is delta_length:
    Omega = -dL*n0*c0/(P*R) with R = 2A/P."""
    geom = cavity.geometry
    return -delta_length * cavity.n0 * C0 / (geom.perimeter * geom.effective_radius)
