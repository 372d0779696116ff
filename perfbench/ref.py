"""Independent references and output checks for the benchmark.

Nothing here imports fastlight. The cubic coefficients are derived from the
scenario values with the same arithmetic the program uses, so both sides
solve the same cubic; the roots are then found by plain interval bisection,
never by the program's closed form. The enhancement bands and the linewidth
reference are the acceptance criteria's (criteria 4 and 7), so a solver swap
inside those tolerances passes and anything outside them is flagged.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

C0 = 299_792_458.0
TWO_PI = 2.0 * math.pi

ROOT_RTOL = 1e-10  # analytic outputs against the bisection reference
ETA_TIGHT = 0.01  # eta_numeric vs (G/dw_ec)^(2/3) for dw_ec <= 1e-3 G
ETA_LOOSE = 0.05  # ... for 1e-3 G < dw_ec <= G/27
FWHM_RTOL = 0.10  # numeric FWHM vs gamma_ec/n_g(w0 + dw_dis)
FIG5_TOL = 0.05  # |target_deviation| of the back-derived medium


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


# --------------------------------------------------------------------------
# bisection
# --------------------------------------------------------------------------


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    if flo == 0.0:
        return lo
    if f(hi) == 0.0:
        return hi
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cubic_branch(a: float, b: float, d: float) -> tuple[float, bool]:
    """Root of a*x^3 + b*x = d continuous from (d = 0, x = 0), a >= 0.

    Returns (root, multivalued); multivalued means three real roots exist and
    the middle one, which passes through zero, was taken.
    """
    if d == 0.0:
        return 0.0, False
    if a == 0.0:
        return d / b, False
    if d < 0.0:
        root, multi = cubic_branch(a, b, -d)
        return -root, multi

    def f(x: float) -> float:
        return x * (a * x * x + b) - d

    if b < 0.0:
        turn = math.sqrt(-b / (3.0 * a))
        if f(-turn) > 0.0:
            return _bisect(f, -turn, turn), True
    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return _bisect(f, 0.0, hi), False


def positive_linewidth(a: float, b: float, gamma_ec: float) -> float:
    """Positive root of a*g^3 + b*g = gamma_ec for a >= 0 (unique there)."""
    if a == 0.0:
        return gamma_ec / b

    def f(g: float) -> float:
        return g * (a * g * g + b) - gamma_ec

    hi = 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    return _bisect(f, 0.0, hi)


# --------------------------------------------------------------------------
# the cavity and medium a scenario describes
# --------------------------------------------------------------------------


def read_scenario(path) -> dict:
    """key = value file into a dict of floats and strings (ranges stay text)."""
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, _, raw = body.partition("=")
        raw = raw.strip()
        try:
            values[key.strip()] = float(raw)
        except ValueError:
            values[key.strip()] = raw
    return values


class Model:
    """The depressed cubics and drive of one scenario, in the program's units."""

    def __init__(self, v: dict):
        if "frequency_hz" in v:
            self.w0 = 2.0 * math.pi * v["frequency_hz"]
        else:
            self.w0 = 2.0 * math.pi * C0 / v["vacuum_wavelength_m"]
        if "radius_m" in v:
            r = v["radius_m"]
            self.area, self.perimeter = math.pi * r ** 2, 2.0 * math.pi * r
        else:
            self.area, self.perimeter = v["area_m2"], v["perimeter_m"]
        self.n_bg = v.get("background_index", 1.0)
        fill = v.get("fill_fraction", 1.0)
        self.gamma_ec = None
        if "finesse" in v:
            fsr = 2.0 * math.pi * C0 / (self.n_bg * self.perimeter)
            self.gamma_ec = fsr / v["finesse"]

        kind = v.get("medium", "none")
        self.half_linewidth = None
        if kind in ("none", "constant"):
            n0, n1, n3 = v.get("medium_index", self.n_bg), 0.0, 0.0
        elif kind in ("linear", "taylor"):
            n0 = v.get("medium_index", 1.0)
            n1 = v.get("medium_n1_s_per_rad", 0.0)
            n3 = v.get("medium_n3_s3_per_rad3", 0.0)
        else:
            g = math.pi * v["medium_linewidth_fwhm_hz"]
            if kind == "lorentzian":
                strength = v["medium_strength"]
            else:
                target = v.get("medium_target_group_index", -(1.0 - fill) * self.n_bg / fill)
                strength = g * (1.0 - target) / self.w0
            n0, n1, n3 = 1.0, -strength / g, strength / g ** 3
        self.n0 = fill * n0 + (1.0 - fill) * self.n_bg
        self.a = fill * n3 * self.w0
        self.b = self.n0 + fill * n1 * self.w0
        if fill * n1 < 0.0 < fill * n3:
            self.half_linewidth = math.sqrt(-n1 / n3)

        self.dw_ec = None
        if "rotation_rate_rad_s" in v:
            rate = v["rotation_rate_rad_s"]
            self.dw_ec = (self.w0 / (C0 * self.n_bg)) * (2.0 * rate * self.area / self.perimeter)
        elif isinstance(v.get("delta_length_m"), float):
            self.dw_ec = -self.w0 * v["delta_length_m"] / self.perimeter
        elif isinstance(v.get("empty_cavity_shift_hz"), float):
            self.dw_ec = TWO_PI * v["empty_cavity_shift_hz"]

    @property
    def fold_drive(self) -> float:
        """Largest |dw_ec| with three real roots (b < 0 only)."""
        turn = math.sqrt(-self.b / (3.0 * self.a))
        return -2.0 * self.b * turn / 3.0

    def shift(self) -> tuple[float, bool]:
        return cubic_branch(self.a, self.b, self.dw_ec)

    def local_group_index(self, dw_dis: float) -> float:
        return self.b + 3.0 * self.a * dw_dis * dw_dis


# --------------------------------------------------------------------------
# reading what the program wrote
# --------------------------------------------------------------------------


def parse_stdout(text: str) -> dict[str, float]:
    """Tagged result lines of a report; raises on an untagged or non-finite one."""
    results = {}
    lines = text.splitlines()
    if not lines or not lines[0].startswith("command: "):
        raise CheckFailed("stdout does not start with a report header")
    body = False
    for line in lines:
        if line == "":
            body = True
            continue
        if not body or " = " not in line or line.startswith("  "):
            continue
        key, _, rest = line.partition(" = ")
        if not rest.endswith("]") or "  [" not in rest:
            raise CheckFailed(f"result line without a formula tag: {line!r}")
        value = float(rest.split()[0])
        if not math.isfinite(value):
            raise CheckFailed(f"non-finite result: {line!r}")
        results[key] = value
    if not results:
        raise CheckFailed("report has no result lines")
    return results


def _finite_row(row, where: str) -> list[float]:
    out = [float(x) for x in row]
    if not all(math.isfinite(x) for x in out):
        raise CheckFailed(f"non-finite value in {where}")
    return out


def read_files(command: str, out_dir: Path, fmt: str) -> tuple[dict, dict, int]:
    """(results, tables, bytes) from the files a --out run wrote."""
    results: dict[str, float] = {}
    tables: dict[str, list[list[float]]] = {}
    nbytes = 0
    if fmt == "json":
        path = out_dir / f"{command}.json"
        raw = path.read_text(encoding="utf-8")
        nbytes = len(raw)
        doc = json.loads(raw)
        for key, entry in doc["results"].items():
            if not entry.get("formula"):
                raise CheckFailed(f"{path.name}: {key} has no formula tag")
            results[key] = _finite_row([entry["value"]], path.name)[0]
        for name, table in doc["tables"].items():
            tables[name] = [_finite_row(r, path.name) for r in table["rows"]]
        return results, tables, nbytes
    for path in sorted(out_dir.iterdir()):
        nbytes += path.stat().st_size
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if path.name == f"{command}_results.csv":
            for key, value, _unit, formula in rows[1:]:
                if not formula:
                    raise CheckFailed(f"{path.name}: {key} has no formula tag")
                results[key] = _finite_row([value], path.name)[0]
        else:
            tables[path.stem] = [_finite_row(r, path.name) for r in rows[1:]]
    return results, tables, nbytes


# --------------------------------------------------------------------------
# checks
# --------------------------------------------------------------------------


def _close(name: str, got: float, want: float, rtol: float) -> None:
    if not abs(got - want) <= rtol * abs(want) + 1e-300:
        raise CheckFailed(f"{name} = {got!r}, reference {want!r} (rtol {rtol:g})")


def check_analytic(command: str, values: dict, results: dict) -> None:
    """dw_dis and gamma_dis of shift/linewidth against the bisection reference."""
    if command not in ("shift", "linewidth"):
        return
    m = Model(values)
    if command == "shift" or m.dw_ec != 0.0:
        dw_dis, _ = m.shift()
        _close("dw_dis", results["dw_dis"], dw_dis, ROOT_RTOL)
        local = m.local_group_index(dw_dis)
    if command == "shift":
        if local > 0.0:
            gamma = m.gamma_ec / local
        else:
            gamma = positive_linewidth(m.a, m.b, m.gamma_ec)
        _close("gamma_dis", results["gamma_dis"], gamma, ROOT_RTOL)
        return
    _close("gamma_dis", results["gamma_dis"], positive_linewidth(m.a, m.b, m.gamma_ec), ROOT_RTOL)
    if m.dw_ec != 0.0:
        _close("gamma_shifted", results["gamma_shifted"], m.gamma_ec / local, ROOT_RTOL)


def eta_deviations(half_linewidth: float, rows) -> tuple[float, float]:
    """Worst |eta_numeric/(G/dw_ec)^(2/3) - 1| in the tight and loose bands."""
    tight = loose = 0.0
    for dw, eta in rows:
        dev = abs(eta / (half_linewidth / dw) ** (2.0 / 3.0) - 1.0)
        if dw <= 1.001e-3 * half_linewidth:
            tight = max(tight, dev)
        elif dw <= 1.001 * half_linewidth / 27.0:
            loose = max(loose, dev)
    return tight, loose


def check_eta(half_linewidth: float, rows) -> None:
    tight, loose = eta_deviations(half_linewidth, rows)
    if tight > ETA_TIGHT or loose > ETA_LOOSE:
        raise CheckFailed(
            f"eta_numeric off the analytic law: {tight:.3%} (tol 1%) below 1e-3 G, "
            f"{loose:.3%} (tol 5%) up to G/27"
        )


def check_fwhm(fwhm: float, gamma_ec: float, a: float, b: float, dw_ec: float) -> None:
    """Numeric FWHM against gamma_ec over the local group index at the shift."""
    dw_dis, _ = cubic_branch(a, b, dw_ec)
    want = gamma_ec / (b + 3.0 * a * dw_dis * dw_dis)
    _close("fwhm", fwhm, want, FWHM_RTOL)


def check_cli(command: str, values: dict, stdout: str, out_dir: Path | None, fmt: str | None) -> int:
    """Full check of one CLI run; returns the bytes it produced."""
    results = parse_stdout(stdout)
    tables: dict = {}
    nbytes = len(stdout.encode("utf-8"))
    if out_dir is not None:
        results, tables, written = read_files(command, out_dir, fmt)
        nbytes += written
    check_analytic(command, values, results)
    if command == "fig4":
        g = math.pi * values["medium_linewidth_fwhm_hz"]
        rows = tables["fig4"] if tables else None
        if rows is None:
            raise CheckFailed("fig4 needs --out to read its table")
        check_eta(g, [(r[0], r[1]) for r in rows])
        worst = max(abs(r[1] / r[2] - 1.0) for r in rows)
        _close("max_rel_dev_derived", results["max_rel_dev_derived"], worst, 1e-9)
    if command == "fig5" and abs(results["target_deviation"]) > FIG5_TOL:
        raise CheckFailed(f"fig5 target_deviation {results['target_deviation']:.3%} (tol 5%)")
    return nbytes
