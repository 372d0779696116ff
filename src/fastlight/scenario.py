"""Scenario files: flat key=value descriptions of a cavity experiment.

Grammar (one assignment per line):

    # comment                      full-line or trailing
    key = value                    whitespace around '=' is free
    empty_cavity_shift_hz = 1.0e-2:1.0e6:33:log    range: min:max:points:spacing

Unknown keys, duplicate keys, malformed or non-finite numbers (nan, inf),
and inconsistent combinations are reported with the offending line number.
A JSON document (either a flat object or {"inputs": {...}}, as emitted by
the CLI) is accepted through the same entry points, so a JSON result file
can be fed straight back in.

Exactly one of the three drive inputs must be present:
rotation_rate_rad_s, delta_length_m, empty_cavity_shift_hz.

Frequencies are given in Hz at this boundary and converted to angular units
internally; medium_linewidth_fwhm_hz is a full width at half maximum in Hz
(half width in angular units = pi times it).
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

from ._numpy import np
from .constants import C0
from .dispersion import DispersionProfile, LorentzianAbsorptive, TaylorCubic, cad_tune
from .errors import ScenarioError
from .resonator import ETA_CONVENTIONS, RingCavity
from .sagnac import LoopGeometry
from .sensitivity import NoiseBudget

INPUT_KEYS = ("rotation_rate_rad_s", "delta_length_m", "empty_cavity_shift_hz")
MEDIUM_KINDS = ("none", "constant", "linear", "lorentzian", "taylor", "cad")
OUTPUT_FORMATS = ("csv", "json")
# most points a range input may ask for
MAX_RANGE_POINTS = 10_000

_FLOAT_KEYS = {
    "radius_m",
    "area_m2",
    "perimeter_m",
    "fill_fraction",
    "frequency_hz",
    "vacuum_wavelength_m",
    "finesse",
    "background_index",
    "medium_index",
    "medium_n1_s_per_rad",
    "medium_n3_s3_per_rad3",
    "medium_strength",
    "medium_linewidth_fwhm_hz",
    "medium_target_group_index",
    "enhanced_shift_target_hz",
    "output_power_w",
    "measurement_time_s",
    "snr",
    "quantum_efficiency",
    "particle_mass_kg",
}
_STRING_KEYS = {"medium", "convention", "output_format", "output_dir"}
# string keys with a fixed set of values; the first value is the default
_CHOICES = {"medium": MEDIUM_KINDS, "convention": ETA_CONVENTIONS, "output_format": OUTPUT_FORMATS}
_RANGE_KEYS = set(INPUT_KEYS)
KNOWN_KEYS = _FLOAT_KEYS | _STRING_KEYS | _RANGE_KEYS

# keys consumed by each medium kind, used to reject stale leftovers
_MEDIUM_USES = {
    "none": set(),
    "constant": {"medium_index"},
    "linear": {"medium_index", "medium_n1_s_per_rad"},
    "lorentzian": {"medium_strength", "medium_linewidth_fwhm_hz"},
    "taylor": {"medium_index", "medium_n1_s_per_rad", "medium_n3_s3_per_rad3"},
    "cad": {"medium_linewidth_fwhm_hz", "medium_target_group_index"},
}
_ALL_MEDIUM_KEYS = set().union(*_MEDIUM_USES.values())


class ValueRange(namedtuple("ValueRange", "lo hi points spacing")):
    """Swept input: min:max:points:log|lin."""

    __slots__ = ()

    def values(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


def _parse_range(raw: str, where: str) -> ValueRange:
    parts = raw.split(":")
    if len(parts) != 4:
        raise ScenarioError(f"{where}: range must be min:max:points:log|lin, got {raw!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError as exc:
        raise ScenarioError(f"{where}: malformed range {raw!r} ({exc})") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ScenarioError(f"{where}: range endpoints must be finite, got {raw!r}")
    spacing = parts[3].strip().lower()
    if spacing not in ("log", "lin"):
        raise ScenarioError(f"{where}: range spacing must be log or lin, got {parts[3]!r}")
    if points < 2:
        raise ScenarioError(f"{where}: range needs at least 2 points")
    if points > MAX_RANGE_POINTS:
        raise ScenarioError(
            f"{where}: range allows at most {MAX_RANGE_POINTS} points, got {points}"
        )
    if not lo < hi:
        raise ScenarioError(f"{where}: range min must be below max")
    if spacing == "log" and lo <= 0.0:
        raise ScenarioError(f"{where}: log range needs positive endpoints")
    return ValueRange(lo, hi, points, spacing)


def _parse_value(key: str, raw: str, where: str):
    if key in _STRING_KEYS:
        return raw.strip()
    if key in _RANGE_KEYS and ":" in raw:
        return _parse_range(raw, where)
    try:
        value = float(raw)
    except ValueError:
        raise ScenarioError(f"{where}: value for {key} is not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"{where}: value for {key} must be finite, got {raw!r}")
    return value


class Scenario:
    """Validated scenario: raw text per key plus parsed values and builders."""

    def __init__(self, entries: list[tuple[str, str, str]], source: str):
        # entries: (key, raw value, location label)
        self.source = source
        self.raw: dict[str, str] = {}
        self.values: dict[str, object] = {}
        for key, raw, where in entries:
            if key not in KNOWN_KEYS:
                raise ScenarioError(f"{where}: unknown key {key!r}")
            if key in self.raw:
                raise ScenarioError(f"{where}: duplicate key {key!r}")
            self.raw[key] = raw
            self.values[key] = _parse_value(key, raw, where)
        self._validate()

    # -- validation --------------------------------------------------------

    def _validate(self):
        v = self.values
        inputs = [k for k in INPUT_KEYS if k in v]
        if len(inputs) != 1:
            raise ScenarioError(
                f"{self.source}: exactly one of {', '.join(INPUT_KEYS)} must be set "
                f"(found {len(inputs)})"
            )
        has_freq = "frequency_hz" in v
        has_wl = "vacuum_wavelength_m" in v
        if has_freq == has_wl:
            raise ScenarioError(
                f"{self.source}: exactly one of frequency_hz, vacuum_wavelength_m must be set"
            )
        if "radius_m" not in v and not ("area_m2" in v and "perimeter_m" in v):
            raise ScenarioError(
                f"{self.source}: geometry needs radius_m, or both area_m2 and perimeter_m"
            )
        for key, allowed in _CHOICES.items():
            if self._choice(key) not in allowed:
                raise ScenarioError(
                    f"{self.source}: {key} must be one of {', '.join(allowed)}, got {v[key]!r}"
                )
        medium = self._choice("medium")
        used = _MEDIUM_USES[medium]
        for key in sorted(_ALL_MEDIUM_KEYS & set(v)):
            if key not in used:
                raise ScenarioError(
                    f"{self.source}: key {key!r} is not used by medium {medium!r}"
                )
        if ("output_power_w" in v) != ("measurement_time_s" in v):
            raise ScenarioError(
                f"{self.source}: output_power_w and measurement_time_s must be given together"
            )

    # -- scalar accessors ---------------------------------------------------

    def _float(self, key: str, default: float | None = None) -> float | None:
        val = self.values.get(key, default)
        if val is None or isinstance(val, (int, float)):
            return val
        raise ScenarioError(f"{self.source}: {key} must be a single number, not a range")

    def require(self, key: str) -> float:
        val = self._float(key)
        if val is None:
            raise ScenarioError(f"{self.source}: missing required key {key!r}")
        return val

    def _choice(self, key: str) -> str:
        return str(self.values.get(key, _CHOICES[key][0]))

    @property
    def convention(self) -> str:
        return self._choice("convention")

    @property
    def output_format(self) -> str:
        return self._choice("output_format")

    @property
    def output_dir(self) -> str | None:
        val = self.values.get("output_dir")
        return str(val) if val is not None else None

    @property
    def fill_fraction(self) -> float:
        return self._float("fill_fraction", 1.0)

    @property
    def background_index(self) -> float:
        return self._float("background_index", 1.0)

    def omega0(self) -> float:
        if "frequency_hz" in self.values:
            omega = 2.0 * math.pi * self.require("frequency_hz")
        else:
            wavelength = self.require("vacuum_wavelength_m")
            if wavelength <= 0.0:
                raise ScenarioError(f"{self.source}: vacuum_wavelength_m must be positive")
            omega = 2.0 * math.pi * C0 / wavelength
        if not 0.0 < omega < math.inf:
            raise ScenarioError(
                f"{self.source}: the optical frequency must be positive and finite, got {omega!r} rad/s"
            )
        return omega

    def medium_half_linewidth(self) -> float:
        """Half linewidth in angular units from the FWHM-in-Hz key."""
        return math.pi * self.require("medium_linewidth_fwhm_hz")

    # -- drive input ---------------------------------------------------------

    def input_kind(self) -> str:
        for key in INPUT_KEYS:
            if key in self.values:
                return key
        raise ScenarioError(f"{self.source}: no drive input set")  # unreachable

    def input_scalar(self) -> tuple[str, float]:
        kind = self.input_kind()
        val = self.values[kind]
        if isinstance(val, ValueRange):
            raise ScenarioError(f"{self.source}: {kind} must be a single value here, not a range")
        return kind, float(val)

    def input_values(self) -> tuple[str, np.ndarray]:
        kind = self.input_kind()
        val = self.values[kind]
        if isinstance(val, ValueRange):
            return kind, val.values()
        return kind, np.asarray([float(val)])

    # -- builders ------------------------------------------------------------

    def geometry(self) -> LoopGeometry:
        radius = self._float("radius_m")
        try:
            if radius is not None:
                area = self._float("area_m2")
                perimeter = self._float("perimeter_m")
                if area is None and perimeter is None:
                    return LoopGeometry.circular(radius)
                return LoopGeometry(
                    area=area if area is not None else math.pi * radius * radius,
                    perimeter=perimeter if perimeter is not None else 2.0 * math.pi * radius,
                    radius=radius,
                )
            return LoopGeometry(area=self.require("area_m2"), perimeter=self.require("perimeter_m"))
        except ValueError as exc:
            raise ScenarioError(f"{self.source}: {exc}") from None

    def cavity(self) -> RingCavity:
        try:
            return RingCavity(
                geometry=self.geometry(),
                finesse=self.require("finesse"),
                omega0=self.omega0(),
                n0=self.background_index,
                fill_fraction=self.fill_fraction,
            )
        except ValueError as exc:
            raise ScenarioError(f"{self.source}: {exc}") from None

    def profile(self) -> DispersionProfile | None:
        """Medium profile, or None when medium = none."""
        kind = self._choice("medium")
        w0 = self.omega0()
        try:
            if kind == "none":
                return None
            if kind == "lorentzian":
                return LorentzianAbsorptive(
                    strength=self.require("medium_strength"),
                    half_linewidth=self.medium_half_linewidth(),
                    center=w0,
                )
            if kind in ("constant", "linear", "taylor"):
                # constant and linear media are cubics; each still requires
                # the key that defines it, and _validate rejects the others
                if kind == "constant":
                    self.require("medium_index")
                elif kind == "linear":
                    self.require("medium_n1_s_per_rad")
                return TaylorCubic(
                    n0=self._float("medium_index", 1.0),
                    n1=self._float("medium_n1_s_per_rad", 0.0),
                    n3=self._float("medium_n3_s3_per_rad3", 0.0),
                    omega_ref=w0,
                )
            # cad: tune the medium so the path-averaged group index hits the
            # target (default zero); a partial fill therefore pushes the
            # medium's own target to -(1 - fill) * n0 / fill.
            fill = self.fill_fraction
            target = self._float("medium_target_group_index")
            if target is None:
                if not 0.0 < fill <= 1.0:
                    # RingCavity's refusal, for `sagnac`, which builds none
                    raise ValueError("fill fraction must lie in (0, 1]")
                target = -(1.0 - fill) * self.background_index / fill
            return cad_tune(
                half_linewidth=self.medium_half_linewidth(),
                center=w0,
                group_index_target=target,
            )
        except ValueError as exc:
            raise ScenarioError(f"{self.source}: {exc}") from None

    def budget(self) -> NoiseBudget | None:
        if not any(k in self.values for k in ("output_power_w", "measurement_time_s", "snr")):
            return None
        try:
            return NoiseBudget(
                output_power=self._float("output_power_w"),
                measurement_time=self._float("measurement_time_s"),
                snr=self._float("snr"),
                quantum_efficiency=self._float("quantum_efficiency", 1.0),
            )
        except ValueError as exc:
            raise ScenarioError(f"{self.source}: {exc}") from None

    def echo(self) -> dict[str, str]:
        """Raw inputs in file order, for result headers and JSON round trips."""
        return dict(self.raw)


def parse_scenario_text(text: str, source: str = "<scenario>") -> Scenario:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _from_json_text(text, source)
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ScenarioError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not key or not raw:
            raise ScenarioError(f"{source}:{lineno}: expected key = value, got {line.strip()!r}")
        entries.append((key, raw, f"{source}:{lineno}"))
    return Scenario(entries, source)


def _from_json_text(text: str, source: str) -> Scenario:
    try:
        # objects come back as tuples of (key, value) pairs, repeats kept, so
        # the duplicate-key check in Scenario sees every key
        doc = json.loads(text, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: invalid JSON ({exc})") from None
    if not isinstance(doc, tuple):
        raise ScenarioError(f"{source}: JSON scenario must be an object")
    nested = [val for key, val in doc if key == "inputs"]
    if len(nested) > 1:
        raise ScenarioError(f"{source}: duplicate key 'inputs'")
    inputs = nested[0] if nested else doc
    if not isinstance(inputs, tuple):
        raise ScenarioError(f"{source}: 'inputs' must be an object")
    entries = []
    for key, val in inputs:
        if isinstance(val, bool) or not isinstance(val, (int, float, str)):
            raise ScenarioError(f"{source}: value for {key!r} must be a number or string")
        entries.append((str(key), str(val), f"{source}:{key}"))
    return Scenario(entries, source)


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    return parse_scenario_text(text, source=str(p))
