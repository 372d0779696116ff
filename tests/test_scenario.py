"""Scenario parsing: grammar, validation rules, builders, JSON round trip."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from fastlight.constants import C0
from fastlight.dispersion import LorentzianAbsorptive, TaylorCubic
from fastlight.errors import ScenarioError
from fastlight.scenario import ValueRange, load_scenario, parse_scenario_text

BASE = """
radius_m = 1.0
finesse = 1.0e3
frequency_hz = 5.0e14
rotation_rate_rad_s = 7.2921159e-5
"""


def parse(text: str):
    return parse_scenario_text(text, source="inline")


def test_minimal_scenario_defaults():
    s = parse(BASE)
    assert s.convention == "derived"
    assert s.output_format == "csv"
    assert s.fill_fraction == 1.0
    assert s.background_index == 1.0
    assert s.omega0() == pytest.approx(2.0 * math.pi * 5.0e14, rel=1e-15)
    assert s.input_kind() == "rotation_rate_rad_s"
    kind, value = s.input_scalar()
    assert kind == "rotation_rate_rad_s"
    assert value == 7.2921159e-5
    assert s.profile() is None
    assert s.budget() is None


def test_comments_and_blank_lines():
    s = parse(
        """
        # loop first
        radius_m = 2.0   # inline note
        finesse = 1.0e3

        vacuum_wavelength_m = 1.55e-6
        delta_length_m = 1.0e-15
        """
    )
    assert s.geometry().perimeter == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert s.omega0() == pytest.approx(2.0 * math.pi * C0 / 1.55e-6, rel=1e-12)


def test_unknown_key_reports_line_number():
    text = "radius_m = 1.0\nfinesse = 1e3\nbogus_key = 2.0\nfrequency_hz = 5e14\n"
    with pytest.raises(ScenarioError, match=r"inline:3: unknown key 'bogus_key'"):
        parse(text)


def test_duplicate_key_reports_line_number():
    text = "radius_m = 1.0\nradius_m = 2.0\n"
    with pytest.raises(ScenarioError, match=r"inline:2: duplicate key"):
        parse(text)


def test_malformed_line_reports_line_number():
    with pytest.raises(ScenarioError, match=r"inline:2: expected key = value"):
        parse("radius_m = 1.0\nthis is not a setting\n")


def test_non_numeric_value():
    with pytest.raises(ScenarioError, match="not a number"):
        parse(BASE.replace("1.0e3", "abc"))


def test_exactly_one_drive_input():
    with pytest.raises(ScenarioError, match="exactly one of"):
        parse(BASE + "delta_length_m = 1e-15\n")
    with pytest.raises(ScenarioError, match="exactly one of"):
        parse("radius_m = 1.0\nfinesse = 1e3\nfrequency_hz = 5e14\n")


def test_frequency_wavelength_exclusive():
    with pytest.raises(ScenarioError, match="frequency_hz, vacuum_wavelength_m"):
        parse(BASE + "vacuum_wavelength_m = 1.55e-6\n")


def test_geometry_requirements():
    with pytest.raises(ScenarioError, match="geometry needs"):
        parse("finesse = 1e3\nfrequency_hz = 5e14\nrotation_rate_rad_s = 1e-5\narea_m2 = 1.0\n")
    s = parse(
        "area_m2 = 1.0\nperimeter_m = 4.0\nfinesse = 1e3\n"
        "frequency_hz = 5e14\nrotation_rate_rad_s = 1e-5\n"
    )
    geom = s.geometry()
    assert geom.area == 1.0 and geom.perimeter == 4.0
    with pytest.raises(ScenarioError):
        parse(
            "radius_m = 1.0\narea_m2 = 99.0\nperimeter_m = 4.0\nfinesse = 1e3\n"
            "frequency_hz = 5e14\nrotation_rate_rad_s = 1e-5\n"
        ).geometry()


def test_range_parsing_and_values():
    r = ValueRange(lo=1.0, hi=1000.0, points=4, spacing="log")
    assert np.allclose(r.values(), [1.0, 10.0, 100.0, 1000.0], rtol=1e-12)
    lin = ValueRange(lo=0.0, hi=3.0, points=4, spacing="lin")
    assert np.allclose(lin.values(), [0.0, 1.0, 2.0, 3.0], rtol=0, atol=1e-12)


def test_range_syntax_in_scenario():
    s = parse(BASE.replace("rotation_rate_rad_s = 7.2921159e-5",
                           "empty_cavity_shift_hz = 1.0e-2:1.0e6:33:log"))
    kind, values = s.input_values()
    assert kind == "empty_cavity_shift_hz"
    assert len(values) == 33
    assert values[0] == pytest.approx(1e-2, rel=1e-12)
    assert values[-1] == pytest.approx(1e6, rel=1e-12)
    with pytest.raises(ScenarioError, match="single value"):
        s.input_scalar()


def test_range_error_messages():
    with pytest.raises(ScenarioError, match="min:max:points"):
        parse(BASE.replace("7.2921159e-5", "1:2"))
    with pytest.raises(ScenarioError, match="log or lin"):
        parse(BASE.replace("7.2921159e-5", "1:2:5:cubic"))
    with pytest.raises(ScenarioError, match="at least 2 points"):
        parse(BASE.replace("7.2921159e-5", "1:2:1:log"))
    with pytest.raises(ScenarioError, match="below max"):
        parse(BASE.replace("7.2921159e-5", "2:1:5:log"))
    with pytest.raises(ScenarioError, match="positive endpoints"):
        parse(BASE.replace("7.2921159e-5", "-1:2:5:log"))
    # the cap is checked at parse time; neither range is allocated here
    with pytest.raises(ScenarioError, match=r"inline:5: range allows at most 10000 points, got 10001"):
        parse(BASE.replace("7.2921159e-5", "1:2:10001:log"))
    assert parse(BASE.replace("7.2921159e-5", "1:2:10000:log")).values["rotation_rate_rad_s"].points == 10000


def test_medium_builders():
    s = parse(BASE + "medium = constant\nmedium_index = 1.5\nbackground_index = 1.5\n")
    assert isinstance(s.profile(), TaylorCubic)

    s = parse(BASE + "medium = linear\nmedium_index = 1.0\nmedium_n1_s_per_rad = 1e-16\n")
    p = s.profile()
    assert isinstance(p, TaylorCubic)
    assert p.n1 == 1e-16

    s = parse(BASE + "medium = lorentzian\nmedium_strength = 2e-9\nmedium_linewidth_fwhm_hz = 2e6\n")
    p = s.profile()
    assert isinstance(p, LorentzianAbsorptive)
    # half width in rad/s: pi * FWHM_Hz
    assert p.half_linewidth == pytest.approx(math.pi * 2e6, rel=1e-15)

    s = parse(BASE + "medium = taylor\nmedium_n1_s_per_rad = -3.2e-16\nmedium_n3_s3_per_rad3 = 8e-30\n")
    assert isinstance(s.profile(), TaylorCubic)

    s = parse(BASE + "medium = cad\nmedium_linewidth_fwhm_hz = 2e6\n")
    p = s.profile()
    assert isinstance(p, LorentzianAbsorptive)
    assert p.strength == pytest.approx(math.pi * 2e6 / s.omega0(), rel=1e-12)


@pytest.mark.parametrize("medium,key", [("constant", "medium_index"), ("linear", "medium_n1_s_per_rad")])
def test_cubic_media_require_their_defining_key(medium, key):
    s = parse(BASE + f"medium = {medium}\n")
    with pytest.raises(ScenarioError, match=f"missing required key '{key}'"):
        s.profile()


def test_cad_medium_partial_fill_targets_path_average():
    s = parse(BASE + "medium = cad\nmedium_linewidth_fwhm_hz = 2e6\nfill_fraction = 0.5\n")
    from fastlight.dispersion import group_index

    ng_center = float(group_index(s.profile(), s.omega0()))
    # medium shoots below zero so the half-filled loop averages to zero
    assert ng_center == pytest.approx(-1.0, abs=1e-9)


def test_inapplicable_medium_key_rejected():
    with pytest.raises(ScenarioError, match="not used by medium"):
        parse(BASE + "medium = constant\nmedium_index = 1.5\nmedium_strength = 1e-9\n")
    with pytest.raises(ScenarioError, match="not used by medium"):
        parse(BASE + "medium_target_group_index = 0.5\n")  # medium defaults to none


def test_convention_and_format_validation():
    with pytest.raises(ScenarioError, match="convention must be"):
        parse(BASE + "convention = fancy\n")
    with pytest.raises(ScenarioError, match="output_format must be"):
        parse(BASE + "output_format = xml\n")


def test_budget_requires_power_and_time_together():
    with pytest.raises(ScenarioError, match="together"):
        parse(BASE + "output_power_w = 1e-3\n")
    s = parse(BASE + "output_power_w = 1e-3\nmeasurement_time_s = 1.0\n")
    budget = s.budget()
    assert budget is not None and budget.has_photon_budget
    s = parse(BASE + "snr = 1e4\n")
    assert s.budget().snr_for(s.omega0()) == 1e4


def test_cavity_builder():
    s = parse(BASE)
    cav = s.cavity()
    assert cav.finesse == 1e3
    assert cav.omega0 == pytest.approx(2.0 * math.pi * 5e14, rel=1e-15)
    assert cav.n0 == 1.0
    assert cav.fill_fraction == 1.0


def test_json_scenario_round_trip(tmp_path):
    s1 = parse(BASE + "medium = cad\nmedium_linewidth_fwhm_hz = 2e6\n")
    blob = {"inputs": dict(s1.raw)}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(blob))
    s2 = load_scenario(path)
    assert s2.raw == s1.raw
    assert s2.omega0() == s1.omega0()
    assert s2.profile() == s1.profile()


def test_json_flat_object_accepted(tmp_path):
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({
        "radius_m": 1.0,
        "finesse": 1000.0,
        "frequency_hz": 5.0e14,
        "rotation_rate_rad_s": 7.2921159e-5,
    }))
    s = load_scenario(path)
    assert s.input_kind() == "rotation_rate_rad_s"


def test_json_errors():
    with pytest.raises(ScenarioError, match="invalid JSON"):
        parse_scenario_text("{not json", source="x")
    with pytest.raises(ScenarioError, match="'inputs' must be an object"):
        parse_scenario_text('{"inputs": [1, 2]}', source="x")
    # json.loads alone would keep the last value of a repeated key
    doc = '{"radius_m": 1, "finesse": 1000, "frequency_hz": 5e14, "rotation_rate_rad_s": 1e-4, "radius_m": 2}'
    with pytest.raises(ScenarioError, match="x:radius_m: duplicate key 'radius_m'"):
        parse_scenario_text(doc, source="x")
    with pytest.raises(ScenarioError, match="x: duplicate key 'inputs'"):
        parse_scenario_text(f'{{"inputs": {doc}, "inputs": {{}}}}', source="x")


def test_load_missing_file():
    with pytest.raises(ScenarioError, match="cannot read scenario"):
        load_scenario("/nonexistent/path.scenario")


def test_load_undecodable_file(tmp_path):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b"\xffradius_m = 1.0\n")
    with pytest.raises(ScenarioError, match="cannot read scenario .*can't decode byte 0xff"):
        load_scenario(path)


def test_shipped_scenarios_parse():
    for name in (
        "scenarios/tabletop_rlg.scenario",
        "scenarios/cad_sweep.scenario",
        "scenarios/enhancement_demo.scenario",
        "scenarios/slowlight_interferometer.scenario",
    ):
        s = load_scenario(name)
        s.geometry()
        # the open interferometer scenario has no cavity block
        if "finesse" in s.values:
            s.cavity()


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_value_reports_line_number(raw):
    with pytest.raises(ScenarioError, match=r"inline:5: value for rotation_rate_rad_s must be finite"):
        parse(BASE.replace("7.2921159e-5", raw))
    with pytest.raises(ScenarioError, match=r"inline:2: value for radius_m must be finite"):
        parse(BASE.replace("radius_m = 1.0", f"radius_m = {raw}"))


@pytest.mark.parametrize("text", ["nan:2:5:lin", "1:inf:5:log", "-inf:1:5:lin"])
def test_non_finite_range_endpoint_reports_line_number(text):
    with pytest.raises(ScenarioError, match=r"inline:5: range endpoints must be finite"):
        parse(BASE.replace("7.2921159e-5", text))


def test_non_finite_json_value_rejected():
    # json.loads reads NaN, Infinity and overflowing literals as floats
    for literal in ("NaN", "Infinity", "1e400"):
        text = '{"inputs": {"radius_m": 1.0, "finesse": 1e3, "frequency_hz": 5e14, "rotation_rate_rad_s": %s}}' % literal
        with pytest.raises(ScenarioError, match="x:rotation_rate_rad_s: value for rotation_rate_rad_s must be finite"):
            parse_scenario_text(text, source="x")
