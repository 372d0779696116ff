"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main so exit codes and stream
separation are observed exactly as a shell would see them.
"""

import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fastlight.cli import COMMANDS, main

TABLETOP = "scenarios/tabletop_rlg.scenario"
SWEEP = "scenarios/cad_sweep.scenario"
DEMO = "scenarios/enhancement_demo.scenario"
OPEN_LOOP = "scenarios/slowlight_interferometer.scenario"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def edited(tmp_path, scenario: str, old: str, new: str) -> str:
    """Path of a copy of a shipped scenario with one line replaced."""
    text = Path(scenario).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "edited.scenario"
    path.write_text(text.replace(old, new), encoding="utf-8")
    return str(path)


def result_value(out_dir, command: str, key: str) -> float:
    doc = json.loads((out_dir / f"{command}.json").read_text())
    return doc["results"][key]["value"]


def test_split_runs_clean(capsys):
    code, out, err = run(capsys, "split", "--scenario", TABLETOP)
    assert code == 0
    assert err == ""
    assert "command: split" in out
    assert f"scenario: {TABLETOP}" in out
    assert any(line.startswith("splitting = ") for line in out.splitlines())
    assert any(line.startswith("enhancement = ") for line in out.splitlines())


@pytest.mark.parametrize(
    "argv",
    [
        ("sagnac", "--scenario", OPEN_LOOP),
        ("split", "--scenario", TABLETOP),
        ("shift", "--scenario", TABLETOP),
        ("linewidth", "--scenario", TABLETOP),
        ("spectrum", "--scenario", TABLETOP),
        ("fig4", "--scenario", SWEEP),
        ("fig5", "--scenario", DEMO),
        ("sensitivity", "--scenario", TABLETOP),
        ("lens-thirring", "--scenario", TABLETOP),
    ],
    ids=lambda argv: argv[0],
)
def test_every_numeric_line_is_tagged(capsys, argv):
    # contract: result lines use " = " and end with a bracketed formula tag;
    # echo and status lines use ":" and carry no tag
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    for line in out.splitlines():
        if " = " in line:
            assert "[" in line and line.rstrip().endswith("]"), line
        if line.startswith("  "):
            assert ":" in line, line


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.scenario"
    path.write_text("radius_m = 1.0\nfinesse = 1e3\nfrequency_hz = 5e14\nbogus = 1\n")
    code, out, err = run(capsys, "split", "--scenario", str(path))
    assert code == 2
    assert err.startswith("scenario error:")
    assert "bogus" in err
    assert out == ""


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "split", "--scenario", "/nonexistent.scenario")
    assert code == 2
    assert "cannot read scenario" in err


def test_undecodable_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.scenario"
    path.write_bytes(b"\xff" + Path(TABLETOP).read_bytes())
    code, out, err = run(capsys, "split", "--scenario", str(path))
    assert code == 2
    assert err.startswith(f"scenario error: cannot read scenario {path}:")
    assert err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize(
    "out_rel,blocker",
    [
        ("taken", "taken"),  # --out is an existing file
        ("taken/res", "taken"),  # --out lies below a file
        ("res", "res/split_results.csv/"),  # the results file is a directory
    ],
    ids=["out-is-file", "out-below-file", "result-is-dir"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, out_rel, blocker):
    if blocker.endswith("/"):
        (tmp_path / blocker).mkdir(parents=True)
    else:
        (tmp_path / blocker).write_text("not a directory\n")
    code, out, err = run(capsys, "split", "--scenario", TABLETOP, "--out", str(tmp_path / out_rel))
    assert code == 2
    assert err.startswith(f"scenario error: cannot write output to {tmp_path / out_rel}:")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""


def _tree(root: Path) -> dict:
    """Every entry below root with its bytes (None for a directory) and mtime."""
    return {
        p.relative_to(root): (None if p.is_dir() else p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(root.rglob("*"))
    }


@pytest.mark.parametrize(
    "blocker,earlier",
    [
        ("spectrum.csv", False),  # the second file's target is a directory
        (".spectrum.csv.tmp", True),  # its temporary name is, after the first write
    ],
    ids=["target-is-dir", "temporary-is-dir"],
)
def test_failed_write_leaves_the_output_directory_unchanged(tmp_path, capsys, blocker, earlier):
    # spectrum writes spectrum_results.csv before spectrum.csv; a run that
    # cannot write the second must not leave the first behind
    out = tmp_path / "o"
    (out / blocker).mkdir(parents=True)
    if earlier:
        (out / "spectrum_results.csv").write_text("an earlier run\n")
    before = _tree(out)
    code, stdout, err = run(capsys, "spectrum", "--scenario", TABLETOP, "--out", str(out))
    assert code == 2
    assert err.startswith(f"scenario error: cannot write output to {out}:")
    assert stdout == ""
    assert _tree(out) == before


def test_wrong_input_kind_exits_2(capsys):
    # split needs a rotation rate; the sweep scenario drives a shift range
    code, out, err = run(capsys, "split", "--scenario", SWEEP)
    assert code == 2
    assert err.startswith("scenario error:")


@pytest.mark.parametrize(
    "scenario,old,new,command",
    [
        (TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = nan", "shift"),
        (TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = nan", "spectrum"),
        (DEMO, "empty_cavity_shift_hz = 3.0e5", "empty_cavity_shift_hz = inf", "shift"),
        (TABLETOP, "radius_m = 1.0", "radius_m = inf", "shift"),
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, scenario, old, new, command):
    text = Path(scenario).read_text(encoding="utf-8")
    assert old in text
    path = tmp_path / "non_finite.scenario"
    path.write_text(text.replace(old, new), encoding="utf-8")
    lineno = text[: text.index(old)].count("\n") + 1
    code, out, err = run(capsys, command, "--scenario", str(path))
    assert code == 2
    assert err.startswith(f"scenario error: {path}:{lineno}: value for {new.split()[0]} must be finite")
    assert out == ""


def test_computation_failure_exits_3(tmp_path, capsys):
    # steep normal dispersion with no cubic term: group index < 0, the
    # linear linewidth has no positive solution
    path = tmp_path / "steep.scenario"
    path.write_text(
        "radius_m = 1.0\nfinesse = 1.0e3\nfrequency_hz = 5.0e14\n"
        "medium = taylor\nmedium_n1_s_per_rad = -1.0e-15\n"
        "rotation_rate_rad_s = 0.0\n"
    )
    code, out, err = run(capsys, "linewidth", "--scenario", str(path))
    assert code == 3
    assert err.startswith("computation error:")


@pytest.mark.parametrize("command", ["sensitivity", "lens-thirring", "shift", "split"])
def test_tiny_frequency_exits_3(tmp_path, capsys, command):
    # hbar*omega underflows to 0 (sensitivity, lens-thirring), the analytic
    # enhancement overflows to inf (shift) and the dispersive shift exceeds
    # omega0 (split): exit 3, no traceback, no inf line
    text = Path(TABLETOP).read_text(encoding="utf-8")
    assert "frequency_hz = 5.0e14" in text
    path = tmp_path / "tiny_frequency.scenario"
    path.write_text(text.replace("frequency_hz = 5.0e14", "frequency_hz = 1e-300"), encoding="utf-8")
    code, out, err = run(capsys, command, "--scenario", str(path))
    assert code == 3
    assert err.startswith("computation error:")
    assert "Traceback" not in err
    assert out == ""
    if command == "split":
        assert "dispersive shift is below -omega0" in err


@pytest.mark.parametrize("command", ["shift", "sagnac"])
@pytest.mark.parametrize(
    "radius, message",
    [
        ("-1e300", "loop radius must be positive"),
        ("1e300", "loop radius 1e+300 m is too large: the loop area overflows"),
    ],
    ids=["negative", "positive"],
)
def test_huge_radius_is_an_input_fault(tmp_path, capsys, command, radius, message):
    # squaring either radius overflows; the sign is checked first, and the
    # overflow is named, instead of Python's bare "Numerical result out of
    # range" at exit 3
    path = edited(tmp_path, TABLETOP, "radius_m = 1.0", f"radius_m = {radius}")
    code, out, err = run(capsys, command, "--scenario", path)
    assert code == 2
    assert err == f"scenario error: {path}: {message}\n"
    assert out == ""


@pytest.mark.parametrize(
    "old, new, command, message",
    [
        (
            "medium_linewidth_fwhm_hz = 2.0e6",
            "medium_linewidth_fwhm_hz = 1e-300",
            "shift",
            "medium linewidth too narrow for the cubic expansion: G^3 underflows to 0 (G = 3.14e-300 rad/s)",
        ),
        (
            "measurement_time_s = 1.0",
            "measurement_time_s = 5e-324",
            "sensitivity",
            "the shot-noise SNR underflows to 0: the photon budget detects no photons",
        ),
        (
            "measurement_time_s = 1.0",
            "measurement_time_s = 5e-324",
            "lens-thirring",
            "the shot-noise SNR underflows to 0: the photon budget detects no photons",
        ),
        *(
            (
                "medium_linewidth_fwhm_hz = 2.0e6",
                "medium_linewidth_fwhm_hz = 1e-300",
                command,
                "medium linewidth too narrow for the Lorentzian line: G^2 + (w - wc)^2 "
                "underflows to 0 at the line centre (G = 3.14e-300 rad/s)",
            )
            for command in ("sagnac", "spectrum")
        ),
        (
            "frequency_hz = 5.0e14",
            "frequency_hz = 5e-324",
            "split",
            "line centre frequency too low for the CAD tuning: the strength "
            "G*(1 - target)/w0 overflows (w0 = 2.96e-323 rad/s)",
        ),
        *(
            (
                "frequency_hz = 5.0e14",
                "frequency_hz = 5e-324",
                command,
                "the photon energy hbar*w0 underflows to 0 (w0 = 2.96e-323 rad/s)",
            )
            for command in ("sensitivity", "lens-thirring")
        ),
    ],
    ids=[
        "medium-linewidth", "snr-sensitivity", "snr-lens-thirring",
        "line-centre-sagnac", "line-centre-spectrum",
        "frequency-split", "frequency-sensitivity", "frequency-lens-thirring",
    ],
)
def test_an_underflowing_divisor_is_named(tmp_path, capsys, old, new, command, message):
    # G^3 in the cubic's n3 = A/G^3, the shot-noise SNR sqrt(N), G^2 + x^2
    # at the line centre and the photon energy hbar*w0 underflow to 0, and
    # the CAD strength G/w0 overflows; each is named, where a bare "float
    # division by zero" named nothing
    path = edited(tmp_path, TABLETOP, old, new)
    code, out, err = run(capsys, command, "--scenario", path)
    assert code == 3
    assert err == f"computation error: {message}\n"
    assert out == ""


@pytest.mark.parametrize("command", ["spectrum", "fig5"])
def test_pull_beyond_omega0_leaves_no_round_trip_and_exits_3(tmp_path, capsys, command):
    # the 300 kHz pull exceeds omega0, so dL = -dw_ec*L/w0 lies below -L;
    # refused before any scan, with no numpy warning
    path = edited(tmp_path, DEMO, "frequency_hz = 5.0e14", "frequency_hz = 1e-300")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, "--scenario", path)
    assert code == 3
    assert err == "computation error: the length change leaves no positive round trip\n"
    assert out == ""
    assert caught == []


@pytest.mark.parametrize("shift", ["-1", "0"])
def test_fig5_non_positive_shift_exits_2(tmp_path, capsys, shift):
    path = edited(tmp_path, DEMO, "empty_cavity_shift_hz = 3.0e5", f"empty_cavity_shift_hz = {shift}")
    code, out, err = run(capsys, "fig5", "--scenario", path)
    assert code == 2
    assert err.startswith("scenario error:")
    assert "positive empty_cavity_shift_hz" in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("lo", ["-1", "0"])
def test_fig4_non_positive_lin_range_exits_2(tmp_path, capsys, lo):
    # a lin range may start at or below zero, which no shift of the sweep may
    path = edited(
        tmp_path, SWEEP, "empty_cavity_shift_hz = 1.0e-2:1.0e6:33:log", f"empty_cavity_shift_hz = {lo}:1.0e6:33:lin"
    )
    code, out, err = run(capsys, "fig4", "--scenario", path)
    assert code == 2
    assert err == f"scenario error: {path}: this command needs positive empty_cavity_shift_hz values\n"
    assert out == ""


def test_fig4_shift_overflowing_in_rad_s_exits_2(tmp_path, capsys):
    # 1e308 Hz is finite, but 2*pi times it is not; refused before the
    # array multiply, which would warn on stderr
    path = edited(
        tmp_path, SWEEP, "empty_cavity_shift_hz = 1.0e-2:1.0e6:33:log", "empty_cavity_shift_hz = 1.0e-2:1.0e308:33:log"
    )
    code, out, err = run(capsys, "fig4", "--scenario", path)
    assert code == 2
    assert err == f"scenario error: {path}: empty_cavity_shift_hz up to 1e+308 Hz overflows when converted to rad/s\n"
    assert out == ""


def test_fig4_unresolvably_small_shifts_exit_3(tmp_path, capsys):
    # the resonances would sit within an ulp of omega0, where eta_numeric
    # reads nothing but rounding; the refusal names the smallest cubic shift
    path = edited(
        tmp_path, SWEEP, "empty_cavity_shift_hz = 1.0e-2:1.0e6:33:log", "empty_cavity_shift_hz = 1.0e-300:1.0e-290:33:log"
    )
    code, out, err = run(capsys, "fig4", "--scenario", path)
    assert code == 3
    assert err == (
        "computation error: smallest shift too close to the resonance: its cubic shift 6.28e-96 rad/s "
        "is under 1,000 spacings of doubles (0.5 rad/s) at omega0\n"
    )
    assert out == ""


@pytest.mark.parametrize(
    "scenario,old,new,message",
    [
        (TABLETOP, "frequency_hz = 5.0e14", "frequency_hz = -1", "optical frequency must be positive"),
        (OPEN_LOOP, "vacuum_wavelength_m = 7.8e-7", "vacuum_wavelength_m = 0", "vacuum_wavelength_m must be positive"),
        (OPEN_LOOP, "particle_mass_kg = 1.44316060e-25", "particle_mass_kg = -1", "particle mass must be positive"),
        (TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = 1e10", "tangential speed"),
    ],
    ids=["frequency", "wavelength", "mass", "rim-speed"],
)
def test_sagnac_input_faults_exit_2(tmp_path, capsys, scenario, old, new, message):
    code, out, err = run(capsys, "sagnac", "--scenario", edited(tmp_path, scenario, old, new))
    assert code == 2
    assert err.startswith("scenario error:")
    assert message in err
    assert out == ""


def test_split_has_no_rim_speed_limit(tmp_path, capsys):
    # the ring model of split has no rim-speed limit, unlike sagnac
    path = edited(tmp_path, TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = 1e10")
    code, out, err = run(capsys, "split", "--scenario", path)
    assert code == 0


# the CAD medium of the tabletop scenario, replaced below by other media
CAD_LINES = "medium = cad\nmedium_linewidth_fwhm_hz = 2.0e6"
CONSTANT_MEDIUM = "background_index = 1.5\nmedium = constant\nmedium_index = 1.5"


def json_run(tmp_path, capsys, command: str, medium: str, name: str) -> dict:
    """JSON result document of the tabletop scenario with its medium replaced."""
    out_dir = tmp_path / name
    path = edited(tmp_path, TABLETOP, CAD_LINES, medium)
    code, _, err = run(capsys, command, "--scenario", path, "--out", str(out_dir), "--format", "json")
    assert (code, err) == (0, "")
    return json.loads((out_dir / f"{command}.json").read_text())


@pytest.mark.parametrize("command", ["shift", "linewidth", "spectrum"])
def test_constant_medium_matches_no_medium(tmp_path, capsys, command):
    # a constant medium at the background index is the empty cavity
    bare = json_run(tmp_path, capsys, command, "background_index = 1.5\nmedium = none", "none")
    const = json_run(tmp_path, capsys, command, CONSTANT_MEDIUM, "constant")
    assert const["results"] == bare["results"]
    assert const["tables"] == bare["tables"]


def test_constant_medium_split_enhancement_is_one(tmp_path, capsys):
    doc = json_run(tmp_path, capsys, "split", CONSTANT_MEDIUM, "constant")
    assert doc["results"]["enhancement"]["value"] == 1.0


FALLBACK_EDITS = {
    "at-rest": ("rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = 0", 2278908.10621),
    "negative-group-index": ("medium = cad", "medium = cad\nmedium_target_group_index = -0.5", 3896705.84945),
}
FALLBACK_CASES = [
    (command, key, case)
    for case in FALLBACK_EDITS
    for command, key in (("split", "gamma_dispersive"), ("shift", "gamma_dis"))
] + [("linewidth", "gamma_shifted", "negative-group-index")]  # at rest it has no shifted width


@pytest.mark.parametrize("command,key,case", FALLBACK_CASES, ids=["-".join(c) for c in FALLBACK_CASES])
def test_linewidth_fallback_is_tagged_as_the_cubic_root(tmp_path, capsys, command, key, case):
    # at rest, or where the local group index is not positive, each command
    # reports the linewidth_cubic root and must tag it as such; the printed
    # local group index is what says so, with no warning on stderr
    old, new, gamma = FALLBACK_EDITS[case]
    path = edited(tmp_path, TABLETOP, old, new)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, command, "--scenario", path, "--out", str(tmp_path), "--format", "json")
    assert (code, err, caught) == (0, "", [])
    results = json.loads((tmp_path / f"{command}.json").read_text())["results"]
    assert results[key]["formula"] == "positive root of n3*w0*g^3 + n_g*g = gamma_ec"
    assert results[key]["value"] == pytest.approx(gamma, rel=1e-11)
    if case == "at-rest":
        assert results["local_group_index"]["value"] == 0.0  # the white-light point
    else:
        assert results["local_group_index"]["value"] < 0.0


def test_linewidth_of_a_weak_negative_cubic_term_is_gamma_ec(tmp_path, capsys):
    # n3 < 0 at n_g = 1: both widths are the root that continues from the
    # linear regime, gamma_ec to 1e-12, where an unpolished middle root of
    # the trigonometric form came out 4.2 and 8.4 times gamma_ec
    text = Path(TABLETOP).read_text(encoding="utf-8")
    cad = "medium = cad\nmedium_linewidth_fwhm_hz = 2.0e6      # full width at half maximum of the dip\n"
    assert cad in text
    path = tmp_path / "negative_n3.scenario"
    taylor = "medium = taylor\nmedium_index = 1.0\nmedium_n3_s3_per_rad3 = -1.0e-60\n"
    path.write_text(text.replace(cad, taylor), encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "linewidth", "--scenario", str(path))
    # an ordinary medium: below the fold the branch through zero is the only
    # one that continues from the linear regime, so nothing is flagged
    assert (code, err, caught) == (0, "", [])
    value = {key: float(v) for key, v in re.findall(r"^(\w+) = (\S+)", out, re.MULTILINE)}
    assert value["gamma_dis"] == pytest.approx(value["gamma_ec"], rel=1e-12)
    assert value["gamma_dis_airy"] == pytest.approx(value["gamma_ec"], rel=1e-12)
    assert value["local_group_index"] > 0.0


@pytest.mark.parametrize(
    "medium", ["background_index = 1.5\nmedium = none", CONSTANT_MEDIUM], ids=["none", "constant"]
)
def test_background_index_alone_neither_enhances_nor_narrows(tmp_path, capsys, medium):
    # the analytic response is relative to the background-filled empty cavity
    shift = json_run(tmp_path, capsys, "shift", medium, "shift")["results"]
    width = json_run(tmp_path, capsys, "linewidth", medium, "linewidth")["results"]
    gamma_ec = width["gamma_ec"]["value"]
    assert shift["enhancement"]["value"] == 1.0
    assert shift["gamma_dis"]["value"] == gamma_ec
    assert width["gamma_dis"]["value"] == gamma_ec


def test_background_index_leaves_the_cad_response_unchanged(tmp_path, capsys):
    # A CAD line at fill 1 sets the whole path; a background index only
    # rescales the empty-cavity drive and width, which the cubic undoes.
    commands = ("shift", "linewidth")
    bare = {c: json_run(tmp_path, capsys, c, CAD_LINES, f"{c}-bare")["results"] for c in commands}
    nb_lines = "background_index = 1.45\n" + CAD_LINES
    filled = {c: json_run(tmp_path, capsys, c, nb_lines, f"{c}-nb")["results"] for c in commands}
    for command, key in [
        ("shift", "dw_dis"),
        ("shift", "gamma_dis"),
        ("linewidth", "dw_dis"),
        ("linewidth", "gamma_dis"),
        ("linewidth", "gamma_dis_airy"),
        ("linewidth", "gamma_shifted"),
    ]:
        assert filled[command][key]["value"] == pytest.approx(bare[command][key]["value"], rel=1e-12)


def test_scalar_results_csv(tmp_path, capsys):
    out_dir = tmp_path / "res"
    code, out, err = run(
        capsys, "shift", "--scenario", TABLETOP, "--out", str(out_dir)
    )
    assert code == 0
    path = out_dir / "shift_results.csv"
    assert f"wrote: {path}" in out
    lines = path.read_text().splitlines()
    assert lines[0] == "quantity,value,unit,formula"
    rows = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    assert "dw_dis" in rows
    assert math.isfinite(float(rows["dw_dis"]))


def test_fig4_csv_header_and_determinism(tmp_path, capsys):
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        code, out, err = run(capsys, "fig4", "--scenario", SWEEP, "--out", str(d))
        assert code == 0
    first = (dirs[0] / "fig4.csv").read_bytes()
    second = (dirs[1] / "fig4.csv").read_bytes()
    assert first == second
    header = first.decode().splitlines()[0]
    assert header == "dw_ec,eta_numeric,eta_analytic_derived,eta_analytic_paper"
    # 33 sweep points, one row each
    assert len(first.decode().splitlines()) == 34


def test_convention_override(tmp_path, capsys):
    # the tabletop scenario pins the paper convention; the flag must win
    values = {}
    for conv in ("paper", "derived"):
        out_dir = tmp_path / conv
        code, out, err = run(
            capsys,
            "sensitivity",
            "--scenario",
            TABLETOP,
            "--convention",
            conv,
            "--out",
            str(out_dir),
            "--format",
            "json",
        )
        assert code == 0
        assert f"convention: {conv}" in out
        values[conv] = result_value(out_dir, "sensitivity", "enhancement")
    assert values["paper"] / values["derived"] == pytest.approx(
        2.0 ** (2.0 / 3.0), rel=1e-12
    )


def test_json_output_roundtrips_as_scenario(tmp_path, capsys):
    out_dir = tmp_path / "json"
    code, out, err = run(
        capsys,
        "shift",
        "--scenario",
        TABLETOP,
        "--out",
        str(out_dir),
        "--format",
        "json",
    )
    assert code == 0
    path = out_dir / "shift.json"
    doc = json.loads(path.read_text())
    assert doc["command"] == "shift"
    assert doc["convention"] == "paper"
    dw_first = doc["results"]["dw_dis"]["value"]

    # the result file carries the inputs, so it is itself a valid scenario
    second_dir = tmp_path / "again"
    code, out, err = run(
        capsys,
        "shift",
        "--scenario",
        str(path),
        "--out",
        str(second_dir),
        "--format",
        "json",
    )
    assert code == 0
    assert result_value(second_dir, "shift", "dw_dis") == pytest.approx(
        dw_first, rel=1e-15
    )


def test_enhancement_sweep_alias(tmp_path, capsys):
    code, canonical, _ = run(capsys, "fig4", "--scenario", SWEEP)
    assert code == 0
    code, aliased, _ = run(capsys, "enhancement-sweep", "--scenario", SWEEP)
    assert code == 0
    assert aliased == canonical


def test_shift_demo_alias(capsys):
    code, canonical, _ = run(capsys, "fig5", "--scenario", DEMO)
    assert code == 0
    code, aliased, _ = run(capsys, "shift-demo", "--scenario", DEMO)
    assert code == 0
    assert aliased == canonical


def test_sagnac_slow_light_scaling(tmp_path, capsys):
    out_dir = tmp_path / "sagnac"
    code, out, err = run(
        capsys,
        "sagnac",
        "--scenario",
        OPEN_LOOP,
        "--out",
        str(out_dir),
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads((out_dir / "sagnac.json").read_text())
    results = doc["results"]
    # the cell is tuned to n_g = 100, so the relative phase is 100x vacuum
    assert results["relative_scaling"]["value"] == pytest.approx(100.0, rel=1e-3)
    assert results["comoving_phase"]["value"] == pytest.approx(
        results["delta_phi"]["value"], rel=1e-12
    )
    # rubidium-87 at this drive: matter wave beats light by m*c0^2/(hbar*w)
    ratio = results["matter_to_light_ratio"]["value"]
    assert ratio > 1e9
    assert results["matter_wave_phase"]["value"] == pytest.approx(
        ratio * results["delta_phi_first_order"]["value"], rel=1e-9
    )


def test_fig5_hits_target(tmp_path, capsys):
    out_dir = tmp_path / "fig5"
    code, out, err = run(
        capsys, "fig5", "--scenario", DEMO, "--out", str(out_dir), "--format", "json"
    )
    assert code == 0
    doc = json.loads((out_dir / "fig5.json").read_text())
    results = doc["results"]
    # 0.3 MHz pulled to 9.5 MHz: the numeric spectrum must land near target
    assert abs(results["target_deviation"]["value"]) < 0.05
    assert results["half_linewidth_paper"]["value"] == pytest.approx(
        0.5 * results["half_linewidth_derived"]["value"], rel=1e-15
    )
    assert set(doc["tables"]) == {"fig5_vacuum", "fig5_dispersive"}


def fresh_interpreter(code: str, **env_changes: str | None) -> object:
    """JSON that `code` prints in a fresh interpreter run from the repository
    root, so modules imported by other tests do not count. A None in
    env_changes removes that variable from the child's environment."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return json.loads(out.stdout)


def test_package_import_loads_nothing():
    # the package re-exports nothing: names are imported from their module
    code = (
        "import fastlight, json, sys; "
        "print(json.dumps(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('fastlight.'))))"
    )
    assert fresh_interpreter(code) == []


def test_cli_import_does_not_load_scipy():
    code = "import fastlight.cli, json, sys; print(json.dumps('scipy' in sys.modules))"
    assert fresh_interpreter(code) is False


# Records OPENBLAS_NUM_THREADS as it stands when numpy is first looked up,
# which is when numpy's OpenBLAS reads it, by a finder put first on the path.
FIRST_NUMPY_LOOKUP = """
import json, os, sys

class FirstNumpyLookup:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, FirstNumpyLookup())
import fastlight.cli
print(json.dumps({
    "seen": FirstNumpyLookup.seen,
    "after": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy": "numpy" in sys.modules,
}))
"""


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("3", "3")], ids=["unset", "set-by-caller"])
def test_cli_sets_one_openblas_thread_before_numpy_loads(caller, expected):
    # a command makes no BLAS call, so the CLI keeps OpenBLAS from starting
    # a worker per CPU at import, unless the caller chose a count
    record = fresh_interpreter(FIRST_NUMPY_LOOKUP, OPENBLAS_NUM_THREADS=caller)
    assert record["seen"] == [expected]
    assert record["after"] == expected
    # numpy stays a start-up import for now: perfbench/run.py's probe reads
    # sys.modules['numpy'] after `import fastlight.cli`. ROADMAP item 2 lifts
    # this together with the benchmark-only change that mends the probe.
    assert record["numpy"] is True


# every command that computes without a spectrum, each on a scenario it runs
ANALYTIC_RUNS = [
    ("sagnac", OPEN_LOOP),
    ("split", TABLETOP),
    ("shift", TABLETOP),
    ("linewidth", TABLETOP),
    ("sensitivity", TABLETOP),
    ("lens-thirring", TABLETOP),
]


def test_only_the_sweeping_commands_load_spectrum():
    # spectrum is the largest module; the analytic commands start without it
    code = f"""
import contextlib, io, json, sys
from fastlight.cli import main
loaded = []
for command, scenario in {ANALYTIC_RUNS + [("spectrum", TABLETOP)]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--scenario", scenario])
    loaded.append([command, code, "fastlight.spectrum" in sys.modules])
print(json.dumps(loaded))
"""
    loaded = fresh_interpreter(code)
    assert loaded == [[command, 0, False] for command, _ in ANALYTIC_RUNS] + [["spectrum", 0, True]]


def test_closed_stdout_ends_quietly_after_the_files_are_written(tmp_path):
    # `fastlight fig5 ... | head -1` with the reader gone before the report
    # is printed: no traceback, exit 0, and every result file in place
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "fastlight.cli", "fig5", "--scenario", DEMO, "--out", str(tmp_path)],
            cwd=root,
            env=env,
            stdout=write,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fig5_dispersive.csv", "fig5_results.csv", "fig5_vacuum.csv"]


RESULT_LINE = re.compile(r"\w+ = (\S+)( .+)?  \[.+\]")
SCENARIOS = (TABLETOP, SWEEP, DEMO, OPEN_LOOP)
# finite edge values; the sweep below adds nan and inf, which exit 2
EDGE_VALUES = (0.0, -1.0, 1e300, -1e300, 1e-300, 5e-324)


def numeric_lines(lines: list[str]):
    """(index, key, value) of each scenario line that sets a single number."""
    for i, line in enumerate(lines):
        key, _, rest = line.partition("=")
        try:
            value = float(rest.split("#", 1)[0])
        except ValueError:
            continue
        yield i, key, value


def assert_results_finite_and_tagged(out: str) -> None:
    for line in out.splitlines():
        if " = " in line:
            match = RESULT_LINE.fullmatch(line)
            assert match, line
            assert math.isfinite(float(match.group(1))), line


@st.composite
def edited_scenarios(draw) -> str:
    """A shipped scenario whose single numbers are each kept or rescaled, and
    at most one of them set to an edge value.

    One edge value is enough: most of them are input faults, and
    test_every_edge_value_on_every_line_exits_cleanly sets each line to each
    of them. A CAD medium may also be tuned to a target group index,
    negative ones included, where the shift cubic has three real roots.
    """
    lines = Path(draw(st.sampled_from(SCENARIOS))).read_text().splitlines()
    edits = list(numeric_lines(lines))
    edge = draw(st.sampled_from([None] + [i for i, _, _ in edits]))
    for i, key, value in edits:
        scaled = st.integers(-6, 6).map(lambda k: value * 10.0**k)
        choice = st.sampled_from(EDGE_VALUES) if i == edge else st.one_of(st.just(value), scaled)
        lines[i] = f"{key}= {draw(choice)!r}"
    if "medium = cad" in lines and draw(st.booleans()):
        lines.append(f"medium_target_group_index = {draw(st.floats(-1.0, 0.9))!r}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(text=edited_scenarios(), command=st.sampled_from(list(COMMANDS)))
def test_any_scenario_edit_exits_cleanly(text, command):
    # exit 0 with finite, tagged numbers and a silent stderr, 2 for an input
    # fault or 3 for a failed computation; no other exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.scenario"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
            warnings.simplefilter("always")
            code = main([command, "--scenario", str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        assert (err.getvalue(), caught) == ("", [])
        assert_results_finite_and_tagged(out.getvalue())


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: Path(s).stem)
def test_every_edge_value_on_every_line_exits_cleanly(tmp_path, scenario):
    # each numeric line in turn set to each edge value, under every command:
    # exit 0 with finite, tagged numbers and a silent stderr, or exit 2 or 3
    # with one stderr line; a warning would be one more stderr line
    lines = Path(scenario).read_text(encoding="utf-8").splitlines()
    edits = list(numeric_lines(lines))
    assert edits
    path = tmp_path / "edited.scenario"
    for i, key, _ in edits:
        for value in EDGE_VALUES + (math.nan, math.inf):
            path.write_text("\n".join(lines[:i] + [f"{key}= {value!r}"] + lines[i + 1:]) + "\n", encoding="utf-8")
            for command in COMMANDS:
                out, err = io.StringIO(), io.StringIO()
                with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
                    warnings.simplefilter("always")
                    code = main([command, "--scenario", str(path)])
                case = f"{command} with {key.strip()} = {value!r}"
                assert caught == [], case
                assert code in (0, 2, 3), case
                if code == 0:
                    assert err.getvalue() == "", case
                    assert_results_finite_and_tagged(out.getvalue())
                else:
                    assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), case
