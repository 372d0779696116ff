"""End-to-end checks of the command-line front end.

Everything runs in-process through cli.main so exit codes and stream
separation are observed exactly as a shell would see them.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import edge_probe
from golden_runs import case_key, load_exit_codes

from fastlight.cli import COMMANDS, main
from fastlight.constants import C0
from fastlight.scenario import load_scenario

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


@pytest.mark.parametrize("command", ["sensitivity", "lens-thirring", "shift", "split", "linewidth"])
def test_tiny_frequency_exits_3(tmp_path, capsys, command):
    # hbar*omega underflows to 0 (sensitivity, lens-thirring), and the
    # dispersive shift exceeds omega0 (shift, split, linewidth), though the
    # Earth-rate drive does not: exit 3, no traceback, no inf line
    text = Path(TABLETOP).read_text(encoding="utf-8")
    assert "frequency_hz = 5.0e14" in text
    path = tmp_path / "tiny_frequency.scenario"
    path.write_text(text.replace("frequency_hz = 5.0e14", "frequency_hz = 1e-300"), encoding="utf-8")
    code, out, err = run(capsys, command, "--scenario", str(path))
    assert code == 3
    assert err.startswith("computation error:")
    assert "Traceback" not in err
    assert out == ""
    if command not in ("sensitivity", "lens-thirring"):
        assert err == (
            "computation error: the dispersive shift 3.92e-100 rad/s is not below omega0 = 6.28e-300 rad/s "
            "in magnitude: the cubic is an expansion about the resonance\n"
        )


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
    "old, new, command, code, message",
    [
        (
            "medium_linewidth_fwhm_hz = 2.0e6",
            "medium_linewidth_fwhm_hz = 1e-300",
            "shift",
            3,
            "medium linewidth too narrow for the cubic expansion: G^3 underflows to 0 (G = 3.14e-300 rad/s)",
        ),
        (
            "measurement_time_s = 1.0",
            "measurement_time_s = 5e-324",
            "sensitivity",
            3,
            "the shot-noise SNR underflows to 0: the photon budget detects no photons",
        ),
        (
            "measurement_time_s = 1.0",
            "measurement_time_s = 5e-324",
            "lens-thirring",
            3,
            "the shot-noise SNR underflows to 0: the photon budget detects no photons",
        ),
        *(
            (
                "medium_linewidth_fwhm_hz = 2.0e6",
                "medium_linewidth_fwhm_hz = 1e-300",
                command,
                3,
                "medium linewidth too narrow for the Lorentzian line: G^2 + (w - wc)^2 "
                "underflows to 0 at the line centre (G = 3.14e-300 rad/s)",
            )
            for command in ("sagnac", "spectrum")
        ),
        (
            "frequency_hz = 5.0e14",
            "frequency_hz = 5e-324",
            "split",
            2,
            "the rotation scale (w0/(c0*n0))*2*A/P underflows to 0 for w0 = 2.96e-323 rad/s, n0 = 1 and 2A/P = 1 m",
        ),
        (
            "frequency_hz = 5.0e14",
            "frequency_hz = 5e-324",
            "sagnac",
            3,
            "line centre frequency too low for the CAD tuning: the strength "
            "G*(1 - target)/w0 overflows (w0 = 2.96e-323 rad/s)",
        ),
        *(
            (
                "frequency_hz = 5.0e14",
                "frequency_hz = 5e-324",
                command,
                3,
                "the photon energy hbar*w0 underflows to 0 (w0 = 2.96e-323 rad/s)",
            )
            for command in ("sensitivity", "lens-thirring")
        ),
    ],
    ids=[
        "medium-linewidth", "snr-sensitivity", "snr-lens-thirring",
        "line-centre-sagnac", "line-centre-spectrum",
        "frequency-split", "frequency-sagnac", "frequency-sensitivity", "frequency-lens-thirring",
    ],
)
def test_an_underflowing_divisor_is_named(tmp_path, capsys, old, new, command, code, message):
    # G^3 in the cubic's n3 = A/G^3, the shot-noise SNR sqrt(N), G^2 + x^2
    # at the line centre and the photon energy hbar*w0 underflow to 0, and
    # the CAD strength G/w0 overflows; each is named, where a bare "float
    # division by zero" named nothing. The rotation scale (w0/(c0*n0))*2A/P
    # of a 5e-324 Hz line underflows to 0 as well: split converts its
    # rotation before it builds the medium, and refuses that as an input
    # fault, while sagnac, which converts none, meets the CAD strength
    path = edited(tmp_path, TABLETOP, old, new)
    expected = f"scenario error: {path}: {message}\n" if code == 2 else f"computation error: {message}\n"
    assert run(capsys, command, "--scenario", path) == (code, "", expected)


@pytest.mark.parametrize(
    "scenario, old, new, command, code, message",
    [
        (
            TABLETOP, "finesse = 1.0e3", "finesse = 1e300", "spectrum", 3,
            "computation error: finesse too high for the Airy transmission: (2F/pi)^2 overflows (F = 1e+300)",
        ),
        (
            TABLETOP, "medium_linewidth_fwhm_hz = 2.0e6", "medium_linewidth_fwhm_hz = 1e300", "shift", 3,
            "computation error: medium linewidth too wide for the cubic expansion: G^3 overflows (G = 3.14e+300 rad/s)",
        ),
        *(
            (
                DEMO, old, new, "fig5", 2,
                f"scenario error: {{path}}: target enhancement {eta} too large: "
                "the half linewidth dw_ec*eta^(3/2) overflows",
            )
            for old, new, eta in (
                ("empty_cavity_shift_hz = 3.0e5", "empty_cavity_shift_hz = 1e-300", "9.5e+306"),
                ("enhanced_shift_target_hz = 9.5e6", "enhanced_shift_target_hz = 1e300", "3.33e+294"),
            )
        ),
    ],
    ids=["finesse", "medium-linewidth", "fig5-shift", "fig5-target"],
)
def test_an_overflow_is_named(tmp_path, capsys, scenario, old, new, command, code, message):
    # (2F/pi)^2 of the Airy transmission, G^3 of the cubic's n3 = A/G^3 and
    # eta^(3/2) of fig5's back-derived half linewidth overflow; each is
    # named, where Python's bare "(34, 'Numerical result out of range')"
    # named nothing. fig5's eta is the ratio of two inputs, so it is an
    # input fault, as fig4's overflowing shift is.
    path = edited(tmp_path, scenario, old, new)
    assert run(capsys, command, "--scenario", path) == (code, "", message.format(path=path) + "\n")


def test_spectrum_names_a_half_maximum_search_that_would_reach_zero_frequency(tmp_path, capsys):
    # a ring of 0.16 nm at a CAD line of 0.023 omega0: ten width estimates
    # below the resonance reach below zero frequency, where the FWHM bracket
    # stops, so the run exits 3 with the bracket's refusal, not the medium's
    # bare "optical frequency must be positive"
    path = tmp_path / "subwavelength.scenario"
    path.write_text(
        "radius_m = 1.6245073675634547e-10\nfinesse = 31.17147431137849\nfrequency_hz = 4846801052667390.0\n"
        "medium = cad\nmedium_linewidth_fwhm_hz = 220583202167965.12\nempty_cavity_shift_hz = 2014094.6454223185\n",
        encoding="utf-8",
    )
    assert run(capsys, "spectrum", "--scenario", str(path), "--out", str(tmp_path)) == (
        3, "", "computation error: half-maximum crossing not bracketed within ten width estimates\n"
    )


@pytest.mark.parametrize("command", ["shift", "linewidth", "split", "spectrum"])
@pytest.mark.parametrize("fwhm_hz, target", [("1e60", "0.5"), ("1e100", "0")], ids=["slow", "white-light"])
def test_a_cubic_too_weak_for_its_linear_term_is_named(tmp_path, capsys, command, fwhm_hz, target):
    # a CAD line so wide that n3*w0 = A*w0/G^3 is negligible: (n_g/(n3*w0))^3
    # overflows in the cubic's discriminant, and the cubic is solved as the
    # linear n_g*x = d it then is. At n_g = 0.5 that is eta = 2, which the
    # spectrum measures too. At target 0, n_g is a rounding residue near
    # 1e-16, so the root, 6.88e18 rad/s, lies beyond omega0: the analytic
    # commands refuse it by name, and the spectrum, whose shift estimate
    # falls back to dw_ec, finds the medium's response not finite there
    medium = f"medium = cad\nmedium_linewidth_fwhm_hz = {fwhm_hz}\nmedium_target_group_index = {target}"
    path = edited(tmp_path, TABLETOP, CAD_LINES, medium)
    code, out, err = run(capsys, command, "--scenario", path, "--out", str(tmp_path), "--format", "json")
    if target == "0":
        if command == "spectrum":
            refusal = (
                "round-trip phase or its slope is not finite at the estimated resonance: the medium's "
                "response is too strong to scan (Psi = nan, dPsi/domega = nan s)"
            )
        else:
            refusal = (
                "the dispersive shift 6.88e+18 rad/s is not below "
                "omega0 = 3.14e+15 rad/s in magnitude: the cubic is an expansion about the resonance"
            )
        assert (code, out, err) == (3, "", f"computation error: {refusal}\n")
        return
    assert (code, err) == (0, "")
    results = json.loads((tmp_path / f"{command}.json").read_text())["results"]
    value = {key: entry["value"] for key, entry in results.items()}
    if command == "spectrum":
        assert value["enhancement_numeric"] == pytest.approx(2.0, rel=1e-3)
    elif command == "split":
        assert value["enhancement"] == pytest.approx(2.0, rel=1e-12)
    else:
        dw_ec = load_scenario(path).cavity().rotation_scale * 7.2921159e-5
        assert value["dw_dis"] == pytest.approx(dw_ec / value["group_index"], rel=1e-12)
        assert value["dw_dis"] == pytest.approx(1528.31448085, rel=1e-11)


@pytest.mark.parametrize("command", ["shift", "linewidth", "split"])
@pytest.mark.parametrize("n3", ["1e-200", "1e-118"])
def test_a_cubic_term_too_weak_to_matter_gives_the_answer_without_it(tmp_path, capsys, command, n3):
    # beside n_g*x the cubic term is below a rounding of the linear one; at
    # 1e-200 its (b/a)^3 overflows, at 1e-118 only the Airy cubic's (4b/a)^3
    # does. Every result is the n3 = 0 one bit for bit, and shift adds the
    # analytic enhancement, since G = sqrt(-n1/n3) is then defined
    taylor = "medium = taylor\nmedium_index = 1.0\nmedium_n1_s_per_rad = -1e-16\nmedium_n3_s3_per_rad3 = "
    bare = json_run(tmp_path, capsys, command, taylor + "0", "bare")["results"]
    weak = json_run(tmp_path, capsys, command, taylor + n3, "weak")["results"]
    assert weak.keys() - bare.keys() == ({"enhancement_analytic"} if command == "shift" else set())
    assert {key: weak[key] for key in bare} == bare


@pytest.mark.parametrize(
    "command, refusal",
    [
        ("shift", "enhancement_analytic is not finite (inf) for these inputs"),
        (
            "split",
            "the linewidth 2.54e+154 rad/s is not below omega0 = 3.14e+15 rad/s: "
            "the cubic is an expansion about the resonance",
        ),
    ],
    ids=["shift", "split"],
)
def test_a_subnormal_cubic_term_at_negative_group_index_is_refused_by_what_overflows(tmp_path, capsys, command, refusal):
    # n3 = 5e-324 s^3/rad^3 at n_g = -10: b/a of the shift cubic overflows,
    # and its middle root is d/b = -76.45 rad/s, no longer NaN. What then
    # overflows is named: G = sqrt(-n1/n3) under shift. Under split the
    # width at the shifted resonance is the largest root of the linewidth
    # cubic, 2.54e154 rad/s, which the width bound refuses; its turning
    # point sqrt(-b/3)/sqrt(a) is a double, though b/a is not
    taylor = "medium = taylor\nmedium_index = 1.0\nmedium_n1_s_per_rad = -3.5e-15\nmedium_n3_s3_per_rad3 = 5e-324"
    path = edited(tmp_path, TABLETOP, CAD_LINES, taylor)
    assert run(capsys, command, "--scenario", path) == (3, "", f"computation error: {refusal}\n")


@pytest.mark.parametrize("command", ["linewidth", "shift", "split"])
def test_a_width_beyond_omega0_is_named(tmp_path, capsys, command):
    # n3 = 1e-300 s^3/rad^3 at n_g = -10: the cubic term barely counts, and
    # the largest root of the linewidth cubic, 5.64e142 rad/s, lies far
    # beyond omega0, outside the expansion; the shifts stay below it, so the
    # width gamma_dis (linewidth) or the width at the shifted resonances
    # (shift, split) is what is refused
    taylor = "medium = taylor\nmedium_index = 1.0\nmedium_n1_s_per_rad = -3.5e-15\nmedium_n3_s3_per_rad3 = 1e-300"
    path = edited(tmp_path, TABLETOP, CAD_LINES, taylor)
    assert run(capsys, command, "--scenario", path) == (
        3,
        "",
        "computation error: the linewidth 5.64e+142 rad/s is not below omega0 = 3.14e+15 rad/s: "
        "the cubic is an expansion about the resonance\n",
    )


def test_linewidth_notes_an_airy_width_that_reaches_omega0(tmp_path, capsys):
    # at n_g = 0 the Airy root is 4^(1/3) times the cubic root: a line this
    # broad puts gamma_dis, 2.51e15 rad/s, below omega0 = 3.14e15 rad/s and
    # the Airy root past it, so `linewidth` leaves the Airy width out with a
    # note and exits 0
    path = edited(tmp_path, TABLETOP, CAD_LINES, "medium = cad\nmedium_linewidth_fwhm_hz = 7.3e19")
    path = edited(tmp_path, path, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = 0")
    code, out, err = run(capsys, "linewidth", "--scenario", path)
    assert (code, err) == (0, "")
    assert out.splitlines()[-2:] == [
        "gamma_dis = 2.50758264306e+15 rad/s  [positive root of n3*w0*g^3 + n_g*g = gamma_ec]",
        "airy linewidth unavailable for these coefficients",
    ]
    assert "gamma_dis_airy" not in out


@pytest.mark.parametrize("command", ["linewidth", "shift", "split"])
@pytest.mark.parametrize(
    "frequency_hz, n1, refusal",
    [
        ("5.0e14", "-1e-15", "no positive linewidth root for these coefficients"),
        # w0 = 2^50 rad/s and n1 = -2^-50 s/rad: n_g is 0.0 exactly
        ("179192535600708.1", "-8.881784197001252e-16", "degenerate response: no linear or cubic term"),
    ],
    ids=["negative", "zero"],
)
def test_a_linear_medium_without_a_positive_group_index_has_no_width(tmp_path, capsys, command, frequency_hz, n1, refusal):
    # without a cubic term the width is gamma_ec/n_g, the linewidth cubic's
    # root at n3 = 0, refused where n_g is not positive
    path = edited(tmp_path, TABLETOP, CAD_LINES, f"medium = linear\nmedium_index = 1.0\nmedium_n1_s_per_rad = {n1}")
    path = edited(tmp_path, path, "frequency_hz = 5.0e14", f"frequency_hz = {frequency_hz}")
    assert run(capsys, command, "--scenario", path) == (3, "", f"computation error: {refusal}\n")


ROTATION_SCALE_UNDERFLOWS = (
    "the rotation scale (w0/(c0*n0))*2*A/P underflows to 0 for w0 = 3.14e+15 rad/s, n0 = 1e+300 and 2A/P = 1 m"
)


@pytest.mark.parametrize(
    "scenario, value, command, code, refusal",
    [
        (TABLETOP, "1e300", "sensitivity", 2, ROTATION_SCALE_UNDERFLOWS),
        (TABLETOP, "1e300", "lens-thirring", 2, ROTATION_SCALE_UNDERFLOWS),
        (TABLETOP, "1e300", "split", 2, ROTATION_SCALE_UNDERFLOWS),
        (DEMO, "1e300", "shift", 0, None),
        (DEMO, "1e-300", "spectrum", 2, "the free spectral range 2*pi*c0/(n0*L) overflows for n0 = 1e-300 and L = 6.28 m"),
        (DEMO, "5e-324", "fig5", 2, "the free spectral range 2*pi*c0/(n0*L) overflows for n0 = 4.94e-324 and L = 6.28 m"),
        (SWEEP, "5e-324", "fig4", 2, "the free spectral range 2*pi*c0/(n0*L) overflows for n0 = 4.94e-324 and L = 6.28 m"),
    ],
    ids=["1e300-sensitivity", "1e300-lens-thirring", "1e300-split", "1e300-shift", "1e-300-spectrum", "5e-324-fig5", "5e-324-fig4"],
)
def test_a_background_index_the_doubles_cannot_carry_is_named(tmp_path, capsys, scenario, value, command, code, refusal):
    # at n_b = 1e300 the rotation scale underflows to 0, and a rotation
    # converted or divided by it is refused; a drive given as a shift needs
    # no rotation scale and runs. At 1e-300 and below the free spectral
    # range overflows, and no cavity is built.
    text = Path(scenario).read_text(encoding="utf-8")
    path = edited(tmp_path, scenario, text, f"{text}background_index = {value}\n")
    expected = "" if refusal is None else f"scenario error: {path}: {refusal}\n"
    assert run(capsys, command, "--scenario", path)[::2] == (code, expected)


@pytest.mark.parametrize("fill", ["0", "1e300", "-1e300"])
def test_sagnac_refuses_a_fill_fraction_outside_the_unit_interval(tmp_path, capsys, fill):
    # sagnac builds no cavity, but the CAD medium's target group index
    # -(1 - fill)*n_b/fill reads the fill: it is refused with the cavity's
    # own words, as split refuses it, where a fill of 0 divided by zero
    path = edited(tmp_path, TABLETOP, "convention = paper\n", f"convention = paper\nfill_fraction = {fill}\n")
    expected = f"scenario error: {path}: fill fraction must lie in (0, 1]\n"
    assert run(capsys, "sagnac", "--scenario", path) == (2, "", expected)
    assert run(capsys, "split", "--scenario", path) == (2, "", expected)


@pytest.mark.parametrize("command", ["sagnac", "split", "shift", "linewidth", "spectrum", "sensitivity"])
@pytest.mark.parametrize("rate", ["1e300", "-1e300", "1e10"])
def test_a_rotation_whose_rim_speed_reaches_c0_is_one_input_fault(tmp_path, capsys, command, rate):
    # every command that reads the drive reads it in one place, which checks
    # the rim speed first, so all of them refuse it alike; at n_b = 1 the
    # rim speed reaches c0 exactly where |dw_ec| reaches omega0
    path = edited(tmp_path, TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", f"rotation_rate_rad_s = {rate}")
    expected = f"scenario error: {path}: tangential speed must stay below c0\n"
    assert run(capsys, command, "--scenario", path) == (2, "", expected)


@pytest.mark.parametrize(
    "scenario, old, new, command, dw_ec, omega0",
    [
        *(
            (DEMO, "frequency_hz = 5.0e14", "frequency_hz = 1e-300", command, "1.88496e+06", "6.28319e-300")
            for command in ("shift", "linewidth", "spectrum", "fig5")
        ),
        *(
            (
                TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = 2e8\nbackground_index = 0.5",
                command, "4.19169e+15", "3.14159e+15",
            )
            for command in ("split", "shift", "linewidth", "spectrum", "sensitivity")
        ),
    ],
    ids=[
        *(f"pull-{c}" for c in ("shift", "linewidth", "spectrum", "fig5")),
        *(f"rotation-{c}" for c in ("split", "shift", "linewidth", "spectrum", "sensitivity")),
    ],
)
def test_a_drive_of_omega0_or_more_is_one_input_fault(tmp_path, capsys, scenario, old, new, command, dw_ec, omega0):
    # a 300 kHz pull against a resonance at 2*pi*1e-300 rad/s, and at n_b =
    # 0.5 a rotation of rim speed 2c0/3, which pulls by 4*omega0/3: the
    # cubic's expansion about the resonance models neither, and where shift
    # and linewidth printed the pull at exit 0, every command now refuses it
    # alike, before any scan and with no numpy warning. `sagnac` has no
    # cavity, so only the rim speed binds its rotation
    path = edited(tmp_path, scenario, old, new)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, "--scenario", path)
    expected = (
        f"scenario error: {path}: the empty-cavity shift dw_ec = {dw_ec} rad/s must stay below "
        f"omega0 = {omega0} rad/s in magnitude\n"
    )
    assert (code, out, err, caught) == (2, "", expected, [])


@pytest.mark.parametrize(
    "scenario, added, command, psi",
    [
        (TABLETOP, "fill_fraction = 1e-300", "spectrum", "-inf"),
        (TABLETOP, "medium_target_group_index = -1e300", "spectrum", "-1.6e-05"),
        (SWEEP, "fill_fraction = 1e-300", "fig4", "-inf"),
    ],
    ids=["fill", "target", "fill-fig4"],
)
def test_a_response_too_strong_to_scan_is_refused_before_the_scan(tmp_path, capsys, scenario, added, command, psi):
    # the CAD line is tuned to a group index near -1e300, so its strength
    # A = G*(1 - target)/w0 is near 2e291 and the medium's response
    # overflows across the scan; refused by name at the shift estimate, with
    # no numpy warning. The analytic commands see only the path-averaged
    # cubic, which stays finite, and exit 0
    path = tmp_path / "strong.scenario"
    path.write_text(Path(scenario).read_text(encoding="utf-8") + added + "\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, command, "--scenario", str(path))
        assert (code, out, caught) == (3, "", [])
        assert err == (
            "computation error: round-trip phase or its slope is not finite at the estimated resonance: the "
            f"medium's response is too strong to scan (Psi = {psi}, dPsi/domega = -inf s)\n"
        )
        if scenario == TABLETOP:
            for other in ("split", "shift", "linewidth", "sensitivity", "lens-thirring"):
                assert run(capsys, other, "--scenario", str(path))[0::2] == (0, ""), other


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
    # 1e308 Hz is finite, but 2*pi times it is not; refused by the drive
    # bound |dw_ec| < omega0 on the range's largest shift, before the array
    # multiply, which would warn on stderr
    path = edited(
        tmp_path, SWEEP, "empty_cavity_shift_hz = 1.0e-2:1.0e6:33:log", "empty_cavity_shift_hz = 1.0e-2:1.0e308:33:log"
    )
    code, out, err = run(capsys, "fig4", "--scenario", path)
    assert code == 2
    assert err == (
        f"scenario error: {path}: the empty-cavity shift dw_ec = inf rad/s must stay below "
        "omega0 = 3.14159e+15 rad/s in magnitude\n"
    )
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
        (TABLETOP, "radius_m = 1.0", "radius_m = 1.0\nperimeter_m = 7.0", "radius inconsistent with perimeter for a circular loop"),
    ],
    ids=["frequency", "wavelength", "mass", "rim-speed", "radius-perimeter"],
)
def test_sagnac_input_faults_exit_2(tmp_path, capsys, scenario, old, new, message):
    code, out, err = run(capsys, "sagnac", "--scenario", edited(tmp_path, scenario, old, new))
    assert code == 2
    assert err.startswith("scenario error:")
    assert message in err
    assert out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("empty_cavity_shift_hz = 1:2:x:log\n", ":1: malformed range '1:2:x:log' (invalid literal for int() with base 10: 'x')"),
        ("radius_m = 1.0\n= 1.0\n", ":2: expected key = value, got '= 1.0'"),
        ("radius_m =\n", ":1: expected key = value, got 'radius_m ='"),
        ('{"radius_m": [1.0]}', ": value for 'radius_m' must be a number or string"),
        ('{"inputs": {"radius_m": null}}', ": value for 'radius_m' must be a number or string"),
        ('{"radius_m": true}', ": value for 'radius_m' must be a number or string"),
        (
            "radius_m = 1.0\nfinesse = 1.0e3\nfrequency_hz = 5.0e14\nrotation_rate_rad_s = 1e-4\nbackground_index = 0\n",
            ": background index must be positive",
        ),
    ],
    ids=["range-point-count", "empty-key", "empty-value", "json-list", "json-null", "json-bool", "background-index"],
)
def test_a_malformed_input_is_named_and_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "malformed.scenario"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "split", "--scenario", str(path)) == (2, "", f"scenario error: {path}{message}\n")


def test_split_at_rest_prints_no_enhancement(tmp_path, capsys):
    # both splittings are 0 at rest, so their ratio is left out, as shift
    # and spectrum leave out theirs at a zero drive; every other line stays
    path = edited(tmp_path, TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", "rotation_rate_rad_s = 0")
    code, out, err = run(capsys, "split", "--scenario", path)
    assert (code, err) == (0, "")
    keys = [line.split(" = ")[0] for line in out.splitlines() if RESULT_LINE.fullmatch(line)]
    assert keys == [
        "gamma_ec", "dw_ccw", "dw_cw", "splitting", "splitting_hz", "equivalent_delta_length",
        "dw_ccw_dispersive", "dw_cw_dispersive", "splitting_dispersive", "local_group_index", "gamma_dispersive",
    ]


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
def test_a_length_drive_matches_its_empty_cavity_shift(tmp_path, capsys, command):
    # dL = -1e-12 m pulls the resonance by dw_ec = -w0*dL/L; the same pull
    # given in Hz takes the other branch of the drive. The two can differ
    # only by the rounding of dw_ec and of spectrum's dL = -dw_ec*L/w0, so
    # every result agrees to 1e-12 (on this scenario, bit for bit)
    hz = load_scenario(TABLETOP).cavity().shift_for_length(-1e-12) / (2.0 * math.pi)
    results = []
    for name, drive in (("length", "delta_length_m = -1e-12"), ("shift", f"empty_cavity_shift_hz = {hz!r}")):
        path = edited(tmp_path, TABLETOP, "rotation_rate_rad_s = 7.2921159e-5", drive)
        code, _, err = run(capsys, command, "--scenario", path, "--out", str(tmp_path / name), "--format", "json")
        assert (code, err) == (0, "")
        results.append(json.loads((tmp_path / name / f"{command}.json").read_text())["results"])
    length, shift = results
    assert length.keys() == shift.keys()
    for key in length:
        assert length[key]["value"] == pytest.approx(shift[key]["value"], rel=1e-12), key


def test_lens_thirring_without_a_medium_takes_the_empty_floor(tmp_path, capsys):
    # with no medium there is no enhancement: the floor is the laser
    # linewidth over the per-direction rotation scale, Omega_min = dw_laser/scale
    path = edited(tmp_path, TABLETOP, CAD_LINES, "medium = none")
    code, out, err = run(capsys, "lens-thirring", "--scenario", path, "--out", str(tmp_path), "--format", "json")
    assert (code, err) == (0, "")
    results = json.loads((tmp_path / "lens-thirring.json").read_text())["results"]
    assert "enhancement" not in results and "half_linewidth" not in results
    scale = load_scenario(path).cavity().rotation_scale
    floor = results["min_rotation"]
    assert floor["formula"] == "Omega_min = dw_laser/scale"
    assert floor["value"] == pytest.approx(results["laser_linewidth"]["value"] / scale, rel=1e-15)
    assert results["margin"]["value"] == pytest.approx(results["omega_lense_thirring"]["value"] / floor["value"], rel=1e-15)


@pytest.mark.parametrize(
    "scenario, old, new, command, message",
    [
        (SWEEP, CAD_LINES, "medium = none", "fig4", "this command needs a dispersive medium"),
        (DEMO, "finesse = 1.0e3", "finesse = 1.0e3\nfill_fraction = 0.5", "fig5", "this command assumes fill_fraction = 1"),
        (
            TABLETOP, "output_power_w = 1.0e-3\nmeasurement_time_s = 1.0", "snr = 100", "lens-thirring",
            "this command needs output_power_w and measurement_time_s",
        ),
    ],
    ids=["fig4-without-a-medium", "fig5-partly-filled", "lens-thirring-without-a-photon-budget"],
)
def test_a_command_without_what_it_needs_exits_2(tmp_path, capsys, scenario, old, new, command, message):
    path = edited(tmp_path, scenario, old, new)
    assert run(capsys, command, "--scenario", path) == (2, "", f"scenario error: {path}: {message}\n")


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
    # linear regime, gamma_ec to 1e-12
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


# Records OPENBLAS_NUM_THREADS as it stands when numpy._core is first looked
# up, by a finder put first on the path. `import fastlight.cli` only registers
# numpy; numpy executes, and its OpenBLAS reads the variable, when a command
# first uses it, which `spectrum` does.
FIRST_NUMPY_CORE_LOOKUP = """
import contextlib, io, json, os, sys

class FirstCoreLookup:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy._core" and not self.seen:
            self.seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, FirstCoreLookup())
import fastlight.cli
executed_at_import = "numpy._core" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = fastlight.cli.main(["spectrum", "--scenario", "scenarios/tabletop_rlg.scenario"])
print(json.dumps({
    "executed_at_import": executed_at_import,
    "code": code,
    "seen": FirstCoreLookup.seen,
    "after": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("3", "3")], ids=["unset", "set-by-caller"])
def test_cli_sets_one_openblas_thread_before_numpy_loads(caller, expected):
    # a command makes no BLAS call, so the CLI keeps OpenBLAS from starting
    # a worker per CPU when numpy executes, unless the caller chose a count
    record = fresh_interpreter(FIRST_NUMPY_CORE_LOOKUP, OPENBLAS_NUM_THREADS=caller)
    assert record == {"executed_at_import": False, "code": 0, "seen": [expected], "after": expected}


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
    # spectrum is the largest module and numpy the largest import; the
    # analytic commands load the one and execute the other not at all
    code = f"""
import contextlib, io, json, sys
from fastlight.cli import main
loaded = []
for command, scenario in {ANALYTIC_RUNS + [("spectrum", TABLETOP)]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--scenario", scenario])
    loaded.append([command, code, "fastlight.spectrum" in sys.modules, "numpy._core" in sys.modules])
print(json.dumps(loaded))
"""
    loaded = fresh_interpreter(code)
    assert loaded == [[command, 0, False, False] for command, _ in ANALYTIC_RUNS] + [["spectrum", 0, True, True]]


def test_numpy_first_executes_inside_a_command(tmp_path):
    # a 1e-100 Hz line underflows G^2, so the Lorentzian's fallback, which
    # uses np.errstate and np.float64, is the first code of a `sagnac` run
    # to touch numpy; in a fresh interpreter numpy executes there, mid-command.
    # In-process runs cannot reach this: the test session has executed numpy.
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    path = edited(tmp_path, TABLETOP, "medium_linewidth_fwhm_hz = 2.0e6 ", "medium_linewidth_fwhm_hz = 1e-100")
    out = subprocess.run(
        [sys.executable, "-m", "fastlight.cli", "sagnac", "--scenario", path],
        cwd=root,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (out.returncode, out.stdout) == (3, "")
    assert out.stderr == "computation error: medium_group_index is not finite (nan) for these inputs\n"


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
# CPython's own texts, which name no quantity: an OSError-style exception,
# "(34, 'Numerical result out of range')", a division by zero, int() of a
# NaN, and a NaN printed in place of a shift
BARE_TEXT = re.compile(r"\(\d+, '|float division by zero|cannot convert float NaN to integer|nan rad/s")
SCENARIOS = tuple(f"scenarios/{stem}.scenario" for stem in edge_probe.SCENARIOS)


def assert_names_what_failed(err: str, case: str) -> None:
    """One stderr line, in the program's words."""
    assert err.count("\n") == 1 and err.endswith("\n"), (case, err)
    assert not BARE_TEXT.search(err), (case, err)


def assert_results_finite_and_tagged(out: str) -> None:
    for line in out.splitlines():
        if " = " in line:
            match = RESULT_LINE.fullmatch(line)
            assert match, line
            assert math.isfinite(float(match.group(1))), line


# every result that is a displacement of the resonance
SHIFT_KEYS = ("dw_dis", "dw_ccw_dispersive", "dw_cw_dispersive", "shift")


def assert_shifts_below_omega0(out: str, path) -> None:
    """Each printed shift is smaller than the scenario's omega0 in
    magnitude: the cubic is an expansion about the resonance, and the
    spectrum's round trip ends where the pull reaches omega0."""
    shifts = [line for line in out.splitlines() if line.split(" = ")[0] in SHIFT_KEYS]
    if shifts:
        omega0 = load_scenario(path).omega0()
        for line in shifts:
            assert abs(float(RESULT_LINE.fullmatch(line).group(1))) < omega0, (line, omega0)


# the commands each shipped scenario runs to exit 0, from the goldens
GOLDEN_EXIT_CODES = load_exit_codes()
RUNNABLE = {
    scenario: [c for c in COMMANDS if GOLDEN_EXIT_CODES[case_key(Path(scenario).stem, c, "csv")] == 0]
    for scenario in SCENARIOS
}


def rim_radius(drawn: dict) -> float:
    """The effective radius 2A/P of a drawn loop (R for a circle), inf
    where its perimeter is 0."""
    if "radius_m" in drawn:
        return drawn["radius_m"]
    area, perimeter = drawn["area_m2"], drawn["perimeter_m"]
    return 2.0 * area / perimeter if perimeter else math.inf


@st.composite
def edited_runs(draw) -> tuple[str, str]:
    """(command, scenario text): a shipped scenario and a command it runs,
    with its single numbers each kept or rescaled, and at most one of them
    set to an edge value.

    One edge value is enough: most of them are input faults, and
    test_every_edge_value_on_every_line_exits_cleanly sets each line to each
    of them. A finesse is only rescaled upwards, since one of 1 or below is
    refused, and a rotation rate only so far as the rim speed Omega*2A/P of
    the drawn loop stays below c0, since a faster one is refused too. A CAD
    medium may also be tuned to a target group index, negative ones
    included, where the shift cubic has three real roots.
    """
    scenario = draw(st.sampled_from(SCENARIOS))
    lines = Path(scenario).read_text().splitlines()
    edits = list(edge_probe.numeric_lines(lines))
    edge = draw(st.sampled_from([None] + [i for i, _, _ in edits]))
    drawn = {}  # the values drawn so far; the loop's lines come first
    for i, key, value in edits:
        name = key.strip()
        exponents = range(0 if name == "finesse" else -6, 7)
        if name == "rotation_rate_rad_s":
            exponents = [k for k in exponents if k <= 0 or abs(value * 10.0**k * rim_radius(drawn)) < C0]
        scaled = st.sampled_from(exponents).map(lambda k: value * 10.0**k)
        choice = st.sampled_from(edge_probe.EDGE_VALUES) if i == edge else st.one_of(st.just(value), scaled)
        drawn[name] = draw(choice)
        lines[i] = f"{key}= {drawn[name]!r}"
    if "medium = cad" in lines and draw(st.booleans()):
        lines.append(f"medium_target_group_index = {draw(st.floats(-1.0, 0.9))!r}")
    return draw(st.sampled_from(RUNNABLE[scenario])), "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(case=edited_runs())
def test_any_scenario_edit_exits_cleanly(case):
    command, text = case
    # exit 0 with finite, tagged numbers, every shift below omega0 and a
    # silent stderr, 2 for an input fault or 3 for a failed computation; no
    # other exception escapes main
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.scenario"
        path.write_text(text, encoding="utf-8")
        code, out, err, caught = edge_probe.run_command(command, path)
        assert code in (0, 2, 3)
        if code == 0:
            assert (err, caught) == ("", [])
            assert_results_finite_and_tagged(out)
            assert_shifts_below_omega0(out, path)
        else:
            assert_names_what_failed(err, command)


@pytest.mark.parametrize("scenario", edge_probe.SCENARIOS)
def test_every_edge_value_on_every_line_exits_cleanly(tmp_path, scenario):
    # each numeric line in turn set to each edge value, and each optional
    # key the scenario leaves unset appended at each, under every command
    # (the runs of tests/edge_probe.py): exit 0 with finite, tagged numbers,
    # every shift below omega0 and a silent stderr, or exit 2 or 3 with one
    # stderr line that names what failed; a warning would be one more
    # stderr line
    path = tmp_path / "edited.scenario"
    for key, value, text in edge_probe.edge_cases(scenario):
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            code, out, err, caught = edge_probe.run_command(command, path)
            case = f"{command} with {key} = {value!r}"
            assert caught == [], case
            assert code in (0, 2, 3), case
            if code == 0:
                assert err == "", case
                assert_results_finite_and_tagged(out)
                assert_shifts_below_omega0(out, path)
            else:
                assert_names_what_failed(err, case)
