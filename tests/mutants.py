"""Mutation checks: each entry breaks the source on purpose, and a named test
must then fail.

Each mutant copies src/, tests/, scenarios/ and perfbench/ to a temporary
directory, applies its exact text replacements to one source file there
(each old text must occur exactly once), and runs its test with pytest in
that copy. The mutant is killed when the test fails and survives when it
passes; a replacement that no longer matches, or a test that errs or is not
collected, is reported as an error. The working tree is never touched.

    python tests/mutants.py [NAME ...]

runs every mutant, or those named, and exits 1 if any survived or erred. It
is run by hand, like golden_runs.py, and is not part of Tier-1; Tier-1's
test_source.py checks only that every entry still applies. When a mutant
survives, add the assertion that kills it; do not drop the entry.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scenarios", "perfbench")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    replacements: tuple[tuple[str, str], ...]
    test: str  # pytest node id, relative to the repository root


CLI = "src/fastlight/cli.py"
RESONATOR = "src/fastlight/resonator.py"
SPECTRUM = "src/fastlight/spectrum.py"
TEST_SPECTRUM = "tests/test_spectrum.py"

MUTANTS = (
    Mutant(
        "numpy-executed-above-the-openblas-default",
        CLI,
        (("import sys\nfrom pathlib import Path\n", "import sys\nfrom pathlib import Path\n\nimport numpy\n"),),
        "tests/test_cli.py::test_cli_sets_one_openblas_thread_before_numpy_loads",
    ),
    Mutant(
        "dispersion-imports-numpy-itself",
        "src/fastlight/dispersion.py",
        (("from ._numpy import np\n", "import numpy as np\n"),),
        "tests/test_source.py::test_only_the_lazy_helper_brings_in_numpy",
    ),
    Mutant(
        "spectrum-imported-at-the-top-of-cli",
        CLI,
        (("    min_shift_passive,\n)\n", "    min_shift_passive,\n)\nfrom .spectrum import sweep_enhancement, trace\n"),),
        "tests/test_cli.py::test_only_the_sweeping_commands_load_spectrum",
    ),
    Mutant(
        "report-accepts-non-finite-results",
        CLI,
        (("        if not math.isfinite(value):\n", "        if False:\n"),),
        "tests/test_cli.py::test_every_edge_value_on_every_line_exits_cleanly",
    ),
    Mutant(
        "split-prints-the-enhancement-at-rest-again",
        CLI,
        (
            ("        if base.splitting != 0.0:\n", "        if True:\n"),
            ("resp.splitting / base.splitting,", "resp.splitting / base.splitting if base.splitting else 1.0,"),
        ),
        "tests/test_cli.py::test_split_at_rest_prints_no_enhancement",
    ),
    Mutant(
        "fig5-overflow-of-eta-to-the-3-2-left-bare",
        CLI,
        (
            (
                "    try:\n        g_derived = dw_ec * eta_target ** 1.5\n    except OverflowError:\n",
                "    g_derived = dw_ec * eta_target ** 1.5\n    if False:\n",
            ),
        ),
        "tests/test_cli.py::test_an_overflow_is_named",
    ),
    Mutant(
        "shifted-width-tag-ignores-from-cubic",
        CLI,
        (('tag = _CUBIC_WIDTH if widths.from_cubic else "gamma_ec/n_g(w0 + dw_dis)"', 'tag = "gamma_ec/n_g(w0 + dw_dis)"'),),
        "tests/test_cli.py::test_linewidth_fallback_is_tagged_as_the_cubic_root",
    ),
    Mutant(
        "shifted-linewidth-raises-where-the-local-group-index-is-not-positive",
        RESONATOR,
        (
            (
                "        return ShiftedLinewidth(linewidth_cubic(gamma_ec, taylor), local_ng, from_cubic=True)\n",
                '        raise ComputationError("local group index is not positive; use linewidth_cubic")\n',
            ),
        ),
        "tests/test_resonator.py::test_shifted_linewidth_local_group_index",
    ),
    Mutant(
        "cubic-discriminant-overflow-left-bare",
        RESONATOR,
        (
            (
                "    try:\n        disc = 0.25 * q * q + p ** 3 / 27.0\n    except OverflowError:\n",
                "    disc = 0.25 * q * q + p ** 3 / 27.0\n    if False:\n",
            ),
        ),
        "tests/test_cli.py::test_a_cubic_too_weak_for_its_linear_term_is_named",
    ),
    Mutant(
        "cubic-too-weak-refused-again",
        RESONATOR,
        (
            (
                "        disc = math.inf\n",
                '        raise ComputationError("cubic term too weak against the linear one") from None\n',
            ),
        ),
        "tests/test_cli.py::test_a_cubic_term_too_weak_to_matter_gives_the_answer_without_it",
    ),
    Mutant(
        "polish-starts-from-a-seed-outside-its-bracket",
        RESONATOR,
        (("    if not (neg < x < pos or pos < x < neg):\n        x = 0.5 * (neg + pos)\n", "    if False:\n        pass\n"),),
        "tests/test_resonator.py::test_shift_cubic_bisection_fallback_reaches_tiny_roots",
    ),
    Mutant(
        "middle-root-bracket-without-its-2d-over-b-end",
        RESONATOR,
        (("max(d / b * 2.0, -turn)", "-turn"),),
        "tests/test_resonator.py::test_middle_root_of_a_cubic_term_too_weak_for_b_over_a_is_d_over_b",
    ),
    Mutant(
        "polish-takes-newton-steps-that-leave-the-bracket",
        RESONATOR,
        (("        if ((x - neg) * fpx - fx) * ((x - pos) * fpx - fx) < 0.0:\n", "        if fpx:\n"),),
        "tests/test_resonator.py::test_continuous_root_takes_no_newton_step_that_overflows",
    ),
    Mutant(
        "linewidth-takes-the-unpolished-largest-root",
        RESONATOR,
        (
            (
                "        return _outer_root(a, b, d, max(roots), turn), True\n",
                "        return max(roots), True\n",
            ),
        ),
        "tests/test_resonator.py::test_linewidth_is_the_largest_root_where_the_trigonometric_form_cannot_be_formed",
    ),
    Mutant(
        "three-roots-read-off-the-discriminant-again",
        RESONATOR,
        (
            (
                "    if not d < -2.0 / 3.0 * b * turn:\n",
                "    if 0.25 * (d / a) ** 2 + (b / a) ** 3 / 27.0 > 0.0 or b >= 0.0:\n",
            ),
        ),
        "tests/test_resonator.py::test_one_real_root_or_three_is_read_off_the_fold",
    ),
    Mutant(
        "free-spectral-range-overflow-not-refused",
        RESONATOR,
        (("        if self.free_spectral_range == math.inf:\n", "        if False:\n"),),
        "tests/test_cli.py::test_a_background_index_the_doubles_cannot_carry_is_named",
    ),
    Mutant(
        "width-of-omega0-or-more-not-refused",
        RESONATOR,
        (("    if taylor.omega_ref <= gamma < math.inf:\n", "    if False:\n"),),
        "tests/test_cli.py::test_a_width_beyond_omega0_is_named",
    ),
    Mutant(
        "refused-width-at-rest-replaced-by-the-linear-width",
        RESONATOR,
        (
            (
                "gamma, from_cubic = _positive_linewidth_root(t.n3 * t.omega_ref, t.ng0, cavity.gamma_ec), True",
                "gamma, from_cubic = linewidth_cubic(cavity.gamma_ec, t), True",
            ),
        ),
        "tests/test_resonator.py::test_every_width_of_omega0_or_more_is_refused",
    ),
    Mutant(
        "sweep-grid-step-below-the-spacing-of-doubles-not-refused",
        SPECTRUM,
        (("        if self.resolution < math.ulp(center + half_span):\n", "        if False:\n"),),
        f"{TEST_SPECTRUM}::test_sweep_grid_validation",
    ),
    Mutant(
        "rotation-scale-underflow-not-refused",
        CLI,
        (("    if not cavity.rotation_scale > 0.0:\n", "    if False:\n"),),
        "tests/test_cli.py::test_a_background_index_the_doubles_cannot_carry_is_named",
    ),
    Mutant(
        "sagnac-divides-by-the-fill-unchecked",
        "src/fastlight/scenario.py",
        (("                if not 0.0 < fill <= 1.0:\n", "                if False:\n"),),
        "tests/test_cli.py::test_sagnac_refuses_a_fill_fraction_outside_the_unit_interval",
    ),
    Mutant(
        "lorentzian-g-cubed-overflow-left-bare",
        "src/fastlight/dispersion.py",
        (
            (
                "        try:\n            g3 = g ** 3\n        except OverflowError:\n",
                "        g3 = g ** 3\n        if False:\n",
            ),
        ),
        "tests/test_cli.py::test_an_overflow_is_named",
    ),
    Mutant(
        "shift-cubic-warns-of-three-roots-again",
        RESONATOR,
        (
            ("import math\n", "import math\nimport warnings\n"),
            (
                "    x = _continuous_root(taylor.n3 * taylor.omega_ref, taylor.ng0, dw_ec)[0]\n",
                "    x, multi = _continuous_root(taylor.n3 * taylor.omega_ref, taylor.ng0, dw_ec)\n"
                "    if multi:\n"
                '        warnings.warn("response is multivalued", UserWarning, stacklevel=2)\n',
            ),
        ),
        "tests/test_resonator.py::test_shift_cubic_names_the_multivalued_branch_by_its_local_group_index",
    ),
    Mutant(
        "shift-cubic-returns-a-root-beyond-omega0",
        RESONATOR,
        (("    if not abs(x) < taylor.omega_ref:\n", "    if False:\n"),),
        "tests/test_resonator.py::test_shift_cubic_refuses_a_root_of_omega0_or_more",
    ),
    Mutant(
        "drive-reader-accepts-a-shift-beyond-omega0",
        CLI,
        (("    if not abs(dw_ec) < cavity.omega0:\n", "    if False:\n"),),
        "tests/test_cli.py::test_a_drive_of_omega0_or_more_is_one_input_fault",
    ),
    Mutant(
        "drive-reader-skips-the-rim-speed",
        CLI,
        (("            RotationState.from_geometry(value, scn.geometry())\n", "            pass\n"),),
        "tests/test_cli.py::test_a_rotation_whose_rim_speed_reaches_c0_is_one_input_fault",
    ),
    Mutant(
        "peaks-held-to-half-the-maximum-of-the-flattened-pass",
        SPECTRUM,
        (("mid >= 0.5 * t.max(axis=1, keepdims=True)", "mid >= 0.5 * t.max()"),),
        f"{TEST_SPECTRUM}::test_pass_wide_peaks_equal_per_row_argmax_and_count",
    ),
    Mutant(
        "peak-as-the-first-sample-equal-to-the-row-maximum",
        SPECTRUM,
        (("return t.argmax(axis=1).tolist(),", "return (t == t.max(axis=1, keepdims=True)).argmax(axis=1).tolist(),"),),
        f"{TEST_SPECTRUM}::test_pass_wide_peaks_equal_per_row_argmax_and_count",
    ),
    Mutant(
        "sweep-scans-one-pass-per-grid",
        SPECTRUM,
        (("    per_pass = _SCAN_SAMPLES // _SWEEP_POINTS\n", "    per_pass = 1\n"),),
        f"{TEST_SPECTRUM}::test_sweep_scans_its_grids_in_passes_not_one_per_shift",
    ),
    Mutant(
        "sweep-raises-a-grid-refusal-before-locating-the-earlier-grids",
        SPECTRUM,
        (("    finally:\n        # whatever a grid raises", "    except BaseException:\n        raise\n    if True:\n        # whatever a grid raises"),),
        f"{TEST_SPECTRUM}::test_sweep_reports_the_first_failing_shift",
    ),
    Mutant(
        "sweep-grid-spans-a-tenth-of-the-shift-again",
        SPECTRUM,
        (
            (
                "    return _checked_grid(rt.omega0 + shift, _in_one_fsr(rt, 2.5 * width), _SWEEP_POINTS)\n",
                "    half_span = _in_one_fsr(rt, max(2.5 * width, 0.1 * abs(shift)))\n"
                "    points = max(_SWEEP_POINTS, int(math.ceil(2.0 * half_span / (width / 20.0))) + 1) | 1\n"
                "    return _checked_grid(rt.omega0 + shift, half_span, points)\n",
            ),
        ),
        f"{TEST_SPECTRUM}::test_sweep_scans_its_grids_in_passes_not_one_per_shift",
    ),
    Mutant(
        "airy-coefficient-overflow-left-bare",
        SPECTRUM,
        (
            (
                "        try:\n            self.k = (2.0 * cavity.finesse / math.pi) ** 2\n        except OverflowError:\n",
                "        self.k = (2.0 * cavity.finesse / math.pi) ** 2\n        if False:\n",
            ),
        ),
        "tests/test_cli.py::test_an_overflow_is_named",
    ),
    Mutant(
        "kernel-leaves-its-cubic-unset",
        SPECTRUM,
        (("            self.taylor = effective_taylor(profile, cavity)\n", "            effective_taylor(profile, cavity)\n"),),
        f"{TEST_SPECTRUM}::test_the_kernel_derives_its_own_cubic",
    ),
    Mutant(
        "sweep-builds-a-second-cubic",
        SPECTRUM,
        (("    t = rt.taylor or effective_taylor(profile, cavity)\n", "    t = effective_taylor(profile, cavity)\n"),),
        f"{TEST_SPECTRUM}::test_auto_grid_builds_the_cubic_model_once",
    ),
    Mutant(
        "scan-refusal-of-an-overflowing-response-removed",
        SPECTRUM,
        (("        if i == 0 and not (math.isfinite(f) and math.isfinite(fp)):\n", "        if False:\n"),),
        "tests/test_cli.py::test_a_response_too_strong_to_scan_is_refused_before_the_scan",
    ),
    Mutant(
        "psi-factor-regrouped",
        SPECTRUM,
        (
            (
                "psi = (self.medium * (dn * omega0 + n_at * delta) + self.background * delta",
                "psi = (self.medium * dn * omega0 + self.medium * n_at * delta + self.background * delta",
            ),
        ),
        f"{TEST_SPECTRUM}::test_bound_kernel_and_scan_equal_three_profile_calls_bit_for_bit",
    ),
    Mutant(
        "array-psi-factor-regrouped",
        SPECTRUM,
        (
            (
                "return (self.medium * (dn * self.omega0 + n_at * delta) + self.background * delta",
                "return (self.medium * dn * self.omega0 + self.medium * n_at * delta + self.background * delta",
            ),
        ),
        f"{TEST_SPECTRUM}::test_bound_kernel_and_scan_equal_three_profile_calls_bit_for_bit",
    ),
    Mutant(
        "every-row-given-the-first-rows-length-change",
        SPECTRUM,
        (("np.array([self.nb * dl for dl in delta_lengths])[:, None]", "(self.nb * delta_lengths[0])"),),
        f"{TEST_SPECTRUM}::test_bound_kernel_and_scan_equal_three_profile_calls_bit_for_bit",
    ),
    Mutant(
        "locate-tolerance-reverted-to-resolution-over-1e4",
        SPECTRUM,
        (("xtol = min(grid.resolution, grid.half_span / 1000.0) / 1e4", "xtol = grid.resolution / 1e4"),),
        f"{TEST_SPECTRUM}::test_a_101_point_grid_locates_at_its_2001_point_twins_double",
    ),
    Mutant(
        "eta-as-a-product-with-the-reciprocal-shift",
        SPECTRUM,
        (("eta_numeric=(resonance - cavity.omega0) / dw,", "eta_numeric=(resonance - cavity.omega0) * (1.0 / dw),"),),
        "tests/test_golden.py::test_sweeps_match_their_digests",
    ),
    Mutant(
        "mode-order-forced-to-0",
        SPECTRUM,
        (("    order = _nearest_mode(psi_at)\n", "    order = 0.0\n"),),
        f"{TEST_SPECTRUM}::test_resonance_and_width_on_a_neighbouring_mode",
    ),
    Mutant(
        "no-tangential-fallback",
        SPECTRUM,
        (("        u = _psi_turn(rt, delta_length, center, lo, hi, xtol)\n", "        u = 0.0\n"),),
        f"{TEST_SPECTRUM}::test_find_resonance_where_psi_only_touches_zero",
    ),
    Mutant(
        "no-exact-zero-exit",
        SPECTRUM,
        (("        if f == 0.0:\n            # also the white-light centre", "        if False:\n            # also the white-light centre"),),
        f"{TEST_SPECTRUM}::test_find_resonance_matches_bisection_of_psi",
    ),
    Mutant(
        "newton-steps-from-the-nominal-offset",
        SPECTRUM,
        (("nxt = at - f / slope", "nxt = u - f / slope"),),
        f"{TEST_SPECTRUM}::test_vacuum_resonance_and_width_are_exact",
    ),
)


def mutate(text: str, mutant: Mutant) -> str:
    for old, new in mutant.replacements:
        found = text.count(old)
        if found != 1:
            raise ValueError(f"{mutant.path}: expected one {old!r}, found {found}")
        text = text.replace(old, new)
    return text


def run_mutant(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error: <reason>'."""
    source = REPO / mutant.path
    try:
        text = mutate(source.read_text(encoding="utf-8"), mutant)
    except ValueError as exc:
        return f"error: {exc}"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            shutil.copytree(REPO / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
        (root / mutant.path).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", mutant.test],
            cwd=root, env=env, capture_output=True, text=True, timeout=600,
        )
    # pytest exits 1 when a test failed; 2 to 5 mean it could not run them
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    tail = proc.stdout.strip().splitlines()[-1:] or ["no output"]
    return f"error: pytest exit {proc.returncode}: {tail[0]}"


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        outcome = run_mutant(mutant)
        failed += outcome != "killed"
        print(f"{outcome:>9}  {mutant.name}  ({mutant.test})", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
