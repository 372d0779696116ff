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
        "csv-imported-at-the-top-of-cli",
        CLI,
        (("import argparse\nimport errno\n", "import argparse\nimport csv\nimport errno\n"),),
        "tests/test_source.py::test_importing_the_cli_loads_neither_json_nor_csv",
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
        (("rp.add(key, widths.gamma_dis, widths.from_cubic)", "rp.add(key, widths.gamma_dis, False)"),),
        "tests/test_cli.py::test_linewidth_fallback_is_tagged_as_the_cubic_root",
    ),
    Mutant(
        "report-add-ignores-the-variant",
        CLI,
        (("tag = tag[variant] if isinstance(tag, dict) else tag", "tag = next(iter(tag.values())) if isinstance(tag, dict) else tag"),),
        "tests/test_golden.py::test_matches_golden",
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
        "polish-starts-from-a-seed-outside-its-bracket",
        RESONATOR,
        (("    if not (neg < x < pos or pos < x < neg):\n        x = 0.5 * (neg + pos)\n", "    if False:\n        pass\n"),),
        "tests/test_resonator.py::test_continuous_root_fallback_when_d_over_a_overflows",
    ),
    Mutant(
        "outer-root-returns-its-seed-unpolished",
        RESONATOR,
        (("        return _polish(a, b, d, seed, turn, 2.0 * (turn + d ** (1.0 / 3.0) / a ** (1.0 / 3.0))), multi\n", "        return seed, multi\n"),),
        "tests/test_resonator.py::test_shift_cubic_matches_bisection_in_every_regime",
    ),
    Mutant(
        "middle-root-returns-d-over-b-unpolished",
        RESONATOR,
        (("    return _polish(a, b, d, d / b, 0.0, max(d / b * 2.0, -turn)), True\n", "    return d / b, True\n"),),
        "tests/test_resonator.py::test_shift_cubic_matches_bisection_in_every_regime",
    ),
    Mutant(
        "middle-root-bracket-without-its-2d-over-b-end",
        RESONATOR,
        (("max(d / b * 2.0, -turn)", "-turn"),),
        "tests/test_resonator.py::test_middle_root_of_a_cubic_term_too_weak_for_b_over_a_is_d_over_b",
    ),
    Mutant(
        "turn-from-b-over-a-where-it-is-no-normal-double",
        RESONATOR,
        (("math.sqrt(-b / 3.0) / math.sqrt(a) if b < 0.0", "math.sqrt(-(b / a) / 3.0) if b < 0.0"),),
        "tests/test_resonator.py::test_the_fold_is_read_where_b_over_a_is_no_normal_double",
    ),
    Mutant(
        "polish-takes-newton-steps-that-leave-the-bracket",
        RESONATOR,
        (("        if p < 0.0 < q or q < 0.0 < p:\n", "        if fpx:\n"),),
        "tests/test_resonator.py::test_continuous_root_takes_no_newton_step_that_overflows",
    ),
    Mutant(
        "polish-tests-the-product-of-its-bracket-factors",
        RESONATOR,
        (("        if p < 0.0 < q or q < 0.0 < p:\n", "        if p * q < 0.0:\n"),),
        "tests/test_resonator.py::test_a_newton_step_is_taken_where_the_bracket_test_product_underflows",
    ),
    Mutant(
        "three-roots-read-off-the-discriminant-again",
        RESONATOR,
        (
            (
                "    multi = d < -2.0 / 3.0 * b * turn\n",
                "    multi = not (0.25 * (d / a) ** 2 + (b / a) ** 3 / 27.0 > 0.0 or b >= 0.0)\n",
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
        "at-rest-linear-width-keeps-the-cubic-term",
        RESONATOR,
        (
            (
                "gamma, from_cubic = _positive_linewidth_root(0.0, t.ng0, cavity.gamma_ec), False",
                "gamma, from_cubic = _positive_linewidth_root(t.n3 * t.omega_ref, t.ng0, cavity.gamma_ec), False",
            ),
        ),
        "tests/test_resonator.py::test_rotation_response_at_rest_beyond_the_fold_takes_the_linear_width",
    ),
    Mutant(
        "shifted-width-divides-without-the-solver",
        RESONATOR,
        (("_width_below_omega0(_positive_linewidth_root(0.0, local_ng, gamma_ec), taylor)", "_width_below_omega0(gamma_ec / local_ng, taylor)"),),
        "tests/test_resonator.py::test_a_linear_width_that_is_zero_is_refused",
    ),
    Mutant(
        "sweep-grid-step-below-the-spacing-of-doubles-not-refused",
        SPECTRUM,
        (("        if _step(half_span, points) < math.ulp(center + half_span):\n", "        if False:\n"),),
        f"{TEST_SPECTRUM}::test_sweep_grid_validation",
    ),
    Mutant(
        "sweep-row-reaching-zero-not-refused",
        SPECTRUM,
        (("    _above_zero(center, half_span, ComputationError)\n    return center, half_span\n", "    return center, half_span\n"),),
        f"{TEST_SPECTRUM}::test_a_sweep_row_is_refused_as_its_grid_was",
    ),
    Mutant(
        "sweep-row-reaching-zero-refused-as-a-value-error",
        SPECTRUM,
        (("    _above_zero(center, half_span, ComputationError)\n", "    _above_zero(center, half_span)\n"),),
        f"{TEST_SPECTRUM}::test_a_sweep_row_is_refused_as_its_grid_was",
    ),
    Mutant(
        "half-maximum-bracket-steps-to-zero-frequency",
        SPECTRUM,
        (("        if not _in_window(omega, resonance, 10.0 * estimate):\n", "        if abs(u) > 10.0 * estimate:\n"),),
        f"{TEST_SPECTRUM}::test_a_half_maximum_search_stays_above_zero_frequency",
    ),
    Mutant(
        "shift-estimate-steps-to-zero-frequency",
        SPECTRUM,
        (("    return 0.0 < omega < math.inf and abs(omega - centre) <= limit\n", "    return math.isfinite(omega) and abs(omega - centre) <= limit\n"),),
        f"{TEST_SPECTRUM}::test_a_shift_estimate_stays_above_zero_frequency",
    ),
    Mutant(
        "shift-estimate-reads-the-cubic-per-shift",
        SPECTRUM,
        (("seed = shift_root(rt.cubic, rt.ng0, omega0, seed)", "seed = shift_cubic(seed, rt.taylor)"),),
        f"{TEST_SPECTRUM}::test_a_sweeps_value_type_calls_do_not_grow_with_its_shifts",
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
                "    x = _continuous_root(a, ng0, dw_ec)[0]\n",
                "    x, multi = _continuous_root(a, ng0, dw_ec)\n"
                "    if multi:\n"
                '        warnings.warn("response is multivalued", UserWarning, stacklevel=2)\n',
            ),
        ),
        "tests/test_resonator.py::test_shift_cubic_names_the_multivalued_branch_by_its_local_group_index",
    ),
    Mutant(
        "shift-cubic-returns-a-root-beyond-omega0",
        RESONATOR,
        (("    if not abs(x) < omega0:\n", "    if False:\n"),),
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
        (("    peaks = t.argmax(axis=1)\n", "    peaks = (t == t.max(axis=1, keepdims=True)).argmax(axis=1)\n"),),
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
        (("    finally:\n        # whatever a row raises", "    except BaseException:\n        raise\n    if True:\n        # whatever a row raises"),),
        f"{TEST_SPECTRUM}::test_sweep_reports_the_first_failing_shift",
    ),
    Mutant(
        "sweep-grid-spans-a-tenth-of-the-shift-again",
        SPECTRUM,
        (("_in_one_fsr(rt, 2.5 * width), _SWEEP_POINTS)", "_in_one_fsr(rt, max(2.5 * width, 0.1 * abs(shift))), _SWEEP_POINTS)"),),
        f"{TEST_SPECTRUM}::test_sweep_grids_have_51_points_over_2_5_widths_at_the_exact_root",
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
        (("            self.taylor = t = effective_taylor(profile, cavity)\n", "            t = effective_taylor(profile, cavity)\n"),),
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
                "        psi *= omega0\n        n_at *= delta\n        psi += n_at\n        psi *= self.medium\n",
                "        psi *= self.medium\n        psi *= omega0\n        n_at *= self.medium\n        n_at *= delta\n        psi += n_at\n",
            ),
        ),
        f"{TEST_SPECTRUM}::test_bound_kernel_and_scan_equal_three_profile_calls_bit_for_bit",
    ),
    Mutant(
        "every-row-given-the-first-rows-length-change",
        SPECTRUM,
        (("np.multiply(np.multiply(self.nb, delta_lengths)[:, None], omega,", "np.multiply(self.nb * delta_lengths[0], omega,"),),
        f"{TEST_SPECTRUM}::test_bound_kernel_and_scan_equal_three_profile_calls_bit_for_bit",
    ),
    Mutant(
        "lorentzian-change-divides-by-each-denominator-apart",
        "src/fastlight/dispersion.py",
        (("            den *= gg + bx * bx\n            x /= den\n", "            x /= den\n            x /= gg + bx * bx\n"),),
        "tests/test_dispersion.py::test_fused_response_equals_each_formula_alone_bitwise",
    ),
    Mutant(
        "response-evaluates-in-the-input-type",
        "src/fastlight/dispersion.py",
        (("omega, base = np.asarray(omega, float), np.asarray(base, float)", "omega, base = np.asarray(omega), np.asarray(base)"),),
        "tests/test_dispersion.py::test_an_array_evaluation_broadcasts_and_takes_float64",
    ),
    Mutant(
        "nan-frequency-passes-the-public-check",
        "src/fastlight/dispersion.py",
        (("        bad = not (omega > 0.0 and base > 0.0)\n", "        bad = omega <= 0.0 or base <= 0.0\n"),),
        f"{TEST_SPECTRUM}::test_public_entry_points_refuse_a_frequency_that_is_not_positive",
    ),
    Mutant(
        "nan-in-an-array-passes-the-public-check",
        "src/fastlight/dispersion.py",
        (("np.all(np.greater(v, 0.0))", "not np.any(np.less_equal(v, 0.0))"),),
        f"{TEST_SPECTRUM}::test_public_entry_points_refuse_a_frequency_that_is_not_positive",
    ),
    Mutant(
        "response-skips-the-shared-check",
        "src/fastlight/dispersion.py",
        (("        _check_omega(omega, base)\n        if not", "        if not"),),
        f"{TEST_SPECTRUM}::test_public_entry_points_refuse_a_frequency_that_is_not_positive",
    ),
    Mutant(
        "transmission-skips-its-frequency-check",
        SPECTRUM,
        (("    _check_omega(omega, rt.omega0)\n", ""),),
        f"{TEST_SPECTRUM}::test_public_entry_points_refuse_a_frequency_that_is_not_positive",
    ),
    Mutant(
        "measure-fwhm-skips-its-resonance-check",
        SPECTRUM,
        (("    _check_omega(resonance, rt.omega0)\n", ""),),
        f"{TEST_SPECTRUM}::test_public_entry_points_refuse_a_frequency_that_is_not_positive",
    ),
    Mutant(
        "shift-estimate-keeps-a-step-outside-the-window",
        SPECTRUM,
        (("        if not _in_window(omega, omega0, limit):\n            return best\n        best = omega - omega0\n", "        best = omega - omega0\n"),),
        f"{TEST_SPECTRUM}::test_a_shift_estimate_stays_above_zero_frequency",
    ),
    Mutant(
        "psi-built-in-the-sample-buffer",
        SPECTRUM,
        (("        psi /= C0\n        return psi\n", "        np.divide(psi, C0, out=omega)\n        return omega\n"),),
        f"{TEST_SPECTRUM}::test_a_scan_reads_its_samples_and_leaves_them_as_they_were",
    ),
    Mutant(
        "scan-takes-the-medium-slope-again",
        SPECTRUM,
        (("        n_at, psi = self.response(omega, omega0, slope=False)\n", "        n_at, psi = self.response(omega, omega0)[:2]\n"),),
        f"{TEST_SPECTRUM}::test_a_full_scan_pass_peaks_below_six_of_its_arrays",
    ),
    Mutant(
        "locate-tolerance-reverted-to-resolution-over-1e4",
        SPECTRUM,
        (("xtol = min(_step(half_span, points), half_span / 1000.0) / 1e4", "xtol = _step(half_span, points) / 1e4"),),
        f"{TEST_SPECTRUM}::test_a_sweep_row_locates_at_its_2001_point_twins_double",
    ),
    Mutant(
        "eta-as-a-product-with-the-reciprocal-shift",
        SPECTRUM,
        (("dw, (resonance - rt.omega0) / dw,", "dw, (resonance - rt.omega0) * (1.0 / dw),"),),
        "tests/test_golden.py::test_sweeps_match_their_digests",
    ),
    Mutant(
        "analytic-eta-as-a-product-with-the-reciprocal-shift",
        SPECTRUM,
        (("(g / dw) ** (2.0 / 3.0)", "(g * (1.0 / dw)) ** (2.0 / 3.0)"),),
        f"{TEST_SPECTRUM}::test_batched_sweep_equals_the_per_shift_loop_bit_for_bit",
    ),
    Mutant(
        "exact-centre-gate-skips-the-window-test",
        SPECTRUM,
        (("profile.center == w0 and limit < w0:\n", "profile.center == w0:\n"),),
        f"{TEST_SPECTRUM}::test_the_exact_centre_is_gated_per_kernel_and_per_row",
    ),
    Mutant(
        "exact-centre-gate-skips-the-finiteness-test",
        SPECTRUM,
        (
            ("            if bound < _FINITE:\n", "            if True:\n"),
            (" and -drive < delta_length < drive:\n", ":\n"),
        ),
        "tests/test_cli.py::test_a_response_too_strong_to_scan_is_refused_before_the_scan",
    ),
    Mutant(
        "exact-centre-gate-ignores-the-row-drive",
        SPECTRUM,
        (("        if ne + e > 0.0 and -drive < delta_length < drive:\n", "        if True:\n"),),
        f"{TEST_SPECTRUM}::test_the_exact_centre_is_gated_per_kernel_and_per_row",
    ),
    Mutant(
        "exact-cubic-drops-e-from-its-cubic-term",
        SPECTRUM,
        (("cubic_root(ne + e, ", "cubic_root(ne, "),),
        f"{TEST_SPECTRUM}::test_exact_row_centres_are_zeros_of_psi",
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
        "polish-stop-without-its-repeat-test",
        SPECTRUM,
        (("            if base + nxt == omega and abs(2.0 * f)", "            if abs(2.0 * f)"),),
        f"{TEST_SPECTRUM}::test_polish_returns_every_offset_of_the_loop_without_its_stop",
    ),
    Mutant(
        "polish-stop-returns-the-evaluated-offset",
        SPECTRUM,
        (("                return nxt\n", "                return at\n"),),
        f"{TEST_SPECTRUM}::test_polish_returns_every_offset_of_the_loop_without_its_stop",
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
