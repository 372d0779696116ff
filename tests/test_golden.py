"""Every shipped scenario x command x format against its golden output,
and every generated sweep against its digest.

The goldens in tests/golden/ record the exit code of all runs and, for the
runs that exit 0, stdout (without `wrote:` lines) and every written file.
A refactor must reproduce them byte for byte; a deliberate output change
regenerates them with `PYTHONPATH=src python tests/golden_runs.py` and says
why in the change.
"""

import csv
import json

import pytest
from golden_runs import (
    CASES,
    GOLDEN,
    REPO,
    case_key,
    load_exit_codes,
    load_sweep_digests,
    run_case,
    sweep_cases,
    sweep_digest,
)

from fastlight.cli import _QUANTITIES, Report
from fastlight.resonator import ETA_CONVENTIONS

EXIT_CODES = load_exit_codes()


def test_goldens_cover_every_case():
    assert sorted(EXIT_CODES) == sorted(case_key(*case) for case in CASES)


@pytest.mark.parametrize("scenario,command,fmt", CASES, ids=[case_key(*case) for case in CASES])
def test_matches_golden(scenario, command, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    code, stdout, files = run_case(scenario, command, fmt, tmp_path / "out")
    key = case_key(scenario, command, fmt)
    assert code == EXIT_CODES[key]
    if code != 0:
        assert files == {}
        return
    golden = GOLDEN / key
    assert stdout == (golden / "stdout.txt").read_bytes()
    expected = {p.name: p.read_bytes() for p in sorted((golden / "files").iterdir())}
    assert sorted(files) == sorted(expected)
    for name, data in expected.items():
        assert files[name] == data, name


def test_sweeps_match_their_digests():
    cases = sweep_cases()
    digests = load_sweep_digests()
    assert len(digests) == len(cases)
    for i, (case, digest) in enumerate(zip(cases, digests)):
        assert sweep_digest(case) == digest, f"sweep {i} is the first that moved: {case}"


def table_entries() -> dict[str, set[tuple[str, str]]]:
    """Every (unit, tag) that each key of the table may print: each of its
    variants, under either convention."""
    entries = {}
    for convention in ETA_CONVENTIONS:
        report = Report("table", None, convention)
        for key, (_, tags) in _QUANTITIES.items():
            for variant in tags if isinstance(tags, dict) else [None]:
                report.add(key, 0.0, variant)
                entry = report.results[key]
                entries.setdefault(key, set()).add((entry["unit"], entry["formula"]))
    return entries


def printed_entries(golden) -> list[tuple[str, str, str, str]]:
    """(where, key, unit, tag) of every result in one golden run's stdout and
    its CSV or JSON results file."""
    printed = []
    for line in (golden / "stdout.txt").read_text(encoding="utf-8").splitlines():
        if " = " in line:
            key, _, rest = line.partition(" = ")
            value_unit, _, tag = rest.partition("  [")
            printed.append(("stdout", key, value_unit.partition(" ")[2], tag.removesuffix("]")))
    for path in sorted((golden / "files").iterdir()):
        if path.name.endswith("_results.csv"):
            rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
            assert rows[0] == ["quantity", "value", "unit", "formula"]
            printed += [(path.name, key, unit, tag) for key, _, unit, tag in rows[1:]]
        elif path.suffix == ".json":
            results = json.loads(path.read_text(encoding="utf-8"))["results"]
            printed += [(path.name, key, r["unit"], r["formula"]) for key, r in results.items()]
    return printed


def test_every_printed_key_is_one_table_entry_and_every_entry_is_printed():
    # the table in cli is the one place a key's unit and tag are written: each
    # result the golden runs print, on stdout and in its file, is a key of the
    # table with one of that key's tags, and each key of the table is printed
    entries = table_entries()
    assert all("{" not in tag for tags in entries.values() for _, tag in tags)
    seen = set()
    for scenario, command, fmt in CASES:
        key = case_key(scenario, command, fmt)
        if EXIT_CODES[key] != 0:
            continue
        printed = printed_entries(GOLDEN / key)
        results_file = f"{command}_results.csv" if fmt == "csv" else f"{command}.json"
        assert {where for where, *_ in printed} == {"stdout", results_file}
        for where, name, unit, tag in printed:
            assert (unit, tag) in entries.get(name, ()), f"{key} {where}: {name} [{unit}] [{tag}]"
            seen.add(name)
    assert seen == set(entries)
