"""Every shipped scenario x command x format against its golden output,
and every generated sweep against its digest.

The goldens in tests/golden/ record the exit code of all runs and, for the
runs that exit 0, stdout (without `wrote:` lines) and every written file.
A refactor must reproduce them byte for byte; a deliberate output change
regenerates them with `PYTHONPATH=src python tests/golden_runs.py` and says
why in the change.
"""

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
