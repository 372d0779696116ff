"""Golden outputs of the shipped scenarios: every command in both formats.

Each run is `fastlight <command> --scenario scenarios/<name>.scenario --out
<dir> --format csv|json`, made in-process through cli.main from the root of
the repository. The goldens keep the exit code of every run and, for the runs
that exit 0, stdout without its `wrote:` lines plus every file written.

    PYTHONPATH=src python tests/golden_runs.py

rewrites tests/golden/ from the code on the path; test_golden.py compares
the current code against it byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from pathlib import Path

from fastlight.cli import COMMANDS, main

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"
SCENARIOS = sorted(p.stem for p in (REPO / "scenarios").glob("*.scenario"))
FORMATS = ("csv", "json")
CASES = [(s, c, f) for s in SCENARIOS for c in COMMANDS for f in FORMATS]


def run_case(scenario: str, command: str, fmt: str, out_dir: Path) -> tuple[int, bytes, dict[str, bytes]]:
    """(exit code, stdout without `wrote:` lines, written files by name).

    Must be called with the repository root as working directory, since the
    scenario path is echoed in stdout as given.
    """
    argv = [command, "--scenario", f"scenarios/{scenario}.scenario", "--out", str(out_dir), "--format", fmt]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    lines = out.getvalue().splitlines(keepends=True)
    stdout = "".join(line for line in lines if not line.startswith("wrote: ")).encode("utf-8")
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.is_dir() else {}
    return code, stdout, files


def case_key(scenario: str, command: str, fmt: str) -> str:
    """Name of a run; also its directory under tests/golden/."""
    return f"{scenario}/{command}.{fmt}"


def load_exit_codes() -> dict[str, int]:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


def write_goldens() -> None:
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir(parents=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (scenario, command, fmt) in enumerate(CASES):
            code, stdout, files = run_case(scenario, command, fmt, Path(tmp) / str(i))
            codes[case_key(scenario, command, fmt)] = code
            if code != 0:
                continue
            target = GOLDEN / case_key(scenario, command, fmt)
            (target / "files").mkdir(parents=True)
            (target / "stdout.txt").write_bytes(stdout)
            for name, data in files.items():
                (target / "files" / name).write_bytes(data)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")
    ok = sum(1 for c in codes.values() if c == 0)
    print(f"{len(codes)} runs, {ok} exit 0, goldens in {GOLDEN}")


if __name__ == "__main__":
    os.chdir(REPO)
    write_goldens()
