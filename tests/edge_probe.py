"""Edge-value probe: each numeric line of each shipped scenario set to each
edge value, and each optional key a scenario leaves unset appended at each,
under every command.

    PYTHONPATH=src python tests/edge_probe.py OUT.json
    python tests/edge_probe.py --diff OLD.json NEW.json

The first form makes every run in-process through cli.main and writes, per
run, its exit code, its stderr, any warnings and, at exit 0, its stdout. The
second lists every run whose record differs between two such files and exits
1 if any does. Run it before and after a change that may move an exit code;
point PYTHONPATH at another checkout's src/ to probe that code with the same
runs. It is run by hand, like golden_runs.py; test_cli.py's
test_every_edge_value_on_every_line_exits_cleanly makes the same runs from
`edge_cases`, so the two cannot drift.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = ("tabletop_rlg", "cad_sweep", "enhancement_demo", "slowlight_interferometer")
# finite edge values; nan and inf, which exit 2, are added to each line
EDGE_VALUES = (0.0, -1.0, 1e300, -1e300, 1e-300, 5e-324)
# optional keys that no shipped scenario sets
UNSET_KEYS = ("background_index", "fill_fraction", "quantum_efficiency", "snr")
# the edited scenario's path as it appears in a record
EDITED = "edited.scenario"


def numeric_lines(lines: list[str]):
    """(index, key, value) of each scenario line that sets a single number."""
    for i, line in enumerate(lines):
        key, _, rest = line.partition("=")
        try:
            value = float(rest.split("#", 1)[0])
        except ValueError:
            continue
        yield i, key, value


def edge_cases(scenario: str):
    """(key, value, text) of each edit of a shipped scenario, by stem: each
    numeric line set to each edge value, nan and inf, and each optional key
    it leaves unset (`medium_target_group_index` too on a CAD medium)
    appended at each."""
    text = (REPO / "scenarios" / f"{scenario}.scenario").read_text(encoding="utf-8")
    lines = text.splitlines()
    edits = list(numeric_lines(lines))
    unset = UNSET_KEYS + (("medium_target_group_index",) if "medium = cad" in lines else ())
    # an edit at the index past the last line appends it
    edits += [(len(lines), f"{key} ", None) for key in unset if f"{key} =" not in text]
    for i, key, _ in edits:
        for value in EDGE_VALUES + (math.nan, math.inf):
            yield key.strip(), value, "\n".join(lines[:i] + [f"{key}= {value!r}"] + lines[i + 1:]) + "\n"


def run_command(command: str, path) -> tuple[int, str, str, list[str]]:
    """(exit code, stdout, stderr, warning texts) of `fastlight <command>
    --scenario <path>`, run in-process."""
    from fastlight.cli import main

    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([command, "--scenario", str(path)])
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def probe() -> dict[str, dict]:
    """Each run's record, by '<scenario> <command> <key> = <value>'."""
    from fastlight.cli import COMMANDS

    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / EDITED
        for scenario in SCENARIOS:
            for key, value, text in edge_cases(scenario):
                path.write_text(text, encoding="utf-8")
                for command in COMMANDS:
                    code, out, err, caught = run_command(command, path)
                    records[f"{scenario} {command} {key} = {value!r}"] = {
                        "exit": code,
                        "stderr": err.replace(str(path), EDITED),
                        "warnings": caught,
                        "stdout": out.replace(str(path), EDITED) if code == 0 else None,
                    }
    return records


def diff(old: dict[str, dict], new: dict[str, dict]) -> list[str]:
    """One line for each run whose record differs, or that only one side made."""
    lines = []
    for run in sorted(old.keys() | new.keys()):
        a, b = old.get(run), new.get(run)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{run}: only {'new' if a is None else 'old'}")
            continue
        change = f"exit {a['exit']} -> {b['exit']}"
        for field in ("stderr", "warnings"):
            if a[field] != b[field]:
                change += f"; {field} {a[field]!r} -> {b[field]!r}"
        if a["stdout"] != b["stdout"]:
            change += "; stdout differs"
        lines.append(f"{run}: {change}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        lines = diff(old, new)
        print("".join(line + "\n" for line in lines) + f"{len(lines)} of {len(new)} runs differ")
        return 1 if lines else 0
    if len(argv) == 1 and not argv[0].startswith("-"):
        records = probe()
        Path(argv[0]).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{len(records)} runs, {sum(r['exit'] == 0 for r in records.values())} exit 0, written to {argv[0]}")
        return 0
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
