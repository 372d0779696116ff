"""Line counts of the package, the two ways ROADMAP aim 2 tracks them.

For each module of src/fastlight and in total, prints its physical lines,
as `wc -l` counts them, and its logical lines, the NEWLINE tokens of
`tokenize`, which re-wrapping a statement does not change.

    python tests/line_counts.py [DIR]

counts DIR/*.py, src/fastlight by default. It is run by hand, like
golden_runs.py.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fastlight"


def counts(path: Path) -> tuple[int, int]:
    """(physical lines, logical lines) of one source file."""
    data = path.read_bytes()
    with path.open("rb") as f:
        logical = sum(token.type == tokenize.NEWLINE for token in tokenize.tokenize(f.readline))
    return data.count(b"\n"), logical


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else PACKAGE
    rows = [(path.stem, *counts(path)) for path in sorted(directory.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    width = max(len(row[0]) for row in rows)
    print(f"{'module':<{width}}  {'wc -l':>6}  {'logical':>7}")
    for name, physical, logical in rows:
        print(f"{name:<{width}}  {physical:>6,}  {logical:>7,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
