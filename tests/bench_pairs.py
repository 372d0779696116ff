"""Paired benchmark runs of two checkouts, in alternating order.

    python tests/bench_pairs.py PARENT CHANGE [--workload sweep] [--pairs 10]
        [--seconds 50] [--seed N]

runs `perfbench/run.py --trace 0` in each checkout, from that checkout's
root, once per pair: pair k runs both sides at seed N + k, the parent first
in even pairs and the change first in odd ones, so that a drift of the host
load over the runs favours neither side. It prints each pair's
end-to-end metrics and failed ops, then, per metric, both medians, the
parent's quartiles, the change's median gain in the better direction, and
in how many pairs the change did better. The metrics and their directions
are read from BENCHMARK.json at the root of this repository; each result is
read from the last line of perfbench's stdout, and nothing under perfbench/
is changed. It is run by hand, like edge_probe.py.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def end_to_end() -> list[tuple[str, str]]:
    """(name, better) of each end-to-end metric, in BENCHMARK.json's order."""
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["better"]) for m in bench["end_to_end"]]


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one perfbench run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=4.0 * seconds + 600.0,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def row(label: str, result: dict, metrics) -> str:
    values = " ".join(f"{name}={result['metrics'][name]['value']:.6g}" for name, _ in metrics)
    return f"  {label:<6} {values} failed={result['failed']}/{result['attempted']}"


def summary(metrics, results: list[tuple[dict, dict]]) -> list[str]:
    """Per metric: both medians, the parent's quartiles, the median gain and
    the change's wins."""
    lines = [f"{'metric':<12} {'better':<7} {'parent p50':>12} {'change p50':>12} "
             f"{'parent q1':>12} {'parent q3':>12} {'gain':>8} {'wins':>6}"]
    for name, better in metrics:
        old = [parent["metrics"][name]["value"] for parent, _ in results]
        new = [change["metrics"][name]["value"] for _, change in results]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
        mid_old, mid_new = statistics.median(old), statistics.median(new)
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else (old[0],) * 3
        gain = sign * (mid_new - mid_old) / mid_old if mid_old else float("nan")
        lines.append(
            f"{name:<12} {better:<7} {mid_old:>12.6g} {mid_new:>12.6g} {q1:>12.6g} {q3:>12.6g} "
            f"{gain:>+8.2%} {wins:>3}/{len(results)}"
        )
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", default="sweep")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = end_to_end()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = []
    for k in range(args.pairs):
        seed = args.seed + k
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        got = {side: run(sides[side], args.workload, seed, args.seconds) for side in order}
        print(f"pair {k + 1} seed {seed} ({order[0]} first)", flush=True)
        for side in ("parent", "change"):
            print(row(side, got[side], metrics), flush=True)
        results.append((got["parent"], got["change"]))
    print("\n".join(summary(metrics, results)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
