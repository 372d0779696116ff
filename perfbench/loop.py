"""The closed loop shared by run.py and worker.py: one client, one op at a time,
and the two host-speed probes that the end-to-end times are scaled by."""

from __future__ import annotations

import math
import subprocess
import time

import numpy as np

# The reference speed: a host on which one `kernel()` takes this long ...
REFERENCE_S = 0.003
# ... and a fresh interpreter running STARTUP_PROBE this long.
STARTUP_REFERENCE_S = 0.12
# Start-up and standard-library imports only; isolated (-I) from ./src.
STARTUP_PROBE = ("-I", "-c", "import json, decimal, email.parser, http.client, "
                 "xml.dom.minidom, asyncio, unittest, argparse")


def kernel() -> float:
    """Fixed Python and numpy work that uses no fastlight code."""
    x = np.linspace(0.0, 1.0, 400)
    acc = 0.0
    for k in range(300):
        acc += float((np.sin(x * (k + 1)) / (1.0 + x * x)).sum()) + math.sqrt(k + 1.0)
    return acc


def host_slowdown() -> float:
    """How much slower than the reference the host runs right now: the time
    of one kernel over REFERENCE_S.

    Other tenants' load makes every op on a shared host up to 1.7x slower for
    seconds to minutes at a time, and this kernel slows with it (per 1.5 s of
    sweep ops the kernel-scaled time varied by 2.6% where the raw time varied
    by 16%). A change to fastlight does not change the kernel's time.
    """
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) / REFERENCE_S


def startup_slowdown(exe: str) -> float:
    """How much slower than the reference a fresh interpreter starts and
    imports right now: one run of STARTUP_PROBE over STARTUP_REFERENCE_S.

    The host's process start-up drifts on its own: over 14 minutes the
    2-minute medians of a fresh `import fastlight.cli` ranged over a factor
    1.48 (0.65-0.96 s), their ratio to this probe over a factor 1.20 (to
    `import numpy`: 1.37). The kernel above does not follow start-up at all.
    A change to fastlight does not change the probe's time.
    """
    start = time.perf_counter()
    subprocess.run([exe, *STARTUP_PROBE], capture_output=True, check=True, timeout=60)
    return (time.perf_counter() - start) / STARTUP_REFERENCE_S


class Phase:
    """Latencies, failures and per-op loop times of one closed-loop phase.

    A phase can be run in several segments; each continues the op list where
    the last one stopped. With a `probe` (host_slowdown or startup_slowdown)
    the host speed is probed after every completed op, off the op's clock
    and off its loop time.
    `slowdown[i]` is the mean of the probes on either side of op i, and
    `cycle[i]` is op i's time in the loop, its output check included.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.lat: list[float] = []
        self.slowdown: list[float] = []
        self.cycle: list[float] = []
        self.last_probe: float | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.next = 0  # index of the next op

    def run(self, ops, execute, seconds: float, min_ops: int = 0) -> None:
        """Run ops until `seconds` pass and `min_ops` are done.

        `execute(op)` returns the op's latency and raises if the op failed or
        its output is wrong; the failure is counted and the loop goes on.
        """
        deadline = time.perf_counter() + seconds
        done = 0
        while done < min_ops or time.perf_counter() < deadline:
            op = ops[self.next % len(ops)]
            self.next += 1
            done += 1
            self.attempted += 1
            start = time.perf_counter()
            try:
                latency = execute(op)
            except Exception as exc:  # recorded and reported, never fatal
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{type(exc).__name__}: {exc} [{op.get('command', 'sweep')}]")
                continue
            self.cycle.append(time.perf_counter() - start)
            self.lat.append(latency)
            if self.probe:
                after = self.probe()
                before = after if self.last_probe is None else self.last_probe
                self.slowdown.append((before + after) / 2.0)
                self.last_probe = after

    def as_dict(self) -> dict:
        return {"lat": self.lat, "slowdown": self.slowdown, "cycle": self.cycle, "attempted": self.attempted,
                "failed": self.failed, "errors": self.errors}
