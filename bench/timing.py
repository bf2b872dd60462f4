"""Spans around the benchmark's calls into the package, and a speed-calibrated clock.

On the 2-core VM where this benchmark was tuned, speed changes by about 20%
between 10-second stretches (other tenants share its cores and memory), which
swamps the differences the benchmark exists to show.  `Clock` runs a fixed
pure-Python calibration sweep, independent of the package, about once every
SLICE seconds between timed calls, and scales each wall-clock duration to
reference speed: the speed at which that sweep takes REFERENCE_S.  The scale
for a duration is the median sweep time within WINDOW seconds of its
midpoint, so that one noisy sweep does not move it.  The sweep relaxes a
256 x 256 table, like the package's own kernels at the size of dense-256, so
it feels the same cache and memory contention they do.
"""

from __future__ import annotations

import bisect
import json
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

SLICE = 0.3  # seconds of work per calibration sweep
WINDOW = 2.0  # seconds either side of a duration whose sweeps set its scale
BURST = 8  # most sweeps run at one tick, after a long call
REFERENCE_S = 0.0125  # calibration sweep seconds at reference speed
PARSE_REFERENCE_S = 0.011  # parse sweep seconds at reference speed
_SIZE = 256
_rng = random.Random("calibration")
_TABLE = [[_rng.random() for _ in range(_SIZE)] for _ in range(_SIZE)]
_TEXT = "".join(
    f"{_rng.randint(1, 64)} {_rng.randint(1, 64)} {_rng.randint(0, 1000)}\n" for _ in range(4000)
)
del _rng


def _sweep() -> None:
    """Two rounds of the bottleneck relaxation over a copy of the table."""
    rows = [r[:] for r in _TABLE]
    for k in (0, _SIZE // 2):
        rk = rows[k]
        for ri in rows:
            rik = ri[k]
            for j in range(_SIZE):
                c = rk[j]
                if rik > c:
                    c = rik
                if c < ri[j]:
                    ri[j] = c


def parse_sweep_seconds() -> float:
    """Seconds of one pass that parses a fixed edge-list text, as set-up does.

    Set-up is string splitting, number parsing and small allocations, which
    the host's load slows down differently from the table sweep, so set-up
    times are scaled by this pass, run just before and just after each one.
    """
    t0 = time.perf_counter()
    edges, seen, adj = [], set(), {}
    for line in _TEXT.splitlines():
        u, v, w = line.split()
        e = (min(int(u), int(v)), max(int(u), int(v)))
        seen.add(e)
        edges.append((e, float(w)))
        adj.setdefault(e[0], []).append(len(edges))
    return time.perf_counter() - t0


class Clock:
    """Calibration marks (midpoint, sweep seconds), in time order, and parse sweeps."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.cal: list[float] = []
        self.parse_cal: list[float] = []  # parse sweep seconds, two per set-up

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        _sweep()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.cal.append(t1 - t0)

    def tick(self) -> None:
        """Run one sweep per SLICE seconds since the last (at least one at the start)."""
        due = 1 if not self.at else int((time.perf_counter() - self.at[-1]) / SLICE)
        for _ in range(min(due, BURST)):
            self.calibrate()

    def seconds(self, t0: float, t1: float) -> float:
        """Duration t1 - t0 at reference speed."""
        mid, half = (t0 + t1) / 2, max(WINDOW, (t1 - t0) / 2)
        lo, hi = bisect.bisect_left(self.at, mid - half), bisect.bisect_right(self.at, mid + half)
        if lo == hi:  # no sweep that near: use the nearest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return (t1 - t0) * REFERENCE_S / statistics.median(self.cal[lo:hi])


class Tracer:
    """Spans kept in memory: id, parent id, name, start, end (perf_counter), attrs."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def named(self, name: str, under: str | None = None) -> list[dict]:
        """Spans called `name`, optionally only those opened directly inside an `under` span."""
        return [
            s
            for s in self.spans
            if s["name"] == name
            and (under is None or (s["parent"] is not None and self.spans[s["parent"]]["name"] == under))
        ]

    def write(self, path: Path, **meta) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": self.spans}) + "\n", encoding="utf-8")


class _NoTrace:
    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs


NO_TRACE = _NoTrace()
