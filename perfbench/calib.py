"""Host-speed calibration: a fixed pure-Python reference loop brackets
every timed slice of the benchmark.

The machines this benchmark runs on change speed in phases that last
several seconds (a pure-Python loop can take anywhere from 1x to ~2x
its best time inside one process).  Raw wall time therefore drifts far
more between runs than any change worth measuring.  Each timed slice is
kept short and the reference loop is timed right before and right
after it; the slice's *calibrated* time is its wall time scaled by how
far the adjacent reference runs were from their nominal time:

    calibrated = wall * (NOMINAL_REF_S / mean(ref_before, ref_after)) ** exponent

The exponent is the elasticity of a workload's host time to the
reference loop's speed, a constant of each workload (``workloads.py``):
Python-bound work slows in step with the loop (1.0), numpy-heavy work
less (0.7).  On a 2-vCPU x86 VM, five runs of identical scan work
spread 44% (max - min over median) in raw wall time and 3% calibrated.

This module imports nothing from ``repro``, so a change to the program
cannot change the yardstick.
"""

from __future__ import annotations

import heapq
import statistics
import time
from contextlib import contextmanager

#: Reference-loop time at nominal speed (seconds); calibrated seconds
#: are wall seconds at this speed.
NOMINAL_REF_S = 0.010


class _Slot:
    __slots__ = ("a", "b", "c")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b
        self.c = None

    def mix(self, x: int) -> int:
        return self.a * x + self.b


def _generators(n: int) -> int:
    """Event-heap ping-pong between generators (the simulator's shape)."""
    heap: list = []
    seq = 0

    def proc():
        total = 0
        while True:
            total += yield total

    gens = [proc() for _ in range(16)]
    for g in gens:
        next(g)
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000 / 7.0, seq, i & 15))
        seq += 1
        if len(heap) > 32:
            _t, s, g = heapq.heappop(heap)
            gens[g].send(s)
    return seq


def _objects(n: int) -> int:
    """Small-object allocation, attribute access and method calls."""
    keep: list = []
    total = 0
    for i in range(n):
        p = _Slot(i, i + 1)
        total += p.mix(3)
        p.c = {"k": i, "v": [i, total]}
        keep.append(p)
        if len(keep) > 100:
            keep = keep[50:]
    return total


def _strings(n: int) -> int:
    """Formatting, splitting and joining short keys."""
    total = 0
    for i in range(n):
        key = f"obj-{i}/s{i & 7}/d{i % 9}"
        parts = key.split("/")
        total += len("|".join(parts)) + key.startswith("obj-1")
    return total


def _arith(n: int) -> int:
    """Integer arithmetic and dict updates."""
    table: dict = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = table.get(i & 255, 0) + acc
    return acc


def reference_loop() -> int:
    """The fixed yardstick: about 10 ms of mixed pure-Python work."""
    return _generators(2500) + _objects(3000) + _strings(2000) + _arith(5000)


def time_reference() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


class Calibrator:
    """Times slices of work in calibrated seconds, per named stage.

    ``with cal.slice("timed"): ...`` runs the body and charges its wall
    and calibrated seconds to the stage; the reference loop runs once
    after every slice, so each reference timing serves as the "after"
    of one slice and the "before" of the next.

    A ``profiler`` (``cProfile.Profile``) set on the calibrator runs
    only inside the ``timed`` slices: set-up, the reference loop and the
    correctness checks between slices stay out of the profile.
    """

    def __init__(self, exponent: float = 1.0) -> None:
        self.exponent = exponent
        self.refs: list[float] = [time_reference()]
        self.wall: dict[str, float] = {}
        self.cal: dict[str, float] = {}
        self.slices: dict[str, int] = {}
        self.profiler = None

    @contextmanager
    def slice(self, stage: str):
        profiler = self.profiler if stage == "timed" else None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        yield
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start
        before = self.refs[-1]
        after = time_reference()
        self.refs.append(after)
        adjacent = (before + after) / 2.0
        self.wall[stage] = self.wall.get(stage, 0.0) + wall
        scale = (NOMINAL_REF_S / adjacent) ** self.exponent
        self.cal[stage] = self.cal.get(stage, 0.0) + wall * scale
        self.slices[stage] = self.slices.get(stage, 0) + 1

    def ref_summary(self) -> dict:
        """Per-run spread of the reference timings: a run taken during a
        speed swing shows as a wide spread or a far-off median."""
        return {
            "count": len(self.refs),
            "median_s": statistics.median(self.refs),
            "min_s": min(self.refs),
            "max_s": max(self.refs),
            "iqr_over_median": spread(self.refs),
        }
