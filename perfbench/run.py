#!/usr/bin/env python3
"""The repo benchmark: one command, three workloads, both stores.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (cProfile plus the program's Tracer)
and that run's overhead against an untraced one.  Every query result,
Get and fsck is checked along the way; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
WORKLOADS.md describes the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: The traced run and its untraced twin each do this share of the work
#: ``--seconds`` asks for, so that both fit in one run's time budget.
TRACE_SHARE = 0.5


def _ms(values: list[float], pct: float) -> float:
    from repro.cluster.metrics import percentile

    return percentile(values, pct) * 1e3


def _setup(setup, seed: int, cal, repeats: int):
    from workloads import reset_counters

    times = []
    state = None
    for _ in range(repeats):
        state = None  # free the previous copy before building the next
        before = cal.cal.get("setup", 0.0)
        state = setup(seed, cal)
        times.append(cal.cal["setup"] - before)
    reset_counters(state)
    return state, times


def end_to_end(state, cal, setup_times: list[float]) -> dict:
    systems = state.systems
    ops = sum(s.attempted for s in systems.values())
    answered = sum(s.answered for s in systems.values())
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "host_ops_per_cal_s": (ops / cal.cal["timed"], "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "answered_ratio": (answered / ops, "ratio"),
    }
    from common import since_mark

    for kind, s in systems.items():
        m[f"{kind}.query_p50_ms"] = (_ms(s.query_latencies, 50), "ms")
        m[f"{kind}.query_p99_ms"] = (_ms(s.query_latencies, 99), "ms")
        # Request traffic: repair moves its bytes over the same network
        # but is reported through repair_s and the durability counters.
        request_bytes = (since_mark(s, "net_bytes") - since_mark(s, "repair_bytes")
                         - since_mark(s, "read_repair_bytes"))
        m[f"{kind}.net_bytes_per_op"] = (request_bytes / s.attempted, "B")
        m[f"{kind}.put_p90_ms"] = (_ms(s.put_latencies, 90), "ms")
        m[f"{kind}.repair_s"] = (statistics.median(s.repair_seconds), "s")
    fusion = systems["fusion"]
    m["fusion.storage_overhead"] = (fusion.cluster.stored_bytes / sum(fusion.live.values()), "ratio")
    m["fusion.max_qps_at_slo"] = (state.extra["max_qps_at_slo"], "1/s")
    return m


def _count_lookups(cache, tally: dict) -> None:
    """Count lookups and misses on one store's decode cache (traced run)."""
    original = cache.get

    def get(key, default=None):
        value = original(key, default)
        tally["lookups"] += 1
        tally["misses"] += value is None
        return value

    cache.get = get


def per_layer(state, cal, stats: pstats.Stats, untraced_cal_s: float, tally: dict) -> dict:
    from common import since_mark
    from layers import LAYERS, call_count, rollup
    from repro.obs.critpath import CATEGORIES, CriticalPathAnalyzer

    systems = state.systems
    ops = sum(s.attempted for s in systems.values())
    self_s, calls, grand = rollup(stats)
    to_cal = cal.cal["timed"] / cal.wall["timed"]
    m: dict = {"trace.overhead_ratio": (cal.cal["timed"] / untraced_cal_s, "ratio")}
    for layer in LAYERS:
        own = self_s.get(layer, 0.0)
        m[f"{layer}.self_share"] = (own / grand if grand else 0.0, "ratio")
        m[f"{layer}.self_cal_ms_per_op"] = (own * to_cal / ops * 1e3, "ms")
        m[f"{layer}.calls_per_op"] = (calls.get(layer, 0) / ops, "count")
    events = sum(since_mark(s, "events") for s in systems.values())
    m["simcore.events_per_op"] = (events / ops, "count")
    lookups = tally["lookups"]
    m["store.decode_cache_hit_ratio"] = (
        1.0 - tally["misses"] / lookups if lookups else 0.0, "ratio")

    f = systems["fusion"]
    fops = f.attempted
    qms = f.query_metrics
    pushed = sum(q.pushed_down_chunks for q in qms)
    chunks = pushed + sum(q.fallback_chunks for q in qms)
    m["engine.pushdown_chunk_ratio"] = (pushed / chunks if chunks else 0.0, "ratio")
    for name, attr, unit in (
        ("scatter_gather.rpcs_per_op", "rpcs_issued", "count"),
        ("scatter_gather.rpcs_saved_per_op", "rpcs_saved", "count"),
        ("scatter_gather.retries_per_op", "retries", "count"),
        ("scatter_gather.hedges_per_op", "hedges", "count"),
        ("scatter_gather.degraded_reads_per_op", "degraded_reads", "count"),
        ("cluster.refusals_per_op", "refusal_attempts", "count"),
        ("cluster.quota_exceeded_per_op", "quota_exceeded", "count"),
    ):
        m[name] = (sum(getattr(q, attr) for q in qms) / fops, unit)
    m["cluster.breaker_trips"] = (since_mark(f, "breaker_trips"), "count")
    m["cluster.disk_bytes_per_op"] = (since_mark(f, "disk_bytes") / fops, "B")
    # Repair bytes are simulated (scaled) bytes; so are the user bytes here.
    user_bytes = sum(f.live.values()) * f.store.config.size_scale
    m["durability.repair_bytes_per_user_byte"] = (since_mark(f, "repair_bytes") / user_bytes, "ratio")
    m["durability.wal_records_per_op"] = (call_count(stats, "core/wal.py", "append") / ops, "count")
    m["durability.read_repair_bytes"] = (since_mark(f, "read_repair_bytes"), "B")
    stored = sum(b for b, _o in f.overheads)
    m["layout.overhead_vs_optimal"] = (sum(b * o for b, o in f.overheads) / stored, "ratio")
    for kind, s in systems.items():
        tracer = s.sim.tracer
        shares = CriticalPathAnalyzer(tracer).aggregate(tracer.find("query"))["fraction"]
        for cat in CATEGORIES:
            m[f"critpath.{kind}.{cat}_share"] = (shares[cat], "ratio")
    return m


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, object]:
    from calib import Calibrator
    from workloads import WORKLOADS

    setup, timed, exponent = WORKLOADS[workload]
    cal = Calibrator(exponent)
    if not trace:
        state, setup_times = _setup(setup, seed, cal, SETUP_REPEATS)
        timed(state, seconds, cal)
        return end_to_end(state, cal, setup_times), _detail(state, cal, setup_times), state

    from repro.obs.tracer import Tracer

    seconds *= TRACE_SHARE
    state, _times = _setup(setup, seed, cal, 1)
    timed(state, seconds, cal)
    untraced_cal_s = cal.cal["timed"]
    state = None
    traced_cal = Calibrator(exponent)
    state, setup_times = _setup(setup, seed, traced_cal, 1)
    tally = {"lookups": 0, "misses": 0}
    for s in state.systems.values():
        s.sim.tracer = Tracer(s.sim)
        _count_lookups(s.store._decode_cache, tally)
        if hasattr(s.store, "fallback_store"):
            _count_lookups(s.store.fallback_store._decode_cache, tally)
    traced_cal.profiler = cProfile.Profile()
    timed(state, seconds, traced_cal)
    stats = pstats.Stats(traced_cal.profiler)
    metrics = per_layer(state, traced_cal, stats, untraced_cal_s, tally)
    detail = _detail(state, traced_cal, setup_times)
    detail["untraced_timed_cal_s"] = untraced_cal_s
    return metrics, detail, state


def _detail(state, cal, setup_times: list[float]) -> dict:
    """What the gated numbers rest on: sample counts, raw wall seconds,
    the reference-loop spread and the rate ladders."""
    return {
        "setup_cal_s": setup_times,
        "timed_cal_s": cal.cal["timed"],
        "timed_wall_s": cal.wall["timed"],
        "setup_wall_s": cal.wall.get("setup", 0.0),
        "timed_slices": cal.slices["timed"],
        "reference": cal.ref_summary(),
        "systems": {
            kind: {
                "attempted": s.attempted,
                "answered": s.answered,
                "refused": s.refused,
                "query_samples": len(s.query_latencies),
                "put_samples": len(s.put_latencies),
                "repairs": len(s.repair_seconds),
                "ladder_rate_p90_answered": s.ladder,
            }
            for kind, s in state.systems.items()
        },
    }


def _number(value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"metric is not a finite number: {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["scan", "ingest_repair", "tenant_storm"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: the program is not here ({SRC / 'repro'} is missing); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from common import WrongResult

    started = time.perf_counter()
    try:
        metrics, detail, state = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WrongResult as exc:
        print(f"error: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    detail["run_wall_s"] = time.perf_counter() - started
    print("detail: " + json.dumps(detail, sort_keys=True))
    attempted = sum(s.attempted for s in state.systems.values())
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {
            name: {"value": _number(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
