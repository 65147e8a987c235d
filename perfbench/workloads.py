"""The three workloads.  Rates, limits, sizes and knobs are constants of
the workload definitions; nothing is derived from measured capacity.
WORKLOADS.md says why each workload exists and which layers it loads.

A workload is two calls: ``setup(seed, cal)`` generates the inputs from
the seed, loads both stores and warms them up; ``run(state, seconds,
cal)`` is the timed phase.  ``seconds`` sizes the work (operations per
second of run at nominal host speed), never a wall-clock deadline, so
the simulated outcome is a pure function of ``(seed, seconds)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.metrics import percentile
from repro.core.config import StoreConfig
from repro.format.writer import write_table
from repro.workloads import (
    lineitem_table,
    microbenchmark_query,
    recipe_table,
    taxi_table,
    ukpp_table,
)

from common import (
    KINDS,
    Reference,
    System,
    WrongResult,
    build_system,
    checker,
    closed_loop,
    counters,
    crash_and_repair,
    delete,
    drive,
    open_loop,
    put,
    query_process,
    query_mix,
    sub_seed,
)

#: (generator, default rows, default row-group rows) per dataset; the
#: defaults give 160 + 320 + 84 + 240 = 804 column chunks.
DATASETS = {
    "lineitem": (lineitem_table, 40_000, 4_000),
    "taxi": (taxi_table, 48_000, 3_000),
    "recipe": (recipe_table, 6_000, 500),
    "ukpp": (ukpp_table, 20_000, 1_334),
}

#: Paper size of lineitem; the scan cluster's simulation scale maps the
#: generated lineitem file onto it (as the paper-figure harness does).
PAPER_LINEITEM_BYTES = 10 * 10**9

#: The node every workload crashes (disk lost) and repairs at the end.
CRASH_NODE = 4


@dataclass
class State:
    systems: dict[str, System]
    ref: Reference
    sqls: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    #: Whether a typed refusal is an expected answer (protected stores)
    #: or fails the run.
    typed_ok: bool = False

    def obj_of(self, sql: str) -> str:
        return sql.split(" FROM ", 1)[1].split()[0]


def generate(cal, name: str, seed: int, divisor: int = 1, jitter: bool = False):
    """One dataset object as (table, PAX bytes).

    ``divisor`` shrinks rows and row-group rows together, so the object
    keeps its default column-chunk count; ``jitter`` trims a seeded row
    count of up to 2% (less than one row group: same chunk count,
    slightly different bytes).
    """
    gen, rows, rg_rows = DATASETS[name]
    rg = math.ceil(rg_rows / divisor)
    rows = rows // divisor
    if jitter:
        rows -= int(np.random.default_rng(seed).integers(0, rows // 50 + 1))
    with cal.slice("setup"):
        table = gen(rows, seed=seed)
        data = write_table(table, row_group_rows=rg)
    return table, data


def warm_up(cal, state: State) -> None:
    """One closed-loop pass (10 clients) over the full query mix."""
    for system in state.systems.values():
        done: list = []
        closed_loop(system, state.sqls, 10, len(state.sqls), done, typed_ok=state.typed_ok)
        drive(cal, system, checker(state.ref, state.obj_of, done), stage="setup")


def reset_counters(state: State) -> None:
    """Forget setup traffic; puts and storage survive into the metrics."""
    for s in state.systems.values():
        s.attempted = s.answered = s.refused = 0
        s.query_latencies.clear()
        s.query_metrics.clear()
        s.marks = counters(s)


def ladder(cal, state: State, system: System, rates, step_s: float, limit_s: float,
           paced_qps: float | None = None) -> float:
    """Open loop at each fixed offered rate; returns the highest rate
    whose judged requests have p90 <= ``limit_s`` and an answered ratio
    >= 0.99 (0 when none does).

    Without ``paced_qps`` the judged stream is the offered one.  With it,
    a ``paced`` tenant sends ``paced_qps`` alongside a ``storm`` tenant
    at the offered rate, and only the paced tenant is judged.  A refused
    request counts as missing the limit.
    """
    best = 0.0
    storm = paced_qps is not None
    for rate in rates:
        done: list = []
        if storm:
            open_loop(system, state.sqls, paced_qps, step_s, done, tenant="paced", typed_ok=True)
            open_loop(system, state.sqls, rate, step_s, done, tenant="storm", offset=7,
                      typed_ok=True)
        else:
            open_loop(system, state.sqls, rate, step_s, done)
        drive(cal, system, checker(state.ref, state.obj_of, done))
        judged = [(r, lat) for _s, r, lat, t in done if not storm or t == "paced"]
        lats = [lat if r is not None else math.inf for r, lat in judged]
        p90 = percentile(lats, 90)
        ratio = sum(r is not None for r, _lat in judged) / len(judged)
        system.ladder.append((rate, p90, ratio))
        if p90 <= limit_s and ratio >= 0.99:
            best = rate
    return best


def probe_ladder(cal, state: State, rates, step_s: float, limit_s: float) -> float:
    """A short untenanted fusion ladder after the main phase.  It feeds
    ``fusion.max_qps_at_slo`` only: its latencies stay out of the query
    percentiles, which describe the workload's own loop."""
    fusion = state.systems["fusion"]
    kept = len(fusion.query_latencies)
    best = ladder(cal, state, fusion, rates, step_s, limit_s)
    del fusion.query_latencies[kept:]
    return best


# ---------------------------------------------------------------------------
# scan: read-only closed loop, 10 clients, lineitem + taxi
# ---------------------------------------------------------------------------

SCAN_QUERIES_PER_S = 70  # per system, per --seconds
SCAN_CLIENTS = 10
SCAN_RATES = (1.5, 3.0, 4.5, 6.0)  # fusion ladder, queries/s
SCAN_STEP_S = 8.0  # simulated seconds per ladder rate
SCAN_LIMIT_S = 2.0  # p90 limit for the ladder


def _load_lineitem_taxi(cal, seed: int, config_for, selectivities=(0.01, 0.2),
                        typed_ok: bool = False) -> State:
    ltable, ldata = generate(cal, "lineitem", sub_seed(seed, 1))
    ttable, tdata = generate(cal, "taxi", sub_seed(seed, 2))
    ref = Reference()
    ref.tables.update(lineitem=ltable, taxi=ttable)
    scale = PAPER_LINEITEM_BYTES / len(ldata)
    systems = {}
    for kind in KINDS:
        with cal.slice("setup"):
            system = build_system(kind, config_for(scale))
            put(system, "lineitem", ldata)
            put(system, "taxi", tdata)
        systems[kind] = system
    state = State(systems, ref, query_mix(ltable, ttable, selectivities), typed_ok=typed_ok)
    warm_up(cal, state)
    return state


def scan_setup(seed: int, cal) -> State:
    return _load_lineitem_taxi(cal, seed, lambda scale: StoreConfig(size_scale=scale))


def scan_run(state: State, seconds: float, cal) -> None:
    total = max(1, round(SCAN_QUERIES_PER_S * seconds))
    for system in state.systems.values():
        done: list = []
        closed_loop(system, state.sqls, SCAN_CLIENTS, total, done)
        drive(cal, system, checker(state.ref, state.obj_of, done))
    state.extra["max_qps_at_slo"] = probe_ladder(
        cal, state, SCAN_RATES, SCAN_STEP_S, SCAN_LIMIT_S
    )
    for system in state.systems.values():
        crash_and_repair(cal, system, CRASH_NODE)


# ---------------------------------------------------------------------------
# ingest_repair: write-heavy, one client, rounds ending in crash + repair
# ---------------------------------------------------------------------------

INGEST_ROUNDS_PER_S = 1.0  # rounds per --seconds
INGEST_BASE_DIVISOR = 4  # resident objects: 1/4 rows, default chunk counts
INGEST_ROUND_DIVISOR = 8  # per-round objects: 1/8 rows, default chunk counts
INGEST_ROUND_SETS = 2  # distinct per-round input sets, cycled
INGEST_SCALE = 2000.0  # simulation scale of the ingest objects
INGEST_RATES = (6.0, 12.0, 24.0, 48.0)  # fusion ladder over the resident objects
INGEST_STEP_S = 2.5
INGEST_LIMIT_S = 0.5


def _columns(table) -> list[str]:
    return [c.name for c in table.columns]


def ingest_setup(seed: int, cal) -> State:
    ref = Reference()
    base = {}
    for i, name in enumerate(DATASETS):
        table, data = generate(cal, name, sub_seed(seed, 10 + i), INGEST_BASE_DIVISOR)
        base[name] = data
        ref.tables[name] = table
    sets = []
    for s in range(INGEST_ROUND_SETS):
        objs = {}
        for i, name in enumerate(DATASETS):
            objs[name] = generate(
                cal, name, sub_seed(seed, 100 + s, i), INGEST_ROUND_DIVISOR, jitter=True
            )
        sets.append(objs)
    systems = {}
    for kind in KINDS:
        with cal.slice("setup"):
            system = build_system(kind, StoreConfig(size_scale=INGEST_SCALE))
            for name, data in base.items():
                put(system, name, data)
        systems[kind] = system
    # The ladder's (and warm-up's) mix: a 20% scan of a rotating column
    # of each resident object.
    sqls = [
        microbenchmark_query(ref.tables[name], col, 0.2, object_name=name)
        for i in range(4)
        for name in DATASETS
        for col in [_columns(ref.tables[name])[(3 * i) % len(ref.tables[name].columns)]]
    ]
    state = State(systems, ref, sqls, extra={"sets": sets, "base": base})
    warm_up(cal, state)
    return state


def _get(system: System, name: str, data: bytes, offset: int, size: int) -> None:
    got = system.store.get(name, offset, size)
    system.attempted += 1
    system.answered += 1
    if got != data[offset:offset + size]:
        raise WrongResult(f"{system.kind}: get({name}, {offset}, {size}) returned wrong bytes")


def _query(system: System, ref: Reference, obj: str, sql: str) -> None:
    done: list = []
    system.sim.process(query_process(system, sql, done))
    system.sim.run()
    ref.check(obj, sql, done[0][1])


def ingest_run(state: State, seconds: float, cal) -> None:
    rounds = max(2, round(INGEST_ROUNDS_PER_S * seconds))
    ref = state.ref
    for r in range(1, rounds + 1):
        objs = state.extra["sets"][r % INGEST_ROUND_SETS]
        for system in state.systems.values():
            rng = np.random.default_rng(r)  # the same ranges for both stores
            with cal.slice("timed"):
                for name, (table, data) in objs.items():
                    fresh, hot = f"{name}_r{r}", f"{name}_hot"
                    ref.tables[fresh] = table
                    put(system, fresh, data)
                    if r > 1:  # overwrite: updates are delete + fresh insert
                        delete(system, hot)
                    put(system, hot, data)
            with cal.slice("timed"):
                for name, (table, data) in objs.items():
                    fresh = f"{name}_r{r}"
                    for _ in range(2):
                        off = int(rng.integers(0, len(data) // 2))
                        _get(system, fresh, data, off, int(rng.integers(1, len(data) - off)))
                    base = state.extra["base"][name]
                    off = int(rng.integers(0, len(base) // 2))
                    _get(system, name, base, off, int(rng.integers(1, len(base) - off)))
            with cal.slice("timed"):
                for i, (name, (table, _data)) in enumerate(objs.items()):
                    cols = _columns(table)
                    fresh = f"{name}_r{r}"
                    _query(system, ref, name, microbenchmark_query(
                        ref.tables[name], cols[(r + i) % len(cols)], 0.01, object_name=name))
                    _query(system, ref, fresh, microbenchmark_query(
                        table, cols[(7 * r + i) % len(cols)], 0.01, object_name=fresh))
                    if r > 2:
                        delete(system, f"{name}_r{r - 2}")
            crash_and_repair(cal, system, (CRASH_NODE + r) % system.cluster.num_nodes)
    state.extra["max_qps_at_slo"] = probe_ladder(
        cal, state, INGEST_RATES, INGEST_STEP_S, INGEST_LIMIT_S
    )


# ---------------------------------------------------------------------------
# tenant_storm: open loop, QoS + admission + breakers + greylisting, one
# fail-slow node, a paced tenant against a storming one
# ---------------------------------------------------------------------------

STORM_SELECTIVITIES = (0.01,)  # microbenchmark at 1% plus Q1-Q4
STORM_RATES = (1.0, 2.0, 3.0, 4.5, 6.0)  # storm tenant, queries/s
STORM_PACED_QPS = 1.0
STORM_STEP_S_PER_S = 3.3  # simulated seconds per ladder rate, per --seconds
STORM_LIMIT_S = 5.0  # paced-tenant p90 limit
STORM_DEADLINE_S = 20.0
STORM_SLOW_NODE = 2
STORM_SLOW_FACTOR = 25.0

STORM_KNOBS = dict(
    qos_enabled=True,
    tenant_weights={"paced": 4.0, "storm": 1.0},
    tenant_requests_per_s={"storm": 4.0},
    admission_queue_depth=16,
    admission_policy="reject",
    tenant_queue_depth=16,
    breaker_failure_threshold=20,
    breaker_window_s=STORM_DEADLINE_S,
    breaker_reset_s=STORM_DEADLINE_S / 2,
    greylist_latency_factor=6.0,
    rpc_retry_jitter=0.5,
)


def _storm_config(scale: float) -> StoreConfig:
    return StoreConfig(size_scale=scale, **STORM_KNOBS)


def storm_setup(seed: int, cal) -> State:
    state = _load_lineitem_taxi(cal, seed, _storm_config, STORM_SELECTIVITIES, typed_ok=True)
    for system in state.systems.values():
        node = system.cluster.node(STORM_SLOW_NODE)
        # What FaultInjector's fail_slow does, for the whole run.
        node.disk.gray_factor = node.endpoint.gray_factor = STORM_SLOW_FACTOR
    return state


def storm_run(state: State, seconds: float, cal) -> None:
    step_s = STORM_STEP_S_PER_S * seconds
    for system in state.systems.values():
        # Armed after the (much longer) load, as the protected experiments do.
        system.store.config.default_deadline_s = STORM_DEADLINE_S
        best = ladder(cal, state, system, STORM_RATES, step_s, STORM_LIMIT_S,
                      paced_qps=STORM_PACED_QPS)
        if system.kind == "fusion":
            state.extra["max_qps_at_slo"] = best
        system.store.config.default_deadline_s = 0.0
    for system in state.systems.values():
        crash_and_repair(cal, system, CRASH_NODE)


#: name -> (setup, timed phase, calibration exponent).  The exponent is
#: the measured elasticity of the workload's host time to the reference
#: loop's speed (see calib.py): repeated identical runs agree best at
#: 1.0 for the Python-bound scan loop and at 0.7 for ingest_repair,
#: whose numpy codec and erasure-coding work slows less in the host's
#: slow phases.  tenant_storm, like scan mostly simulator and query
#: work, takes 1.0 unmeasured; it is not a gated workload.
WORKLOADS = {
    "scan": (scan_setup, scan_run, 1.0),
    "ingest_repair": (ingest_setup, ingest_run, 0.7),
    "tenant_storm": (storm_setup, storm_run, 1.0),
}

