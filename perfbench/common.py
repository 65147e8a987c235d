"""Pieces shared by the three workloads: systems, inputs, load loops, checks.

Every workload runs both stores, each on its own simulator, and hands
the program only generated PAX bytes and SQL text.  All clients are
simulated processes inside the discrete-event simulator; the host runs
one process and one thread.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.metrics import QueryMetrics
from repro.cluster.overload import DeadlineExceeded, PartialResult
from repro.cluster.qos import QuotaExceeded
from repro.cluster.simcore import QueueFull, Simulator
from repro.core.baseline_store import BaselineStore
from repro.core.config import StoreConfig
from repro.core.repair import RepairManager
from repro.core.scatter_gather import RemoteOpError
from repro.core.store import FusionStore
from repro.core.wal import QuorumLost
from repro.sql.local import execute_local
from repro.workloads import column_name, microbenchmark_query, real_world_queries

KINDS = ("fusion", "baseline")

#: The refusals a protected store may answer with instead of a result.
TYPED_REFUSALS = (QuotaExceeded, DeadlineExceeded, QueueFull, RemoteOpError, QuorumLost)

#: Host wall seconds one simulator slice aims at.  Slices only split
#: ``Simulator.run`` at event times, which never changes the event
#: stream, so where they fall may depend on host speed.
SLICE_TARGET_S = 0.25


class WrongResult(AssertionError):
    """A store returned something other than the reference answer."""


@dataclass
class System:
    """One store on its own simulated cluster, plus what it has done."""

    kind: str
    sim: Simulator
    cluster: Cluster
    store: FusionStore | BaselineStore
    query_latencies: list[float] = field(default_factory=list)
    query_metrics: list[QueryMetrics] = field(default_factory=list)
    put_latencies: list[float] = field(default_factory=list)
    repair_seconds: list[float] = field(default_factory=list)
    #: Live object name -> user bytes (what storage overhead divides by).
    live: dict[str, int] = field(default_factory=dict)
    #: (stored bytes, overhead vs optimal) of every Put's layout.
    overheads: list[tuple[int, float]] = field(default_factory=list)
    attempted: int = 0
    answered: int = 0
    refused: int = 0
    #: Counter readings when the timed phase started.
    marks: dict = field(default_factory=dict)
    #: (offered rate, p90 of the judged requests, their answered ratio).
    ladder: list[tuple[float, float, float]] = field(default_factory=list)


def build_system(kind: str, config: StoreConfig) -> System:
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig())
    store_cls = FusionStore if kind == "fusion" else BaselineStore
    return System(kind, sim, cluster, store_cls(cluster, config))


def sub_seed(seed: int, *parts: int) -> int:
    """A stable per-input seed derived from the workload seed."""
    value = seed * 1_000_003
    for p in parts:
        value = value * 31 + p
    return value % (2**31 - 1)


def query_mix(lineitem, taxi, selectivities=(0.01, 0.2)) -> list[str]:
    """The paper's query mix: the lineitem microbenchmark on all 16
    columns at each selectivity, plus real-world Q1-Q4."""
    sqls = [
        microbenchmark_query(lineitem, column_name(c), s)
        for c in range(16)
        for s in selectivities
    ]
    return sqls + [q.sql for q in real_world_queries(lineitem, taxi)]


class Reference:
    """Reference answers from ``execute_local`` on the generated tables."""

    def __init__(self) -> None:
        self.tables: dict[str, object] = {}
        self._answers: dict[tuple[str, str], object] = {}

    def check(self, obj: str, sql: str, result) -> None:
        if isinstance(result, PartialResult):
            raise WrongResult(f"partial result for {sql!r} on {obj}")
        key = (obj, sql)
        expected = self._answers.get(key)
        if expected is None:
            expected = self._answers[key] = execute_local(sql, self.tables[obj])
        if not result.equals(expected):
            raise WrongResult(f"wrong result for {sql!r} on {obj}")


def put(system: System, name: str, data: bytes) -> None:
    start = system.sim.now
    report = system.store.put(name, data)
    system.put_latencies.append(system.sim.now - start)
    system.live[name] = len(data)
    system.overheads.append((report.stored_bytes, report.overhead_vs_optimal))
    system.attempted += 1
    system.answered += 1


def delete(system: System, name: str) -> None:
    system.store.delete(name)
    del system.live[name]
    system.attempted += 1
    system.answered += 1


def query_process(system: System, sql: str, done: list, tenant: str | None = None,
                  arrival: float | None = None, typed_ok: bool = False):
    """One simulated query; appends ``(sql, result-or-None, latency, tenant)``.

    The latency runs from ``arrival`` (the scheduled send time in an
    open loop) to completion.  With ``typed_ok`` a typed refusal is
    recorded as ``None``; any other exception propagates and fails the
    run.
    """
    sim = system.sim
    start = sim.now if arrival is None else arrival
    qm = QueryMetrics()
    system.attempted += 1
    system.query_metrics.append(qm)
    try:
        result = yield from system.store.query_process(sql, qm, tenant=tenant)
    except TYPED_REFUSALS:
        if not typed_ok:
            raise
        system.refused += 1
        done.append((sql, None, sim.now - start, tenant))
        return
    system.answered += 1
    system.query_latencies.append(sim.now - start)
    done.append((sql, result, sim.now - start, tenant))


def drive(cal, system: System, after_slice=None, stage: str = "timed") -> None:
    """Run the simulator to quiescence in calibrated slices of about
    ``SLICE_TARGET_S`` host seconds.

    A slice advances in hops to the latest pending event, so the clock
    only ever stops at the time of an event: ``run(until=t)`` leaves the
    clock at ``t``, and a clock moved past the last event would shift
    every later phase.  ``after_slice`` runs between slices, outside the
    timing (the correctness checks live there).
    """
    sim = system.sim
    while sim._heap:
        with cal.slice(stage):
            deadline = time.perf_counter() + SLICE_TARGET_S
            while sim._heap and time.perf_counter() < deadline:
                sim.run(until=max(entry[0] for entry in sim._heap))
        if after_slice is not None:
            after_slice()


def closed_loop(system: System, sqls: list[str], clients: int, total: int, done: list,
                typed_ok: bool = False) -> None:
    """Spawn ``clients`` closed-loop clients issuing ``total`` queries,
    round-robin over ``sqls`` (client ``c`` starts at offset ``c``)."""
    per_client = [total // clients + (1 if c < total % clients else 0) for c in range(clients)]

    def client(cid: int, count: int):
        for qi in range(count):
            yield from query_process(system, sqls[(cid + qi * clients) % len(sqls)], done,
                                     typed_ok=typed_ok)

    for cid, count in enumerate(per_client):
        if count:
            system.sim.process(client(cid, count))


def open_loop(system: System, sqls: list[str], rate: float, duration: float, done: list,
              tenant: str | None = None, offset: int = 0, typed_ok: bool = False) -> None:
    """Arrivals every ``1/rate`` simulated seconds for ``duration``; each
    request is timed from its scheduled arrival."""
    sim = system.sim

    def arrivals():
        for i in range(int(rate * duration)):
            sim.process(
                query_process(system, sqls[(offset + i) % len(sqls)], done,
                              tenant=tenant, arrival=sim.now, typed_ok=typed_ok)
            )
            yield sim.timeout(1.0 / rate)

    sim.process(arrivals())


def checker(ref: Reference, obj_of, done: list):
    """An ``after_slice`` hook verifying every answered query so far."""
    position = [0]

    def check() -> None:
        for sql, result, _lat, _tenant in done[position[0]:]:
            if result is not None:
                ref.check(obj_of(sql), sql, result)
        position[0] = len(done)

    return check


def crash_and_repair(cal, system: System, node_id: int) -> None:
    """Lose one node's disk, rebuild its blocks elsewhere, bring it back
    empty and require a clean fsck."""
    system.cluster.fail_node(node_id, wipe=True)
    with cal.slice("timed"):
        report = RepairManager(system.store).repair_node(node_id)
    system.cluster.restore_node(node_id)
    system.attempted += 1
    system.answered += 1
    system.repair_seconds.append(report.time_to_repair)
    check_fsck(system)


def check_fsck(system: System) -> None:
    report = system.store.fsck()
    if not report.clean:
        raise WrongResult(f"{system.kind} fsck not clean: {report.summary()}")


def counters(system: System) -> dict:
    """Cumulative program counters the metrics are deltas of."""
    cluster = system.cluster
    return {
        "events": system.sim._seq,
        "net_bytes": cluster.network.total_bytes,
        "disk_bytes": sum(node.disk.total_bytes for node in cluster.nodes),
        "repair_bytes": cluster.metrics.repair_bytes,
        "read_repair_bytes": cluster.metrics.read_repair_bytes,
        "breaker_trips": sum(cluster.breakers.opens) if cluster.breakers else 0,
    }


def since_mark(system: System, name: str) -> int:
    return counters(system)[name] - system.marks[name]
