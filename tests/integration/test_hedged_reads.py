"""Hedged reads: when a remote op has not resolved ``hedge_after_s``
seconds after it was issued, the op's degraded-read fallback launches in
parallel and whichever path finishes first supplies the value.

Off by default (``hedge_after_s = 0.0``): no hedge processes are ever
scheduled, keeping fault-free runs event-identical to the seed."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.cluster.faults import FaultEvent, FaultInjector
from repro.core import FusionStore, RemoteOpError, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

SQL = "SELECT id, price FROM tbl WHERE qty < 5"


def _run(hedge_after_s: float, slow_factor: float = 200.0, batched: bool = False):
    """One query against a cluster whose first data-holding node is slow."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = FusionStore(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            enable_rpc_batching=batched,
            hedge_after_s=hedge_after_s,
            op_timeout_s=5.0,  # huge: only hedging can sidestep the slow node
        ),
    )
    store.put("tbl", data)
    victim = next(n for n in cluster.nodes if n.stored_bytes)
    victim.disk.slow_factor = slow_factor
    victim.endpoint.slow_factor = slow_factor
    qm = QueryMetrics()
    proc = sim.process(store.query_process(SQL, qm))
    sim.run()
    expected = execute_local(SQL, table)
    return proc.value, qm, cluster, expected


def test_hedge_fires_against_slow_node_and_result_is_correct():
    result, qm, cluster, expected = _run(hedge_after_s=0.01)
    assert qm.hedges > 0
    # Every hedge launched the degraded fallback; the race winner
    # supplied correct bytes either way.
    assert qm.degraded_reads >= qm.hedges
    assert result.equals(expected)
    # Cluster totals aggregate the per-query hedge count.
    assert cluster.metrics.hedges == qm.hedges


def test_hedging_disabled_by_default():
    result, qm, _cluster, expected = _run(hedge_after_s=0.0)
    assert qm.hedges == 0
    assert qm.degraded_reads == 0
    assert result.equals(expected)


def test_hedge_not_launched_when_primary_is_fast():
    # Healthy cluster: every op resolves long before the hedge delay.
    result, qm, _cluster, expected = _run(hedge_after_s=10.0, slow_factor=1.0)
    assert qm.hedges == 0
    assert result.equals(expected)


def test_hedging_works_in_batched_mode():
    result, qm, _cluster, expected = _run(hedge_after_s=0.01, batched=True)
    assert qm.hedges > 0
    assert result.equals(expected)


@pytest.mark.parametrize("batched", [False, True])
def test_hedged_run_is_deterministic(batched):
    result_a, qm_a, _ca, _e = _run(hedge_after_s=0.01, batched=batched)
    result_b, qm_b, _cb, _e = _run(hedge_after_s=0.01, batched=batched)
    assert result_a.equals(result_b)
    assert qm_a.hedges == qm_b.hedges
    assert (qm_a.start_time, qm_a.end_time) == (qm_b.start_time, qm_b.end_time)
    assert qm_a.network_bytes == qm_b.network_bytes


@pytest.mark.parametrize("dropped", [1, 4])
def test_hedge_whose_degraded_read_runs_out_of_sources_does_not_escape(dropped):
    """A hedge's degraded read can exhaust its own nested reads (here the
    sibling nodes it reconstructs from drop every RPC).  That failure
    must resolve inside the op, like any other fallback's, and never
    escape ``sim.run`` from the spawned hedge process; the query then
    answers (correctly) or fails with a typed error in its own frame."""
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = FusionStore(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            enable_rpc_batching=False,
            hedge_after_s=0.01,
            op_timeout_s=0.05,
            admission_queue_depth=64,
        ),
    )
    store.put("tbl", data)
    holders = [n for n in cluster.nodes if n.stored_bytes]
    victim = holders[0]
    victim.disk.slow_factor = 200.0
    victim.endpoint.slow_factor = 200.0
    FaultInjector(
        cluster,
        [
            FaultEvent(at=0.0, kind="drop", node_id=n.node_id, duration=1000.0, rate=1.0)
            for n in holders[1 : 1 + dropped]
        ],
    ).install()
    qm = QueryMetrics()
    outcome = []

    def client():
        try:
            outcome.append((yield from store.query_process(SQL, qm)))
        except RemoteOpError as exc:
            outcome.append(exc)

    sim.process(client())
    sim.run()  # must not raise: the hedge's failure stays inside its op
    assert qm.hedges > 0
    assert len(outcome) == 1
    if not isinstance(outcome[0], RemoteOpError):
        assert outcome[0].equals(execute_local(SQL, table))
