"""The min-healthy-floor guard in combination with admission control,
circuit breakers and the greylist.

The floor guard reinstates direct reads at non-usable holders when a
stripe has fewer than k usable sources.  It must only bring back
greylisted holders (slow but answering): a holder whose breaker is open
comes back through the breaker's own half-open probe, never through the
guard, and evaluating the guard must not take that probe slot.  Under
all four planes at once, every query either answers correctly or fails
with a typed error."""

import pytest

from repro.cluster import Cluster, ClusterConfig, QueryMetrics, Simulator
from repro.cluster.overload import CLOSED, HALF_OPEN, OPEN
from repro.cluster.simcore import QueueFull
from repro.core import BaselineStore, FusionStore, RemoteOpError, StoreConfig
from repro.format import write_table
from repro.sql import execute_local
from tests.conftest import make_small_table

QUERIES = [
    "SELECT id, price FROM tbl WHERE qty < 5",
    "SELECT tag, note FROM tbl WHERE note < 'note 3'",
    "SELECT count(*) FROM tbl WHERE tag IN ('tag-1', 'tag-4')",
]
RESET_S = 0.5


def _system(store_cls):
    table = make_small_table(num_rows=2500, seed=77)
    data = write_table(table, row_group_rows=500)
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(num_nodes=12))
    store = store_cls(
        cluster,
        StoreConfig(
            size_scale=50.0,
            storage_overhead_threshold=0.1,
            block_size=500_000,
            admission_queue_depth=8,
            breaker_failure_threshold=3,
            breaker_window_s=10.0,
            breaker_reset_s=RESET_S,
            greylist_latency_factor=3.0,
        ),
    )
    store.put("tbl", data)
    return store, cluster, table


def _stripe_zero(store):
    """(object, a stripe-0 block handle, distinct stripe-0 holder ids)."""
    obj = store.objects["tbl"]
    if isinstance(store, FusionStore):
        placement = obj.stripes[0]
        j = next(i for i, s in enumerate(placement.data_sizes) if s > 0)
        return obj, placement.data_block_ids[j], list(dict.fromkeys(placement.node_ids))
    holder_ids = [
        obj.data_block_nodes[b.index] for b in obj.layout.stripe_blocks(0)
    ] + [nid for (s, _j), nid in obj.parity_block_nodes.items() if s == 0]
    return obj, 0, list(dict.fromkeys(holder_ids))


def _greylist(cluster, node_ids):
    """Warm every node's EWMA, then push ``node_ids`` far over the median."""
    health = cluster.health
    for nid in range(cluster.num_nodes):
        for _ in range(10):
            health.record_success(nid, 0.001)
    for nid in node_ids:
        for _ in range(10):
            health.record_success(nid, 1.0)
        assert health.is_greylisted(nid)


def _trip(cluster, node_id):
    board = cluster.breakers
    while board.state[node_id] != OPEN:
        board.record_failure(node_id)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_floor_guard_leaves_breaker_open_holders_to_their_probe(store_cls):
    store, cluster, _table = _system(store_cls)
    obj, block, holders = _stripe_zero(store)
    k = store.config.code.k
    victims = holders[: len(holders) - k + 1]  # usable sources drop below k
    _greylist(cluster, victims)
    tripped, grey = victims[0], victims[1]
    _trip(cluster, tripped)

    # Below the floor, the greylisted holder is reinstated and the
    # breaker-open one is not.
    assert store._floor_attempt(cluster.node(grey), obj, block)
    assert not store._floor_attempt(cluster.node(tripped), obj, block)

    # Past the reset time the guard still declines, and reading the
    # breaker does not move it to half-open or take its probe slot.
    def wait():
        yield store.sim.timeout(2 * RESET_S)

    store.sim.process(wait())
    store.sim.run()
    assert not store._floor_attempt(cluster.node(tripped), obj, block)
    assert cluster.breakers.state[tripped] == OPEN
    assert cluster.routable(tripped)  # the probe is still there to take
    assert cluster.breakers.state[tripped] == HALF_OPEN
    assert not store._floor_attempt(cluster.node(tripped), obj, block)


@pytest.mark.parametrize("store_cls", [FusionStore, BaselineStore])
def test_queries_under_all_planes_answer_or_fail_typed(store_cls):
    store, cluster, table = _system(store_cls)
    _obj, _block, holders = _stripe_zero(store)
    k = store.config.code.k
    victims = holders[: len(holders) - k + 1]
    _greylist(cluster, victims)
    _trip(cluster, victims[0])

    outcomes = []

    def client(cid):
        for qi in range(3):
            sql = QUERIES[(cid + qi) % len(QUERIES)]
            qm = QueryMetrics()
            try:
                result = yield from store.query_process(sql, qm)
            except (RemoteOpError, QueueFull) as exc:
                outcomes.append((sql, exc))
            else:
                outcomes.append((sql, result))

    for cid in range(6):
        store.sim.process(client(cid))
    store.sim.run()

    assert len(outcomes) == 18
    answered = 0
    for sql, outcome in outcomes:
        if isinstance(outcome, Exception):
            continue
        answered += 1
        assert outcome.equals(execute_local(sql, table)), sql
    assert answered > 0
    # Every breaker ends closed or open; none is stuck mid-probe.
    assert all(s in (CLOSED, OPEN) for s in cluster.breakers.state)
