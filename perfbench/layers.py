"""One module -> layer table for ``src/repro``, and the cProfile roll-up.

Every module of the program is listed exactly once.
``tests/test_layers.py`` fails when a module is missing; until it is
placed, the traced run charges its time to ``unmapped``.
"""

from __future__ import annotations

import pstats

#: The layers the benchmark reports, in report order.
LAYERS = (
    "simcore", "cluster", "store", "scatter_gather", "engine", "layout",
    "durability", "format", "ec", "sql", "obs",
)

#: Layer -> modules (paths relative to ``src/repro``).  ``bench`` and
#: ``workloads`` are the program's own harness and input generators;
#: they are placed so the table is total but are not reported.
TABLE = {
    "simcore": ["cluster/simcore.py"],
    "cluster": [
        "cluster/__init__.py", "cluster/cluster.py", "cluster/disk.py",
        "cluster/faults.py", "cluster/health.py", "cluster/membership.py",
        "cluster/metrics.py", "cluster/network.py", "cluster/node.py",
        "cluster/overload.py", "cluster/qos.py", "cluster/ring.py",
    ],
    "store": [
        "__init__.py", "core/__init__.py", "core/store.py",
        "core/baseline_store.py", "core/cache.py", "core/config.py",
    ],
    "scatter_gather": ["core/scatter_gather.py"],
    "engine": ["core/engine.py", "core/cost_model.py"],
    "layout": [
        "core/fac.py", "core/layout.py", "core/fixed.py", "core/padding.py",
        "core/oracle.py", "core/location_map.py",
    ],
    "durability": [
        "core/wal.py", "core/repair.py", "core/scrub.py", "core/fsck.py",
        "core/rebalance.py",
    ],
    "format": [
        "format/__init__.py", "format/__main__.py", "format/_reference.py",
        "format/compression.py", "format/encoding.py", "format/metadata.py",
        "format/pages.py", "format/reader.py", "format/schema.py",
        "format/table.py", "format/writer.py",
    ],
    "ec": ["ec/__init__.py", "ec/gf256.py", "ec/reed_solomon.py", "ec/stripe.py"],
    "sql": [
        "sql/__init__.py", "sql/aggregates.py", "sql/ast_nodes.py",
        "sql/bitmap.py", "sql/dates.py", "sql/grouping.py", "sql/lexer.py",
        "sql/local.py", "sql/parser.py", "sql/planner.py", "sql/predicate.py",
    ],
    "obs": [
        "obs/__init__.py", "obs/audit.py", "obs/critpath.py", "obs/registry.py",
        "obs/slo.py", "obs/timeseries.py", "obs/tracer.py", "obs/validate.py",
    ],
    "bench": [
        "bench/__init__.py", "bench/__main__.py", "bench/envelope.py",
        "bench/experiments.py", "bench/harness.py", "bench/report.py",
    ],
    "workloads": [
        "workloads/__init__.py", "workloads/queries.py", "workloads/recipe.py",
        "workloads/synthetic.py", "workloads/taxi.py", "workloads/text.py",
        "workloads/tpch.py", "workloads/ukpp.py",
    ],
}

MODULE_LAYER = {module: layer for layer, modules in TABLE.items() for module in modules}


def layer_of_file(path: str) -> str | None:
    """The layer of a profiled file, or ``None`` outside ``src/repro``."""
    path = path.replace("\\", "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    # A module the table does not know yet is reported, not dropped.
    return MODULE_LAYER.get(path[at + len(marker):], "unmapped")


def rollup(stats: pstats.Stats) -> tuple[dict[str, float], dict[str, int], float]:
    """Self time and call counts per layer from one profile.

    Functions outside ``src/repro`` (builtins, numpy, the standard
    library) are charged to whoever called them, in proportion to the
    time each caller spent in them, up the caller chain until a program
    layer is reached; what only the benchmark itself called lands in
    ``other``.  Returns ``(self_seconds, calls, total_seconds)``.
    """
    raw = stats.stats  # func -> (cc, nc, tt, ct, callers)
    own = {func: layer_of_file(func[0]) for func in raw}
    memo: dict = {}

    def shares(func) -> dict[str, float]:
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        memo[func] = {"other": 1.0}  # cycle guard while resolving
        callers = raw[func][4] if func in raw else {}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
        result: dict[str, float] = {}
        for caller, w in weights.items():
            for layer, f in shares(caller).items():
                result[layer] = result.get(layer, 0.0) + f * w / total
        memo[func] = result or {"other": 1.0}
        return memo[func]

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    grand = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in raw.items():
        grand += tt
        for layer, f in shares(func).items():
            self_s[layer] = self_s.get(layer, 0.0) + tt * f
        if own[func] is not None:
            calls[own[func]] = calls.get(own[func], 0) + nc
    return self_s, calls, grand


def call_count(stats: pstats.Stats, module: str, name: str) -> int:
    """Calls of one program function (``module`` relative to src/repro)."""
    total = 0
    for (path, _line, func), (_cc, nc, *_rest) in stats.stats.items():
        if func == name and path.replace("\\", "/").endswith("/src/repro/" + module):
            total += nc
    return total
