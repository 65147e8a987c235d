"""The module -> layer table covers the program, and the roll-up charges
time spent outside the program to the layer that called it."""

from pathlib import Path

from layers import LAYERS, MODULE_LAYER, TABLE, layer_of_file, rollup

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_every_program_module_has_a_layer():
    modules = {p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")}
    missing = sorted(modules - set(MODULE_LAYER))
    assert not missing, f"modules missing from perfbench/layers.py TABLE: {missing}"
    stale = sorted(set(MODULE_LAYER) - modules)
    assert not stale, f"TABLE lists modules that no longer exist: {stale}"


def test_each_module_is_listed_once():
    listed = [m for modules in TABLE.values() for m in modules]
    assert len(listed) == len(set(listed))
    assert set(LAYERS) <= set(TABLE)


def test_files_map_by_their_path_under_src_repro():
    assert layer_of_file("/ck/src/repro/cluster/simcore.py") == "simcore"
    assert layer_of_file("/ck/src/repro/cluster/qos.py") == "cluster"
    assert layer_of_file("/ck/src/repro/core/wal.py") == "durability"
    assert layer_of_file("/ck/perfbench/common.py") is None
    assert layer_of_file("~") is None
    assert layer_of_file("/ck/src/repro/core/new_module.py") == "unmapped"


class _Stats:
    def __init__(self, stats):
        self.stats = stats


def test_native_time_is_charged_to_the_calling_layer():
    bench = ("/ck/perfbench/run.py", 1, "main")
    pred = ("/ck/src/repro/sql/predicate.py", 10, "eval_leaf")
    codec = ("/ck/src/repro/format/pages.py", 5, "decode")
    native = ("~", 0, "<built-in method numpy.core._multiarray_umath.compare>")
    stats = _Stats({
        bench: (1, 1, 0.5, 10.0, {}),
        pred: (4, 4, 1.0, 4.0, {bench: (4, 4, 1.0, 4.0)}),
        codec: (2, 2, 2.0, 3.0, {bench: (2, 2, 2.0, 3.0)}),
        # 3 s of native time: 2 s from sql, 1 s from format.
        native: (6, 6, 3.0, 3.0, {pred: (4, 4, 2.0, 2.0), codec: (2, 2, 1.0, 1.0)}),
    })
    self_s, calls, total = rollup(stats)
    assert total == 6.5
    assert self_s["sql"] == 3.0
    assert self_s["format"] == 3.0
    assert self_s["other"] == 0.5
    assert calls == {"sql": 4, "format": 2}
