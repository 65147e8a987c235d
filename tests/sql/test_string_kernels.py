"""Differential tests: C-level string kernels vs row-at-a-time oracles.

String comparisons, BETWEEN and IN, plain byte sizing, the string type
check and result concatenation all run as C-level numpy / ``str``
operations.  Each must agree exactly with the per-row Python version in
``tests/rowwise_reference.py``: the masks decide query results, and the
byte counts are charged to the simulated network, so both must match to
the bit and to the byte.  Inputs cover multi-byte UTF-8, empty strings,
embedded and trailing NULs, ``np.str_`` values and empty arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import _concat_column
from repro.format import Column, ColumnType, Field
from repro.format.table import _coerce_values, plain_size
from repro.sql import Between, CompareOp, Comparison, InList, eval_leaf
from tests import rowwise_reference as rowwise

STRING = ColumnType.STRING

POOL = [
    "", "a", "a\x00", "\x00", "a\x00b", "ab", "b", "Z", "héllo", "hello",
    "日本語", "日本", "🦜", "🦜🦜", "naïve", "tag-1", "tag-10", "\U0010ffff",
]
LITERALS = ["", "a", "a\x00", "\x00", "b", "hello", "日本", "🦜", "tag-1", "zzz", np.str_("ab")]


def _column(values) -> np.ndarray:
    arr = np.empty(len(values), dtype=object)
    arr[:] = list(values)
    return arr


def _corpora():
    rng = np.random.default_rng(2024)
    yield _column([])
    yield _column(POOL)
    yield _column([np.str_(v) for v in POOL])  # numpy scalars in an object array
    yield _column(rng.choice(np.array(POOL, dtype=object), 500))
    yield _column(["", "", ""])


@pytest.mark.parametrize("op", list(CompareOp))
def test_comparisons_match_rowwise(op):
    for values in _corpora():
        for literal in LITERALS:
            got = eval_leaf(Comparison("s", op, literal), STRING, values)
            want = rowwise.compare(values, op, str(literal), True)
            assert got.dtype == np.bool_
            assert np.array_equal(got, want), (op, literal, values[:8])


def test_between_matches_rowwise():
    for values in _corpora():
        for low in LITERALS:
            for high in ("", "a\x00", "hello", "\U0010ffff"):
                got = eval_leaf(Between("s", low, high), STRING, values)
                want = rowwise.compare(values, CompareOp.GE, str(low), True) & rowwise.compare(
                    values, CompareOp.LE, high, True
                )
                assert np.array_equal(got, want), (low, high)


@pytest.mark.parametrize(
    "literals",
    [("a",), ("a\x00",), ("", "\x00"), ("日本", "🦜", "tag-1"), tuple(LITERALS), ("missing",)],
)
def test_in_list_matches_rowwise(literals):
    for values in _corpora():
        got = eval_leaf(InList("s", literals), STRING, values)
        want = rowwise.in_list(values, [str(v) for v in literals], True)
        assert got.dtype == np.bool_
        assert np.array_equal(got, want), literals


def test_plain_size_matches_rowwise():
    for values in _corpora():
        assert plain_size(STRING, values) == rowwise.plain_size(STRING, values)
        assert Column(Field("s", STRING), values).plain_size() == rowwise.plain_size(
            STRING, values
        )
    for type_ in (ColumnType.INT64, ColumnType.DOUBLE, ColumnType.DATE, ColumnType.BOOL):
        values = np.zeros(7, dtype=type_.numpy_dtype)
        assert plain_size(type_, values) == rowwise.plain_size(type_, values)


def test_plain_size_counts_utf8_bytes():
    assert plain_size(STRING, _column(["", "é", "日", "🦜", "a\x00"])) == 5 * 4 + 0 + 2 + 3 + 4 + 2


@pytest.mark.parametrize(
    "values",
    [
        [5],
        ["a", None],
        ["a", "b", b"bytes"],
        ["x"] * 9 + [np.int64(3)],
        ["ok", ("tu", "ple"), "ok"],
        ["é", 1.5, None],
    ],
)
def test_coerce_error_matches_rowwise(values):
    with pytest.raises(TypeError) as want:
        rowwise.coerce_values(STRING, values)
    with pytest.raises(TypeError) as got:
        _coerce_values(STRING, values)
    assert str(got.value) == str(want.value)
    assert "at row" in str(got.value)


def test_coerce_accepts_what_rowwise_accepts():
    for values in [[], POOL, [np.str_(v) for v in POOL], np.array(POOL), _column(POOL)]:
        got = _coerce_values(STRING, values)
        want = rowwise.coerce_values(STRING, values)
        assert got.dtype == object and len(got) == len(want)
        assert all(isinstance(v, str) for v in got)
        assert np.array_equal(got, want)


def test_coerce_copies_its_input():
    source = _column(["a", "b"])
    coerced = _coerce_values(STRING, source)
    source[0] = "changed"
    assert coerced[0] == "a"


def test_concat_matches_rowwise():
    pieces = [_column(POOL[:3]), _column([]), _column(POOL[3:]), _column(["x"])]
    for parts in ([], [_column([])], pieces, pieces[2:]):
        got = _concat_column(STRING, parts)
        want = rowwise.concat_column(STRING, parts)
        assert got.dtype == want.dtype == object
        assert np.array_equal(got, want)
    ints = [np.arange(3), np.arange(0), np.arange(5)]
    assert np.array_equal(
        _concat_column(ColumnType.INT64, ints), rowwise.concat_column(ColumnType.INT64, ints)
    )
