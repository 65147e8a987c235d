"""Row-at-a-time reference versions of the string query/result plane.

Production code evaluates string predicates, sizes string columns,
type-checks them and concatenates result pieces with C-level numpy and
``str`` operations.  These are the per-row Python loops those replaced,
kept as differential oracles: ``tests/sql/test_string_kernels.py``
compares the two over adversarial inputs, and
``tests/integration/test_dataplane_identity.py`` patches these in to show
the simulated event stream does not depend on which one ran.  Each
function has the signature of the production function it stands in for.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.format.schema import ColumnType
from repro.sql.ast_nodes import CompareOp

_ROW_OPS = {
    CompareOp.EQ: operator.eq,
    CompareOp.NE: operator.ne,
    CompareOp.LT: operator.lt,
    CompareOp.LE: operator.le,
    CompareOp.GT: operator.gt,
    CompareOp.GE: operator.ge,
}


def compare(values: np.ndarray, op: CompareOp, literal: object, is_string: bool) -> np.ndarray:
    """``repro.sql.predicate._compare``: one Python comparison per row."""
    fn = _ROW_OPS[op]
    if not is_string:
        return fn(values, literal)
    return np.fromiter((fn(v, literal) for v in values), dtype=np.bool_, count=len(values))


def in_list(values: np.ndarray, literals: list, is_string: bool) -> np.ndarray:
    """``repro.sql.predicate._in_list``: set membership per row."""
    if not is_string:
        return np.isin(values, np.asarray(literals))
    wanted = set(literals)
    return np.fromiter((v in wanted for v in values), dtype=np.bool_, count=len(values))


def plain_size(type_: ColumnType, values: np.ndarray) -> int:
    """``repro.format.table.plain_size``: encode every string on its own."""
    width = type_.fixed_width
    if width is not None:
        return width * len(values)
    return sum(4 + len(v.encode("utf-8")) for v in values)


def coerce_values(type_: ColumnType, values) -> np.ndarray:
    """``repro.format.table._coerce_values``: check each row's type."""
    if type_ is ColumnType.STRING:
        arr = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            if not isinstance(v, str):
                raise TypeError(f"string column got non-str value {v!r} at row {i}")
            arr[i] = v
        return arr
    arr = np.asarray(values)
    if arr.dtype != type_.numpy_dtype:
        arr = arr.astype(type_.numpy_dtype)
    return arr


def concat_column(type_: ColumnType, parts: list[np.ndarray]) -> np.ndarray:
    """``repro.core.engine._concat_column``: copy string pieces one by one."""
    if not parts:
        return np.zeros(0, dtype=type_.numpy_dtype or object)
    if type_ is ColumnType.STRING:
        out = np.empty(sum(len(p) for p in parts), dtype=object)
        pos = 0
        for p in parts:
            out[pos : pos + len(p)] = p
            pos += len(p)
        return out
    return np.concatenate(parts)
