"""Vectorised predicate evaluation and stats-based pruning.

Two evaluation modes:

* :func:`eval_leaf` — run one leaf predicate against a decoded column
  chunk, producing a boolean match vector.  This is exactly the work a
  storage node does during filter pushdown.
* :func:`leaf_may_match` — interval reasoning against footer min/max
  stats, used by the coordinator to skip row groups (the paper's
  coarse-grained filtering optimisation, present in both Fusion and the
  baseline).

On string (object-array) columns, comparisons, BETWEEN and IN run as
numpy ufuncs whose object loop applies Python's ``str`` comparison in C;
only LIKE still walks the rows in Python.
"""

from __future__ import annotations

import numpy as np

from repro.format.schema import ColumnType
from repro.sql.ast_nodes import (
    And,
    Between,
    CompareOp,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
    Or,
    Predicate,
)
from repro.sql.dates import date_to_days


class PredicateTypeError(Exception):
    """Raised when a literal cannot be compared against a column's type."""


def coerce_literal(type_: ColumnType, value: Literal) -> object:
    """Coerce a SQL literal to the column's comparison domain.

    Date columns accept ISO date strings; numeric columns accept ints and
    floats; strings must be strings.
    """
    if type_ is ColumnType.DATE:
        if isinstance(value, str):
            return date_to_days(value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return int(value)
        raise PredicateTypeError(f"cannot compare DATE column with {value!r}")
    if type_ is ColumnType.STRING:
        if not isinstance(value, str):
            raise PredicateTypeError(f"cannot compare STRING column with {value!r}")
        return value
    if type_ is ColumnType.BOOL:
        if isinstance(value, bool):
            return value
        raise PredicateTypeError(f"cannot compare BOOL column with {value!r}")
    if isinstance(value, bool) or isinstance(value, str):
        raise PredicateTypeError(f"cannot compare {type_.value} column with {value!r}")
    return value


_COMPARE_UFUNCS = {
    CompareOp.EQ: np.equal,
    CompareOp.NE: np.not_equal,
    CompareOp.LT: np.less,
    CompareOp.LE: np.less_equal,
    CompareOp.GT: np.greater,
    CompareOp.GE: np.greater_equal,
}


def _compare(values: np.ndarray, op: CompareOp, literal: object, is_string: bool) -> np.ndarray:
    if is_string:
        # Box the literal as a 0-d object array: as a numpy unicode
        # scalar it would lose trailing NULs.
        literal = np.array(literal, dtype=object)
    return _COMPARE_UFUNCS[op](values, literal)


def _in_list(values: np.ndarray, literals: list, is_string: bool) -> np.ndarray:
    # Object dtype keeps string literals exact (see _compare).
    return np.isin(values, np.array(literals, dtype=object if is_string else None))


def eval_leaf(
    leaf: Comparison | Between | InList | Like,
    type_: ColumnType,
    values: np.ndarray,
) -> np.ndarray:
    """Evaluate one leaf predicate over a chunk's decoded values."""
    is_string = type_ is ColumnType.STRING
    if isinstance(leaf, Comparison):
        literal = coerce_literal(type_, leaf.value)
        return np.asarray(_compare(values, leaf.op, literal, is_string), dtype=np.bool_)
    if isinstance(leaf, Between):
        low = coerce_literal(type_, leaf.low)
        high = coerce_literal(type_, leaf.high)
        lo_mask = _compare(values, CompareOp.GE, low, is_string)
        hi_mask = _compare(values, CompareOp.LE, high, is_string)
        return np.asarray(lo_mask & hi_mask, dtype=np.bool_)
    if isinstance(leaf, InList):
        literals = [coerce_literal(type_, v) for v in leaf.values]
        return _in_list(values, literals, is_string)
    if isinstance(leaf, Like):
        if not is_string:
            raise PredicateTypeError(
                f"LIKE applies to string columns, not {type_.value}"
            )
        import fnmatch
        import re

        # Translate SQL wildcards (%, _) to a compiled regex once per
        # leaf.  fnmatch's own metacharacters in the data pattern are
        # neutralised ([ via a character class, * and ? have no SQL
        # meaning and are treated literally by pre-escaping).
        glob = (
            leaf.pattern.replace("[", "[[]")
            .replace("*", "[*]")
            .replace("?", "[?]")
            .replace("%", "*")
            .replace("_", "?")
        )
        regex = re.compile(fnmatch.translate(glob))
        return np.fromiter(
            (regex.match(v) is not None for v in values),
            dtype=np.bool_,
            count=len(values),
        )
    raise TypeError(f"not a leaf predicate: {leaf!r}")


def eval_tree(pred: Predicate, column_values, column_type) -> np.ndarray:
    """Evaluate a whole predicate tree.

    ``column_values(name)`` returns the decoded values of a column;
    ``column_type(name)`` its :class:`ColumnType`.  Used by the baseline
    (which evaluates everything at the coordinator) and by tests as the
    ground truth for Fusion's distributed evaluation.
    """
    if isinstance(pred, (Comparison, Between, InList, Like)):
        return eval_leaf(pred, column_type(pred.column), column_values(pred.column))
    if isinstance(pred, Not):
        return ~eval_tree(pred.operand, column_values, column_type)
    if isinstance(pred, And):
        return eval_tree(pred.left, column_values, column_type) & eval_tree(
            pred.right, column_values, column_type
        )
    if isinstance(pred, Or):
        return eval_tree(pred.left, column_values, column_type) | eval_tree(
            pred.right, column_values, column_type
        )
    raise TypeError(f"unknown predicate node {pred!r}")


# ---------------------------------------------------------------------------
# Min/max stats pruning
# ---------------------------------------------------------------------------


def leaf_may_match(
    leaf: Comparison | Between | InList | Like,
    type_: ColumnType,
    min_value: object,
    max_value: object,
) -> bool:
    """Can any value in ``[min_value, max_value]`` satisfy the leaf?

    Conservative: returns True when unsure (e.g. missing stats).
    """
    if min_value is None or max_value is None:
        return True
    if isinstance(leaf, Comparison):
        literal = coerce_literal(type_, leaf.value)
        op = leaf.op
        if op is CompareOp.EQ:
            return min_value <= literal <= max_value
        if op is CompareOp.NE:
            return not (min_value == max_value == literal)
        if op is CompareOp.LT:
            return min_value < literal
        if op is CompareOp.LE:
            return min_value <= literal
        if op is CompareOp.GT:
            return max_value > literal
        if op is CompareOp.GE:
            return max_value >= literal
    if isinstance(leaf, Between):
        low = coerce_literal(type_, leaf.low)
        high = coerce_literal(type_, leaf.high)
        return not (high < min_value or low > max_value)
    if isinstance(leaf, InList):
        literals = [coerce_literal(type_, v) for v in leaf.values]
        return any(min_value <= lit <= max_value for lit in literals)
    if isinstance(leaf, Like):
        prefix = leaf.literal_prefix
        if not prefix:
            return True  # leading wildcard: no range information
        # Matching strings lie in [prefix, prefix + chr(0x10FFFF)); prune
        # when that interval misses [min, max] entirely.
        upper = prefix + chr(0x10FFFF)
        return not (max_value < prefix or min_value >= upper)
    raise TypeError(f"not a leaf predicate: {leaf!r}")


def tree_may_match(pred: Predicate, type_of, stats_of) -> bool:
    """Row-group pruning over a predicate tree.

    ``type_of(column)`` returns the column type; ``stats_of(column)``
    returns ``(min, max)``.  NOT subtrees are treated conservatively.
    """
    if isinstance(pred, (Comparison, Between, InList, Like)):
        lo, hi = stats_of(pred.column)
        return leaf_may_match(pred, type_of(pred.column), lo, hi)
    if isinstance(pred, Not):
        return True  # interval complement is not representable; stay safe
    if isinstance(pred, And):
        return tree_may_match(pred.left, type_of, stats_of) and tree_may_match(
            pred.right, type_of, stats_of
        )
    if isinstance(pred, Or):
        return tree_may_match(pred.left, type_of, stats_of) or tree_may_match(
            pred.right, type_of, stats_of
        )
    raise TypeError(f"unknown predicate node {pred!r}")


def combine_leaf_bitmaps(pred: Predicate, bitmaps: list[np.ndarray]) -> np.ndarray:
    """Recombine per-leaf match vectors into the tree's final bitmap.

    ``bitmaps`` must be in :func:`repro.sql.ast_nodes.leaves` order; this
    is the coordinator-side consolidation step of Fusion's filter stage.
    """
    stack = list(bitmaps)
    pos = [0]

    def walk(node: Predicate) -> np.ndarray:
        if isinstance(node, (Comparison, Between, InList, Like)):
            out = stack[pos[0]]
            pos[0] += 1
            return out
        if isinstance(node, Not):
            return ~walk(node.operand)
        if isinstance(node, And):
            return walk(node.left) & walk(node.right)
        if isinstance(node, Or):
            return walk(node.left) | walk(node.right)
        raise TypeError(f"unknown predicate node {node!r}")

    result = walk(pred)
    if pos[0] != len(stack):
        raise ValueError(f"predicate has {pos[0]} leaves but {len(stack)} bitmaps given")
    return result
