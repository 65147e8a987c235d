"""Aggregate BENCH_*.json acceptance reports into one summary table.

Every benchmark under ``benchmarks/*_bench.py`` writes its result
through :mod:`repro.bench.envelope`, so the files share a top level
(``benchmark``, ``wall_seconds``, ``acceptance.pass``,
``acceptance.floors``).  Pre-envelope files from older runs are
normalized on load, so a mixed directory still aggregates.

Usage::

    PYTHONPATH=src python benchmarks/bench_summary.py [DIR] [--out PATH]

Scans ``DIR`` (default: the repository root) for ``BENCH_*.json``,
prints a verdict table, writes ``BENCH_SUMMARY.json`` (or ``--out``),
and exits nonzero if any benchmark failed or if a benchmark on the
declared list :data:`EXPECTED` has no report: a summary that silently
covers fewer benchmarks than exist is how a failing gate goes unseen.
Files whose verdict cannot be recovered count as unknown, not as
failures.
"""

from __future__ import annotations

import glob
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.bench.envelope import load_bench_report  # noqa: E402

SUMMARY_NAME = "BENCH_SUMMARY.json"

#: Every benchmark under ``benchmarks/*_bench.py``, by envelope name.
EXPECTED = (
    "dataplane",
    "fault_tolerance",
    "membership",
    "metadata_chaos",
    "obs_overhead",
    "overload",
    "partition",
    "qos",
    "rpc_batching",
)


def summarize(directory: str) -> dict:
    """Load every BENCH_*.json in ``directory`` into one summary doc."""
    rows = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        if os.path.basename(path) == SUMMARY_NAME:
            continue
        doc = load_bench_report(path)
        rows.append(
            {
                "file": os.path.basename(path),
                "benchmark": doc["benchmark"],
                "schema": doc["schema"],
                "wall_seconds": doc["wall_seconds"],
                "pass": doc["acceptance"]["pass"],
                "floors": doc["acceptance"]["floors"],
            }
        )
    verdicts = [row["pass"] for row in rows]
    missing = sorted(set(EXPECTED) - {row["benchmark"] for row in rows})
    return {
        "benchmarks": rows,
        "expected": list(EXPECTED),
        "missing": missing,
        "total": len(rows),
        "passed": sum(1 for v in verdicts if v is True),
        "failed": sum(1 for v in verdicts if v is False),
        "unknown": sum(1 for v in verdicts if v is None),
        "all_pass": not missing and all(v is True for v in verdicts),
    }


def _verdict_text(value: bool | None) -> str:
    if value is True:
        return "PASS"
    if value is False:
        return "FAIL"
    return "?"


def main(argv: list[str]) -> int:
    out_path = None
    if "--out" in argv:
        at = argv.index("--out")
        if at + 1 >= len(argv):
            print("--out needs a path", file=sys.stderr)
            return 2
        out_path = argv[at + 1]
        argv = argv[:at] + argv[at + 2 :]
    directory = argv[0] if argv else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."
    )
    summary = summarize(directory)
    if not summary["benchmarks"]:
        print(f"no BENCH_*.json found in {directory}", file=sys.stderr)
        return 2

    width = max(len(name) for name in EXPECTED + tuple(r["benchmark"] for r in summary["benchmarks"]))
    print(f"{'benchmark':{width}s}  verdict  wall(s)  floors")
    for row in summary["benchmarks"]:
        floors = ", ".join(f"{k}={v}" for k, v in sorted(row["floors"].items()))
        print(
            f"{row['benchmark']:{width}s}  "
            f"{_verdict_text(row['pass']):7s}  "
            f"{row['wall_seconds']:7.1f}  "
            f"{floors or '-'}"
        )
    for name in summary["missing"]:
        print(f"{name:{width}s}  MISSING")
    print(
        f"{summary['passed']}/{len(EXPECTED)} passed, "
        f"{summary['failed']} failed, {summary['unknown']} unknown, "
        f"{len(summary['missing'])} missing"
    )

    if out_path is None:
        out_path = os.path.join(directory, SUMMARY_NAME)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")
    return 0 if summary["failed"] == 0 and not summary["missing"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
