"""Same seed, bit-identical simulated metrics; another seed, still correct.

Runs every workload at a small size (``--seconds 1``) with one set-up.
"""

import pytest

import run

#: Host-cost metrics; every other end-to-end metric is simulated.
HOST = {"setup_s", "host_ops_per_cal_s", "peak_rss_mb"}


@pytest.mark.parametrize("workload", ["scan", "ingest_repair", "tenant_storm"])
def test_simulated_metrics_repeat_and_another_seed_passes_checks(workload, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    first, _detail, _state = run.run(workload, seed=1, seconds=1, trace=False)
    again, _detail, _state = run.run(workload, seed=1, seconds=1, trace=False)
    simulated = sorted(set(first) - HOST)
    assert len(simulated) == 13
    assert {k: first[k] for k in simulated} == {k: again[k] for k in simulated}
    # run.run raises WrongResult if any check fails on the second seed.
    other, _detail, _state = run.run(workload, seed=2, seconds=1, trace=False)
    assert set(other) == set(first)
