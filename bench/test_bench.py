"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.prepare_process()

import workloads  # noqa: E402
from tracereg.experiments import ExperimentRecord, emit_outputs, summarize  # noqa: E402

REFERENCE = workloads.load_reference()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(name):
    workload = workloads.WORKLOADS[name]
    counts = []
    for _ in range(2):
        outcomes, metrics, _ = run.traced_run(workload, 5, REFERENCE, units=1)
        assert [o.problem for o in outcomes] == [None, None]
        counts.append({k: v for k, (v, unit) in metrics.items() if unit != "s" and k != "trace.overhead_frac"})
    assert counts[0] == counts[1]
    assert counts[0]["solvers.prox_steps"] > 0
    assert counts[0]["linalg.svd_total.calls"] > counts[0]["solvers.prox_steps"]


def test_unit_that_raises_counts_as_failed_and_run_continues(monkeypatch):
    real = workloads.run_unit
    calls = []

    def flaky(*args):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected")
        return real(*args)

    monkeypatch.setattr(workloads, "run_unit", flaky)
    outcomes, metrics, _ = run.timed_run(workloads.WORKLOADS["recovery-gauss30"], 0, 0.5, REFERENCE)
    assert outcomes[0].problem == "raised" and outcomes[0].seconds is None
    assert len(outcomes) >= 2 and all(o.problem is None for o in outcomes[1:])
    assert metrics["unit_s.p50"][0] > 0


def _records(workload, index, tweak=None):
    ref = REFERENCE[workload.name][str(index)]
    recs = [
        ExperimentRecord(est, 1, 0, want["rel_error"], 1.0, True, 0, success=want.get("success"))
        for est, want in ref.items()
    ]
    return [tweak(r) if tweak else r for r in recs]


def _check(tmp_path, workload, index, records):
    cfg = workload.config(index, str(tmp_path))
    paths = emit_outputs(records, summarize(records), cfg)
    return workload.check(index, records, paths, REFERENCE)


def test_check_accepts_reference_and_rejects_wrong_outputs(tmp_path):
    fig1 = workloads.WORKLOADS["fig1-mc50"]
    assert _check(tmp_path, fig1, 0, _records(fig1, 0)) is None
    shifted = _records(fig1, 0, lambda r: replace(r, relative_error=r.relative_error * (1.1 if r.estimator == "oracle" else 1.0)))
    assert "oracle" in _check(tmp_path, fig1, 0, shifted)
    nan = _records(fig1, 0, lambda r: replace(r, relative_error=math.nan))
    assert "not finite" in _check(tmp_path, fig1, 0, nan)
    assert "estimators" in _check(tmp_path, fig1, 0, _records(fig1, 0)[1:])

    rec = workloads.WORKLOADS["recovery-gauss30"]
    assert _check(tmp_path, rec, 3, _records(rec, 3)) is None
    flipped = _records(rec, 3, lambda r: replace(r, success=not r.success))
    assert "success" in _check(tmp_path, rec, 3, flipped)


def test_reference_covers_every_pool_entry():
    for workload in workloads.WORKLOADS.values():
        assert sorted(REFERENCE[workload.name], key=int) == [str(i) for i in range(workload.pool)]
