"""The benchmark's workloads: what one unit runs, what set-up prepares, and
how a unit's output is checked against the recorded reference values.

A unit is what one replicate of ``tracereg figure1`` / ``tracereg
exact-recovery`` costs a user: the experiment runner with ``replicates=1``,
then ``summarize`` and ``emit_outputs`` into the unit's output directory.
Each workload has a small pool of unit seeds whose outputs are recorded in
``reference.json``.  A run cycles through the whole pool in an order fixed by
the workload seed, so every run times the same population of inputs.  Unit
times differ by up to 40% between inputs; when each run timed another subset
of a larger pool, the median unit time spread by 18% between runs.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import dataclass, replace

from tracereg.experiments import (
    ExperimentConfig,
    emit_outputs,
    run_exact_recovery,
    run_figure1,
    summarize,
)

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Allowed relative deviation of a unit's relative error from its reference.
# The theory and oracle estimators solve a convex problem at a fixed (or
# error-minimising) penalty, so any correct solver lands close.  CV picks
# the penalty by held-out error, where a near-tie may flip the choice by
# one halving step of the grid.
REL_TOL = {"theory1": 0.05, "theory2": 0.05, "theory3": 0.05, "oracle": 0.05, "cv": 0.5}

# unit seed of pool entry i is UNIT_SEED_BASE + i
UNIT_SEED_BASE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    base: ExperimentConfig
    pool: int  # unit seeds with recorded reference outputs
    trace_units: int  # units in the traced pass
    prefill_calibration: bool  # set-up fills the calibration cache

    def run_indices(self, seed: int) -> list[int]:
        """Pool entries in the order a run uses them; fixed by the workload seed."""
        return random.Random(f"{self.name}:{seed}").sample(range(self.pool), self.pool)

    def config(self, index: int, out_dir: str) -> ExperimentConfig:
        return replace(self.base, seed=UNIT_SEED_BASE + index, out_dir=out_dir)

    def unit_dir(self, work_dir: str, index: int, execution: int) -> str:
        """Output directory of one unit execution.  With a prefilled
        calibration cache every execution of a seed shares the cached
        directory; otherwise each execution starts from an empty one, so
        calibration runs cold."""
        if self.prefill_calibration:
            return os.path.join(work_dir, f"s{index}")
        return os.path.join(work_dir, f"s{index}-{execution}")

    def set_up(self, work_dir: str, indices: list[int]) -> None:
        """Empty the work directory and, where the workload asks for it,
        calibrate the penalty once per unit seed, as a study does once per
        sample size before its replicates."""
        shutil.rmtree(work_dir, ignore_errors=True)
        os.makedirs(work_dir)
        if self.prefill_calibration:
            for index in indices:
                run_figure1(replace(self.config(index, self.unit_dir(work_dir, index, 0)), estimators=()))

    def run(self, cfg: ExperimentConfig):
        if cfg.experiment == "figure1":
            return run_figure1(cfg)
        return run_exact_recovery(cfg)

    def check(self, index: int, records, paths: dict[str, str], reference: dict) -> str | None:
        """Return a description of the first problem with a unit's output,
        or None when it matches the reference."""
        want = reference[self.name][str(index)]
        got = {rec.estimator: rec for rec in records}
        if sorted(got) != sorted(want) or len(records) != len(want):
            return f"estimators {sorted(got)} differ from reference {sorted(want)}"
        for est, ref in want.items():
            err = got[est].relative_error
            if not math.isfinite(err):
                return f"{est}: relative error {err} is not finite"
            if "success" in ref:
                if got[est].success != ref["success"]:
                    return f"{est}: success {got[est].success} differs from reference {ref['success']}"
            elif abs(err - ref["rel_error"]) > REL_TOL[est] * ref["rel_error"]:
                return f"{est}: relative error {err!r} is not within {REL_TOL[est]} of {ref['rel_error']!r}"
        for kind, path in paths.items():
            if not os.path.isfile(path) or os.path.getsize(path) == 0:
                return f"{kind} output {path} is missing or empty"
        with open(paths["records"], encoding="utf-8") as fh:
            if sum(1 for _ in fh) != len(records) + 1:
                return "records.csv does not hold one row per record"
        return None


def run_unit(workload: Workload, cfg: ExperimentConfig, span):
    """One unit: the experiment runner, then summarize and emit_outputs.
    ``span(name)`` is a context manager wrapped around each call."""
    with span("experiments.run"):
        records = workload.run(cfg)
    summary = summarize(records)
    with span("experiments.emit_outputs") as rec:
        paths = emit_outputs(records, summary, cfg)
    return records, paths, rec


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fig1-mc50",
            base=ExperimentConfig(
                experiment="figure1", ensemble="matrix_completion", d=50, r=2, sigma=1.0,
                n_grid=(2500,), replicates=1, k_folds=5, calib_reps=250,
            ),
            pool=16, trace_units=6, prefill_calibration=True,
        ),
        Workload(
            name="recovery-gauss30",
            base=ExperimentConfig(
                experiment="exact_recovery", ensemble="gaussian_ensemble", d=30, r=2, sigma=0.0,
                n_grid=(600,), replicates=1,
            ),
            pool=64, trace_units=24, prefill_calibration=False,
        ),
        Workload(
            name="theory-mc200",
            base=ExperimentConfig(
                experiment="figure1", ensemble="matrix_completion", d=200, r=5, sigma=1.0,
                n_grid=(20000,), replicates=1, calib_reps=250,
                estimators=("theory1", "theory2", "theory3"),
            ),
            pool=8, trace_units=4, prefill_calibration=False,
        ),
    )
}
