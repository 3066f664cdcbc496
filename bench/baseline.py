"""Check the machine-independent baseline that ROADMAP.md records.

    python3 bench/baseline.py

Traces one figure1 replicate (d=50, r=2, n=2500, all five estimators,
seed 7, calibration with 250 draws computed cold) and prints its prox steps
and SVD calls next to the recorded 1557 and 3414.
"""

from __future__ import annotations

import os
import shutil
import sys

from run import OUT, prepare_process

RECORDED = {"solvers.prox_steps": 1557, "linalg.svd_total.calls": 3414}


def main() -> int:
    prepare_process()
    from tracer import Tracer, layer_metrics
    from tracereg.experiments import ExperimentConfig, run_figure1

    out_dir = os.path.join(OUT, "baseline")
    shutil.rmtree(out_dir, ignore_errors=True)
    cfg = ExperimentConfig(n_grid=(2500,), replicates=1, seed=7, out_dir=out_dir)
    tracer = Tracer()
    with tracer.installed():
        run_figure1(cfg)
    metrics = layer_metrics(tracer)
    ok = True
    for name, recorded in RECORDED.items():
        got = int(metrics[name][0])
        ok &= got == recorded
        print(f"{name} {got} (recorded {recorded}): {'reproduces' if got == recorded else 'differs'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
