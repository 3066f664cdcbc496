"""K-fold cross-validation for the regularization parameter.

Folds partition the observations; for each candidate lam the estimator
is fit on each fold's complement and scored on the held-out fold.  The
selected estimator averages the K complement fits at the winning lam,
weighted by fold size.

The K fold fits walk the grid together by pulling
``solvers.solve_path``, warm-started from rung to rung (from the third
rung on at the secant prediction of the fold's last two fits) and
solved in lockstep: each round takes the K prox steps from one call of
the shared prox kernel, and every fold's fit is bit-identical to a chain
of lone ``solve_convex`` calls on it from the same starts.  The walk pulls
one rung at a time and stops once the out-of-fold error has risen at
two consecutive rungs, so the rungs past a minimum, the slowest ones on
a decreasing grid, are never solved; the grid may then run deep enough
to reach the minimum without that depth being paid for (the early end
of glmnet's lam path, Friedman, Hastie & Tibshirani 2010).  A rung that
is likely past the minimum is first solved loosely, sent into the walk
as a looser SolverConfig, and kept only when its error clearly rose, so
the rises that end the walk cost few iterations while every rung that
can win is solved at the caller's tolerance.  The margin that makes a
rise clear is empirical: unlike the CV-error bounds from approximate
path solutions of Shibagaki, Suzuki, Karasuyama & Takeuchi (2015) and
Ndiaye, Le, Fercoq, Salmon & Takeuchi (2019), it certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import Dataset
from .solvers import Estimate, SolverConfig, solve_path

__all__ = [
    "FoldPlan",
    "CvResult",
    "make_folds",
    "lambda_grid",
    "cv_select",
]


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each observation to one of k folds."""

    k: int
    assignments: np.ndarray

    def indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def complement(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def make_folds(n: int, k: int, rng: np.random.Generator) -> FoldPlan:
    """Random partition of [0, n) into k folds with sizes differing by at
    most one, so every fold holds at least floor(n/k) >= n/(2k) points."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    perm = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    for fold, block in enumerate(np.array_split(perm, k)):
        assignments[block] = fold
    return FoldPlan(k=k, assignments=assignments)


def lambda_grid(top: float, lambda_min: float) -> list[float]:
    """Halving grid from ``top`` down to lambda_min: top, top/2, ... until
    a value at or below lambda_min is reached (that value is included).
    Callers start it at the zero-solution threshold ``lambda_max(ds)``.
    """
    if not lambda_min > 0:
        raise ValueError("lambda_min must be positive")
    if not 0 < top < np.inf:
        raise ValueError(f"grid top must be positive and finite, got {top} (lambda_max is 0 when all responses are)")
    grid = [top]
    while grid[-1] > lambda_min:
        grid.append(grid[-1] / 2.0)
    return grid


# consecutive rises of the out-of-fold error after which the walk stops
CV_STOP_RISES = 2
# A rung is probed (solved first at the looser of the caller's tolerance
# and _PROBE_TOL) when a rise is plausible: the previous rung's error rose
# or fell by less than _PROBE_FALL of itself.  The probe is kept only when
# its error exceeds the previous rung's by more than _PROBE_MARGIN
# (relative); otherwise the rung is solved at the caller's tolerance.
_PROBE_TOL = 1e-4
_PROBE_FALL = 0.1
_PROBE_MARGIN = 1e-3


@dataclass(frozen=True)
class CvResult:
    """The grid rungs walked, their out-of-fold errors, the winning lam,
    the averaged estimator at that lam, and every (fold, lam) fit walked.
    Only the last ``CV_STOP_RISES`` rows of ``e_hat`` and
    ``per_fold_estimates`` may be loose probe fits (see :func:`cv_select`);
    every other row, the winner's included, is solved at the caller's
    config."""

    lambda_grid: list[float]
    e_hat: np.ndarray
    lambda_cv: float
    b_cv: np.ndarray
    per_fold_estimates: list[list[Estimate]]  # indexed [lam][fold]
    converged: bool


def cv_select(ds: Dataset, plan: FoldPlan, grid, cfg: SolverConfig = SolverConfig()) -> CvResult:
    """Compute out-of-fold errors down a strictly decreasing lam grid and
    return the fold-size-weighted average estimator at the best lam.

    Each fold's estimator is fit on that fold's complement by pulling
    :func:`~tracereg.solvers.solve_path` with ``cfg`` rung by rung, so the
    first lam's fits are cold, the second starts from the first, and each
    later one starts from the secant prediction b_j + r_j (b_j - b_{j-1})
    of the fold's last two fits (r_j = 0.5 on a halving grid).
    ``e_hat[j]`` is the per-sample out-of-fold prediction error
    (1/n) sum_k ||y_k - X_k(B_{-k})||^2 at grid[j], stored per sample so it
    compares directly with per-observation noise levels.

    The walk stops after the rung at which ``e_hat`` has risen at two
    consecutive rungs (a rise is a strict increase over the previous
    rung; a tie resets the count), and later rungs are never solved.
    ``lambda_grid``, ``e_hat`` and ``per_fold_estimates`` of the result
    cover only the rungs walked; ``lambda_grid`` and ``lambda_cv`` are
    the walked fits' ``lam``, the grid's values as floats.  The winner is
    the minimum over those rungs, ties going to the largest lam (strongest
    regularization); on an error curve that falls and then rises it is the
    minimum over the whole grid.

    A rise is confirmed with loose solves.  When the previous rung's
    ``e_hat`` rose or fell by less than 10%, the rung is first solved at
    ``rel_obj_tol`` max(cfg's, 1e-4) (a probe, sent into the walk).  The
    probe's fits are kept only when its ``e_hat`` is more than 1e-3
    (relative) above the previous rung's, and so above the running
    minimum: such a rung cannot win.  Otherwise the rung is solved at
    ``cfg`` from the start a walk without probes uses, re-solving first a
    kept probe before it.  So every rung that can win is solved at
    ``cfg`` exactly as without probes, and only the last
    ``CV_STOP_RISES`` rows of the result may be loose fits.  The margin
    is empirical, not certified: a loose fit that overstates its rung's
    error by more than 1e-3 would end the walk early.  Certified rules
    bound the validation error from a fit's suboptimality (Shibagaki,
    Suzuki, Karasuyama & Takeuchi 2015; Ndiaye, Le, Fercoq, Salmon &
    Takeuchi 2019).
    """
    if len(plan.assignments) != ds.n or np.any((plan.assignments < 0) | (plan.assignments >= plan.k)):
        raise ValueError("fold plan does not cover the dataset")
    n = ds.n
    sizes = plan.sizes()
    holds = [ds.subset(plan.indices(fold)) for fold in range(plan.k)]
    trains = [ds.subset(plan.complement(fold)) for fold in range(plan.k)]
    probe = SolverConfig(cfg.max_iters, max(cfg.rel_obj_tol, _PROBE_TOL))
    walk = solve_path(trains, grid, cfg)
    # rows [0, exact) were solved at cfg; a rung before settle, where a probe
    # was not a clear rise, is not probed again
    estimates, errors, exact, settle, sent = [], [], 0, 0, None
    while True:
        try:
            row = walk.send(sent)
        except StopIteration:
            break
        total = 0.0
        for hold, est in zip(holds, row):
            resid = hold.y - hold.measurements.apply(est.b_hat)
            total += float(resid @ resid)
        error = total / n
        if sent is None:
            # a row at cfg after kept probes is the first of them, re-solved
            del estimates[exact:], errors[exact:]
            exact = len(estimates) + 1
        elif not error > (1.0 + _PROBE_MARGIN) * errors[-1]:
            settle, sent = len(estimates) + 1, None
            continue
        estimates.append(row)
        errors.append(error)
        recent = errors[-CV_STOP_RISES - 1:]
        if len(recent) > CV_STOP_RISES and all(a < b for a, b in zip(recent, recent[1:])):
            break
        plausible = len(errors) >= 2 and errors[-1] > (1.0 - _PROBE_FALL) * errors[-2]
        sent = probe if plausible and probe != cfg and len(estimates) >= settle else None
    e_hat = np.array(errors)
    best = 0
    for j in range(1, len(e_hat)):
        if e_hat[j] < e_hat[best]:
            best = j
    b_cv = np.zeros(ds.measurements.shape)
    for fold in range(plan.k):
        b_cv += (sizes[fold] / n) * estimates[best][fold].b_hat
    return CvResult(
        lambda_grid=[row[0].lam for row in estimates],
        e_hat=e_hat,
        lambda_cv=estimates[best][0].lam,
        b_cv=b_cv,
        per_fold_estimates=estimates,
        converged=all(est.converged for est in estimates[best]),
    )
