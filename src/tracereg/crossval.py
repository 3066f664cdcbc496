"""K-fold cross-validation for the regularization parameter.

Folds partition the observations; for each candidate lam the estimator
is fit on each fold's complement and scored on the held-out fold.  The
selected estimator averages the K complement fits at the winning lam,
weighted by fold size.

The K fold fits walk the grid together by pulling
``solvers.solve_path``, warm-started from rung to rung (from the third
rung on at the secant prediction of the fold's last two fits) and
solved in lockstep: each round takes the K prox steps from one stacked
eigendecomposition, and every fold's fit is bit-identical to a chain of
lone ``solve_convex`` calls on it from the same starts.  The walk pulls
one rung at a time and stops once the out-of-fold error has risen at
two consecutive rungs, so the rungs past a minimum, the slowest ones on
a decreasing grid, are never solved; the grid may then run deep enough
to reach the minimum without that depth being paid for (the early end
of glmnet's lam path, Friedman, Hastie & Tibshirani 2010).
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
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    if not top > 0:
        raise ValueError(f"grid top must be positive, got {top} (lambda_max is 0 when all responses are)")
    grid = [top]
    while grid[-1] > lambda_min:
        grid.append(grid[-1] / 2.0)
    return grid


# consecutive rises of the out-of-fold error after which the walk stops
CV_STOP_RISES = 2


@dataclass(frozen=True)
class CvResult:
    """The grid rungs walked, their out-of-fold errors, the winning lam,
    the averaged estimator at that lam, and every (fold, lam) fit walked."""

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
    """
    if len(plan.assignments) != ds.n or np.any((plan.assignments < 0) | (plan.assignments >= plan.k)):
        raise ValueError("fold plan does not cover the dataset")
    n = ds.n
    sizes = plan.sizes()
    holds = [ds.subset(plan.indices(fold)) for fold in range(plan.k)]
    trains = [ds.subset(plan.complement(fold)) for fold in range(plan.k)]
    estimates, errors, rises = [], [], 0
    for row in solve_path(trains, grid, cfg):
        total = 0.0
        for hold, est in zip(holds, row):
            resid = hold.y - hold.measurements.apply(est.b_hat)
            total += float(resid @ resid)
        rises = rises + 1 if errors and total / n > errors[-1] else 0
        errors.append(total / n)
        estimates.append(row)
        if rises == CV_STOP_RISES:
            break
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
