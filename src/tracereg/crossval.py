"""K-fold cross-validation for the regularization parameter.

Folds partition the observations; for each candidate lam the estimator
is fit on each fold's complement and scored on the held-out fold.  The
selected estimator averages the K complement fits at the winning lam,
weighted by fold size.

The K fold fits walk the grid together, one ``solvers.solve_rung`` per
rung in lockstep, each started by ``solvers.secant_start`` (from the
third rung on at the secant prediction of the fold's last two fits), so
every fold's fit is bit-identical to a chain of lone ``solve_convex``
calls from the same starts.  The walk stops once the out-of-fold error
has risen at two consecutive rungs, so the rungs past a minimum, the
slowest ones on a decreasing grid, are never solved; the grid may then
run deep enough to reach the minimum without that depth being paid for
(the early end of glmnet's lam path, Friedman, Hastie & Tibshirani
2010).  A rung likely past the minimum is first solved loosely (a
probe) and kept only when its error clearly rose; otherwise the walk
goes back to its last rung solved at the caller's tolerance and on from
the starts it saved there.  So the rises that end the walk cost few
iterations, while every rung that can win is solved at the caller's
tolerance.  The margin that makes a rise clear is empirical: unlike the
CV-error bounds from approximate path solutions of Shibagaki, Suzuki,
Karasuyama & Takeuchi (2015) and Ndiaye, Le, Fercoq, Salmon & Takeuchi
(2019), it certifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import Dataset
from .solvers import Estimate, SolverConfig, _checked_grid, secant_start, solve_rung

__all__ = [
    "FoldPlan",
    "CvResult",
    "make_folds",
    "lambda_grid",
    "cv_select",
]


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each observation to one of k folds; ``assignments``
    may be any integer sequence and is held as an array."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assignments", np.asarray(self.assignments))  # frozen

    def indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments == fold)

    def complement(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.assignments != fold)

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.k)


def make_folds(n: int, k: int, rng: np.random.Generator) -> FoldPlan:
    """Random partition of [0, n) into k folds with sizes differing by at
    most one, so every fold holds at least floor(n/k) >= n/(2k) points."""
    if not (isinstance(k, (int, np.integer)) and 2 <= k <= n):
        raise ValueError(f"need an integer k with 2 <= k <= n, got k={k!r}")
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

    Each fold's estimator is fit on that fold's complement, the K folds of
    a lam in one :func:`~tracereg.solvers.solve_rung` at ``cfg``: the
    first lam's fits are cold, and each later one starts from
    :func:`~tracereg.solvers.secant_start` of the fold's fits before it.
    ``grid`` is checked as solve_path checks it; the fold assignments must
    be integers, and every fold must hold between 1 and n - 1
    observations.
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
    ``rel_obj_tol`` max(cfg's, 1e-4) (a probe, started from the rows
    before it, probes or not).  The probe's fits are kept only when its
    ``e_hat`` is more than 1e-3 (relative) above the previous rung's, and
    so above the running minimum: such a rung cannot win.  Otherwise the
    walk drops the probes and goes on from its last row solved at
    ``cfg``, from the starts a walk without probes uses.  So every rung
    that can win is solved at ``cfg`` exactly as without probes, and only
    the last ``CV_STOP_RISES`` rows of the result may be loose fits.  The margin
    is empirical, not certified: a loose fit that overstates its rung's
    error by more than 1e-3 would end the walk early.  Certified rules
    bound the validation error from a fit's suboptimality (Shibagaki,
    Suzuki, Karasuyama & Takeuchi 2015; Ndiaye, Le, Fercoq, Salmon &
    Takeuchi 2019).
    """
    if not np.issubdtype(np.asarray(plan.assignments).dtype, np.integer):
        raise ValueError("fold assignments must be integers")
    if len(plan.assignments) != ds.n or np.any((plan.assignments < 0) | (plan.assignments >= plan.k)):
        raise ValueError("fold plan does not cover the dataset")
    sizes = plan.sizes()
    if np.any(sizes == ds.n):
        raise ValueError(f"fold {int(np.argmax(sizes))} holds all {ds.n} observations, so its training set is empty")
    if np.any(sizes == 0):
        raise ValueError(f"fold {int(np.argmin(sizes))} holds no observations; each fold needs 1 to {ds.n - 1}")
    grid = _checked_grid(grid)
    holds = [ds.subset(plan.indices(fold)) for fold in range(plan.k)]
    trains = [ds.subset(plan.complement(fold)) for fold in range(plan.k)]
    probe = SolverConfig(cfg.max_iters, max(cfg.rel_obj_tol, _PROBE_TOL))
    # the count of rows solved at cfg, then the next rung's fold starts and
    # the row before it; saved after the last row solved at cfg
    exact, start, prev = saved = (0, [None] * plan.k, None)
    # a rung before settle, where a probe was not a clear rise, is not probed again
    estimates, errors, settle, probing = [], [], 0, False
    while (j := len(estimates)) < len(grid):
        row = solve_rung(trains, grid[j], probe if probing else cfg, start)
        total = 0.0
        for hold, est in zip(holds, row):
            resid = hold.y - hold.measurements.apply(est.b_hat)
            total += float(resid @ resid)
        error = total / ds.n
        if probing and not error > (1.0 + _PROBE_MARGIN) * errors[-1]:
            # not a clear rise: rewind to the last row solved at cfg
            (exact, start, prev), settle, probing = saved, j + 1, False
            del estimates[exact:], errors[exact:]
            continue
        start, prev = secant_start(grid, j, prev, row), row
        if not probing:
            saved = (j + 1, start, prev)
        estimates.append(row)
        errors.append(error)
        recent = errors[-CV_STOP_RISES - 1:]
        if len(recent) > CV_STOP_RISES and all(a < b for a, b in zip(recent, recent[1:])):
            break
        plausible = len(errors) >= 2 and errors[-1] > (1.0 - _PROBE_FALL) * errors[-2]
        probing = plausible and probe != cfg and len(estimates) >= settle
    best = min(range(len(errors)), key=errors.__getitem__)
    b_cv = np.zeros(ds.measurements.shape)
    for fold in range(plan.k):
        b_cv += (sizes[fold] / ds.n) * estimates[best][fold].b_hat
    return CvResult(
        lambda_grid=grid[:len(errors)],
        e_hat=np.array(errors),
        lambda_cv=grid[best],
        b_cv=b_cv,
        per_fold_estimates=estimates,
        converged=all(est.converged for est in estimates[best]),
    )
