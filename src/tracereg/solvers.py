"""Estimators for the penalized trace-regression loss.

The convex route minimizes (1/n)||y - X(B)||^2 + lam*||B||_* by an
accelerated proximal-gradient method with a monotone restart and an
adaptive step: a proximal step is accepted only when the loss's
quadratic model at its base point majorizes the loss at its output
(checked from the operator images the iterates already carry, so at no
operator call), is halved and retried from the same gradient otherwise,
and grows by STEP_GROWTH after each iteration, so it may exceed 1/L; it
starts at the Cauchy step along the first gradient, which is never below
1/L (Beck & Teboulle 2009; Becker, Candes & Grant 2011).  The factored
route alternates exact ridge solves over the two factors of B = U V^T.
Every solve returns an Estimate carrying its certificate data, and
``check_goodness`` verifies a posteriori that an estimate's loss does
not exceed the loss at the target matrix.

The convex solve is written once, as a generator that yields its prox
inputs, and run by one loop (``_drive``) given the prox: soft_threshold
in ``solve_convex``, the stacked kernel in a lockstep rung.
``solve_path`` is a generator that walks a decreasing lam grid from zero
with warm starts and solves each rung only when its row of estimates is
pulled.  It is the one walk behind cross-validation (which stops pulling
once the held-out error has turned up), the figure1 full-data fits (a
replicate's theory penalties and oracle grid, one walk over their union)
and the noiseless continuation ladder.  A caller may ``send()`` it another
SolverConfig to solve the next rung provisionally (cross-validation
solves loosely a rung that likely lies past the held-out minimum); the
next plain pull rewinds past the provisional rungs, so every row solved
at the walk's own config is the one a plain walk yields.  From its
third rung on it starts each rung from the secant prediction of the last
two solutions (the predictor step of numerical continuation), not from
the last solution itself.  It runs several same-shape problems (the K
cross-validation folds) in lockstep, taking each round's prox steps from
one stacked symmetric SVD (``linalg._soft_threshold_stack``, the kernel
soft_threshold calls on one matrix, so the two agree bit for bit); the
secant start is formed ahead of either route, so each Estimate equals
the one a lone solve_convex from the same start returns.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import _soft_threshold_stack, matrix_norm, operator_norm, soft_threshold, svd
from .sampling import Dataset

__all__ = [
    "SolverConfig",
    "Estimate",
    "GoodnessCheck",
    "objective",
    "lambda_max",
    "lipschitz_estimate",
    "solve_convex",
    "solve_path",
    "solve_factored",
    "solve_noiseless",
    "check_goodness",
]


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls shared by the solvers: the iteration cap and the
    relative objective decrease below which a solve stops."""

    max_iters: int = 5000
    rel_obj_tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if not 0.0 < self.rel_obj_tol < 1.0:
            raise ValueError("rel_obj_tol must lie in (0, 1)")


@dataclass(frozen=True)
class Estimate:
    """Solver output with provenance.

    ``objective`` is always the penalized convex loss at ``b_hat``
    (recomputable from the dataset and ``lam``); ``history`` records the
    per-iteration (or per-sweep) internal objective values; ``residual``
    is the relative data-fit residual reported by the noiseless solver.
    ``stop_reason`` says why an iterative solve stopped: "rel_dec" (the
    relative objective decrease fell below the tolerance), "stalled" (a
    restarted proximal step from the best iterate did not descend; with
    the adaptive step that step is majorized, so this happens only at
    working precision; convex route only) or "max_iters".
    ``converged`` is True exactly when it is not "max_iters".  The
    noiseless solver reports "max_iters" when any rung of its ladder was
    cut there, and otherwise the last rung's reason; its ``converged``
    also requires the residual to be within tolerance.
    """

    b_hat: np.ndarray
    lam: float
    objective: float
    iters: int
    converged: bool
    method: str
    residual: float | None = None
    history: tuple = field(default=(), repr=False)
    factors: tuple | None = field(default=None, repr=False)
    stop_reason: str | None = None


def objective(ds: Dataset, lam: float, b) -> float:
    """Penalized loss (1/n)||y - X(b)||_2^2 + lam * ||b||_*."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    b = np.asarray(b, dtype=float)
    return _penalized_loss(ds, lam, ds.measurements.apply(b), matrix_norm(b, "nuclear"))


def lambda_max(ds: Dataset) -> float:
    """Smallest penalty level at which the all-zero matrix minimizes the
    penalized loss: the operator norm of the loss gradient at zero,
    (2/n) ||sum_i y_i X_i||_op."""
    return 2.0 / ds.n * operator_norm(ds.measurements.adjoint(ds.y))


def lipschitz_estimate(ds: Dataset) -> float:
    """Power-iteration estimate of the Lipschitz constant of the smooth
    part's gradient, i.e. the largest eigenvalue of b -> (2/n) X*(X(b)).
    The solvers do not call it; it is the 1/L bound for callers that
    check a step or a curvature against it."""
    ms = ds.measurements
    b = np.ones(ms.shape)
    b /= np.linalg.norm(b)
    lam = 1.0
    for _ in range(20):
        nxt = ms.adjoint(ms.apply(b)) * (2.0 / ds.n)
        nrm = np.linalg.norm(nxt)
        if nrm == 0.0:
            return 1.0
        lam = nrm
        b = nxt / nrm
    return float(lam)


def _penalized_loss(ds: Dataset, lam: float, xb: np.ndarray, nuclear: float) -> float:
    resid = ds.y - xb
    return float(resid @ resid / ds.n + lam * nuclear)


# After each accepted APG iteration the adaptive step grows by this
# factor, so it can climb past 1/L (the curvature bound over all
# directions) and recover from a backtrack; 1/0.9 is the default of TFOCS
# (Becker, Candes & Grant 2011).
STEP_GROWTH = 1.0 / 0.9


def _prox_step(ds: Dataset, lam: float, b: np.ndarray, xb: np.ndarray, step: float | None):
    """One proximal-gradient step from b, given xb = X(b), as a
    sub-generator of :func:`_apg`: it yields prox inputs (m, tau), is sent
    back each prox output with its shrunk singular values, and returns
    (z, X(z), penalized loss at z, the step taken).

    The gradient at b costs one adjoint, each prox output one apply.  A
    step of None starts at the Cauchy step ||g||^2 / ((2/n)||X(g)||^2)
    along the gradient g, at one more apply (1.0 when g = 0).  The output
    z is accepted only when (1/n)||X(z) - X(b)||^2 <= ||z - b||^2 / (2 step);
    for this quadratic loss that is exactly
    f(z) <= f(b) + <grad f(b), z - b> + ||z - b||^2 / (2 step), the
    majorization under which a proximal step descends.  Otherwise the
    step halves and the prox is retried from the same gradient.  An output
    equal to b moves nothing and is accepted as it is.
    """
    grad = ds.measurements.adjoint(xb - ds.y) * (2.0 / ds.n)
    if step is None:
        xg = ds.measurements.apply(grad)
        curvature = 2.0 / ds.n * float(xg @ xg)
        step = float(np.vdot(grad, grad)) / curvature if curvature > 0.0 else 1.0
    while True:
        z, shrunk = yield b - step * grad, lam * step
        xz = ds.measurements.apply(z)
        gap, move = xz - xb, z - b
        moved = float(np.vdot(move, move))
        if moved == 0.0 or gap @ gap / ds.n <= moved / (2.0 * step):
            return z, xz, _penalized_loss(ds, lam, xz, float(np.sum(shrunk))), step
        step *= 0.5


def _apg(ds: Dataset, lam: float, cfg: SolverConfig, x0: np.ndarray | None):
    """The accelerated proximal-gradient solve of one problem, as a
    generator: it yields each prox input (m, tau), is sent back the prox
    output with its shrunk singular values, and returns the Estimate; see
    :func:`solve_convex`."""
    ms = ds.measurements
    step = None
    if x0 is None:
        x = np.zeros(ms.shape)
        nuclear = 0.0
    else:
        x = np.asarray(x0, dtype=float).copy()
        nuclear = matrix_norm(x, "nuclear")
    xx = ms.apply(x)
    y, xy = x, xx
    t = 1.0
    fx = _penalized_loss(ds, lam, xx, nuclear)
    history = [fx]
    stop_reason = "max_iters"
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        z, xz, fz, step = yield from _prox_step(ds, lam, y, xy, step)
        if fz > fx:
            # momentum overshot: restart from the best iterate
            t = 1.0
            z, xz, fz, step = yield from _prox_step(ds, lam, x, xx, step)
            if fz > fx:
                # a majorized step from x descends in exact arithmetic:
                # working precision is reached
                stop_reason = "stalled"
                break
        step *= STEP_GROWTH
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y = z + beta * (z - x)
        xy = xz + beta * (xz - xx)
        rel_dec = (fx - fz) / max(abs(fx), 1e-300)
        x, xx, fx, t = z, xz, fz, t_next
        history.append(fx)
        if 0.0 <= rel_dec < cfg.rel_obj_tol:
            stop_reason = "rel_dec"
            break
    return Estimate(
        b_hat=x,
        lam=float(lam),
        objective=fx,
        iters=iters,
        converged=stop_reason != "max_iters",
        method="convex",
        history=tuple(history),
        stop_reason=stop_reason,
    )


def solve_convex(
    ds: Dataset,
    lam: float,
    cfg: SolverConfig = SolverConfig(),
    x0: np.ndarray | None = None,
) -> Estimate:
    """Accelerated proximal-gradient minimization of the penalized loss.

    Objective values are non-increasing across iterations: whenever the
    accelerated step overshoots, momentum is reset and a plain proximal
    step is taken from the current iterate, which descends whenever the
    quadratic model majorizes the loss.  Stops when the relative
    objective decrease falls below cfg.rel_obj_tol (stop_reason
    "rel_dec") or when that restarted step does not descend ("stalled":
    working precision with the adaptive step); hitting max_iters first
    ("max_iters") yields converged=False rather than an exception.

    The step starts at the Cauchy step ||g||^2 / ((2/n)||X(g)||^2) along
    the first gradient g, which is at least 1/L.  Each proximal output z
    from a point b is accepted only when (1/n)||X(z) - X(b)||^2 <=
    ||z - b||^2 / (2 step), which for this quadratic loss is exact
    majorization; otherwise the step halves and the prox is retried.
    After each iteration the step grows by STEP_GROWTH, so it follows the
    curvature along the path, typically well below L, instead of the
    worst case over all directions.

    Each point costs one gradient, one adjoint; each proximal step costs
    one SVD (:func:`~tracereg.linalg.soft_threshold`) and one apply; the
    Cauchy start costs one more apply.  X(x) and X(z) travel with the
    iterates, X(y) of the extrapolated point follows by linearity, so the
    majorization check needs no operator call, and the penalty at z is
    the sum of the shrunk singular values.
    The lockstep rungs of :func:`solve_path` run the same iteration
    through the same driver loop with the stacked prox.
    """
    if lam <= 0:
        raise ValueError("lam must be positive for the convex solver")
    # the module-global soft_threshold, looked up at each prox step
    return _drive([_apg(ds, lam, cfg, x0)], lambda ms, taus, out: [soft_threshold(ms[0], taus[0], out[0])])[0]


def solve_path(datasets, grid, cfg: SolverConfig = SolverConfig()) -> Iterator[list[Estimate]]:
    """Walk :func:`solve_convex` of every dataset down a strictly
    decreasing ``grid``, warm-started along it.  A generator: it yields
    row j, one Estimate per dataset at grid[j], and solves a rung only
    when its row is pulled, so a caller that stops pulling leaves the
    later rungs unsolved.  The arguments are checked at the first pull,
    before any solve.

    Rung 0 starts from zero and rung 1 from rung 0's solutions.  Each
    later rung j+1 starts from the secant prediction b_j + r_j (b_j -
    b_{j-1}), r_j = (lam_{j+1} - lam_j) / (lam_j - lam_{j-1}), the
    predictor step of numerical continuation: the solution path is
    nearly linear in lam between rungs, so this start lies closer to the
    rung's solution than b_j does (r_j is 0.5 on a halving grid, 0.2 on
    a ladder falling 5x per rung).

    ``next()`` (or ``send(None)``) solves the next rung at ``cfg``.
    ``send(c)`` with a SolverConfig ``c`` solves it at ``c`` instead and
    yields a *provisional* row, which seeds only the next provisional
    rung.  The first pull at ``cfg`` after provisional rows rewinds to
    the first of them and solves it from the rows last solved at ``cfg``,
    so every row solved at ``cfg`` equals the row of a walk that was
    never sent a config; a caller reads a row's rung from ``row[0].lam``.

    One dataset is solved by solve_convex itself.  Several, which must
    share one measurement shape, run each rung in lockstep: each keeps its
    own adaptive step, momentum, restart and stop state and leaves
    the rung when it stops, and every round takes one prox for each
    problem still running from one stacked symmetric SVD of their Gram
    matrices (``linalg._soft_threshold_stack``), which matches
    soft_threshold bit for bit.  The secant start is formed ahead of
    either route, so every Estimate equals the one a chain of lone
    solve_convex calls from the same starts returns.
    """
    grid = [float(lam) for lam in grid]
    if not grid:
        raise ValueError("lam grid must be non-empty")
    if not all(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("lam grid must be strictly decreasing")
    if not grid[-1] > 0:
        raise ValueError("lam must be positive for the convex solver")
    datasets = list(datasets)
    if len({ds.measurements.shape for ds in datasets}) > 1:
        raise ValueError("batched problems must share one matrix shape")
    # (next rung, its predecessor's row, its starts) after the last rung solved at cfg
    exact = (0, None, [None] * len(datasets))
    sent = None
    while True:
        if sent is None:
            j, prev, warm = exact
        if j == len(grid):
            return
        lam, rung_cfg = grid[j], cfg if sent is None else sent
        if len(datasets) == 1:
            # a lone solve through solve_convex, so its prox steps are
            # soft_threshold calls inside it, as bench/tracer.py counts them
            row = [solve_convex(datasets[0], lam, rung_cfg, warm[0])]
        else:
            row = _lockstep_rung(datasets, lam, rung_cfg, warm)
        warm = [est.b_hat for est in row]
        if j >= 1 and j + 1 < len(grid):
            # secant predictor: extrapolate the last two solutions to the next lam
            r = (grid[j + 1] - lam) / (lam - grid[j - 1])
            warm = [b + r * (b - est.b_hat) for b, est in zip(warm, prev)]
        j, prev = j + 1, row
        if sent is None:
            exact = (j, prev, warm)
        sent = yield row


def _lockstep_rung(datasets: list[Dataset], lam: float, cfg: SolverConfig, x0s: list) -> list[Estimate]:
    """One rung of :func:`solve_path` over several problems in lockstep."""
    return _drive([_apg(ds, lam, cfg, x0) for ds, x0 in zip(datasets, x0s)], _soft_threshold_stack)


def _drive(solves: list, prox) -> list[Estimate]:
    """Run the :func:`_apg` generators ``solves`` to their Estimates.  Each
    round takes one prox step for every solve still running from one call
    ``prox(ms, taus, singulars)`` (the stacked-kernel signature of
    ``linalg._soft_threshold_stack``), and a solve leaves the rounds when
    it stops."""
    results: list = [None] * len(solves)
    pending = {i: next(solve) for i, solve in enumerate(solves)}
    while pending:
        active = list(pending)
        ms = [pending[i][0] for i in active]
        shrunk = np.empty((len(active), min(ms[0].shape)))
        for i, z, row in zip(active, prox(ms, [pending[i][1] for i in active], shrunk), shrunk):
            try:
                pending[i] = solves[i].send((z, row))
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results


def _factored_objective(ds: Dataset, lam: float, u: np.ndarray, v: np.ndarray) -> float:
    resid = ds.y - ds.measurements.apply(u @ v.T)
    return float(resid @ resid / ds.n + 0.5 * lam * (np.sum(u * u) + np.sum(v * v)))


def _ridge_block(design: np.ndarray, y: np.ndarray, lam: float, n: int) -> np.ndarray:
    """Solve min (1/n)||y - design @ w||^2 + (lam/2)||w||^2 for w."""
    m = design.shape[1]
    gram = design.T @ design * (2.0 / n) + lam * np.eye(m)
    rhs = design.T @ y * (2.0 / n)
    return np.linalg.solve(gram, rhs)


def solve_factored(
    ds: Dataset,
    lam: float,
    r: int,
    cfg: SolverConfig = SolverConfig(max_iters=200),
) -> Estimate:
    """Alternating exact ridge minimization over the factors of B = U V^T.

    Each half-sweep solves its block least-squares problem exactly (the
    ridge term keeps the normal equations positive definite), so the
    factored objective is non-increasing per sweep.  The returned
    Estimate reports the convex penalized loss at U V^T.
    """
    if lam <= 0:
        raise ValueError("lam must be positive for the factored solver")
    d_r, d_c = ds.measurements.shape
    if not 1 <= r <= min(d_r, d_c):
        raise ValueError("rank out of range")
    # spectral initialization from the adjoint of the responses
    f = svd(ds.measurements.adjoint(ds.y) / ds.n)
    root = np.sqrt(f.singulars[:r])
    u = f.left[:, :r] * root
    v = f.right[:, :r] * root
    fx = _factored_objective(ds, lam, u, v)
    history = [fx]
    stop_reason = "max_iters"
    sweeps = 0
    for sweeps in range(1, cfg.max_iters + 1):
        design_u = ds.measurements.xi_dot(v).reshape(ds.n, d_r * r)
        u = _ridge_block(design_u, ds.y, lam, ds.n).reshape(d_r, r)
        design_v = ds.measurements.xi_t_dot(u).reshape(ds.n, d_c * r)
        v = _ridge_block(design_v, ds.y, lam, ds.n).reshape(d_c, r)
        f_new = _factored_objective(ds, lam, u, v)
        if not np.isfinite(f_new):
            raise FloatingPointError("factored solve produced non-finite values")
        rel_dec = (fx - f_new) / max(abs(fx), 1e-300)
        fx = f_new
        history.append(fx)
        if 0.0 <= rel_dec < cfg.rel_obj_tol:
            stop_reason = "rel_dec"
            break
    b_hat = u @ v.T
    return Estimate(
        b_hat=b_hat,
        lam=float(lam),
        objective=objective(ds, lam, b_hat),
        iters=sweeps,
        converged=stop_reason != "max_iters",
        method="factored",
        history=tuple(history),
        factors=(u, v),
        stop_reason=stop_reason,
    )


# Continuation ladder for noiseless solves: lam shrinks by this factor
# for this many steps starting from lambda_max, leaving the final
# penalty about 390000x smaller than the zero-solution threshold.
NOISELESS_LADDER_FACTOR = 5.0
NOISELESS_LADDER_STEPS = 8
NOISELESS_RESIDUAL_TOL = 1e-3


def solve_noiseless(ds: Dataset, cfg: SolverConfig = SolverConfig(max_iters=2000)) -> Estimate:
    """Minimum-nuclear-norm recovery for noiseless data.

    Walks a geometrically decreasing lam ladder with :func:`solve_path`;
    with exact responses the data-fit term vanishes at the constrained
    optimum, so the final rung approximates the minimum-nuclear-norm
    matrix consistent with the observations.  The relative constraint
    residual is reported.  stop_reason is "max_iters" when any rung was
    cut at cfg.max_iters, and otherwise the last rung's reason;
    converged=False when a rung was cut or the residual exceeds 1e-3.
    """
    lam0 = lambda_max(ds)
    if lam0 == 0.0:
        # gradient at zero vanishes, so every rung returns the zero matrix
        zero = np.zeros(ds.measurements.shape)
        ynorm = float(np.linalg.norm(ds.y))
        resid = 0.0 if ynorm == 0.0 else 1.0
        return Estimate(zero, 0.0, objective(ds, 0.0, zero), 0, resid <= NOISELESS_RESIDUAL_TOL,
                        "noiseless", residual=resid)
    ladder = [lam0 / NOISELESS_LADDER_FACTOR**j for j in range(NOISELESS_LADDER_STEPS + 1)]
    rungs = [est for (est,) in solve_path([ds], ladder, cfg)]
    est = rungs[-1]
    cut = any(rung.stop_reason == "max_iters" for rung in rungs)
    resid_num = np.linalg.norm(ds.y - ds.measurements.apply(est.b_hat))
    resid = float(resid_num / max(np.linalg.norm(ds.y), 1e-300))
    return Estimate(
        b_hat=est.b_hat,
        lam=est.lam,
        objective=est.objective,
        iters=sum(rung.iters for rung in rungs),
        converged=resid <= NOISELESS_RESIDUAL_TOL and not cut,
        method="noiseless",
        residual=resid,
        stop_reason="max_iters" if cut else est.stop_reason,
    )


class GoodnessCheck(NamedTuple):
    loss_ok: bool
    spikiness_ok: bool


def check_goodness(est: Estimate, b_star, ds: Dataset, b_star_bound: float) -> GoodnessCheck:
    """Certify an estimate after the fact.

    loss_ok: penalized loss at the estimate does not exceed the loss at
    the target (up to a relative 1e-9 slack).  spikiness_ok: the
    estimate's spikiness norm stays within the stated bound for the
    target.
    """
    b_star = np.asarray(b_star, dtype=float)
    obj_star = objective(ds, est.lam, b_star)
    obj_hat = objective(ds, est.lam, est.b_hat)
    loss_ok = obj_hat <= obj_star + 1e-9 * (1.0 + abs(obj_star))
    spikiness_ok = ds.spec.spikiness_norm(est.b_hat) <= b_star_bound * (1.0 + 1e-6)
    return GoodnessCheck(loss_ok=bool(loss_ok), spikiness_ok=bool(spikiness_ok))
