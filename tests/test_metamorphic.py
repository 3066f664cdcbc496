"""Metamorphic properties of the convex solvers (Chen et al., ACM Computing
Surveys 2018): relations between the estimates of related inputs, which
hold whatever path the iterates take.

- Response scaling: (c y, c lam) gives c B_hat, since the penalized loss
  at (c y, c lam, c B) is c^2 times the loss at (y, lam, B).
- Permutation and duplication: reordering the observations, or listing
  each one twice, leaves the empirical loss (1/n) sum_i (y_i - <X_i, B>)^2
  and so B_hat unchanged.
- Transposition: the transposed measurements X_i^T give B_hat^T, since
  <X_i^T, B^T> = <X_i, B> and the nuclear norm is transpose-invariant.
  This runs the wide-matrix (``_tall``) branch of the prox kernels and of
  the operator norm, which the square experiments never reach.

Each property runs over the four ensembles with d_r != d_c, for a lone
solve_convex, cross-validation (lockstep solve_path over the folds,
secant-started from rung 2 on) and solve_noiseless, all at
rel_obj_tol=1e-12.  A power-of-two scale changes no rounding at all, so
its two sides must agree bit for bit.  Otherwise the two sides differ by
rounding in the data and in the reduction order of apply / adjoint, and
they agree to the tolerances in TOL, not bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereg import (
    ENSEMBLES,
    Dataset,
    DenseSet,
    EntrySet,
    RankOneSet,
    SolverConfig,
    cv_select,
    generate_dataset,
    generate_ground_truth,
    lambda_max,
    solve_convex,
    solve_noiseless,
    stream,
)
from tracereg.crossval import FoldPlan

SOLVERS = ["convex", "cv", "noiseless"]
TIGHT = SolverConfig(max_iters=5000, rel_obj_tol=1e-12)
NOISELESS = SolverConfig(max_iters=2000, rel_obj_tol=1e-12)
FOLDS = 3
# a halving grid from the top, as lambda_grid makes: four rungs take a secant start
CV_FRACS = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
# Relative Frobenius distance allowed between the two sides of a relation.
# A solve stops once the relative objective decrease falls below
# rel_obj_tol, so along weakly curved directions (fold fits at small lam,
# the noiseless ladder's last rungs) it fixes B_hat only to about
# sqrt(rel_obj_tol) = 1e-6, and a rounding-level change of the data can
# move the stop by one iteration.  Worst cases measured over 150 random
# problems of this shape: 3e-14 for the lone convex solve, 1.0e-6 for CV
# fits, 5.6e-7 for noiseless (9.8e-6 with the plain warm-started ladder).
TOL = {"convex": 1e-12, "cv": 1e-5, "noiseless": 1e-4}

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


@st.composite
def problems(draw, solver, kinds=tuple(sorted(ENSEMBLES))):
    """(dataset, fold assignments) of a rank-1 problem with d_r != d_c;
    noiseless for solve_noiseless, noisy otherwise."""
    kind = draw(st.sampled_from(kinds))
    d_r = draw(st.integers(2, 6))
    d_c = draw(st.integers(2, 6).filter(lambda v: v != d_r))
    n = draw(st.integers(4 * (d_r + d_c), 60))
    seed = draw(st.integers(0, 2**32 - 1))
    sigma = 0.0 if solver == "noiseless" else 0.3
    b_star = generate_ground_truth(d_r, d_c, 1, stream(seed))
    ds = generate_dataset(ENSEMBLES[kind](d_r, d_c), b_star, n, sigma, seed=seed)
    return ds, np.arange(n) % FOLDS


def fits(solver, ds, assignments, top):
    """Every matrix ``solver`` returns on ``ds``; ``top`` sets the penalty
    scale of the convex solve and the CV grid (solve_noiseless derives its
    own ladder from lambda_max(ds))."""
    if solver == "convex":
        return [solve_convex(ds, 0.1 * top, TIGHT).b_hat]
    if solver == "cv":
        res = cv_select(ds, FoldPlan(FOLDS, assignments), [frac * top for frac in CV_FRACS], TIGHT)
        return [res.b_cv] + [est.b_hat for row in res.per_fold_estimates for est in row]
    return [solve_noiseless(ds, NOISELESS).b_hat]


def assert_close(got, want, tol):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.linalg.norm(a - b) <= tol * max(np.linalg.norm(a), np.linalg.norm(b))


def transposed(ds: Dataset) -> Dataset:
    ms = ds.measurements
    if isinstance(ms, EntrySet):
        flipped = EntrySet(ms.cols, ms.rows, ms.scales, ms.d_c, ms.d_r)
    elif isinstance(ms, DenseSet):
        flipped = DenseSet(ms.mats.transpose(0, 2, 1))
    else:
        flipped = RankOneSet(ms.vs, ms.us)
    spec = replace(ds.spec, d_r=ds.spec.d_c, d_c=ds.spec.d_r)
    return Dataset(spec, flipped, ds.y, ds.noise_sigma, ds.seed)


def scaled(ds: Dataset, c: float) -> Dataset:
    return Dataset(ds.spec, ds.measurements, c * ds.y, ds.noise_sigma, ds.seed)


@pytest.mark.parametrize("solver", SOLVERS)
class TestMetamorphic:
    @SETTINGS
    @given(data=st.data(), c=st.floats(0.01, 100.0))
    def test_response_scaling(self, solver, data, c):
        ds, folds = data.draw(problems(solver))
        top = lambda_max(ds)
        assert_close(fits(solver, scaled(ds, c), folds, c * top), [c * b for b in fits(solver, ds, folds, top)],
                     TOL[solver])

    @SETTINGS
    @given(data=st.data())
    def test_power_of_two_scaling_is_exact(self, solver, data):
        ds, folds = data.draw(problems(solver))
        top = lambda_max(ds)
        for got, want in zip(fits(solver, scaled(ds, 4.0), folds, 4.0 * top), fits(solver, ds, folds, top)):
            assert np.array_equal(got, 4.0 * want)

    @SETTINGS
    @given(data=st.data(), twice=st.booleans())
    def test_permuting_or_duplicating_observations(self, solver, data, twice):
        ds, folds = data.draw(problems(solver))
        order = np.repeat(np.arange(ds.n), 2) if twice else np.arange(ds.n)
        order = np.asarray(data.draw(st.permutations(list(order))))
        top = lambda_max(ds)
        # the folds follow their observations, so every fold trains on the same points
        assert_close(fits(solver, ds.subset(order), folds[order], top), fits(solver, ds, folds, top), TOL[solver])

    @SETTINGS
    @given(data=st.data())
    def test_transposition(self, solver, data):
        kinds = tuple(kind for kind in sorted(ENSEMBLES) if kind != "multi_task")  # a row set has no transpose
        ds, folds = data.draw(problems(solver, kinds))
        top = lambda_max(ds)
        assert_close(fits(solver, transposed(ds), folds, top), [b.T for b in fits(solver, ds, folds, top)],
                     TOL[solver])
