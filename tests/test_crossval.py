import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereg import (
    Dataset,
    EntrySet,
    FactoredMeasurement,
    GaussianEnsemble,
    MatrixCompletion,
    MultiTask,
    SolverConfig,
    cv_select,
    generate_dataset,
    generate_ground_truth,
    lambda_grid,
    lambda_max,
    make_folds,
    solve_convex,
    stream,
)
from tracereg import crossval, solvers
from tracereg.crossval import FoldPlan
from tracereg.solvers import Estimate, lipschitz_estimate, objective


def entry_dataset(y_value: float) -> Dataset:
    ms = EntrySet([0], [0], [1.0], 2, 2)
    return Dataset(MatrixCompletion(2, 2, plain_entries=True), ms, np.array([y_value]), 0.0, seed=0)


def cold_cv_error(ds: Dataset, plan: FoldPlan, lam: float, cfg: SolverConfig = SolverConfig()) -> float:
    """Out-of-fold error at one lam from cold fold fits: cv_select on a
    one-value grid."""
    return float(cv_select(ds, plan, [lam], cfg).e_hat[0])


def stub_path(b_hats, pulled=None, probed=None):
    """Stand-in for solvers.solve_path that fits every fold with b_hats[j]
    at rung j, or with probed[j] when the rung is sent a config (a probe),
    appending (j, the config sent or None) to ``pulled`` as each rung is
    solved.  Like solve_path, a plain pull after probed rungs rewinds to
    the first of them."""

    def walk(subs, grid, cfg):
        j = exact = 0
        sent = None
        while True:
            if sent is None:
                j = exact
            if j == len(grid):
                return
            if pulled is not None:
                pulled.append((j, sent))
            lam, b_hat = grid[j], (b_hats if sent is None or probed is None else probed)[j]
            j += 1
            if sent is None:
                exact = j
            sent = yield [
                Estimate(b_hat=b_hat, lam=lam, objective=objective(sub, lam, b_hat), iters=0, converged=True, method="convex")
                for sub in subs
            ]

    return walk


@st.composite
def fold_cases(draw):
    """(n, k) with 2 <= k <= n <= 200."""
    n = draw(st.integers(2, 200))
    return n, draw(st.integers(2, n))


class TestMakeFolds:
    def test_even_split(self):
        plan = make_folds(10, 5, stream(0))
        assert sorted(plan.sizes()) == [2, 2, 2, 2, 2]

    def test_uneven_split(self):
        plan = make_folds(11, 5, stream(1))
        assert sorted(plan.sizes()) == [2, 2, 2, 2, 3]

    @staticmethod
    def check_partition(n, k, seed):
        plan = make_folds(n, k, stream(seed))
        folds = [plan.indices(f) for f in range(k)]
        assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))
        sizes = [len(fold) for fold in folds]
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= n / (2 * k)
        for f, fold in enumerate(folds):
            assert np.array_equal(plan.complement(f), np.setdiff1d(np.arange(n), fold))
        assert np.array_equal(make_folds(n, k, stream(seed)).assignments, plan.assignments)

    @pytest.mark.parametrize("n,k", [(7, 2), (23, 5), (40, 8), (9, 9)])
    def test_partition_properties(self, n, k):
        self.check_partition(n, k, 2)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=fold_cases(), seed=st.integers(0, 2**63 - 1))
    def test_partition_properties_any_split(self, case, seed):
        self.check_partition(*case, seed)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            make_folds(4, 5, stream(3))
        with pytest.raises(ValueError):
            make_folds(4, 1, stream(3))


class TestLambdaGrid:
    def test_halving_to_exact_min(self):
        ds = entry_dataset(4.0)  # lambda_max = 2/1 * 4 = 8
        assert lambda_max(ds) == pytest.approx(8.0)
        assert lambda_grid(lambda_max(ds), 1.0) == pytest.approx([8.0, 4.0, 2.0, 1.0])

    def test_first_value_at_or_below_min_terminates(self):
        assert lambda_grid(8.0, 0.9) == [8.0, 4.0, 2.0, 1.0, 0.5]

    def test_zero_responses_rejected(self):
        ds = entry_dataset(0.0)
        with pytest.raises(ValueError, match="top must be positive"):
            lambda_grid(lambda_max(ds), 0.5)

    def test_given_top_gives_the_same_grid_without_lambda_max(self, monkeypatch):
        # the grid is a function of its top alone: it takes no operator norm
        b_star = generate_ground_truth(6, 6, 1, stream(31))
        ds = generate_dataset(GaussianEnsemble(6, 6), b_star, 60, 0.1, seed=32)
        top = lambda_max(ds)
        monkeypatch.setattr(solvers, "operator_norm", None)
        grid = lambda_grid(top, 0.01 * top)
        assert grid[0] == top and grid[-1] <= 0.01 * top < grid[-2]
        assert all(b == a / 2.0 for a, b in zip(grid, grid[1:]))
        assert lambda_grid(8.0, 1.0) == [8.0, 4.0, 2.0, 1.0]
        for bad_top in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                lambda_grid(bad_top, 1.0)
        for bad_min in (0.0, float("nan")):
            with pytest.raises(ValueError):
                lambda_grid(8.0, bad_min)

    def test_grid_top_is_zero_solution_threshold(self):
        b_star = generate_ground_truth(8, 8, 2, stream(4))
        ds = generate_dataset(GaussianEnsemble(8, 8), b_star, 100, 0.1, seed=5)
        top = lambda_max(ds)
        grid = lambda_grid(top, 0.01 * top)
        for lam in (grid[0], 1.01 * grid[0]):
            assert np.linalg.norm(solve_convex(ds, lam).b_hat) < 1e-8
        assert np.linalg.norm(solve_convex(ds, 0.95 * grid[0]).b_hat) > 1e-8


class TestCvError:
    """The single-lam out-of-fold error, computed by cv_select."""

    def test_zero_truth_zero_noise(self, monkeypatch):
        # all responses zero except one tiny observation to keep the grid
        # nonempty is unnecessary here: score the zero solution directly
        ms = EntrySet([0, 1, 0, 1], [0, 0, 1, 1], np.ones(4), 2, 2)
        ds = Dataset(MatrixCompletion(2, 2, plain_entries=True), ms, np.zeros(4), 0.0, seed=0)
        plan = FoldPlan(k=2, assignments=np.array([0, 0, 1, 1]))
        monkeypatch.setattr(crossval, "solve_path", stub_path([np.zeros((2, 2))]))
        assert cold_cv_error(ds, plan, 1.0) == 0.0

    def test_matches_hand_rolled_two_fold_oracle(self):
        d, n = 3, 12
        b_star = generate_ground_truth(d, d, 1, stream(6))
        ds = generate_dataset(GaussianEnsemble(d, d), b_star, n, 0.3, seed=7)
        plan = make_folds(n, 2, stream(8))
        lam = 0.3 * lambda_max(ds)
        val = cold_cv_error(ds, plan, lam)
        total = 0.0
        for fold in range(2):
            train = ds.subset(plan.complement(fold))
            hold = ds.subset(plan.indices(fold))
            est = solve_convex(train, lam)
            resid = hold.y - hold.measurements.apply(est.b_hat)
            total += float(resid @ resid)
        assert val == pytest.approx(total / n, abs=1e-10)

    def test_invariant_under_fold_relabeling(self):
        d, n = 4, 20
        b_star = generate_ground_truth(d, d, 1, stream(9))
        ds = generate_dataset(GaussianEnsemble(d, d), b_star, n, 0.2, seed=10)
        plan = make_folds(n, 4, stream(11))
        relabel = np.array([2, 3, 1, 0])
        permuted = FoldPlan(k=4, assignments=relabel[plan.assignments])
        lam = 0.4 * lambda_max(ds)
        a = cold_cv_error(ds, plan, lam)
        b = cold_cv_error(ds, permuted, lam)
        assert a == pytest.approx(b, rel=1e-12)


class TestCvSelect:
    def make_instance(self, d=10, r=2, n=300, sigma=0.5, seed=12):
        spec = MatrixCompletion(d, d, plain_entries=True)
        b_star = generate_ground_truth(d, d, r, stream(seed))
        ds = generate_dataset(spec, b_star, n, sigma, seed=seed + 1)
        return b_star, ds

    def test_single_lambda_grid_weighted_average(self):
        _, ds = self.make_instance()
        plan = make_folds(ds.n, 3, stream(14))
        lam = 0.5 * lambda_max(ds)
        res = cv_select(ds, plan, [lam])
        sizes = plan.sizes()
        manual = sum(
            sizes[f] / ds.n * res.per_fold_estimates[0][f].b_hat for f in range(3)
        )
        assert np.allclose(res.b_cv, manual, atol=1e-14)
        assert res.lambda_cv == lam

    def test_fold_weights_sum_to_one(self):
        _, ds = self.make_instance(seed=15)
        plan = make_folds(ds.n, 4, stream(16))
        assert plan.sizes().sum() == ds.n
        assert np.sum(plan.sizes() / ds.n) == pytest.approx(1.0, abs=1e-15)

    def test_tie_breaks_to_largest_lambda(self, monkeypatch):
        _, ds = self.make_instance(seed=17)
        plan = make_folds(ds.n, 3, stream(18))
        monkeypatch.setattr(crossval, "solve_path", stub_path([np.zeros((10, 10))] * 3))
        grid = [4.0, 2.0, 1.0]
        res = cv_select(ds, plan, grid)
        assert np.all(res.e_hat == res.e_hat[0])
        assert res.lambda_cv == 4.0
        # with all fold solutions zero the out-of-fold error is the
        # per-sample response energy
        assert res.e_hat[0] == pytest.approx(float(ds.y @ ds.y) / ds.n)
        assert np.all(res.e_hat >= 0.0)

    def test_linear_functional_of_average(self):
        _, ds = self.make_instance(seed=19)
        plan = make_folds(ds.n, 3, stream(20))
        top = lambda_max(ds)
        grid = lambda_grid(top, 0.1 * top)
        res = cv_select(ds, plan, grid)
        probe = stream(21).standard_normal((10, 10))
        j = res.lambda_grid.index(res.lambda_cv)
        sizes = plan.sizes()
        lhs = float(np.sum(probe * res.b_cv))
        rhs = sum(sizes[f] / ds.n * float(np.sum(probe * res.per_fold_estimates[j][f].b_hat)) for f in range(3))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_warm_start_consistent_with_cold_solves(self):
        _, ds = self.make_instance(seed=22)
        plan = make_folds(ds.n, 3, stream(23))
        top = lambda_max(ds)
        grid = lambda_grid(top, 0.05 * top)
        cfg = SolverConfig(rel_obj_tol=1e-10)
        res = cv_select(ds, plan, grid, cfg)
        for j, lam in enumerate(grid):
            cold = cold_cv_error(ds, plan, lam, cfg)
            assert res.e_hat[j] == pytest.approx(cold, rel=1e-4, abs=1e-8)

    def test_rejects_bad_grids(self):
        _, ds = self.make_instance(seed=24)
        plan = make_folds(ds.n, 3, stream(25))
        with pytest.raises(ValueError):
            cv_select(ds, plan, [])
        with pytest.raises(ValueError):
            cv_select(ds, plan, [1.0, 2.0])

    def test_rejects_plan_not_covering_dataset(self):
        _, ds = self.make_instance(n=20, seed=29)
        short = make_folds(19, 2, stream(30))
        with pytest.raises(ValueError, match="does not cover"):
            cv_select(ds, short, [1.0])
        stray = FoldPlan(k=2, assignments=np.r_[short.assignments, 2])
        with pytest.raises(ValueError, match="does not cover"):
            cv_select(ds, stray, [1.0])

    def test_cv_error_close_to_oracle_error(self):
        d, r, n = 20, 2, 1200
        spec = MatrixCompletion(d, d, plain_entries=True)
        b_star = generate_ground_truth(d, d, r, stream(26))
        ds = generate_dataset(spec, b_star, n, 1.0, seed=27)
        plan = make_folds(n, 5, stream(28))
        top = lambda_max(ds)
        grid = lambda_grid(top, 0.01 * top)
        res = cv_select(ds, plan, grid)
        cv_err = np.sum((res.b_cv - b_star) ** 2) / np.sum(b_star**2)
        oracle_err = min(
            np.sum((solve_convex(ds, lam).b_hat - b_star) ** 2) / np.sum(b_star**2) for lam in grid
        )
        assert cv_err <= 1.5 * oracle_err


class TestStopRule:
    """cv_select stops the walk at the second consecutive strict rise of
    the out-of-fold error.  Every observation reads entry (0, 0) of a 2x2
    matrix with response 0, so fold fits with that entry equal to b score
    exactly b^2 on every fold; the scripts below are squares of integers."""

    # (scripted e_hat down an 8-rung grid, rungs walked, winning rung)
    CASES = {
        "second_rise_stops": ([16, 4, 1, 4, 9, 0, 0, 0], 5, 2),
        "tie_is_not_a_rise": ([1, 4, 4, 9, 0, 1, 1, 4], 8, 4),
        "rise_fall_rise_walks_on": ([1, 4, 0, 1, 0, 1, 0, 1], 8, 2),
        "tie_at_minimum_takes_largest_lam": ([9, 1, 4, 1, 4, 9, 0, 0], 6, 1),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_walk(self, case, monkeypatch):
        script, walked, best = self.CASES[case]
        ms = EntrySet(np.zeros(6), np.zeros(6), np.ones(6), 2, 2)
        ds = Dataset(MatrixCompletion(2, 2, plain_entries=True), ms, np.zeros(6), 0.0, seed=0)
        plan = FoldPlan(k=3, assignments=np.arange(6) % 3)
        pulled = []
        b_hats = [np.diag([np.sqrt(e), 0.0]) for e in script]
        monkeypatch.setattr(crossval, "solve_path", stub_path(b_hats, pulled))
        grid = [2.0**-j for j in range(len(script))]
        res = cv_select(ds, plan, grid)
        # rungs are first solved in order and none past the stop; a probe
        # whose rise is not clear re-solves its rung (and a kept probe before it)
        assert list(dict.fromkeys(j for j, _ in pulled)) == list(range(walked))
        assert {j for j, sent in pulled if sent is None} >= set(range(walked - crossval.CV_STOP_RISES))
        assert res.lambda_grid == grid[:walked]
        assert res.e_hat.tolist() == script[:walked]
        assert len(res.per_fold_estimates) == walked
        assert res.lambda_cv == grid[best]
        assert np.array_equal(res.b_cv, b_hats[best])


class TestProbedRises:
    """cv_select solves a rung loosely first when a rise is plausible, and
    keeps the loose fits only when their rise is clear.  The stub walk
    scores e at each rung solved at the caller's config and the probe's own
    value where the rung is probed; the result must match the walk that
    never probes (the caller's tolerance already at the probe's)."""

    PROBE = SolverConfig(rel_obj_tol=crossval._PROBE_TOL)

    # (e_hat at cfg, probe e_hat where it differs, solves as (rung, probed), winning rung)
    CASES = {
        # rung 3's probe rises by half the margin: not clear, so the rung is
        # solved at cfg, where it is the minimum
        "rise_inside_margin_is_resolved": (
            [16, 4, 3.8, 1, 4, 9, 16],
            {3: 3.8 * (1 + 0.5 * crossval._PROBE_MARGIN)},
            [(0, 0), (1, 0), (2, 0), (3, 1), (3, 0), (4, 0), (5, 1)],
            3,
        ),
        # rung 3's probe is a clear rise and kept; rung 4's probe is not a
        # clear rise over it, so the walk rewinds: rung 3, then rung 4 at
        # cfg, unprobed though rung 3's error fell by less than 10%
        "rewind_past_a_kept_probe": (
            [16, 4, 3.8, 3.7, 1, 4, 9, 16],
            {3: 5.0, 4: 5.0},
            [(0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (3, 0), (4, 0), (5, 0), (6, 1)],
            4,
        ),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_matches_the_walk_without_probes(self, case, monkeypatch):
        script, loose, solves, best = self.CASES[case]
        ms = EntrySet(np.zeros(6), np.zeros(6), np.ones(6), 2, 2)
        ds = Dataset(MatrixCompletion(2, 2, plain_entries=True), ms, np.zeros(6), 0.0, seed=0)
        plan = FoldPlan(k=3, assignments=np.arange(6) % 3)
        b_hats = [np.diag([np.sqrt(e), 0.0]) for e in script]
        probed = [np.diag([np.sqrt(loose.get(j, e)), 0.0]) for j, e in enumerate(script)]
        grid = [2.0**-j for j in range(len(script))]
        runs = {}
        for cfg in (SolverConfig(), self.PROBE):
            pulled = []
            monkeypatch.setattr(crossval, "solve_path", stub_path(b_hats, pulled, probed))
            runs[cfg] = cv_select(ds, plan, grid, cfg), pulled
        (res, pulled), (exact, exact_pulled) = runs[SolverConfig()], runs[self.PROBE]
        assert pulled == [(j, self.PROBE if probe else None) for j, probe in solves]
        # the caller's tolerance at the probe's: nothing is sent
        assert exact_pulled == [(j, None) for j in range(len(exact.lambda_grid))]
        assert res.lambda_grid == exact.lambda_grid
        assert res.lambda_cv == exact.lambda_cv == grid[best]
        assert np.array_equal(res.b_cv, exact.b_cv)
        kept = len(res.lambda_grid) - 1  # only the last row is a probe
        assert res.e_hat[:kept].tolist() == exact.e_hat[:kept].tolist()
        for row, ref in zip(res.per_fold_estimates[:kept], exact.per_fold_estimates[:kept], strict=True):
            assert all(np.array_equal(est.b_hat, r.b_hat) for est, r in zip(row, ref, strict=True))


SPECS = [
    MatrixCompletion(7, 7),
    MultiTask(7, 5),
    GaussianEnsemble(5, 7),
    FactoredMeasurement(7, 7),
]


class TestLockstepFolds:
    """cv_select solves the K folds of one lam in lockstep; every fold fit
    must be the one a lone solve_convex gives from solve_path's start: the
    previous rung's fit at rung 1, its secant prediction from rung 2 on."""

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("mode", ["default", "fixed_step", "max_iters"])
    def test_bit_identical_to_sequential_solves(self, spec, mode, monkeypatch):
        b_star = generate_ground_truth(spec.d_r, spec.d_c, 2, stream(33))
        ds = generate_dataset(spec, b_star, 103, 0.3, seed=34)
        plan = make_folds(ds.n, 4, stream(35))
        assert len(set(plan.sizes())) == 2  # 103 = 26 + 3 * 25
        top = lambda_max(ds)
        grid = lambda_grid(top, 0.02 * top)
        cfg = {
            "default": SolverConfig(max_iters=2000, rel_obj_tol=1e-7),
            "fixed_step": SolverConfig(rel_obj_tol=1e-9),
            "max_iters": SolverConfig(max_iters=6, rel_obj_tol=1e-14),
        }[mode]
        if mode == "fixed_step":
            # every solve, lockstep or lone, starts at a step 8x past 1/L,
            # which forces restarts and backtracking
            start, prox_step = 8.0 / lipschitz_estimate(ds), solvers._prox_step
            monkeypatch.setattr(
                solvers, "_prox_step", lambda ds, lam, b, xb, step: prox_step(ds, lam, b, xb, start if step is None else step)
            )
        proxes = []
        real = solvers._soft_threshold_stack
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                solvers, "_soft_threshold_stack", lambda ms, taus, singulars=None: proxes.append(len(ms)) or real(ms, taus, singulars)
            )
            res = cv_select(ds, plan, grid, cfg)
        warm, prev = [None] * plan.k, [None] * plan.k
        for j, lam in enumerate(grid):
            total = 0.0
            for fold in range(plan.k):
                lone = solve_convex(ds.subset(plan.complement(fold)), lam, cfg, x0=warm[fold])
                warm[fold] = lone.b_hat
                if 1 <= j < len(grid) - 1:
                    # the secant start of the next rung
                    r = (grid[j + 1] - lam) / (lam - grid[j - 1])
                    warm[fold] = lone.b_hat + r * (lone.b_hat - prev[fold])
                prev[fold] = lone.b_hat
                est = res.per_fold_estimates[j][fold]
                assert np.array_equal(est.b_hat, lone.b_hat)
                assert (est.objective, est.iters, est.converged, est.history, est.stop_reason) == (
                    lone.objective, lone.iters, lone.converged, lone.history, lone.stop_reason
                )
                hold = ds.subset(plan.indices(fold))
                resid = hold.y - hold.measurements.apply(lone.b_hat)
                total += float(resid @ resid)
            assert res.e_hat[j] == total / ds.n
        fits = [est for row in res.per_fold_estimates for est in row]
        reasons = {est.stop_reason for est in fits}
        # the first rung, at lambda_max, stops at once on the zero matrix
        assert "rel_dec" in reasons
        assert ("max_iters" in reasons) == (mode == "max_iters")
        if mode == "fixed_step":
            # restarts and backtracking took prox steps beyond one per iteration
            assert sum(proxes) > sum(est.iters for est in fits)


class TestGeneralizationProbe:
    def test_out_of_fold_error_tracks_population_error(self):
        # loose sanity band: the selected estimator's population error is
        # rarely far above the out-of-fold estimate minus the noise floor
        d, r, n, k, sigma = 6, 1, 150, 3, 0.5
        spec = MatrixCompletion(d, d, plain_entries=True)
        failures = 0
        reps = 50
        for rep in range(reps):
            b_star = generate_ground_truth(d, d, r, stream(1000 + rep))
            ds = generate_dataset(spec, b_star, n, sigma, seed=2000 + rep)
            plan = make_folds(n, k, stream(3000 + rep))
            top = lambda_max(ds)
            grid = lambda_grid(top, 0.01 * top)
            res = cv_select(ds, plan, grid)
            l2pi_sq = spec.l2pi_norm(res.b_cv - b_star) ** 2
            b_star_bound = spec.spikiness_norm(b_star)
            t = 0.5 * max(sigma**2, b_star_bound**2)
            j = res.lambda_grid.index(res.lambda_cv)
            if l2pi_sq > res.e_hat[j] - sigma**2 + t:
                failures += 1
        assert failures / reps < 0.2
