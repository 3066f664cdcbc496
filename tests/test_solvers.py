import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracereg import (
    ENSEMBLES,
    Dataset,
    EntrySet,
    FactoredMeasurement,
    GaussianEnsemble,
    MatrixCompletion,
    MultiTask,
    SolverConfig,
    check_goodness,
    generate_dataset,
    generate_ground_truth,
    lambda_max,
    matrix_norm,
    numerical_rank,
    objective,
    operator_norm,
    project_parallel,
    project_perp,
    soft_threshold,
    solve_convex,
    solve_factored,
    solve_noiseless,
    solve_path,
    stream,
    trace_inner,
)
from tracereg import crossval, solvers
from tracereg.solvers import lipschitz_estimate
from tracereg.theory import calibrate_lambda0


def mc_instance(d=12, r=2, n=400, sigma=0.2, seed=0, plain=True):
    spec = MatrixCompletion(d, d, plain_entries=plain)
    b_star = generate_ground_truth(d, d, r, stream(seed))
    ds = generate_dataset(spec, b_star, n, sigma, seed=seed + 1)
    return spec, b_star, ds


def start_at(mp, step):
    """Start every convex solve at ``step`` in place of the Cauchy step: the
    first _prox_step of a solve, the one called with step None, gets
    ``step`` (None keeps the Cauchy start)."""
    real = solvers._prox_step

    def forced(ds, lam, b, xb, taken):
        return (yield from real(ds, lam, b, xb, step if taken is None else taken))

    mp.setattr(solvers, "_prox_step", forced)


class TestObjective:
    def test_zero_matrix(self):
        _, _, ds = mc_instance()
        val = objective(ds, 3.7, np.zeros((12, 12)))
        assert val == pytest.approx(float(ds.y @ ds.y) / ds.n)

    def test_noiseless_truth_at_lambda_zero(self):
        spec, b_star, _ = mc_instance()
        ds = generate_dataset(spec, b_star, 300, 0.0, seed=5)
        assert objective(ds, 0.0, b_star) == pytest.approx(0.0, abs=1e-14)

    def test_matches_densified_recomputation(self):
        _, b_star, ds = mc_instance(seed=3)
        rng = stream(4)
        b = rng.standard_normal((12, 12))
        lam = 0.7
        dense = ds.measurements.densify()
        resid = ds.y - np.array([trace_inner(dense[i], b) for i in range(ds.n)])
        oracle = float(resid @ resid) / ds.n + lam * matrix_norm(b, "nuclear")
        assert abs(objective(ds, lam, b) - oracle) < 1e-11

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_non_finite_lambda_rejected(self, lam):
        _, _, ds = mc_instance()
        with pytest.raises(ValueError, match="non-negative and finite"):
            objective(ds, lam, np.zeros((12, 12)))

    def test_negative_lambda_rejected(self):
        _, _, ds = mc_instance()
        with pytest.raises(ValueError):
            objective(ds, -1.0, np.zeros((12, 12)))


class TestSolveConvex:
    def test_zero_solution_at_lambda_max(self):
        _, _, ds = mc_instance(seed=7)
        for lam in (lambda_max(ds), 1.01 * lambda_max(ds), operator_norm(ds.measurements.adjoint(ds.y))):
            est = solve_convex(ds, lam)
            assert np.linalg.norm(est.b_hat) < 1e-8

    def test_nonzero_just_below_lambda_max(self):
        _, _, ds = mc_instance(seed=8)
        est = solve_convex(ds, 0.9 * lambda_max(ds))
        assert np.linalg.norm(est.b_hat) > 1e-6

    def test_fully_observed_tiny_penalty(self):
        target = np.array([[1.0, -2.0], [0.5, 3.0]])
        ms = EntrySet([0, 0, 1, 1], [0, 1, 0, 1], np.ones(4), 2, 2)
        ds = Dataset(MatrixCompletion(2, 2, plain_entries=True), ms, ms.apply(target), 0.0, seed=0)
        est = solve_convex(ds, 1e-6, SolverConfig(max_iters=5000, rel_obj_tol=1e-12))
        assert np.max(np.abs(est.b_hat - target)) < 1e-3

    def test_goodness_inequality_with_calibrated_lambda(self):
        d, r, n, sigma = 20, 2, 800, 0.1
        spec = MatrixCompletion(d, d, plain_entries=True)
        lam0 = calibrate_lambda0(spec, n, sigma, 3.0, 200, 0.9, stream(40)).lambda0
        b_star = generate_ground_truth(d, d, r, stream(41))
        ds = generate_dataset(spec, b_star, n, sigma, seed=42)
        est = solve_convex(ds, lam0)
        assert est.converged
        assert est.objective <= objective(ds, lam0, b_star) + 1e-9

    def test_objective_history_monotone(self):
        _, _, ds = mc_instance(seed=9)
        est = solve_convex(ds, 0.3 * lambda_max(ds))
        hist = np.array(est.history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_objective_recomputable(self):
        _, _, ds = mc_instance(seed=10)
        lam = 0.2 * lambda_max(ds)
        est = solve_convex(ds, lam)
        assert est.objective == pytest.approx(objective(ds, lam, est.b_hat), rel=1e-9)

    def test_nonconvergence_flag(self):
        _, _, ds = mc_instance(seed=11)
        est = solve_convex(ds, 0.05 * lambda_max(ds), SolverConfig(max_iters=3, rel_obj_tol=1e-14))
        assert not est.converged
        assert est.iters == 3

    def test_warm_start_matches_cold(self):
        _, _, ds = mc_instance(seed=12)
        lam = 0.3 * lambda_max(ds)
        cold = solve_convex(ds, lam)
        warm = solve_convex(ds, lam, x0=solve_convex(ds, 2 * lam).b_hat)
        assert np.linalg.norm(cold.b_hat - warm.b_hat) < 1e-4 * (1 + np.linalg.norm(cold.b_hat))

    def test_gradient_matches_finite_differences(self):
        _, _, ds = mc_instance(d=6, n=100, seed=13)
        rng = stream(14)
        for _ in range(5):
            b = rng.standard_normal((6, 6))
            grad = ds.measurements.adjoint(ds.measurements.apply(b) - ds.y) * (2.0 / ds.n)
            h = 1e-6

            def smooth(mat):
                resid = ds.y - ds.measurements.apply(mat)
                return float(resid @ resid) / ds.n

            fd = np.zeros_like(b)
            for i in range(6):
                for j in range(6):
                    e = np.zeros_like(b)
                    e[i, j] = h
                    fd[i, j] = (smooth(b + e) - smooth(b - e)) / (2 * h)
            assert np.linalg.norm(fd - grad) / (1 + np.linalg.norm(grad)) < 1e-5

    def test_prox_gradient_fixed_point(self):
        _, _, ds = mc_instance(seed=15)
        lam = 0.2 * lambda_max(ds)
        est = solve_convex(ds, lam, SolverConfig(rel_obj_tol=1e-12))
        step = 1.0 / lipschitz_estimate(ds)
        b = est.b_hat
        grad = ds.measurements.adjoint(ds.measurements.apply(b) - ds.y) * (2.0 / ds.n)
        moved = soft_threshold(b - step * grad, lam * step)
        assert np.linalg.norm(b - moved) <= 1e-5 * (1 + np.linalg.norm(b))

    def test_rejects_nonpositive_lambda(self):
        _, _, ds = mc_instance()
        with pytest.raises(ValueError):
            solve_convex(ds, 0.0)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_non_finite_lambda(self, lam):
        # refused before the first iteration, alone and in a lockstep rung
        _, _, ds = mc_instance()
        with pytest.raises(ValueError, match="positive and finite"):
            solve_convex(ds, lam)
        with pytest.raises(ValueError, match="positive and finite"):
            solvers.solve_rung([ds, ds], lam, SolverConfig(), [None, None])

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("step_scale", [1.0, 4.0])
    def test_one_svd_and_one_operator_pair_per_prox_step(self, monkeypatch, warm, step_scale):
        # step_scale > 1 overshoots 1/L, forcing restarts and backtracking
        _, _, ds = mc_instance(seed=30)
        lam = 0.2 * lambda_max(ds)
        x0 = solve_convex(ds, 2 * lam).b_hat if warm else None
        start_at(monkeypatch, step_scale / lipschitz_estimate(ds))
        counts = {"prox": 0, "svd": 0, "op": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        ms = ds.measurements
        monkeypatch.setattr("tracereg.solvers.soft_threshold", counted("prox", soft_threshold))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(ms, "apply", counted("op", ms.apply))
        monkeypatch.setattr(ms, "adjoint", counted("op", ms.adjoint))
        est = solve_convex(ds, lam, x0=x0)
        assert est.converged and counts["prox"] >= est.iters > 0
        assert counts["svd"] <= counts["prox"] + 1
        assert counts["op"] <= 2 * counts["prox"] + 2
        assert est.objective == pytest.approx(objective(ds, lam, est.b_hat), rel=1e-12)


def assert_same_estimate(a, b):
    """Bit-for-bit equality of two convex-route Estimates."""
    assert np.array_equal(a.b_hat, b.b_hat)
    assert (a.lam, a.objective, a.iters, a.converged, a.method, a.history, a.stop_reason) == (
        b.lam, b.objective, b.iters, b.converged, b.method, b.history, b.stop_reason
    )


def bump(out, entry, singulars):
    """Raise prox output ``out`` at an ``entry`` no measurement sees and
    write its singular values to ``singulars``: the loss cannot tell, the
    penalty rises, so from the solution neither a step nor its majorized
    restart descends."""
    out[entry] += 10.0 * (1.0 + np.max(np.abs(out)))
    singulars[...] = np.linalg.svd(out, compute_uv=False)
    return out


def bumped_soft_threshold(entry, taus=None):
    """soft_threshold with every output bumped; ``taus`` collects the
    threshold of each call."""

    def prox(m, tau, singulars=None):
        if taus is not None:
            taus.append(tau)
        return bump(soft_threshold(m, tau), entry, singulars)

    return prox


def at_the_solution(seed):
    """(ds, lam, x_opt, entry): a matrix-completion problem, its solution
    at lam, and an entry no measurement sees.  Started at x_opt with prox
    outputs bumped at ``entry``, a solve stalls in its first iteration."""
    _, _, ds = mc_instance(d=12, n=60, seed=seed)
    lam = 0.2 * lambda_max(ds)
    x_opt = solve_convex(ds, lam, SolverConfig(rel_obj_tol=1e-13)).b_hat
    seen = np.zeros(ds.measurements.shape, dtype=bool)
    seen[ds.measurements.rows, ds.measurements.cols] = True
    return ds, lam, x_opt, tuple(np.argwhere(~seen)[0])


def stalling_batch(seed):
    """(datasets, lam, x0s, entry): two same-shape problems, the first
    started from zero, the second as :func:`at_the_solution` sets it up."""
    ds, lam, x_opt, entry = at_the_solution(seed)
    _, _, other = mc_instance(d=12, n=60, seed=seed + 1)
    return [other, ds], lam, [None, x_opt], entry


def bumping_stack(entry, sizes=None):
    """The stacked prox with the second problem's outputs bumped while it
    is in the batch; ``sizes`` collects the batch size of each call."""
    real = solvers._soft_threshold_stack

    def stack(ms, taus, singulars=None):
        outs = real(ms, taus, singulars=singulars)
        if sizes is not None:
            sizes.append(len(ms))
        if len(ms) == 2:
            bump(outs[1], entry, singulars[1])
        return outs

    return stack


class TestStopReason:
    def test_rel_dec_and_max_iters(self):
        _, _, ds = mc_instance(seed=13)
        done = solve_convex(ds, 0.2 * lambda_max(ds))
        assert done.stop_reason == "rel_dec" and done.converged
        cut = solve_convex(ds, 0.05 * lambda_max(ds), SolverConfig(max_iters=3, rel_obj_tol=1e-14))
        assert cut.stop_reason == "max_iters" and not cut.converged

    def test_stalled_lone_solve(self, monkeypatch):
        # from the solution, bumped prox outputs cannot descend
        ds, lam, x_opt, entry = at_the_solution(seed=14)
        monkeypatch.setattr(solvers, "soft_threshold", bumped_soft_threshold(entry))
        est = solve_convex(ds, lam, x0=x_opt)
        assert est.stop_reason == "stalled"
        assert est.converged  # unchanged meaning: a stalled solve reports converged
        assert est.iters == 1 and est.history == (est.objective,)

    def test_stalled_fold_inside_a_batch(self, monkeypatch):
        datasets, lam, x0s, entry = stalling_batch(seed=40)
        monkeypatch.setattr(solvers, "_soft_threshold_stack", bumping_stack(entry))
        batch = solvers.solve_rung(datasets, lam, SolverConfig(), x0s)
        monkeypatch.undo()
        assert [est.stop_reason for est in batch] == ["rel_dec", "stalled"]
        assert batch[0].iters > 1
        assert_same_estimate(batch[0], solve_convex(datasets[0], lam))
        monkeypatch.setattr(solvers, "soft_threshold", bumped_soft_threshold(entry))
        assert_same_estimate(batch[1], solve_convex(datasets[1], lam, x0=x0s[1]))

    def test_factored_stop_reason(self):
        _, _, ds = mc_instance(seed=15)
        lam = 0.2 * lambda_max(ds)
        assert solve_factored(ds, lam, 2).stop_reason == "rel_dec"
        assert solve_factored(ds, lam, 2, SolverConfig(max_iters=1, rel_obj_tol=1e-14)).stop_reason == "max_iters"


def ensemble_instance(kind, d_r=7, d_c=5, n=60, seed=0):
    """A noisy rank-2 problem of ensemble ``kind``."""
    b_star = generate_ground_truth(d_r, d_c, 2, stream(seed))
    return generate_dataset(ENSEMBLES[kind](d_r, d_c), b_star, n, 0.3, seed=seed + 1)


def exact_lipschitz(ds):
    """Lipschitz constant of the loss gradient, the largest eigenvalue of
    (2/n) X*X, from the densified measurements."""
    design = ds.measurements.densify().reshape(ds.n, -1)
    return 2.0 / ds.n * float(np.linalg.eigvalsh(design.T @ design)[-1])


def fixed_step_fista(ds, lam, step, max_iters, rel_obj_tol):
    """Reference: fixed-step FISTA with the monotone restart, written out as
    the convex solver iterated before its step became adaptive.  Returns
    (b_hat, history, stop_reason)."""
    ms, n = ds.measurements, ds.n

    def prox_step(b, xb):
        grad = ms.adjoint(xb - ds.y) * (2.0 / n)
        shrunk = np.empty(min(ms.shape))
        z = soft_threshold(b - step * grad, lam * step, singulars=shrunk)
        xz = ms.apply(z)
        resid = ds.y - xz
        return z, xz, float(resid @ resid / n + lam * float(np.sum(shrunk)))

    x = np.zeros(ms.shape)
    xx = ms.apply(x)
    y, xy, t = x, xx, 1.0
    fx = float((ds.y - xx) @ (ds.y - xx) / n + lam * 0.0)
    history, stop = [fx], "max_iters"
    for _ in range(max_iters):
        z, xz, fz = prox_step(y, xy)
        if fz > fx:
            t = 1.0
            z, xz, fz = prox_step(x, xx)
            if fz > fx:
                stop = "stalled"
                break
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        y, xy = z + beta * (z - x), xz + beta * (xz - xx)
        rel_dec = (fx - fz) / max(abs(fx), 1e-300)
        x, xx, fx, t = z, xz, fz, t_next
        history.append(fx)
        if 0.0 <= rel_dec < rel_obj_tol:
            stop = "rel_dec"
            break
    return x, tuple(history), stop


class TestAdaptiveStep:
    """The APG step adapts: each proximal step is accepted only under the
    exact majorization (1/n)||X(z - b)||^2 <= ||z - b||^2 / (2 step), and the
    step grows after every iteration."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(ENSEMBLES)),
        d_r=st.integers(1, 8),
        d_c=st.integers(2, 8),
        n=st.integers(5, 120),
        frac=st.floats(0.02, 0.9),
        step_scale=st.sampled_from([None, 0.1, 30.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    # restarts from x whose step, grown since it was last checked, is too
    # long there: caught only if the restart's step is checked too
    @example(kind="factored_measurement", d_r=5, d_c=3, n=117, frac=0.1866, step_scale=None, seed=12)
    @example(kind="matrix_completion", d_r=7, d_c=7, n=87, frac=0.5022, step_scale=None, seed=50)
    def test_accepted_steps_are_majorized_and_history_never_rises(self, kind, d_r, d_c, n, frac, step_scale, seed):
        b_star = generate_ground_truth(d_r, d_c, 1, stream(seed))
        ds = generate_dataset(ENSEMBLES[kind](d_r, d_c), b_star, n, 0.3, seed=seed)
        lam = frac * lambda_max(ds)
        start = None if step_scale is None else step_scale / lipschitz_estimate(ds)
        accepted = []
        real = solvers._prox_step

        def recording(ds, lam, b, xb, step):
            # a solve's first prox step (step None) starts at ``start``
            z, xz, fz, taken = yield from real(ds, lam, b, xb, start if step is None else step)
            accepted.append((b, z, taken))
            return z, xz, fz, taken

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_prox_step", recording)
            est = solve_convex(ds, lam)
        assert est.converged and len(accepted) >= est.iters
        for b, z, taken in accepted:
            move = z - b
            xmove = ds.measurements.apply(move)
            curvature = float(xmove @ xmove) / ds.n
            bound = float(np.sum(move * move)) / (2.0 * taken)
            assert curvature <= bound * (1.0 + 1e-9)
        assert np.all(np.diff(est.history) <= 0.0)

    @pytest.mark.parametrize("kind", sorted(ENSEMBLES))
    def test_agrees_with_the_fixed_step(self, kind):
        ds = ensemble_instance(kind, seed=5)
        tight = SolverConfig(rel_obj_tol=1e-12)
        for frac in (0.05, 0.3):
            lam = frac * lambda_max(ds)
            adaptive = solve_convex(ds, lam, tight)
            _, history, stop = fixed_step_fista(ds, lam, 1.0 / exact_lipschitz(ds), tight.max_iters, tight.rel_obj_tol)
            assert adaptive.stop_reason == stop == "rel_dec"
            assert adaptive.objective == pytest.approx(history[-1], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("kind", sorted(ENSEMBLES))
    @pytest.mark.parametrize("shrink", [1.0, 4.0])
    def test_fixed_step_iterates_are_plain_fista(self, kind, shrink, monkeypatch):
        # with no growth, a start step of 1/(shrink L) majorizes every
        # output, so no step is halved and the step stays fixed throughout
        ds = ensemble_instance(kind, seed=6)
        lam = 0.1 * lambda_max(ds)
        step = 1.0 / (shrink * exact_lipschitz(ds))
        monkeypatch.setattr(solvers, "STEP_GROWTH", 1.0)
        start_at(monkeypatch, step)
        est = solve_convex(ds, lam, SolverConfig(max_iters=300))
        b_hat, history, stop = fixed_step_fista(ds, lam, step, 300, SolverConfig().rel_obj_tol)
        assert np.array_equal(est.b_hat, b_hat)
        assert est.history == history and est.stop_reason == stop

    def test_grows_past_one_over_l(self):
        _, _, ds = mc_instance(seed=21)
        taken = []
        real = solvers._prox_step

        def recording(*args):
            out = yield from real(*args)
            taken.append(out[3])
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solvers, "_prox_step", recording)
            solve_convex(ds, 0.2 * lambda_max(ds))
        assert max(taken) > 2.0 / lipschitz_estimate(ds)

    def test_first_step_is_the_cauchy_step(self):
        _, _, ds = mc_instance(seed=24)
        ms = ds.measurements
        b = np.zeros(ms.shape)
        xb = ms.apply(b)
        grad = ms.adjoint(xb - ds.y) * (2.0 / ds.n)
        xg = ms.apply(grad)
        cauchy = float(np.vdot(grad, grad)) / (2.0 / ds.n * float(xg @ xg))
        m, tau = next(solvers._prox_step(ds, 0.5, b, xb, None))
        assert tau == 0.5 * cauchy and np.array_equal(m, b - cauchy * grad)
        assert cauchy >= 1.0 / exact_lipschitz(ds)
        # at a zero gradient the step falls back to 1
        _, tau = next(solvers._prox_step(ds, 0.5, b, ds.y.copy(), None))
        assert tau == 0.5

    def test_an_output_equal_to_its_base_is_accepted(self):
        # X(b) as the iterates carry it may differ from a fresh apply by
        # rounding; a prox that returns b itself must not halve forever
        _, _, ds = mc_instance(seed=23)
        b = np.zeros(ds.measurements.shape)
        xb = ds.measurements.apply(b) + 1e-12
        step_gen = solvers._prox_step(ds, 0.1, b, xb, 1.0)
        next(step_gen)
        with pytest.raises(StopIteration) as done:
            step_gen.send((b.copy(), np.zeros(12)))
        z, _, _, taken = done.value.value
        assert np.array_equal(z, b) and taken == 1.0

    def test_stall_takes_one_restart_prox(self, monkeypatch):
        # Start at the solution and let every prox output carry a bump at an
        # entry no measurement sees: the loss cannot tell, the penalty rises,
        # so neither the step nor the majorized restart descends.  The
        # solve stops after that one restart instead of halving the step.
        ds, lam, x_opt, entry = at_the_solution(seed=22)
        proxes = []
        monkeypatch.setattr(solvers, "soft_threshold", bumped_soft_threshold(entry, proxes))
        est = solve_convex(ds, lam, x0=x_opt)
        assert est.stop_reason == "stalled" and est.iters == 1
        assert len(proxes) == 2


class TestSolveConvexBatch:
    """One solve_rung over several same-shape problems, run in lockstep."""

    def test_matches_lone_solves_with_warm_starts(self):
        _, _, ds = mc_instance(seed=16)
        parts = [ds.subset(np.arange(i, ds.n, 3)) for i in range(3)]
        lam = 0.2 * lambda_max(ds)
        x0s = [None, solve_convex(parts[1], 2 * lam).b_hat, np.zeros(ds.measurements.shape)]
        for cfg, start in ((SolverConfig(), None), (SolverConfig(), 4.0 / lipschitz_estimate(ds)),
                           (SolverConfig(max_iters=4), None)):
            with pytest.MonkeyPatch.context() as mp:
                start_at(mp, start)
                batch = solvers.solve_rung(parts, lam, cfg, x0s)
                for part, x0, est in zip(parts, x0s, batch):
                    assert_same_estimate(est, solve_convex(part, lam, cfg, x0=x0))

    def test_finished_problem_leaves_the_batch(self, monkeypatch):
        datasets, lam, x0s, entry = stalling_batch(seed=42)
        sizes = []
        monkeypatch.setattr(solvers, "_soft_threshold_stack", bumping_stack(entry, sizes))
        monkeypatch.setattr(solvers, "soft_threshold", None)  # the batch never takes the lone route
        batch = solvers.solve_rung(datasets, lam, SolverConfig(), x0s)
        assert batch[1].stop_reason == "stalled"
        # the stalled problem takes a step and a restart, then leaves
        assert sizes[:2] == [2, 2] and set(sizes[2:]) == {1}
        assert len(sizes) >= batch[0].iters > 2

    def test_rejects_bad_batches(self):
        _, _, ds = mc_instance(seed=17)
        _, _, other = mc_instance(d=8, seed=18)
        with pytest.raises(ValueError, match="one matrix shape"):
            solvers.solve_rung([ds, other], 1.0, SolverConfig(), [None, None])
        with pytest.raises(ValueError, match="positive"):
            next(solve_path([ds], [0.0]))
        assert list(solve_path([], [1.0])) == [[]]


def secant_chain(ds, grid, cfg=SolverConfig()):
    """Reference for solve_path on one dataset: lone solve_convex calls,
    rung 0 from zero, rung 1 from rung 0's solution and each later rung j+1
    from the secant start b_j + r_j (b_j - b_{j-1}), r_j = (lam_{j+1} -
    lam_j) / (lam_j - lam_{j-1})."""
    chain, warm = [], None
    for j, lam in enumerate(grid):
        chain.append(solve_convex(ds, lam, cfg, x0=warm))
        warm = chain[-1].b_hat
        if 1 <= j < len(grid) - 1:
            r = (grid[j + 1] - lam) / (lam - grid[j - 1])
            warm = warm + r * (warm - chain[-2].b_hat)
    return chain


class TestSolvePath:
    def test_one_dataset_is_a_warm_started_chain_of_solve_convex(self, monkeypatch):
        _, _, ds = mc_instance(seed=19)
        grid = [0.5 * lambda_max(ds), 0.2 * lambda_max(ds), 0.05 * lambda_max(ds)]
        monkeypatch.setattr(solvers, "_soft_threshold_stack", None)  # solve_path solves every dataset alone
        path = list(solve_path([ds], grid))
        monkeypatch.undo()
        assert [len(row) for row in path] == [1, 1, 1]
        for (est,), lone in zip(path, secant_chain(ds, grid)):
            assert_same_estimate(est, lone)

    def test_datasets_of_different_shapes_walk_their_own_chains(self):
        _, _, ds = mc_instance(seed=19)
        _, _, other = mc_instance(d=8, seed=22)
        grid = [0.5 * lambda_max(ds), 0.2 * lambda_max(ds), 0.05 * lambda_max(ds)]
        path = list(solve_path([ds, other], grid))
        for i, part in enumerate((ds, other)):
            for row, lone in zip(path, secant_chain(part, grid), strict=True):
                assert_same_estimate(row[i], lone)

    @pytest.mark.parametrize("sets", [1, 2])
    @pytest.mark.parametrize("rungs", [2, 3])
    def test_first_two_rungs_are_a_plain_chain(self, sets, rungs):
        # rung 1 starts from rung 0's solution, never from a secant through
        # rung 0's zero start, so a two-rung grid is the plain warm-started chain
        _, _, ds = mc_instance(seed=36)
        datasets = [ds, ds.subset(np.arange(0, ds.n, 2))][:sets]
        grid = [frac * lambda_max(ds) for frac in (0.5, 0.2, 0.05)][:rungs]
        path = list(solve_path(datasets, grid))
        for i, part in enumerate(datasets):
            first = solve_convex(part, grid[0])
            assert_same_estimate(path[0][i], first)
            assert_same_estimate(path[1][i], solve_convex(part, grid[1], x0=first.b_hat))

    def test_secant_ratio_follows_a_non_geometric_grid(self):
        _, _, ds = mc_instance(seed=37)
        parts = [ds.subset(np.arange(i, ds.n, 2)) for i in range(2)]
        grid = [frac * lambda_max(ds) for frac in (1.0, 0.7, 0.2, 0.15)]
        ratios = [(grid[j + 1] - grid[j]) / (grid[j] - grid[j - 1]) for j in (1, 2)]
        assert ratios == pytest.approx([5.0 / 3.0, 0.1], rel=1e-12)
        path = list(solve_path(parts, grid))
        for i, part in enumerate(parts):
            b = [path[j][i].b_hat for j in range(len(grid))]
            assert_same_estimate(path[0][i], solve_convex(part, grid[0]))
            assert_same_estimate(path[1][i], solve_convex(part, grid[1], x0=b[0]))
            for j, r in zip((1, 2), ratios):
                start = b[j] + r * (b[j] - b[j - 1])
                assert_same_estimate(path[j + 1][i], solve_convex(part, grid[j + 1], x0=start))

    @pytest.mark.parametrize("sets", [1, 3])
    def test_loose_then_exact_rung_from_one_start_is_the_walks_row(self, sets):
        _, _, ds = mc_instance(seed=40)
        datasets = [ds.subset(np.arange(i, ds.n, 3)) for i in range(3)][:sets]
        grid = [frac * lambda_max(ds) for frac in (0.5, 0.3, 0.2, 0.1, 0.05, 0.02)]
        loose = SolverConfig(rel_obj_tol=1e-4)
        plain = list(solve_path(datasets, grid))
        warm, prev = [None] * sets, None
        for j, lam in enumerate(grid):
            probe = solvers.solve_rung(datasets, lam, loose, warm)
            row = solvers.solve_rung(datasets, lam, SolverConfig(), warm)
            assert [est.lam for est in probe + row] == [lam] * (2 * sets)
            for i, part in enumerate(datasets):
                assert_same_estimate(probe[i], solve_convex(part, lam, loose, x0=warm[i]))
                assert_same_estimate(row[i], plain[j][i])
                if j >= 2:
                    assert probe[i].iters < plain[j][i].iters
            warm, prev = solvers.secant_start(grid, j, prev, row), row
        # a value sent into the walk is ignored: the next rung is solved at cfg
        walk = solve_path(datasets, grid)
        next(walk)
        for est, ref in zip(walk.send(loose), plain[1], strict=True):
            assert_same_estimate(est, ref)

    def test_noiseless_ladder_takes_fewer_prox_steps_than_a_plain_chain(self, monkeypatch):
        d, r = 20, 2
        b_star = generate_ground_truth(d, d, r, stream(38))
        ds = generate_dataset(GaussianEnsemble(d, d), b_star, 10 * r * d, 0.0, seed=39)
        proxes = []
        monkeypatch.setattr(solvers, "soft_threshold", lambda *a, **kw: proxes.append(1) or soft_threshold(*a, **kw))
        est = solve_noiseless(ds)
        secant = len(proxes)
        proxes.clear()
        cfg, warm = SolverConfig(max_iters=2000), None
        for j in range(solvers.NOISELESS_LADDER_STEPS + 1):
            lam = lambda_max(ds) / solvers.NOISELESS_LADDER_FACTOR**j
            warm = solve_convex(ds, lam, cfg, x0=warm).b_hat
        plain = len(proxes)
        resid = np.linalg.norm(ds.y - ds.measurements.apply(warm)) / np.linalg.norm(ds.y)
        assert secant <= 0.75 * plain
        assert est.converged == (resid <= solvers.NOISELESS_RESIDUAL_TOL)

    @pytest.mark.parametrize(
        "grid, match",
        [([], "non-empty"), ([2.0, 2.0], "decreasing"), ([1.0, 2.0], "decreasing"),
         ([2.0, float("nan")], "decreasing"), ([1.0, 0.0], "positive"), ([-1.0], "positive"),
         ([float("inf"), 1.0], "finite"), ([float("inf")], "finite"), ([float("nan")], "positive")],
    )
    def test_rejects_bad_grids(self, grid, match):
        _, _, ds = mc_instance(seed=20)
        with pytest.raises(ValueError, match=match):
            next(solve_path([ds, ds], grid))

    def test_solves_a_rung_only_when_it_is_pulled(self, monkeypatch):
        _, _, ds = mc_instance(seed=21)
        _, _, other = mc_instance(d=8, seed=22)
        solves = []
        real = solvers.solve_convex
        monkeypatch.setattr(solvers, "solve_convex", lambda *a: solves.append(a[1]) or real(*a))
        grid = [frac * lambda_max(ds) for frac in (0.5, 0.25, 0.125, 0.0625, 0.03125)]
        path = solve_path([ds], grid)
        assert solves == []
        rows = [next(path), next(path)]
        assert solves == grid[:2] and [est.lam for (est,) in rows] == grid[:2]
        # the checks run at the first pull, before any solve
        for datasets, bad in (([ds], [1.0, 2.0]), ([ds], []), ([ds], [0.0]), ([ds, other], [np.inf] + grid)):
            path = solve_path(datasets, bad)
            with pytest.raises(ValueError):
                next(path)
        assert solves == grid[:2]


class TestLipschitzEstimate:
    def test_no_solver_calls_it(self, monkeypatch):
        # the solvers start from the Cauchy step, so the power iteration is
        # left to callers that check a step or curvature against 1/L
        def refuse(ds):
            raise AssertionError("a solver called lipschitz_estimate")

        monkeypatch.setattr(solvers, "lipschitz_estimate", refuse)
        b_star = generate_ground_truth(10, 10, 2, stream(33))
        ds = generate_dataset(GaussianEnsemble(10, 10), b_star, 150, 0.0, seed=34)
        assert solve_noiseless(ds).converged
        _, _, noisy = mc_instance(seed=32)
        plan = crossval.make_folds(noisy.n, 3, stream(35))
        top = lambda_max(noisy)
        assert crossval.cv_select(noisy, plan, crossval.lambda_grid(top, 0.05 * top)).converged


class TestSolveFactored:
    def test_large_lambda_collapses_to_zero(self):
        # strictly above the zero threshold the alternating map contracts
        # geometrically toward the all-zero minimizer
        _, _, ds = mc_instance(seed=16)
        est = solve_factored(ds, 1.25 * lambda_max(ds), 2)
        assert np.linalg.norm(est.b_hat) < 1e-6

    def test_sweep_objective_monotone(self):
        _, _, ds = mc_instance(seed=17)
        est = solve_factored(ds, 0.1 * lambda_max(ds), 3)
        hist = np.array(est.history)
        assert np.all(np.diff(hist) <= 1e-12)

    def test_goodness_via_nuclear_variational_identity(self):
        d, r, n, sigma = 20, 2, 1000, 0.05
        spec = MatrixCompletion(d, d, plain_entries=True)
        b_star = generate_ground_truth(d, d, r, stream(18))
        ds = generate_dataset(spec, b_star, n, sigma, seed=19)
        lam0 = calibrate_lambda0(spec, n, sigma, 3.0, 200, 0.9, stream(20)).lambda0
        est = solve_factored(ds, lam0, r, SolverConfig(max_iters=500, rel_obj_tol=1e-10))
        assert objective(ds, lam0, est.b_hat) <= objective(ds, lam0, b_star) + 1e-9

    def test_factor_norms_dominate_nuclear_norm(self):
        _, _, ds = mc_instance(seed=21)
        est = solve_factored(ds, 0.2 * lambda_max(ds), 2)
        u, v = est.factors
        lhs = 0.5 * (np.sum(u * u) + np.sum(v * v))
        assert lhs >= matrix_norm(est.b_hat, "nuclear") - 1e-6

    def test_rank_out_of_range(self):
        _, _, ds = mc_instance()
        with pytest.raises(ValueError):
            solve_factored(ds, 0.1, 13)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_rejects_non_finite_lambda(self, lam):
        _, _, ds = mc_instance()
        with pytest.raises(ValueError, match="positive and finite"):
            solve_factored(ds, lam, 2)

    @pytest.mark.parametrize(
        "spec", [MatrixCompletion(20, 20), MultiTask(20, 20), GaussianEnsemble(20, 20), FactoredMeasurement(20, 20)],
        ids=lambda s: s.kind,
    )
    def test_certifies_the_convex_solve_above_its_rank(self, spec):
        # ||U V^T||_* <= (||U||^2 + ||V||^2) / 2, with equality at a balanced
        # factorization, so at r > rank(convex minimizer) both solvers
        # minimize the same convex loss: each certifies the other
        b_star = generate_ground_truth(20, 20, 2, stream(50))
        ds = generate_dataset(spec, b_star, 600, 0.5, seed=51)
        lam = 0.2 * lambda_max(ds)
        convex = solve_convex(ds, lam, SolverConfig(max_iters=20000, rel_obj_tol=1e-14))
        rank = numerical_rank(convex.b_hat)
        assert convex.stop_reason == "rel_dec" and 1 <= rank < 19
        factored = solve_factored(ds, lam, rank + 1, SolverConfig(max_iters=2000, rel_obj_tol=1e-14))
        assert factored.converged
        assert factored.objective == pytest.approx(convex.objective, rel=1e-9, abs=0.0)


class TestSolveNoiseless:
    def test_determined_dense_system(self):
        d = 8
        b_star = generate_ground_truth(d, d, 3, stream(22))
        ds = generate_dataset(GaussianEnsemble(d, d), b_star, d * d, 0.0, seed=23)
        est = solve_noiseless(ds)
        rel = np.linalg.norm(est.b_hat - b_star) / np.linalg.norm(b_star)
        assert rel < 1e-4
        assert est.converged

    def test_recovery_above_threshold(self):
        d, r = 30, 2
        b_star = generate_ground_truth(d, d, r, stream(24))
        ds = generate_dataset(GaussianEnsemble(d, d), b_star, 10 * r * d, 0.0, seed=25)
        est = solve_noiseless(ds)
        rel_sq = np.sum((est.b_hat - b_star) ** 2) / np.sum(b_star**2)
        assert rel_sq < 1e-3

    def test_failure_below_information_limit(self):
        d, r = 30, 2
        n = r * (2 * d - r) // 2
        b_star = generate_ground_truth(d, d, r, stream(26))
        ds = generate_dataset(GaussianEnsemble(d, d), b_star, n, 0.0, seed=27)
        est = solve_noiseless(ds)
        rel_sq = np.sum((est.b_hat - b_star) ** 2) / np.sum(b_star**2)
        assert rel_sq > 0.1

    def test_reports_a_rung_cut_at_max_iters(self):
        b_star = generate_ground_truth(10, 10, 2, stream(33))
        ds = generate_dataset(GaussianEnsemble(10, 10), b_star, 150, 0.0, seed=34)
        est = solve_noiseless(ds, SolverConfig(max_iters=3))
        assert est.stop_reason == "max_iters" and not est.converged
        # at 10 iterations only rungs 1-4 are cut; the last rung stops on
        # rel_dec with a residual within tolerance, and the cut still shows
        early = solve_noiseless(ds, SolverConfig(max_iters=10))
        assert early.residual <= solvers.NOISELESS_RESIDUAL_TOL
        assert early.stop_reason == "max_iters" and not early.converged
        done = solve_noiseless(ds)
        assert done.stop_reason == "rel_dec" and done.converged
        assert done.residual <= solvers.NOISELESS_RESIDUAL_TOL

    def test_zero_responses_give_the_zero_matrix(self):
        _, _, noisy = mc_instance()
        ds = Dataset(noisy.spec, noisy.measurements, np.zeros(noisy.n), 0.0, seed=0)
        est = solve_noiseless(ds)
        assert np.array_equal(est.b_hat, np.zeros((12, 12)))
        assert est.lam == 0.0 and est.iters == 0 and est.residual == 0.0 and est.converged

    def test_responses_the_adjoint_cancels_flag_nonconvergence(self):
        # X*(y) = 1 - 1 = 0 at the one entry seen twice, so lambda_max is 0
        # and the zero matrix leaves all of y unexplained
        ms = EntrySet([0, 0], [0, 0], [1.0, -1.0], 2, 2)
        ds = Dataset(MatrixCompletion(2, 2), ms, np.ones(2), 0.0, seed=0)
        est = solve_noiseless(ds)
        assert np.array_equal(est.b_hat, np.zeros((2, 2)))
        assert est.residual == 1.0 and est.converged is False

    def test_inconsistent_data_flags_nonconvergence(self):
        # same entry observed twice with contradictory responses
        ms = EntrySet([0, 0], [0, 0], np.ones(2), 3, 3)
        ds = Dataset(MatrixCompletion(3, 3, plain_entries=True), ms, np.array([1.0, -1.0]), 0.0, seed=0)
        est = solve_noiseless(ds)
        assert not est.converged
        assert est.residual > 1e-3


class TestCheckGoodness:
    def test_truth_passes(self):
        spec, b_star, ds = mc_instance(seed=28)
        from tracereg.solvers import Estimate

        est = Estimate(b_hat=b_star, lam=0.5, objective=objective(ds, 0.5, b_star), iters=0, converged=True, method="convex")
        check = check_goodness(est, b_star, ds, spec.spikiness_norm(b_star))
        assert check.loss_ok and check.spikiness_ok

    def test_zero_estimate_fails_when_truth_fits_better(self):
        spec, b_star, ds = mc_instance(seed=29, sigma=0.01)
        from tracereg.solvers import Estimate

        lam = 1e-8
        est = Estimate(
            b_hat=np.zeros_like(b_star), lam=lam, objective=objective(ds, lam, np.zeros_like(b_star)),
            iters=0, converged=True, method="convex",
        )
        assert not check_goodness(est, b_star, ds, spec.spikiness_norm(b_star)).loss_ok

    def test_converged_solves_on_random_instances(self):
        spec = MatrixCompletion(12, 12, plain_entries=True)
        lam0 = calibrate_lambda0(spec, 500, 0.5, 3.0, 100, 0.9, stream(50)).lambda0
        for trial in range(10):
            b_star = generate_ground_truth(12, 12, 2, stream(60 + trial))
            ds = generate_dataset(spec, b_star, 500, 0.5, seed=80 + trial)
            est = solve_convex(ds, lam0)
            assert est.converged
            assert check_goodness(est, b_star, ds, spec.spikiness_norm(b_star)).loss_ok


class TestCompatibilityDiagnostic:
    def test_perp_component_controlled(self):
        # on instances where lam >= 3 ||(1/n) sum eps_i X_i||_op holds,
        # the off-subspace part of the error is dominated by the aligned part
        checked = 0
        for trial in range(8):
            spec, b_star, ds = mc_instance(d=15, r=2, n=700, sigma=0.3, seed=100 + 3 * trial)
            eps = ds.y - ds.measurements.apply(b_star)
            sigma_op = operator_norm(ds.measurements.adjoint(eps) / ds.n)
            lam = 3.5 * sigma_op
            est = solve_convex(ds, lam)
            if not est.converged:
                continue
            delta = est.b_hat - b_star
            perp = matrix_norm(project_perp(b_star, delta), "nuclear")
            par = matrix_norm(project_parallel(b_star, delta), "nuclear")
            assert perp <= 5.0 * par + 1e-6
            checked += 1
        assert checked >= 5
