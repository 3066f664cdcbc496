import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracereg import (
    FactoredMeasurement,
    GaussianEnsemble,
    MatrixCompletion,
    MultiTask,
    bernstein_bound,
    bernstein_expectation_bound,
    calibrate_lambda0,
    error_bound_rhs,
    estimate_orlicz,
    exact_recovery_threshold,
    gaussian_square_mgf,
    generate_dataset,
    generate_ground_truth,
    linalg,
    matrix_norm,
    operator_norm,
    rademacher_sketch,
    rsc_probe,
    sample_constraint_set,
    stream,
    theory,
    truncation_constant,
)
from tracereg.sampling import ENSEMBLES


class TestCalibrateLambda0:
    def test_no_noise_gives_zero(self):
        rep = calibrate_lambda0(GaussianEnsemble(5, 5), 50, 0.0, 3.0, 20, 0.9, stream(0))
        assert rep.lambda0 == 0.0

    def test_multiplier_linearity_at_same_seed(self):
        spec = MatrixCompletion(8, 8, plain_entries=True)
        a = calibrate_lambda0(spec, 100, 1.0, 1.0, 50, 0.9, stream(1))
        b = calibrate_lambda0(spec, 100, 1.0, 3.0, 50, 0.9, stream(1))
        assert b.lambda0 == pytest.approx(3.0 * a.lambda0, rel=1e-15)
        assert np.array_equal(a.samples, b.samples)

    def test_lambda0_is_order_statistic_of_samples(self):
        rep = calibrate_lambda0(MultiTask(6, 6), 80, 0.5, 2.0, 100, 0.9, stream(2))
        k = math.ceil(0.1 * 100)
        assert rep.lambda0 == pytest.approx(2.0 * np.sort(rep.samples)[::-1][k - 1])

    def test_quantile_coverage(self):
        spec = MatrixCompletion(50, 50, plain_entries=True)
        n = 2000
        rep = calibrate_lambda0(spec, n, 1.0, 3.0, 500, 0.9, stream(3))
        rng = stream(4)
        hits = 0
        fresh = 500
        for _ in range(fresh):
            ms = spec.sample_batch(n, rng)
            eps = rng.normal(0.0, 1.0, size=n)
            if rep.lambda0 >= 3.0 * operator_norm(ms.adjoint(eps) / n):
                hits += 1
        assert 0.85 <= hits / fresh <= 0.95

    def test_monotone_in_sigma(self):
        spec = GaussianEnsemble(6, 6)
        lo = calibrate_lambda0(spec, 60, 0.5, 3.0, 40, 0.9, stream(5)).lambda0
        hi = calibrate_lambda0(spec, 60, 1.5, 3.0, 40, 0.9, stream(5)).lambda0
        assert hi > lo

    def test_too_few_reps(self):
        with pytest.raises(ValueError):
            calibrate_lambda0(GaussianEnsemble(4, 4), 10, 1.0, 3.0, 5, 0.9, stream(6))


class TestNoiseQuantile:
    """``_noise_quantile`` screens draws with a certificate instead of taking
    every operator norm; it must return the full calibration's quantile bit
    for bit and consume the stream identically."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(ENSEMBLES)),
        d_r=st.integers(1, 7),
        d_c=st.integers(1, 7),
        n=st.integers(1, 80),
        sigma=st.sampled_from([0.0, 0.3, 1.0]),
        reps=st.integers(10, 60),
        quantile=st.sampled_from([0.01, 0.5, 0.9, 0.97]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="matrix_completion", d_r=3, d_c=6, n=40, sigma=0.0, reps=10, quantile=0.9, seed=0)
    # k = ceil(0.99 * 10) = reps: the heap fills only with the last draw
    @example(kind="multi_task", d_r=6, d_c=3, n=40, sigma=1.0, reps=10, quantile=0.01, seed=1)
    def test_equals_full_calibration_and_leaves_same_stream(self, kind, d_r, d_c, n, sigma, reps, quantile, seed):
        spec = ENSEMBLES[kind](d_r, d_c)
        full_rng, screened_rng = stream(seed), stream(seed)
        full = calibrate_lambda0(spec, n, sigma, 1.0, reps, quantile, full_rng).lambda0
        assert theory._noise_quantile(spec, n, sigma, reps, quantile, screened_rng) == full
        np.testing.assert_equal(screened_rng.bit_generator.state, full_rng.bit_generator.state)

    def test_fewer_than_half_the_draws_reach_the_eigensolver(self, monkeypatch):
        calls = []
        real = linalg._gram_norm

        def counting(g):
            calls.append(g.shape)
            return real(g)

        monkeypatch.setattr(linalg, "_gram_norm", counting)
        spec = MatrixCompletion(30, 30, plain_entries=True)
        theory._noise_quantile(spec, 1000, 1.0, 100, 0.9, stream(3))
        assert 10 <= len(calls) < 50

    def test_one_gram_product_per_draw(self, monkeypatch):
        # a draw the certificate cannot clear takes its eigenvalue solve on
        # the Gram matrix the certificate formed, not on a second product
        grams, solves = [], []
        real_gram, real_norm = linalg._gram, linalg._gram_norm
        monkeypatch.setattr(linalg, "_gram", lambda m, out=None: grams.append(out) or real_gram(m, out=out))
        monkeypatch.setattr(linalg, "_gram_norm", lambda g: solves.append(g.shape) or real_norm(g))
        spec = MatrixCompletion(30, 30, plain_entries=True)
        theory._noise_quantile(spec, 1000, 1.0, 100, 0.9, stream(3))
        assert len(solves) > 10  # k = 10 replace the heap's zero seeds; some later draws are not certified
        assert len(grams) == 100
        # every draw, the 10 that fill the heap included, forms its Gram matrix in one buffer
        assert all(out is not None for out in grams) and len({id(out) for out in grams}) == 1

    @pytest.mark.parametrize("shape", [(7, 4), (4, 7)], ids=["tall", "wide"])
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    @pytest.mark.parametrize("kind", sorted(ENSEMBLES))
    def test_equals_the_former_loop(self, kind, shape, sigma):
        spec = ENSEMBLES[kind](*shape)
        screened_rng, former_rng = stream(17), stream(17)
        value = theory._noise_quantile(spec, 60, sigma, 40, 0.9, screened_rng)
        # the k-th largest of 40 draws, k = ceil(0.1 * 40) = 4
        assert value == np.sort(former_calibration_draws(spec, 60, sigma, 40, former_rng))[::-1][3]
        np.testing.assert_equal(screened_rng.bit_generator.state, former_rng.bit_generator.state)

    @pytest.mark.parametrize("reps, quantile", [(9, 0.9), (20, 0.0), (20, 1.0)])
    def test_rejects_what_calibrate_lambda0_rejects(self, reps, quantile):
        with pytest.raises(ValueError):
            theory._noise_quantile(GaussianEnsemble(3, 3), 10, 1.0, reps, quantile, stream(0))


def former_calibration_draws(spec, n, sigma, reps, rng):
    """Reference for the calibration's noise draws: each draw's operator
    norm, with the noise matrix formed and normed by the public API."""
    draws = np.empty(reps)
    for i in range(reps):
        ms = spec.sample_batch(n, rng)
        eps = rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)
        draws[i] = operator_norm(ms.adjoint(eps) / n)
    return draws


def former_sketch_draws(spec, n, reps, rng):
    """Reference for rademacher_sketch's draws: its sign-flip loop written
    out on its own, apart from the calibration's noise-matrix loop."""
    draws = np.empty(reps)
    for i in range(reps):
        ms = spec.sample_batch(n, rng)
        signs = rng.integers(0, 2, size=n) * 2.0 - 1.0
        draws[i] = operator_norm(ms.adjoint(signs) / n)
    return draws


class TestRademacherSketch:
    @pytest.mark.parametrize("kind", sorted(ENSEMBLES))
    def test_draws_match_the_former_loop(self, kind):
        spec = ENSEMBLES[kind](7, 5)
        sketch = rademacher_sketch(spec, 40, 12, stream(41))
        assert np.array_equal(sketch.draws, former_sketch_draws(spec, 40, 12, stream(41)))
        assert sketch.mean_op_norm == float(np.mean(sketch.draws))

    def test_single_measurement_sign_invariance(self):
        spec = GaussianEnsemble(5, 5)
        sketch = rademacher_sketch(spec, 1, 2000, stream(7))
        rng = stream(8)
        direct = np.mean([operator_norm(spec.sample_batch(1, rng).densify()[0]) for _ in range(2000)])
        se = np.std(sketch.draws, ddof=1) / math.sqrt(sketch.reps)
        assert sketch.mean_op_norm == pytest.approx(direct, abs=4 * se)

    def test_gaussian_ensemble_bound(self):
        d, n = 30, 900
        sketch = rademacher_sketch(GaussianEnsemble(d, d), n, 60, stream(9))
        assert sketch.mean_op_norm <= 2.0 * math.sqrt(d) / math.sqrt(n) * 1.1

    def test_matrix_completion_scaling_stability(self):
        d = 30
        spec = MatrixCompletion(d, d)
        ratios = []
        for n in (1000, 4000):
            sketch = rademacher_sketch(spec, n, 60, stream(10))
            ratios.append(sketch.mean_op_norm / math.sqrt(d * math.log(d) / n))
        assert abs(ratios[1] / ratios[0] - 1.0) < 0.3


class TestEstimateOrlicz:
    def test_gaussian_psi2_matches_closed_form(self):
        spec = GaussianEnsemble(8, 8)
        b = stream(11).standard_normal((8, 8))
        est = estimate_orlicz(spec, b, 2, 200_000, stream(12))
        ratio = est / matrix_norm(b, "frobenius")
        assert 1.5 <= ratio <= 1.75  # exact value sqrt(8/3) ~ 1.633

    def test_factored_psi1_sandwich(self):
        spec = FactoredMeasurement(8, 8)
        b = stream(13).standard_normal((8, 8))
        est = estimate_orlicz(spec, b, 1, 200_000, stream(14))
        fro = matrix_norm(b, "frobenius")
        assert fro / math.sqrt(2 * math.log(2)) <= est <= 8.0 * fro / math.sqrt(math.log(2))

    def test_zero_matrix_returns_bracket_floor(self):
        assert estimate_orlicz(GaussianEnsemble(4, 4), np.zeros((4, 4)), 2, 1000, stream(15)) == 0.0

    def test_absolute_homogeneity(self):
        spec = MultiTask(6, 6)
        b = stream(16).standard_normal((6, 6))
        base = estimate_orlicz(spec, b, 2, 100_000, stream(17))
        scaled = estimate_orlicz(spec, 2.5 * b, 2, 100_000, stream(17))
        assert scaled == pytest.approx(2.5 * base, rel=0.05)


class TestGaussianSquareMgf:
    def test_eta_zero(self):
        assert gaussian_square_mgf(1.0, 0.0) == 1.0

    def test_known_value_and_monte_carlo(self):
        assert gaussian_square_mgf(1.0, 0.375) == pytest.approx(2.0)
        z = stream(18).standard_normal(1_000_000)
        assert np.mean(np.exp(0.375 * z**2)) == pytest.approx(2.0, rel=0.03)

    def test_boundary_is_infinite(self):
        assert gaussian_square_mgf(1.0, 0.5) == math.inf
        assert gaussian_square_mgf(2.0, 0.2) == math.inf

    def test_monte_carlo_agreement_below_boundary(self):
        rng = stream(19)
        for eta in (0.1, 0.25, 0.4):
            z = rng.standard_normal(1_000_000)
            assert np.mean(np.exp(eta * z**2)) == pytest.approx(gaussian_square_mgf(1.0, eta), rel=0.03)


class TestTruncationConstant:
    def test_max_picks_five(self):
        assert truncation_constant(1.0, 1.0, 2) == pytest.approx(5.0)

    def test_gaussian_bound(self):
        sigma = 1.7
        nu = math.sqrt(8.0 * sigma**2 / 3.0)
        assert truncation_constant(nu, sigma, 2) <= 5.0 * nu + 1e-12

    def test_truncated_second_moment_retained(self):
        nu = math.sqrt(8.0 / 3.0)
        c = truncation_constant(nu, 1.0, 2)
        z = stream(20).standard_normal(1_000_000)
        kept = np.mean(z**2 * (np.abs(z) <= c))
        assert kept >= 0.5 * np.mean(z**2)

    def test_sigma_zero_rejected(self):
        with pytest.raises(ValueError):
            truncation_constant(1.0, 0.0, 2)


class TestBernsteinBound:
    def test_regime_switch_in_t(self):
        kwargs = dict(sigma_z=1.0, delta=10.0, n=1000, d_r=20, d_c=20)
        small = [bernstein_bound(t=t, **kwargs) for t in (1.0, 4.0)]
        large = [bernstein_bound(t=t, **kwargs) for t in (1e6, 4e6)]
        assert small[1] / small[0] < 2.5  # sqrt regime: factor ~sqrt(4)=2
        assert large[1] / large[0] == pytest.approx(4.0, rel=0.01)  # linear regime

    def test_expectation_variant_value(self):
        val = bernstein_expectation_bound(2.0, 400, 10, 10, c=1.5)
        assert val == pytest.approx(1.5 * 2.0 * math.sqrt(2 * math.e * math.log(20) / 400))

    def test_expectation_bound_dominates_gaussian_sketch(self):
        d = 20
        for n in (400, 1600):
            sketch = rademacher_sketch(GaussianEnsemble(d, d), n, 40, stream(21))
            bound = bernstein_expectation_bound(math.sqrt(d), n, d, d, c=2.0)
            assert sketch.mean_op_norm <= bound

    def test_clamped_log_factor_warns(self):
        with pytest.warns(UserWarning):
            bernstein_bound(sigma_z=2.0, delta=1.0, n=100, d_r=5, d_c=5, t=1.0)

    def test_monotone_in_t_and_variance_regime(self):
        vals = [bernstein_bound(1.0, 10.0, 500, 10, 10, t) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # with the variance term dominating, the bound scales with sigma_z
        lo = bernstein_bound(1.0, 1.5, 10_000, 10, 10, 2.0)
        hi = bernstein_bound(2.0, 3.0, 10_000, 10, 10, 2.0)
        assert hi >= lo


class TestRscProbe:
    def test_margins_positive_at_large_n(self):
        d = 6
        spec = MatrixCompletion(d, d)
        b_star = generate_ground_truth(d, d, 1, stream(22))
        ds = generate_dataset(spec, b_star, 50 * d * d, 0.0, seed=23)
        report = rsc_probe(ds, spec.constants().nu0, 72.0, 50, stream(24))
        assert report.min_margin > 0.0
        assert report.violation_count == 0
        assert report.beta_emp >= 0.0

    def test_no_violations_on_moderate_instance(self):
        d = 12
        spec = MatrixCompletion(d, d)
        b_star = generate_ground_truth(d, d, 2, stream(25))
        n = int(20 * d * math.log(d))
        ds = generate_dataset(spec, b_star, n, 1.0, seed=26)
        report = rsc_probe(ds, 1e-4, 144.0, 100, stream(27))
        assert report.violation_count == 0

    def test_margin_sign_invariance(self):
        d = 5
        spec = GaussianEnsemble(d, d)
        ds = generate_dataset(spec, np.eye(d), 100, 0.0, seed=28)
        cand = sample_constraint_set(spec, 0.01, 72.0, stream(29), 1000)
        for mat in (cand, -cand):
            vals = ds.measurements.apply(mat)
            assert float(vals @ vals) == pytest.approx(float(ds.measurements.apply(cand) @ ds.measurements.apply(cand)))

    def test_sampler_respects_constraints(self):
        spec = MultiTask(7, 7)
        rng = stream(30)
        for _ in range(50):
            cand = sample_constraint_set(spec, 1e-3, 144.0, rng, 10_000)
            assert spec.spikiness_norm(cand) == pytest.approx(1.0, rel=1e-10)
            fro = matrix_norm(cand, "frobenius")
            assert fro**2 >= 1e-3
            assert matrix_norm(cand, "nuclear") <= math.sqrt(144.0) * fro + 1e-12

    def test_infeasible_floor_raises(self):
        spec = MatrixCompletion(6, 6)
        ds = generate_dataset(spec, np.eye(6), 100, 0.0, seed=31)
        with pytest.raises(ValueError, match="constraint set"):
            rsc_probe(ds, 10.0, 72.0, 3, stream(32))


class TestErrorBoundRhs:
    def test_deterministic_degenerate_zero(self):
        val = error_bound_rhs("deterministic", lam=0.0, r=3, alpha=1.0, beta=0.0, b_star=2.0, nu=0.0)
        assert val == 0.0

    def test_application_halves_with_doubled_n(self):
        a = error_bound_rhs("application", sigma=1.0, b_star=2.0, rho=3.0, d=50, r=2, n=1000)
        b = error_bound_rhs("application", sigma=1.0, b_star=2.0, rho=3.0, d=50, r=2, n=2000)
        assert a == pytest.approx(2.0 * b)

    def test_probabilistic_reduces_to_application_form(self):
        rng = stream(33)
        for _ in range(100):
            sigma, b_star, rho, c6, c_prime = rng.uniform(0.2, 3.0, size=5)
            d = int(rng.integers(5, 100))
            r = int(rng.integers(1, 5))
            n = int(rng.integers(100, 10_000))
            rho = max(rho, math.log(d))
            lam = c6 * max(sigma, b_star) * math.sqrt(rho * d / n)
            prob = error_bound_rhs("probabilistic", lam=lam, r=r, gamma_min=1.0, c_prime=c_prime)
            app = error_bound_rhs(
                "application", sigma=sigma, b_star=b_star, rho=rho, d=d, r=r, n=n, c7=c_prime * c6**2
            )
            assert prob == pytest.approx(app, rel=1e-12)

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            error_bound_rhs("deterministic", lam=1.0, r=1, alpha=0.0, beta=0.0, b_star=1.0, nu=0.0)
        with pytest.raises(ValueError):
            error_bound_rhs("probabilistic", lam=1.0, r=1, gamma_min=-1.0)
        with pytest.raises(ValueError):
            error_bound_rhs("unknown")

    def test_monotone_in_scale_parameters(self):
        lams = [error_bound_rhs("probabilistic", lam=v, r=2, gamma_min=1.0) for v in (0.5, 1.0, 2.0)]
        assert lams == sorted(lams)
        dets = [
            error_bound_rhs("deterministic", lam=1.0, r=2, alpha=0.5, beta=0.1, b_star=v, nu=0.2)
            for v in (0.5, 1.0, 2.0)
        ]
        assert dets == sorted(dets)
        apps = [
            error_bound_rhs("application", sigma=v, b_star=0.1, rho=4.0, d=30, r=2, n=500)
            for v in (1.0, 2.0, 4.0)
        ]
        assert apps == sorted(apps)


class TestExactRecoveryThreshold:
    def test_gaussian_linear_in_rank(self):
        t1 = exact_recovery_threshold(GaussianEnsemble(30, 30), 1, stream(34))
        t2 = exact_recovery_threshold(GaussianEnsemble(30, 30), 2, stream(35))
        assert 1.8 <= t2.n_min / t1.n_min <= 2.2

    def test_multitask_dimension_scaling(self):
        # the sufficient sample size for the row-sampling ensemble scales
        # like d^2 log(2d): doubling d at d=30 multiplies the threshold by
        # 4 log(120)/log(60) ~ 4.7 under the fitted model, with sketch
        # drift of roughly +-25%
        n30 = exact_recovery_threshold(MultiTask(30, 30), 2, stream(36)).n_min
        n60 = exact_recovery_threshold(MultiTask(60, 60), 2, stream(37)).n_min
        assert 3.5 <= n60 / n30 <= 5.9

    def test_nu0_passthrough(self):
        assert exact_recovery_threshold(MultiTask(25, 25), 1, stream(38)).nu0 == pytest.approx(0.01)
        assert exact_recovery_threshold(GaussianEnsemble(25, 25), 1, stream(39)).nu0 == pytest.approx(0.1)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            exact_recovery_threshold(GaussianEnsemble(10, 10), 0, stream(40))
