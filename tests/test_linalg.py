import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereg import (
    matrix_norm,
    numerical_rank,
    operator_norm,
    project_parallel,
    project_perp,
    soft_threshold,
    stream,
    svd,
    trace_inner,
)
from tracereg.linalg import SvdFactors, _operator_norm_unless_below, _soft_threshold_stack


class TestTraceInner:
    def test_identity(self):
        eye = np.eye(3)
        assert trace_inner(eye, eye) == 3.0

    def test_basis_matrix_selects_entry(self):
        b = stream(0).standard_normal((4, 4))
        e12 = np.zeros((4, 4))
        e12[1, 2] = 1.0
        assert trace_inner(e12, b) == pytest.approx(b[1, 2], abs=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = stream(1)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((4, 3))
        oracle = sum(a[i, j] * b[i, j] for i in range(4) for j in range(3))
        assert trace_inner(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            trace_inner(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_symmetric_bilinear(self):
        rng = stream(2)
        for _ in range(10):
            a, b, c = (rng.standard_normal((3, 5)) for _ in range(3))
            s, t = rng.standard_normal(2)
            assert trace_inner(a, b) == pytest.approx(trace_inner(b, a), abs=1e-12)
            lhs = trace_inner(s * a + t * b, c)
            rhs = s * trace_inner(a, c) + t * trace_inner(b, c)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestNorms:
    def test_nuclear_identity(self):
        assert matrix_norm(np.eye(7), "nuclear") == pytest.approx(7.0)

    def test_operator_diagonal(self):
        assert matrix_norm(np.diag([3.0, 1.0]), "operator") == pytest.approx(3.0)

    def test_nuclear_vs_eigendecomposition_oracle(self):
        m = stream(3).standard_normal((5, 5))
        eigs = np.linalg.eigvalsh(m.T @ m)
        oracle = float(np.sum(np.sqrt(np.clip(eigs, 0.0, None))))
        assert matrix_norm(m, "nuclear") == pytest.approx(oracle, rel=1e-10)

    def test_frobenius_and_linf(self):
        m = np.array([[1.0, -2.0], [2.0, 0.0]])
        assert matrix_norm(m, "frobenius") == pytest.approx(3.0)
        assert matrix_norm(m, "linf") == pytest.approx(2.0)

    def test_lpq_row_inner_column_outer(self):
        m = np.array([[3.0, 4.0], [0.0, 1.0]])
        # rows have l2 norms 5 and 1
        assert matrix_norm(m, "l_pq", p=2, q=1) == pytest.approx(6.0)
        assert matrix_norm(m, "l_pq", p=2, q=np.inf) == pytest.approx(5.0)

    def test_lpq_requires_valid_indices(self):
        with pytest.raises(ValueError):
            matrix_norm(np.eye(2), "l_pq", p=0.5, q=1)

    def test_duality_pair(self):
        rng = stream(4)
        for _ in range(10):
            a = rng.standard_normal((6, 5))
            b = rng.standard_normal((6, 5))
            assert trace_inner(a, b) <= operator_norm(a) * matrix_norm(b, "nuclear") + 1e-10
        a = rng.standard_normal((6, 5))
        f = svd(a)
        top = np.outer(f.left[:, 0], f.right[:, 0])
        assert trace_inner(a, top) == pytest.approx(operator_norm(a), rel=1e-10)


class TestSvd:
    def test_zero_matrix(self):
        f = svd(np.zeros((3, 4)))
        assert np.all(f.singulars == 0.0)

    def test_diagonal(self):
        f = svd(np.diag([2.0, 1.0]))
        assert f.singulars == pytest.approx([2.0, 1.0])

    def test_reconstruction_oracle(self):
        m = stream(5).standard_normal((8, 6))
        f = svd(m)
        resid = np.linalg.norm(f.compose() - m) / np.linalg.norm(m)
        assert resid < 1e-9

    def test_factors_orthonormal_and_sorted(self):
        f = svd(stream(6).standard_normal((7, 5)))
        assert isinstance(f, SvdFactors)
        assert np.allclose(f.left.T @ f.left, np.eye(5), atol=1e-10)
        assert np.allclose(f.right.T @ f.right, np.eye(5), atol=1e-10)
        assert np.all(np.diff(f.singulars) <= 0)
        assert np.all(f.singulars >= 0)


class TestSoftThreshold:
    def test_zero_tau_is_identity(self):
        m = stream(7).standard_normal((5, 5))
        assert np.linalg.norm(soft_threshold(m, 0.0) - m) < 1e-10

    def test_diagonal_shrinkage(self):
        out = soft_threshold(np.diag([3.0, 1.0]), 1.0)
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-12)

    def test_negative_tau_raises(self):
        with pytest.raises(ValueError):
            soft_threshold(np.eye(2), -0.1)
        # a NaN tau raises too, and leaves the buffer as it was
        buf = np.zeros(2)
        with pytest.raises(ValueError, match="non-negative"):
            soft_threshold(np.eye(2), float("nan"), singulars=buf)
        assert np.array_equal(buf, np.zeros(2))

    def test_prox_optimality_under_perturbations(self):
        rng = stream(8)
        m = rng.standard_normal((6, 6))
        tau = 0.5
        x = soft_threshold(m, tau)

        def prox_obj(z):
            return 0.5 * np.sum((z - m) ** 2) + tau * matrix_norm(z, "nuclear")

        base = prox_obj(x)
        for _ in range(100):
            delta = rng.standard_normal((6, 6))
            delta *= 1e-3 / np.linalg.norm(delta)
            assert prox_obj(x + delta) >= base - 1e-12

    def test_nonexpansive(self):
        rng = stream(9)
        for _ in range(20):
            a = rng.standard_normal((5, 4))
            b = rng.standard_normal((5, 4))
            tau = float(rng.uniform(0.0, 2.0))
            lhs = np.linalg.norm(soft_threshold(a, tau) - soft_threshold(b, tau))
            assert lhs <= np.linalg.norm(a - b) + 1e-10

    @pytest.mark.parametrize("shape, tau", [((6, 6), 0.0), ((6, 6), 0.8), ((7, 4), 0.0), ((4, 9), 1.1)])
    def test_singulars_buffer_holds_nuclear_norm_of_output(self, shape, tau):
        m = stream(14).standard_normal(shape)
        buf = np.full(min(shape), np.nan)
        out = soft_threshold(m, tau, singulars=buf)
        assert np.array_equal(out, soft_threshold(m, tau))
        assert np.all(buf >= 0.0) and np.all(np.diff(buf) <= 0.0)
        assert np.sum(buf) == pytest.approx(matrix_norm(out, "nuclear"), rel=1e-12)

    def test_singulars_buffer_of_wrong_length_raises(self):
        with pytest.raises(ValueError):
            soft_threshold(np.eye(3), 0.1, singulars=np.empty(2))


class TestProjections:
    def test_full_rank_b_spans_everything(self):
        rng = stream(10)
        b = rng.standard_normal((5, 5))
        a = rng.standard_normal((5, 5))
        assert np.allclose(project_parallel(b, a), a, atol=1e-10)
        assert np.allclose(project_perp(b, a), 0.0, atol=1e-10)

    def test_zero_b_leaves_a_perp(self):
        a = stream(11).standard_normal((4, 6))
        assert np.allclose(project_perp(np.zeros((4, 6)), a), a)

    def test_rank_bound_and_decomposition(self):
        rng = stream(12)
        b = rng.standard_normal((8, 2)) @ rng.standard_normal((2, 8))
        a = rng.standard_normal((8, 8))
        par = project_parallel(b, a)
        perp = project_perp(b, a)
        assert numerical_rank(par) <= 4
        assert np.linalg.norm(par + perp - a) < 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            project_perp(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_nuclear_additivity_on_perp_component(self):
        rng = stream(13)
        b = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 7))
        a = rng.standard_normal((7, 7))
        perp = project_perp(b, a)
        lhs = matrix_norm(b + perp, "nuclear")
        rhs = matrix_norm(b, "nuclear") + matrix_norm(perp, "nuclear")
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_numerical_rank_cutoff():
    b = np.diag([1.0, 1e-8, 1e-12])
    assert numerical_rank(b) == 2
    assert numerical_rank(np.zeros((3, 3))) == 0


# Accuracy of the Gram-matrix kernels against a local gesdd reference, over
# tall, wide, square, 1 x k and k x 1 matrices of random rank (rank 0 is
# the zero matrix) with singular values spread over 1e-9..1.
_SHAPES = {
    "tall": lambda p, q: (p + q, p),
    "wide": lambda p, q: (p, p + q),
    "square": lambda p, q: (p, p),
    "row": lambda p, q: (1, q),
    "column": lambda p, q: (q, 1),
}
_KERNEL_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


@st.composite
def _spectral_matrices(draw):
    shape = _SHAPES[draw(st.sampled_from(sorted(_SHAPES)))](draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    rank = draw(st.integers(0, min(shape)))
    exponents = draw(st.lists(st.floats(-9.0, 0.0), min_size=rank, max_size=rank))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((shape[0], rank)))[0]
    v = np.linalg.qr(rng.standard_normal((shape[1], rank)))[0]
    return (u * np.sort(10.0 ** np.asarray(exponents))[::-1]) @ v.T


def _gesdd_soft_threshold(m, tau):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    shrunk = np.maximum(s - tau, 0.0)
    return (u * shrunk) @ vh, shrunk


class TestGramKernelAccuracy:
    @_KERNEL_SETTINGS
    @given(m=_spectral_matrices(), log_ratio=st.floats(-0.5, 6.0))
    def test_soft_threshold_matches_gesdd(self, m, log_ratio):
        # tau = s_max / 10**log_ratio; the error bound is about eps * s_max / tau
        s_max = np.linalg.norm(m, 2)
        tau = (s_max if s_max > 0 else 1.0) / 10.0**log_ratio
        buf = np.full(min(m.shape), np.nan)
        out = soft_threshold(m, tau, singulars=buf)
        ref, ref_shrunk = _gesdd_soft_threshold(m, tau)
        bound = 1e-12 if log_ratio <= 3.0 else 1e-9
        assert np.linalg.norm(out - ref) <= bound * np.linalg.norm(m)
        assert np.all(buf >= 0.0) and np.all(np.diff(buf) <= 0.0)
        assert np.max(np.abs(buf - ref_shrunk)) <= bound * s_max

    @_KERNEL_SETTINGS
    @given(m=_spectral_matrices())
    def test_operator_norm_matches_two_norm(self, m):
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0.0)

    @_KERNEL_SETTINGS
    @given(m=_spectral_matrices(), log_gap=st.floats(-6.0, 0.0), above=st.booleans())
    def test_operator_norm_below_is_a_certificate(self, m, log_gap, above):
        # the margin is 1e-8 relative at these sizes: a bound 1e-6 or more
        # above the norm is certified (None), one at or below it never is,
        # and an uncertified matrix gets operator_norm bit for bit, also
        # when its Gram matrices go into the caller's stale buffers
        norm = operator_norm(m)
        bound = norm * (1.0 + 10.0**log_gap if above else 1.0 - 10.0**log_gap)
        certified = above and norm > 0.0
        d = min(m.shape)
        for buffers in ((np.empty((d, d)), np.empty((d, d))), (np.full((d, d), np.nan), np.full((d, d), np.nan))):
            assert _operator_norm_unless_below(m, bound, buffers) == (None if certified else norm)
            assert _operator_norm_unless_below(m, norm, buffers) == norm

    @_KERNEL_SETTINGS
    @given(m=_spectral_matrices(), log_ratio=st.floats(-0.5, 3.0))
    def test_prox_optimality_certificate(self, m, log_ratio):
        # out = soft_threshold(m, tau) minimizes 0.5||X - m||^2 + tau||X||_*
        # exactly when m - out lies in tau times the subdifferential of the
        # nuclear norm at out: m - out = tau (U V^T + W) over the kept
        # singular pairs (U, V), with ||W||_op <= 1, U^T W = 0 and W V = 0
        s_max = np.linalg.norm(m, 2)
        tau = (s_max if s_max > 0 else 1.0) / 10.0**log_ratio
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        kept = s > tau
        u, v = u[:, kept], vh[kept].T
        tau_w = m - soft_threshold(m, tau) - tau * (u @ v.T)
        assert np.linalg.norm(tau_w, 2) <= tau * (1.0 + 1e-9)
        scale = 1e-9 * np.linalg.norm(m)
        assert np.linalg.norm(u.T @ tau_w) <= scale
        assert np.linalg.norm(tau_w @ v) <= scale


class TestGramScale:
    """Matrices whose Gram matrix would overflow, or whose squares would
    underflow below the normal floats, are scaled by a power of two first."""

    BIG, SMALL = 2.0**600, 2.0**-600

    def test_operator_norm_of_an_overflowing_gram(self):
        assert operator_norm(np.array([[1e160, 0.0], [0.0, 1.0]])) == pytest.approx(1e160, rel=1e-15, abs=0.0)
        m = stream(41).standard_normal((7, 5))
        big = self.BIG * m
        norm = operator_norm(big)
        assert norm == pytest.approx(self.BIG * np.linalg.norm(m, 2), rel=1e-13, abs=0.0)
        buffers = (np.empty((5, 5)), np.empty((5, 5)))
        assert _operator_norm_unless_below(big, 1.01 * norm, buffers) is None
        assert _operator_norm_unless_below(big, norm, buffers) == norm

    def test_operator_norm_of_an_underflowing_gram(self):
        # 1e-160 squares to a subnormal, 1e-170 to zero
        for scale in (1e-160, 1e-170):
            assert operator_norm(scale * np.eye(2)) == pytest.approx(scale, rel=1e-15, abs=0.0)
        m = stream(42).standard_normal((5, 7))
        assert operator_norm(self.SMALL * m) == pytest.approx(self.SMALL * np.linalg.norm(m, 2), rel=1e-13, abs=0.0)

    def test_soft_threshold_of_an_underflowing_gram(self):
        buf = np.empty(2)
        out = soft_threshold(1e-170 * np.eye(2), 1e-171, singulars=buf)
        np.testing.assert_allclose(out, 9e-171 * np.eye(2), rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(buf, [9e-171, 9e-171], rtol=1e-14, atol=0.0)
        m = stream(43).standard_normal((6, 4))
        tau = 0.3 * np.linalg.norm(m, 2)
        ref, _ = _gesdd_soft_threshold(m, tau)
        small = soft_threshold(self.SMALL * m, self.SMALL * tau)
        assert np.linalg.norm(small / self.SMALL - ref) <= 1e-12 * np.linalg.norm(m)

    def test_soft_threshold_of_an_overflowing_gram(self):
        buf = np.empty(2)
        out = soft_threshold(np.array([[1e160, 0.0], [0.0, 1.0]]), 1.0, singulars=buf)
        assert out[0, 0] == pytest.approx(1e160, rel=1e-15, abs=0.0) and abs(out[1, 1]) <= 1e-15 * 1e160
        assert out[0, 1] == out[1, 0] == 0.0 and buf[0] == pytest.approx(1e160, rel=1e-15, abs=0.0)
        # a stacked neighbour of ordinary scale keeps its bits
        m = stream(44).standard_normal((4, 6))
        tau = 0.3 * np.linalg.norm(m, 2)
        ref, _ = _gesdd_soft_threshold(m, tau)
        buf, ref_buf = np.full((2, 4), np.nan), np.full(4, np.nan)
        big, plain = _soft_threshold_stack([self.BIG * m, m], [self.BIG * tau, tau], singulars=buf)
        assert np.linalg.norm(big / self.BIG - ref) <= 1e-12 * np.linalg.norm(m)
        assert np.array_equal(plain, soft_threshold(m, tau, singulars=ref_buf))
        assert np.array_equal(buf[1], ref_buf)


# The stacked kernel behind the lockstep cross-validation folds: P matrices
# of one tall, wide or square shape, each of random rank (rank-deficient
# Gram matrices give zero and tiny negative eigenvalues) and C or Fortran
# layout (solver iterates of wide problems are Fortran-ordered), each with
# its own tau: zero, above s_max, or s_max / 10**r.
@st.composite
def _stacks(draw):
    shape = _SHAPES[draw(st.sampled_from(["tall", "wide", "square"]))](draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ms, taus = [], []
    for _ in range(draw(st.integers(1, 6))):
        rank = draw(st.integers(0, min(shape)))
        m = rng.standard_normal((shape[0], rank)) @ rng.standard_normal((rank, shape[1]))
        s_max = np.linalg.norm(m, 2)
        kind = draw(st.sampled_from(["zero", "above", "inside"]))
        if kind == "zero":
            tau = 0.0
        elif kind == "above":
            tau = 2.0 * s_max + 1.0
        else:
            tau = (s_max if s_max > 0 else 1.0) / 10.0 ** draw(st.floats(0.0, 6.0))
        ms.append(np.asfortranarray(m) if draw(st.booleans()) else m)
        taus.append(tau)
    return ms, taus


class TestStackedSoftThreshold:
    @_KERNEL_SETTINGS
    @given(case=_stacks())
    def test_bit_identical_to_soft_threshold(self, case):
        ms, taus = case
        buf = np.full((len(ms), min(ms[0].shape)), np.nan)
        outs = _soft_threshold_stack(ms, taus, singulars=buf)
        assert len(outs) == len(ms)
        for m, tau, out, row in zip(ms, taus, outs, buf):
            ref_buf = np.full(min(m.shape), np.nan)
            ref = soft_threshold(m, tau, singulars=ref_buf)
            assert out.shape == ref.shape
            assert np.array_equal(out, ref)
            assert np.array_equal(row, ref_buf)

    def test_captured_sizes_bit_identical(self):
        # the fold shapes of the benchmark's experiments, at a mid-path tau
        rng = stream(40)
        for d in (30, 50):
            ms = [rng.standard_normal((d, d)) for _ in range(5)]
            taus = [0.5 * np.linalg.norm(m, 2) for m in ms]
            for m, tau, out in zip(ms, taus, _soft_threshold_stack(ms, taus)):
                assert np.array_equal(out, soft_threshold(m, tau))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="one shape"):
            _soft_threshold_stack([np.eye(3), np.eye(4)], [0.1, 0.1])
        with pytest.raises(ValueError, match="one tau"):
            _soft_threshold_stack([np.eye(3)], [0.1, 0.1])
        with pytest.raises(ValueError, match="non-negative"):
            _soft_threshold_stack([np.eye(3)], [-0.1])
        with pytest.raises(ValueError, match="non-negative"):
            _soft_threshold_stack([np.eye(3), np.eye(3)], [0.1, float("nan")])
        with pytest.raises(ValueError, match="singulars"):
            _soft_threshold_stack([np.eye(3)], [0.1], singulars=np.empty((1, 2)))
