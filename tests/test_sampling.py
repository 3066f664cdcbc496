import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracereg import (
    ENSEMBLES,
    Dataset,
    DenseSet,
    EntrySet,
    FactoredMeasurement,
    GaussianEnsemble,
    MatrixCompletion,
    MultiTask,
    RankOneSet,
    RowVectorSet,
    generate_dataset,
    generate_ground_truth,
    load_dataset,
    matrix_norm,
    sample_inner_products,
    save_dataset,
    stream,
    trace_inner,
)
from tracereg.theory import estimate_orlicz

ALL_SPECS = [
    MatrixCompletion(6, 6),
    MatrixCompletion(6, 6, xi_mode="deterministic_d"),
    MultiTask(6, 6),
    GaussianEnsemble(6, 6),
    FactoredMeasurement(6, 6),
]

FIXTURES = Path(__file__).parent / "data"


def fixture_dataset(kind: str) -> Dataset:
    """The dataset stored in data/dataset_<kind>.npz.  Those files were
    written by save_dataset at commit 46c9717, before the set types became
    dataclasses, and pin the file format across that change."""
    cls = ENSEMBLES[kind]
    spec = cls(3, 4, xi_mode="deterministic_d", plain_entries=True) if cls is MatrixCompletion else cls(3, 4)
    return generate_dataset(spec, generate_ground_truth(3, 4, 2, stream(60)), 6, 0.25, seed=61)


def edit_saved(path, drop=(), **values) -> None:
    """Rewrite a saved dataset with keys ``drop`` removed and ``values`` set."""
    with np.load(path) as z:
        payload = {key: z[key] for key in z.files if key not in drop}
    np.savez(path, **{**payload, **values})


class TestSampleMeasurement:
    def test_deterministic_scale_mode(self):
        spec = MatrixCompletion(4, 4, xi_mode="deterministic_d")
        ms = spec.sample_batch(200, stream(0))
        assert np.all(ms.scales == 4.0)

    def test_plain_entries_scale_one(self):
        ms = MatrixCompletion(4, 4, plain_entries=True).sample_batch(50, stream(0))
        assert np.all(ms.scales == 1.0)

    @pytest.mark.parametrize("flag", ["no", 1, None])
    def test_plain_entries_must_be_a_bool(self, flag):
        # a truthy string once drew plain entries
        with pytest.raises(ValueError, match="plain_entries must be a bool"):
            MatrixCompletion(3, 3, plain_entries=flag)
        assert MatrixCompletion(3, 3, plain_entries=np.bool_(True)).plain_entries

    def test_gaussian_entry_mean(self):
        ms = GaussianEnsemble(3, 3).sample_batch(100_000, stream(1))
        vals = ms.mats.ravel()
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 3 * se

    def test_multitask_feature_variance(self):
        spec = MultiTask(5, 5)
        ms = spec.sample_batch(100_000, stream(2))
        var = ms.vecs.var(ddof=1)
        assert var == pytest.approx(5.0, rel=0.03)

    def test_indices_in_range(self):
        for spec in (MatrixCompletion(7, 3), MultiTask(7, 3)):
            ms = spec.sample_batch(500, stream(3))
            assert ms.rows.min() >= 0 and ms.rows.max() < 7
            if hasattr(ms, "cols"):
                assert ms.cols.min() >= 0 and ms.cols.max() < 3


class TestOperator:
    def test_entry_selection(self):
        ms = EntrySet([1], [2], [4.0], 3, 4)
        b = np.zeros((3, 4))
        b[1, 2] = 0.5
        assert ms.apply(b) == pytest.approx([2.0])

    def test_rank_one_on_identity(self):
        rng = stream(5)
        u, v = rng.standard_normal(4), rng.standard_normal(4)
        val = RankOneSet([u], [v]).apply(np.eye(4))
        assert val[0] == pytest.approx(float(u @ v), abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{getattr(s, 'xi_mode', '')}")
    def test_structured_matches_densify_oracle(self, spec):
        ms = spec.sample_batch(60, stream(6))
        b = stream(7).standard_normal(spec.shape)
        dense = ms.densify()
        oracle = np.array([trace_inner(dense[i], b) for i in range(len(ms))])
        assert np.max(np.abs(ms.apply(b) - oracle)) < 1e-11

    def test_dimension_mismatch(self):
        ms = GaussianEnsemble(3, 3).sample_batch(5, stream(9))
        with pytest.raises(ValueError):
            ms.apply(np.zeros((4, 4)))


class TestAdjoint:
    def test_zero_weights(self):
        ms = GaussianEnsemble(3, 3).sample_batch(10, stream(10))
        assert np.all(ms.adjoint(np.zeros(10)) == 0.0)

    def test_single_entry(self):
        out = EntrySet([0], [0], [2.0], 2, 2).adjoint(np.array([3.0]))
        assert out == pytest.approx(np.array([[6.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{getattr(s, 'xi_mode', '')}")
    def test_adjoint_identity(self, spec):
        ms = spec.sample_batch(40, stream(11))
        rng = stream(12)
        w = rng.standard_normal(40)
        b = rng.standard_normal(spec.shape)
        lhs = trace_inner(ms.adjoint(w), b)
        rhs = float(w @ ms.apply(b))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("n, d_r, d_c", [(1, 4, 3), (6, 1, 5), (6, 5, 1), (1, 1, 1), (7, 3, 8), (600, 30, 30)])
    def test_dense_adjoint_is_the_tensordot_bit_for_bit(self, n, d_r, d_c):
        rng = stream(14)
        for _ in range(3):
            mats, w = rng.standard_normal((n, d_r, d_c)), rng.standard_normal(n)
            out = DenseSet(mats).adjoint(w)
            assert out.shape == (d_r, d_c)
            assert np.array_equal(out, np.tensordot(w, mats, axes=1))

    @pytest.mark.parametrize("n, d_r, d_c", [(1, 4, 3), (6, 1, 5), (6, 5, 1), (1, 1, 1), (40, 3, 8), (800, 20, 20)])
    def test_row_vector_adjoint_is_the_add_at_sum_bit_for_bit(self, n, d_r, d_c):
        rng = stream(15)
        for _ in range(3):
            # few rows, so most rows repeat
            rows, vecs, w = rng.integers(0, d_r, n), rng.standard_normal((n, d_c)), rng.standard_normal(n)
            ref = np.zeros((d_r, d_c))
            np.add.at(ref, rows, w[:, None] * vecs)
            assert np.array_equal(RowVectorSet(rows, vecs, d_r, d_c).adjoint(w), ref)

    def test_length_mismatch(self):
        ms = MultiTask(3, 3).sample_batch(5, stream(13))
        with pytest.raises(ValueError):
            ms.adjoint(np.zeros(4))


# Operator identities for all four measurement-set types over random
# non-square shapes (d_r != d_c, either side possibly 1) and batch sizes,
# for a set as sampled, as taken by ``subset`` (indices in any order, with
# repeats) and as read back by ``load_dataset``: a set rebuilt from its
# fields must act as one built from the same arrays.
@st.composite
def _measurement_sets(draw):
    short, extra = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    d_r, d_c = draw(st.permutations([short, short + extra]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spec = ENSEMBLES[draw(st.sampled_from(sorted(ENSEMBLES)))](d_r, d_c)
    ms = spec.sample_batch(draw(st.integers(1, 12)), rng)
    route = draw(st.sampled_from(["sampled", "subset", "file"]))
    if route == "subset":
        ms = ms.subset(rng.integers(0, len(ms), size=draw(st.integers(1, 12))))
    elif route == "file":
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ds.npz"
            save_dataset(Dataset(spec, ms, rng.standard_normal(len(ms)), 0.0, 0), path)
            ms = load_dataset(path).measurements
    return ms, rng.standard_normal((d_r, d_c)), rng.standard_normal(len(ms))


_OPERATOR_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class TestOperatorProperties:
    @_OPERATOR_SETTINGS
    @given(case=_measurement_sets())
    def test_apply_matches_densify(self, case):
        ms, b, _ = case
        dense = ms.densify()
        assert dense.shape == (len(ms), ms.d_r, ms.d_c)
        scale = np.einsum("nij,ij->n", np.abs(dense), np.abs(b))
        assert np.all(np.abs(ms.apply(b) - np.einsum("nij,ij->n", dense, b)) <= 1e-10 * scale)

    @_OPERATOR_SETTINGS
    @given(case=_measurement_sets())
    def test_adjoint_identity(self, case):
        ms, b, w = case
        lhs = float(ms.apply(b) @ w)
        rhs = trace_inner(b, ms.adjoint(w))
        scale = float(np.abs(w) @ np.einsum("nij,ij->n", np.abs(ms.densify()), np.abs(b)))
        assert abs(lhs - rhs) <= 1e-10 * scale

    @_OPERATOR_SETTINGS
    @given(case=_measurement_sets())
    def test_xi_t_dot_is_transposed_densify(self, case):
        ms, _, _ = case
        want = ms.densify().transpose(0, 2, 1)
        assert np.allclose(ms.xi_t_dot(np.eye(ms.d_r)), want, rtol=1e-10, atol=0.0)


class TestGroundTruth:
    def test_rank_one_outer_product(self):
        b = generate_ground_truth(2, 2, 1, stream(14))
        s = np.linalg.svd(b, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_paper_scale_rank(self):
        b = generate_ground_truth(50, 50, 2, stream(15))
        s = np.linalg.svd(b, compute_uv=False)
        assert int(np.sum(s > 1e-10 * s[0])) == 2

    def test_expected_squared_norm(self):
        # E ||B_L B_R^T||_F^2 = d_r * d_c * r for standard normal factors
        d_r, d_c, r = 6, 5, 2
        rng = stream(16)
        vals = [np.sum(generate_ground_truth(d_r, d_c, r, rng) ** 2) for _ in range(1000)]
        assert np.mean(vals) == pytest.approx(d_r * d_c * r, rel=0.05)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            generate_ground_truth(4, 4, 5, stream(17))


class TestGenerateDataset:
    def test_noiseless_matches_operator(self):
        spec = GaussianEnsemble(5, 5)
        b_star = generate_ground_truth(5, 5, 2, stream(18))
        ds = generate_dataset(spec, b_star, 30, 0.0, seed=19)
        assert np.array_equal(ds.y, ds.measurements.apply(b_star))

    def test_residual_variance_matches_sigma(self):
        spec = MatrixCompletion(10, 10, plain_entries=True)
        b_star = generate_ground_truth(10, 10, 2, stream(20))
        ds = generate_dataset(spec, b_star, 10_000, 1.0, seed=21)
        resid = ds.y - ds.measurements.apply(b_star)
        assert resid.var(ddof=1) == pytest.approx(1.0, rel=0.05)

    def test_seed_reproducibility(self):
        spec = FactoredMeasurement(4, 4)
        b_star = generate_ground_truth(4, 4, 1, stream(22))
        a = generate_dataset(spec, b_star, 25, 0.3, seed=9)
        b = generate_dataset(spec, b_star, 25, 0.3, seed=9)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.measurements.us, b.measurements.us)
        assert np.array_equal(a.measurements.vs, b.measurements.vs)

    def test_invalid_args(self):
        spec = GaussianEnsemble(3, 3)
        b = np.zeros((3, 3))
        with pytest.raises(ValueError):
            generate_dataset(spec, b, 0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_dataset(spec, np.zeros((2, 2)), 5, 1.0, seed=0)


class TestL2PiNorm:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{getattr(s, 'xi_mode', '')}")
    def test_identity_matrix(self, spec):
        assert spec.l2pi_norm(np.eye(6)) == pytest.approx(np.sqrt(6.0))

    def test_factored_monte_carlo_oracle(self):
        spec = FactoredMeasurement(10, 10)
        b = generate_ground_truth(10, 10, 3, stream(23))
        z = sample_inner_products(spec, b, 1_000_000, stream(24))
        assert np.mean(z**2) == pytest.approx(spec.l2pi_norm(b) ** 2, rel=0.02)

    def test_multitask_monte_carlo_oracle(self):
        spec = MultiTask(8, 8)
        b = stream(25).standard_normal((8, 8))
        z = sample_inner_products(spec, b, 1_000_000, stream(26))
        assert np.mean(z**2) == pytest.approx(spec.l2pi_norm(b) ** 2, rel=0.02)


class TestSpikinessNorm:
    def test_matrix_completion_formula(self):
        spec = MatrixCompletion(10, 10)
        b = np.zeros((10, 10))
        b[3, 4] = 0.3
        b[0, 0] = -0.2
        assert spec.spikiness_norm(b) == pytest.approx(6.0)

    def test_gaussian_formula(self):
        assert GaussianEnsemble(4, 4).spikiness_norm(np.eye(4)) == pytest.approx(4.0)

    def test_multitask_formula(self):
        spec = MultiTask(9, 9)
        b = np.zeros((9, 9))
        b[2, :] = 1.0  # row norm 3
        assert spec.spikiness_norm(b) == pytest.approx(2.0 * 3.0 * 3.0)

    def test_factored_formula(self):
        spec = FactoredMeasurement(4, 4)
        assert spec.spikiness_norm(np.eye(4)) == pytest.approx(16.0 / np.sqrt(np.log(2.0)))

    @pytest.mark.parametrize(
        "spec,p",
        [
            (MatrixCompletion(6, 6), 2),
            (MultiTask(6, 6), 2),
            (GaussianEnsemble(6, 6), 2),
            (FactoredMeasurement(6, 6), 1),
        ],
        ids=lambda v: str(v),
    )
    def test_dominates_orlicz_estimate(self, spec, p):
        rng = stream(27)
        for trial in range(20):
            b = rng.standard_normal((6, 6))
            est = estimate_orlicz(spec, b, p, 100_000, stream(28 + trial))
            assert est <= spec.spikiness_norm(b) * (1.0 + 1e-9)


class TestEnsembleConstants:
    def test_multitask_nu0(self):
        assert MultiTask(25, 25).constants().nu0 == pytest.approx(0.01)

    def test_factored_frak_c(self):
        assert FactoredMeasurement(8, 8).constants().frak_c == 53.0

    def test_gamma_all_one(self):
        for spec in (MatrixCompletion(5, 5), MultiTask(5, 5), GaussianEnsemble(5, 5), FactoredMeasurement(5, 5)):
            consts = spec.constants()
            assert consts.gamma_min == 1.0 and consts.gamma_max == 1.0

    def test_mc_nu0_brute_force(self):
        d = 6
        spec = MatrixCompletion(d, d)
        nu0 = spec.constants().nu0
        assert nu0 == pytest.approx(1.0 / (4 * d**2))
        rng = stream(29)
        best = np.inf
        for _ in range(10_000):
            b = rng.standard_normal((d, d))
            best = min(best, np.sum(b**2) / spec.spikiness_norm(b) ** 2)
        single = np.zeros((d, d))
        single[0, 0] = 1.0
        best = min(best, np.sum(single**2) / spec.spikiness_norm(single) ** 2)
        assert best == pytest.approx(nu0, rel=1e-12)
        assert best >= nu0 - 1e-15


class TestDistributionalChecks:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.kind}-{getattr(s, 'xi_mode', '')}")
    def test_isotropy(self, spec):
        b = stream(30).standard_normal(spec.shape)
        z = sample_inner_products(spec, b, 1_000_000, stream(31))
        ratio = np.mean(z**2) / np.sum(b**2)
        assert 0.95 <= ratio <= 1.05

    @pytest.mark.parametrize(
        "spec",
        [MatrixCompletion(6, 6), MultiTask(6, 6), GaussianEnsemble(6, 6), FactoredMeasurement(6, 6)],
        ids=lambda s: s.kind,
    )
    def test_truncation_constant_keeps_half_second_moment(self, spec):
        frak_c = spec.constants().frak_c
        rng = stream(32)
        for trial in range(10):
            b = rng.standard_normal((6, 6))
            b /= spec.spikiness_norm(b)
            z = sample_inner_products(spec, b, 200_000, stream(33 + trial))
            z2 = z**2
            kept = z2 * (np.abs(z) <= frak_c)
            se = np.std(kept - 0.5 * z2, ddof=1) / np.sqrt(len(z))
            assert np.mean(kept) >= 0.5 * np.mean(z2) - 3 * se


# (spec, n, all-zero responses): each spec at n=40, then for every set
# type a single row, a single column, a single observation and y = 0
ROUND_TRIPS = [pytest.param(spec, 40, False, id=f"{spec.kind}-{getattr(spec, 'xi_mode', '')}") for spec in ALL_SPECS]
ROUND_TRIPS += [
    pytest.param(cls(*shape), n, zero, id=f"{cls.kind}-{shape[0]}x{shape[1]}-n{n}" + ("-zero_y" if zero else ""))
    for cls in (MatrixCompletion, MultiTask, GaussianEnsemble, FactoredMeasurement)
    for shape, n, zero in [((1, 6), 40, False), ((6, 1), 40, False), ((6, 6), 1, False), ((6, 6), 40, True)]
]


class TestSerialization:
    @pytest.mark.parametrize("spec, n, zero_y", ROUND_TRIPS)
    def test_round_trip(self, spec, n, zero_y, tmp_path):
        b_star = generate_ground_truth(spec.d_r, spec.d_c, min(2, spec.d_r, spec.d_c), stream(34))
        ds = generate_dataset(spec, 0.0 * b_star if zero_y else b_star, n, 0.0 if zero_y else 0.5, seed=35)
        assert ds.n == n and np.any(ds.y != 0.0) != zero_y
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        back = load_dataset(path)
        assert back.spec == ds.spec
        assert back.seed == ds.seed and back.noise_sigma == ds.noise_sigma
        assert np.array_equal(back.y, ds.y)
        assert np.array_equal(back.measurements.densify(), ds.measurements.densify())

    def test_unknown_kind_rejected(self, tmp_path):
        ds = generate_dataset(MultiTask(3, 3), np.eye(3), 5, 0.1, seed=38)
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        with np.load(path) as z:
            payload = dict(z)
        payload["kind"] = np.array("bogus")
        np.savez(path, **payload)
        with pytest.raises(ValueError, match="'bogus'"):
            load_dataset(path)

    def test_subset_preserves_content(self):
        spec = MultiTask(5, 5)
        ds = generate_dataset(spec, np.eye(5), 20, 0.1, seed=36)
        idx = np.array([3, 7, 11])
        sub = ds.subset(idx)
        assert isinstance(sub, Dataset)
        assert np.array_equal(sub.y, ds.y[idx])
        b = stream(37).standard_normal((5, 5))
        assert np.allclose(sub.measurements.apply(b), ds.measurements.apply(b)[idx])


class TestFileFormat:
    @pytest.mark.parametrize("kind", list(ENSEMBLES))
    def test_file_written_before_the_dataclass_sets_loads_equal(self, kind):
        back, ds = load_dataset(FIXTURES / f"dataset_{kind}.npz"), fixture_dataset(kind)
        assert back.spec == ds.spec and type(back.measurements) is type(ds.measurements)
        assert (back.seed, back.noise_sigma, back.measurements.shape) == (ds.seed, ds.noise_sigma, ds.spec.shape)
        assert back.y.dtype == ds.y.dtype and np.array_equal(back.y, ds.y)
        new, old = (
            {key: val for key, val in vars(data.measurements).items() if isinstance(val, np.ndarray)}
            for data in (back, ds)
        )
        assert old and set(new) == set(old)
        for key, val in old.items():
            assert new[key].dtype == val.dtype and np.array_equal(new[key], val), key

    @pytest.mark.parametrize("kind", list(ENSEMBLES))
    def test_save_writes_the_keys_dtypes_and_values_of_that_file(self, kind, tmp_path):
        save_dataset(fixture_dataset(kind), tmp_path / "ds.npz")
        with np.load(FIXTURES / f"dataset_{kind}.npz") as old, np.load(tmp_path / "ds.npz") as new:
            assert new.files == old.files
            for key in old.files:
                assert new[key].dtype == old[key].dtype and np.array_equal(new[key], old[key]), key

    @pytest.mark.parametrize(
        "kind, dims",
        [("gaussian_ensemble", [4, 3]), ("gaussian_ensemble", [3, 3]), ("factored_measurement", [4, 3]),
         ("multi_task", [3, 5])],
    )
    def test_dims_that_do_not_fit_the_arrays_are_rejected(self, kind, dims, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(fixture_dataset(kind), path)
        edit_saved(path, dims=np.array(dims, dtype=np.int64))
        with pytest.raises(ValueError, match="shape"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "source, kind, missing",
        [("gaussian_ensemble", "matrix_completion", "rows"), ("matrix_completion", "gaussian_ensemble", "mats"),
         ("factored_measurement", "multi_task", "rows"), ("multi_task", "factored_measurement", "us")],
    )
    def test_arrays_of_another_set_type_are_rejected(self, source, kind, missing, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(fixture_dataset(source), path)
        edit_saved(path, kind=np.array(kind), xi_mode=np.array("gaussian_var_d2"), plain_entries=np.array(False))
        with pytest.raises(ValueError, match=f"missing field '{missing}'"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "kind, key",
        [("multi_task", "y"), ("matrix_completion", "scales"), ("matrix_completion", "xi_mode"),
         ("factored_measurement", "vs"), ("gaussian_ensemble", "dims"), ("gaussian_ensemble", "sigma"),
         ("gaussian_ensemble", "kind")],
    )
    def test_missing_field_is_named(self, kind, key, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(fixture_dataset(kind), path)
        edit_saved(path, drop=(key,))
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            load_dataset(path)


    @pytest.mark.parametrize(
        "kind, values, match",
        [("gaussian_ensemble", dict(sigma=np.array(-1.0)), "noise_sigma must be finite and non-negative"),
         ("multi_task", dict(sigma=np.array(np.nan)), "noise_sigma must be finite and non-negative"),
         ("factored_measurement", dict(n=np.array(99, dtype=np.int64)), "n=99 does not match the 6 responses"),
         ("matrix_completion", dict(plain_entries=np.array("yes")), "plain_entries must be a bool")],
        ids=["sigma-negative", "sigma-nan", "n-not-the-response-count", "plain-entries-string"],
    )
    def test_stored_values_are_checked(self, kind, values, match, tmp_path):
        path = tmp_path / "ds.npz"
        save_dataset(fixture_dataset(kind), path)
        edit_saved(path, **values)
        with pytest.raises(ValueError, match=match):
            load_dataset(path)


def corrupt_saved_indices(path, key: str, value: int) -> None:
    """Overwrite the first stored index ``key`` of a saved dataset."""
    with np.load(path) as z:
        payload = dict(z)
    payload[key] = payload[key].copy()
    payload[key][0] = value
    np.savez(path, **payload)


class TestIndexBounds:
    @pytest.mark.parametrize("rows,cols", [([-1], [0]), ([3], [0]), ([0], [-1]), ([0], [3]), ([0, 2, 5], [1, 1, 1])])
    def test_entry_set_rejects_out_of_range(self, rows, cols):
        with pytest.raises(ValueError, match="must lie in"):
            EntrySet(rows, cols, np.ones(len(rows)), 3, 3)

    @pytest.mark.parametrize("row", [-1, 3, -(2**62)])
    def test_row_vector_set_rejects_out_of_range(self, row):
        with pytest.raises(ValueError, match="rows must lie in"):
            RowVectorSet([0, row], np.ones((2, 4)), 3, 4)

    @pytest.mark.parametrize("rows,cols,field", [([0.5, 1.9], [0, 1.7], "rows"), ([0, 1], [0, 1.7], "cols"),
                                                 ([0, np.nan], [0, 1], "rows"), ([0, 1], [np.inf, 0], "cols")])
    def test_entry_set_rejects_fractional_indices(self, rows, cols, field):
        with pytest.raises(ValueError, match=f"^{field} must be integers$"):
            EntrySet(rows, cols, [1.0, 1.0], 2, 2)

    @pytest.mark.parametrize("row", [1.99, 0.5, np.nan])
    def test_row_vector_set_rejects_fractional_indices(self, row):
        with pytest.raises(ValueError, match="^rows must be integers$"):
            RowVectorSet([0, row], np.ones((2, 4)), 3, 4)

    def test_integral_float_indices_accepted(self):
        ms = EntrySet(np.zeros(6), np.ones(6), np.ones(6), 2, 2)
        assert ms.rows.dtype == ms.cols.dtype == np.int64
        assert ms.rows.tolist() == [0] * 6 and ms.cols.tolist() == [1] * 6
        assert RowVectorSet(np.array([2.0, 0.0]), np.ones((2, 4)), 3, 4).rows.tolist() == [2, 0]

    def test_in_range_and_empty_accepted(self):
        assert len(EntrySet([0, 2], [3, 0], [1.0, 2.0], 3, 4)) == 2
        assert len(EntrySet([], [], [], 3, 4)) == 0
        assert len(RowVectorSet([2, 0], np.ones((2, 4)), 3, 4)) == 2

    @pytest.mark.parametrize(
        "spec,key,value",
        [(MatrixCompletion(4, 5), "rows", -1), (MatrixCompletion(4, 5), "cols", 5), (MultiTask(4, 5), "rows", 4)],
        ids=["entry-negative-row", "entry-col-past-end", "row-vector-row-past-end"],
    )
    def test_load_dataset_rejects_corrupted_indices(self, spec, key, value, tmp_path):
        ds = generate_dataset(spec, np.ones(spec.shape), 10, 0.1, seed=39)
        path = tmp_path / "ds.npz"
        save_dataset(ds, path)
        corrupt_saved_indices(path, key, value)
        with pytest.raises(ValueError, match=f"{key} must lie in"):
            load_dataset(path)


class TestSetDeclaration:
    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_sample_batch_draws_the_declared_set_type(self, spec):
        assert type(spec.sample_batch(4, stream(5))) is spec.set_type

    @pytest.mark.parametrize("spec", ALL_SPECS)
    def test_subset_of_every_set_type(self, spec):
        ms = spec.sample_batch(12, stream(40))
        idx = np.array([9, 2, 2, 5])
        sub = ms.subset(idx)
        assert type(sub) is type(ms) and sub.shape == ms.shape and len(sub) == 4
        assert np.array_equal(sub.densify(), ms.densify()[idx])


class TestDatasetValidation:
    def make(self, y):
        ms = EntrySet([0, 1, 2], [0, 1, 2], np.ones(3), 3, 3)
        return Dataset(MatrixCompletion(3, 3, plain_entries=True), ms, np.asarray(y, dtype=float), 0.0, seed=0)

    @pytest.mark.parametrize("y", [[1.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_rejects_wrong_length(self, y):
        with pytest.raises(ValueError, match="shape"):
            self.make(y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            self.make([1.0, bad, 3.0])

    @pytest.mark.parametrize("sigma", [-1.0, np.nan, np.inf])
    def test_rejects_a_negative_or_non_finite_noise_sigma(self, sigma):
        ms = EntrySet([0, 1, 2], [0, 1, 2], np.ones(3), 3, 3)
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            Dataset(MatrixCompletion(3, 3, plain_entries=True), ms, np.ones(3), sigma, seed=0)

    @pytest.mark.parametrize(
        "spec, ms",
        [
            (MatrixCompletion(3, 3), DenseSet(np.ones((3, 3, 3)))),
            (GaussianEnsemble(3, 3), EntrySet([0], [0], [1.0], 3, 3)),
            (MultiTask(3, 3), EntrySet([0], [0], [1.0], 3, 3)),
            (FactoredMeasurement(3, 3), DenseSet(np.ones((1, 3, 3)))),
        ],
        ids=["entry-spec-dense-set", "dense-spec-entry-set", "row-spec-entry-set", "rank-one-spec-dense-set"],
    )
    def test_rejects_a_set_of_another_type(self, spec, ms):
        with pytest.raises(ValueError, match=f"needs {spec.set_type.__name__} measurements, got {type(ms).__name__}"):
            Dataset(spec, ms, np.ones(len(ms)), 0.0, seed=0)

    @pytest.mark.parametrize(
        "spec, ms",
        [
            (MatrixCompletion(3, 3), EntrySet([0], [3], [1.0], 3, 4)),
            (GaussianEnsemble(3, 3), DenseSet(np.ones((2, 4, 4)))),
            (MultiTask(3, 4), RowVectorSet([0], np.ones((1, 4)), 4, 4)),
        ],
        ids=["entry", "dense-4x4-under-3x3", "row-vector"],
    )
    def test_rejects_a_set_of_another_shape(self, spec, ms):
        with pytest.raises(ValueError, match="does not match spec"):
            Dataset(spec, ms, np.ones(len(ms)), 0.0, seed=0)
