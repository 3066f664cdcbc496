"""Measurement ensembles for trace regression.

Four sampling distributions over measurement matrices are supported,
each drawn as one structure-exploiting MeasurementSet type, so that
applying the sampling operator never materializes the dense matrices:

  - MatrixCompletion:    X = xi * e_row e_col^T   (EntrySet: one scaled entry)
  - MultiTask:           X = e_row * vec^T        (RowVectorSet: one nonzero row)
  - GaussianEnsemble:    X dense, iid standard normal entries (DenseSet)
  - FactoredMeasurement: X = u v^T                (RankOneSet: random rank-one pair)

A dataset bundles n measurements of its ensemble's set type and shape
with responses y_i = <B*, X_i> + eps_i.  A set type's dataclass fields
name its arrays, and with them the keys of the dataset file.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields, replace
from typing import Union

import numpy as np

from .linalg import matrix_norm
from .rng import stream

__all__ = [
    "MeasurementSet",
    "EntrySet",
    "RowVectorSet",
    "DenseSet",
    "RankOneSet",
    "EnsembleConstants",
    "MatrixCompletion",
    "MultiTask",
    "GaussianEnsemble",
    "FactoredMeasurement",
    "EnsembleSpec",
    "ENSEMBLES",
    "Dataset",
    "generate_ground_truth",
    "generate_dataset",
    "sample_inner_products",
    "save_dataset",
    "load_dataset",
]


# ---------------------------------------------------------------------------
# Homogeneous measurement batches (structure-of-arrays)
# ---------------------------------------------------------------------------


@functools.cache
def _declared(cls) -> tuple[str, ...]:
    """Constructor fields of dataclass ``cls`` beyond d_r, d_c: a set's arrays or an ensemble's options."""
    return tuple(f.name for f in fields(cls) if f.init and f.name not in ("d_r", "d_c"))


class MeasurementSet:
    """Batch of measurements of one kind with vectorized operator action.

    Subclasses are dataclasses (``eq=False``: array fields have no single
    truth value, so sets compare and hash by identity) whose fields are
    the set's arrays, one entry per measurement along the first axis,
    then d_r and d_c; ``len``, ``subset`` and the dataset file follow
    those fields, which ``_declared`` reads once per class.  Subclasses
    implement ``apply`` (the sampling operator), ``adjoint`` (weighted sum
    of measurement matrices) and the factor-design products used by the
    alternating solver; ``densify`` follows from ``xi_dot``.
    """

    d_r: int
    d_c: int

    def __len__(self) -> int:
        return len(getattr(self, _declared(type(self))[0]))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d_r, self.d_c)

    def apply(self, b: np.ndarray) -> np.ndarray:
        """Vector of trace inner products <b, X_i>."""
        raise NotImplementedError

    def adjoint(self, w: np.ndarray) -> np.ndarray:
        """sum_i w_i X_i as a dense d_r x d_c matrix."""
        raise NotImplementedError

    def xi_dot(self, v: np.ndarray) -> np.ndarray:
        """Stack of X_i @ v, shape (n, d_r, k) for v of shape (d_c, k)."""
        raise NotImplementedError

    def xi_t_dot(self, u: np.ndarray) -> np.ndarray:
        """Stack of X_i^T @ u, shape (n, d_c, k) for u of shape (d_r, k)."""
        raise NotImplementedError

    def densify(self) -> np.ndarray:
        """Stack of the dense X_i, shape (n, d_r, d_c); exact, since every
        entry of X_i @ I is a product with 1.0 or 0.0."""
        return self.xi_dot(np.eye(self.d_c))

    def subset(self, idx: np.ndarray) -> "MeasurementSet":
        """The measurements at ``idx``, rebuilt through the constructor's checks."""
        return replace(self, **{name: getattr(self, name)[idx] for name in _declared(type(self))})

    def _check_b(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.d_r, self.d_c):
            raise ValueError(f"matrix shape {b.shape} does not match {(self.d_r, self.d_c)}")
        return b

    def _check_w(self, w: np.ndarray) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        if w.shape != (len(self),):
            raise ValueError(f"weight length {w.shape} does not match n={len(self)}")
        return w


def _indices(name: str, values, bound: int) -> np.ndarray:
    """``values`` as int64 indices, rejecting any that is not integral or
    lies outside [0, bound) (read as unsigned, a negative int64 exceeds
    every bound).  An int64 array is used as it is, with no integrality
    pass: the samplers build every set from one."""
    with np.errstate(invalid="ignore"):  # a non-finite value fails the comparison
        idx = np.asarray(values).astype(np.int64, copy=False)
    if idx is not values and not np.array_equal(idx, values):
        raise ValueError(f"{name} must be integers")
    if idx.size and idx.view(np.uint64).max() >= bound:
        raise ValueError(f"{name} must lie in [0, {bound})")
    return idx


@dataclass(eq=False)
class EntrySet(MeasurementSet):
    rows: np.ndarray
    cols: np.ndarray
    scales: np.ndarray
    d_r: int
    d_c: int

    def __post_init__(self):
        self.d_r, self.d_c = int(self.d_r), int(self.d_c)
        self.rows = _indices("rows", self.rows, self.d_r)
        self.cols = _indices("cols", self.cols, self.d_c)
        self.scales = np.asarray(self.scales, dtype=float)
        if not (len(self.rows) == len(self.cols) == len(self.scales)):
            raise ValueError("rows, cols, scales must have equal length")
        # row-major flat index of each entry, shared by apply and adjoint;
        # not a field, so len, subset and the file format ignore it
        self._flat = self.rows * self.d_c + self.cols

    def apply(self, b):
        b = self._check_b(b)
        return self.scales * np.take(b.ravel(), self._flat)

    def adjoint(self, w):
        w = self._check_w(w)
        acc = np.bincount(self._flat, weights=w * self.scales, minlength=self.d_r * self.d_c)
        return acc.reshape(self.d_r, self.d_c)

    def xi_dot(self, v):
        n = len(self)
        out = np.zeros((n, self.d_r, v.shape[1]))
        out[np.arange(n), self.rows, :] = self.scales[:, None] * v[self.cols, :]
        return out

    def xi_t_dot(self, u):
        n = len(self)
        out = np.zeros((n, self.d_c, u.shape[1]))
        out[np.arange(n), self.cols, :] = self.scales[:, None] * u[self.rows, :]
        return out


@dataclass(eq=False)
class RowVectorSet(MeasurementSet):
    rows: np.ndarray
    vecs: np.ndarray
    d_r: int
    d_c: int

    def __post_init__(self):
        self.d_r, self.d_c = int(self.d_r), int(self.d_c)
        self.rows = _indices("rows", self.rows, self.d_r)
        self.vecs = np.asarray(self.vecs, dtype=float)
        if self.vecs.shape != (len(self.rows), self.d_c):
            raise ValueError("vecs must have shape (n, d_c)")

    def apply(self, b):
        b = self._check_b(b)
        return np.einsum("ij,ij->i", b[self.rows, :], self.vecs)

    def adjoint(self, w):
        w = self._check_w(w)
        # built per call: stored like EntrySet._flat it would hold n * d_c ints
        flat = (self.rows[:, None] * self.d_c + np.arange(self.d_c)).ravel()
        acc = np.bincount(flat, weights=(w[:, None] * self.vecs).ravel(), minlength=self.d_r * self.d_c)
        return acc.reshape(self.d_r, self.d_c)

    def xi_dot(self, v):
        n = len(self)
        out = np.zeros((n, self.d_r, v.shape[1]))
        out[np.arange(n), self.rows, :] = self.vecs @ v
        return out

    def xi_t_dot(self, u):
        return self.vecs[:, :, None] * u[self.rows, None, :]


@dataclass(eq=False)
class DenseSet(MeasurementSet):
    mats: np.ndarray
    d_r: int = field(init=False)
    d_c: int = field(init=False)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim != 3:
            raise ValueError("mats must have shape (n, d_r, d_c)")
        self.d_r, self.d_c = self.mats.shape[1], self.mats.shape[2]

    def apply(self, b):
        b = self._check_b(b)
        return self.mats.reshape(len(self), -1) @ b.ravel()

    def adjoint(self, w):
        w = self._check_w(w)
        return (w @ self.mats.reshape(len(self), -1)).reshape(self.d_r, self.d_c)

    def xi_dot(self, v):
        return self.mats @ v

    def xi_t_dot(self, u):
        return np.einsum("nij,ik->njk", self.mats, u)


@dataclass(eq=False)
class RankOneSet(MeasurementSet):
    us: np.ndarray
    vs: np.ndarray
    d_r: int = field(init=False)
    d_c: int = field(init=False)

    def __post_init__(self):
        self.us = np.asarray(self.us, dtype=float)
        self.vs = np.asarray(self.vs, dtype=float)
        if self.us.ndim != 2 or self.vs.ndim != 2 or len(self.us) != len(self.vs):
            raise ValueError("us, vs must be (n, d_r) and (n, d_c)")
        self.d_r, self.d_c = self.us.shape[1], self.vs.shape[1]

    def apply(self, b):
        b = self._check_b(b)
        return np.einsum("ij,ij->i", self.us @ b, self.vs)

    def adjoint(self, w):
        w = self._check_w(w)
        return self.us.T @ (w[:, None] * self.vs)

    def xi_dot(self, v):
        return self.us[:, :, None] * (self.vs @ v)[:, None, :]

    def xi_t_dot(self, u):
        return self.vs[:, :, None] * (self.us @ u)[:, None, :]


# ---------------------------------------------------------------------------
# Ensemble specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleConstants:
    """Distribution-level constants used by the bound calculators.

    gamma_min/gamma_max bracket E<X,B>^2 / ||B||_F^2 over all B; frak_c
    is a truncation level at which at least half the second moment of
    <X,B> is retained for every B with unit spikiness norm; nu0 is the
    infimum of ||B||_F^2 / spikiness(B)^2.
    """

    gamma_min: float
    gamma_max: float
    frak_c: float
    nu0: float


@dataclass(frozen=True)
class _EnsembleBase:
    d_r: int
    d_c: int

    def __post_init__(self):
        if self.d_r < 1 or self.d_c < 1:
            raise ValueError("dimensions must be positive")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d_r, self.d_c)

    # subclasses: kind tag of the dataset cache format; set type sample_batch draws
    kind: str = field(default="", init=False, repr=False)
    set_type = MeasurementSet

    def sample_batch(self, n: int, rng: np.random.Generator) -> MeasurementSet:
        raise NotImplementedError

    def l2pi_norm(self, b) -> float:
        """Root mean square of <X, b> under the ensemble, in closed form."""
        raise NotImplementedError

    def spikiness_norm(self, b) -> float:
        """Distribution-adapted norm bounding the tail scale of <X, b>."""
        raise NotImplementedError

    def constants(self) -> EnsembleConstants:
        raise NotImplementedError


@dataclass(frozen=True)
class MatrixCompletion(_EnsembleBase):
    """Uniformly random scaled entry observations.

    xi_mode selects the entry scale: "gaussian_var_d2" draws
    xi ~ N(0, d^2) (d = d_r here), "deterministic_d" fixes xi = d.  With
    plain_entries=True the scale is fixed at 1, so responses observe raw
    entries of the target matrix; all derived constants rescale by 1/d
    accordingly.
    """

    xi_mode: str = "gaussian_var_d2"
    plain_entries: bool = False

    kind = "matrix_completion"
    set_type = EntrySet

    def __post_init__(self):
        super().__post_init__()
        if self.xi_mode not in ("gaussian_var_d2", "deterministic_d"):
            raise ValueError(f"unknown xi_mode {self.xi_mode!r}")
        if not isinstance(self.plain_entries, (bool, np.bool_)):
            raise ValueError(f"plain_entries must be a bool, got {self.plain_entries!r}")

    def sample_batch(self, n, rng):
        rows = rng.integers(0, self.d_r, size=n)
        cols = rng.integers(0, self.d_c, size=n)
        if self.plain_entries:
            scales = np.ones(n)
        elif self.xi_mode == "deterministic_d":
            scales = np.full(n, float(self.d_r))
        else:
            scales = rng.normal(0.0, float(self.d_r), size=n)
        return EntrySet(rows, cols, scales, self.d_r, self.d_c)

    @property
    def _scale(self) -> float:
        """The entry scale |xi|: 1 with plain entries, else d_r, the root of
        E xi^2 = d_r^2 in both xi modes."""
        return 1.0 if self.plain_entries else float(self.d_r)

    def l2pi_norm(self, b):
        # E xi^2 = d^2 in both analyzed modes cancels the 1/(d_r d_c)
        # sampling weight only when d_r = d_c =: d; keep the general form.
        return float(np.sqrt(self._scale**2 / (self.d_r * self.d_c)) * matrix_norm(b, "frobenius"))

    def spikiness_norm(self, b):
        return 2.0 * self._scale * matrix_norm(b, "linf")

    def constants(self):
        gamma = self._scale**2 / (self.d_r * self.d_c)
        # Infimum of ||B||_F^2 / (2 scale ||B||_inf)^2 is attained by a
        # single-entry matrix.
        return EnsembleConstants(gamma_min=gamma, gamma_max=gamma, frak_c=9.0, nu0=1.0 / (4.0 * self._scale**2))


@dataclass(frozen=True)
class MultiTask(_EnsembleBase):
    """Uniformly random row index with a N(0, d_c * I) feature row."""

    kind = "multi_task"
    set_type = RowVectorSet

    def sample_batch(self, n, rng):
        rows = rng.integers(0, self.d_r, size=n)
        vecs = rng.normal(0.0, np.sqrt(float(self.d_r)), size=(n, self.d_c))
        return RowVectorSet(rows, vecs, self.d_r, self.d_c)

    def l2pi_norm(self, b):
        return float(matrix_norm(b, "frobenius"))

    def spikiness_norm(self, b):
        return 2.0 * np.sqrt(float(self.d_r)) * matrix_norm(b, "l_pq", p=2, q=np.inf)

    def constants(self):
        # Infimum of ||B||_F^2 / (4 d ||B||_{2,inf}^2): one nonzero row.
        return EnsembleConstants(gamma_min=1.0, gamma_max=1.0, frak_c=9.0, nu0=1.0 / (4.0 * self.d_r))


@dataclass(frozen=True)
class GaussianEnsemble(_EnsembleBase):
    """Dense iid standard normal measurement matrices."""

    kind = "gaussian_ensemble"
    set_type = DenseSet

    def sample_batch(self, n, rng):
        return DenseSet(rng.standard_normal((n, self.d_r, self.d_c)))

    def l2pi_norm(self, b):
        return float(matrix_norm(b, "frobenius"))

    def spikiness_norm(self, b):
        return 2.0 * matrix_norm(b, "frobenius")

    def constants(self):
        # nu0 = 0.1 is a conservative stated lower bound; the ratio
        # ||B||_F^2 / (2||B||_F)^2 is identically 1/4.
        return EnsembleConstants(gamma_min=1.0, gamma_max=1.0, frak_c=9.0, nu0=0.1)


@dataclass(frozen=True)
class FactoredMeasurement(_EnsembleBase):
    """Rank-one measurements u v^T with independent standard normal
    factor vectors."""

    kind = "factored_measurement"
    set_type = RankOneSet

    def sample_batch(self, n, rng):
        us = rng.standard_normal((n, self.d_r))
        vs = rng.standard_normal((n, self.d_c))
        return RankOneSet(us, vs)

    def l2pi_norm(self, b):
        return float(matrix_norm(b, "frobenius"))

    def spikiness_norm(self, b):
        # Implementable upper bound on the exponential-tail (psi_1) norm
        # of <X, b>; the exact norm is only known within a constant-factor
        # sandwich of the Frobenius norm.
        return 8.0 / np.sqrt(np.log(2.0)) * matrix_norm(b, "frobenius")

    def constants(self):
        return EnsembleConstants(gamma_min=1.0, gamma_max=1.0, frak_c=53.0, nu0=0.1)


EnsembleSpec = Union[MatrixCompletion, MultiTask, GaussianEnsemble, FactoredMeasurement]

# ensemble classes by their ``kind`` tag: the one registry behind the
# dataset cache, the experiment config and the CLI's --ensemble choices
ENSEMBLES = {cls.kind: cls for cls in (MatrixCompletion, MultiTask, GaussianEnsemble, FactoredMeasurement)}


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """n measurements with responses under the linear trace model."""

    spec: EnsembleSpec
    measurements: MeasurementSet
    y: np.ndarray
    noise_sigma: float
    seed: int

    def __post_init__(self):
        spec, ms = self.spec, self.measurements
        if not isinstance(ms, spec.set_type):
            raise ValueError(f"{spec.kind} needs {spec.set_type.__name__} measurements, got {type(ms).__name__}")
        if ms.shape != spec.shape:
            raise ValueError(f"measurement shape {ms.shape} does not match spec {spec.shape}")
        y = np.asarray(self.y)
        if y.shape != (len(self.measurements),):
            raise ValueError(f"y has shape {y.shape}, expected ({len(self.measurements)},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("y holds non-finite values")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and non-negative, got {self.noise_sigma}")

    @property
    def n(self) -> int:
        return len(self.measurements)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.spec, self.measurements.subset(idx), self.y[idx], self.noise_sigma, self.seed)


def generate_ground_truth(d_r: int, d_c: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Rank-r target: product of two factors with iid standard normal
    entries (d_r x r times r x d_c)."""
    if not 1 <= r <= min(d_r, d_c):
        raise ValueError("rank out of range")
    left = rng.standard_normal((d_r, r))
    right = rng.standard_normal((d_c, r))
    return left @ right.T


def generate_dataset(spec: EnsembleSpec, b_star, n: int, sigma: float, seed: int) -> Dataset:
    """Draw n iid measurements and responses y_i = <B*, X_i> + eps_i with
    eps_i ~ N(0, sigma^2); sigma=0 gives exact noiseless responses."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    b_star = np.asarray(b_star, dtype=float)
    if b_star.shape != spec.shape:
        raise ValueError(f"b_star shape {b_star.shape} does not match spec {spec.shape}")
    rng = stream(seed)
    ms = spec.sample_batch(n, rng)
    y = ms.apply(b_star)
    if sigma > 0:
        y = y + rng.normal(0.0, sigma, size=n)
    return Dataset(spec=spec, measurements=ms, y=y, noise_sigma=float(sigma), seed=int(seed))


def sample_inner_products(spec: EnsembleSpec, b, m: int, rng: np.random.Generator) -> np.ndarray:
    """Monte Carlo draws of <X, b> under the ensemble, computed in chunks of
    100,000 so dense ensembles never materialize all m measurement matrices."""
    b = np.asarray(b, dtype=float)
    out = np.empty(m)
    done = 0
    while done < m:
        take = min(100_000, m - done)
        ms = spec.sample_batch(take, rng)
        out[done : done + take] = ms.apply(b)
        done += take
    return out


# ---------------------------------------------------------------------------
# Dataset cache format
# ---------------------------------------------------------------------------
#
# Datasets serialize to a single .npz archive with a flat schema: "kind"
# (ensemble tag), "dims" = [d_r, d_c], "n", "seed", "sigma", "y", then
# the ensemble's option fields and its set type's array fields, each
# under its field name.  The kind alone picks the ensemble and the set
# type, so a file must hold that type's arrays, shaped to match "dims".


def save_dataset(ds: Dataset, path) -> None:
    spec, ms = ds.spec, ds.measurements
    payload: dict = {
        "kind": np.array(spec.kind),
        "dims": np.array([spec.d_r, spec.d_c], dtype=np.int64),
        "n": np.array(ds.n, dtype=np.int64),
        "seed": np.array(ds.seed, dtype=np.uint64),
        "sigma": np.array(ds.noise_sigma),
        "y": ds.y,
    }
    payload.update((name, np.array(getattr(spec, name))) for name in _declared(type(spec)))
    payload.update((name, getattr(ms, name)) for name in _declared(type(ms)))
    np.savez(path, **payload)


def load_dataset(path) -> Dataset:
    """Read a dataset written by :func:`save_dataset`; raises ValueError
    for an unknown kind, a missing field, arrays that do not fit the
    kind's set type or its dims, or an ``n`` other than ``len(y)``."""
    with np.load(path) as z:

        def read(name: str) -> np.ndarray:
            if name not in z.files:
                raise ValueError(f"{path}: missing field {name!r}")
            return z[name]

        kind = str(read("kind"))
        if kind not in ENSEMBLES:
            raise ValueError(f"{path}: unknown ensemble kind {kind!r}")
        cls = ENSEMBLES[kind]
        d_r, d_c = (int(v) for v in read("dims"))
        spec = cls(d_r, d_c, **{name: read(name).item() for name in _declared(cls)})
        dims = {"d_r": d_r, "d_c": d_c}
        init = [f.name for f in fields(cls.set_type) if f.init]
        ms = cls.set_type(**{name: dims[name] if name in dims else read(name) for name in init})
        y, n = read("y"), int(read("n"))
        if n != len(y):
            raise ValueError(f"{path}: n={n} does not match the {len(y)} responses")
        return Dataset(spec, ms, y, float(read("sigma")), int(read("seed")))
