"""Numerical evaluation of the quantities the error theory prescribes:
regularization-level calibration from noise draws, Rademacher operator
sketches, exponential Orlicz norm estimation, Gaussian moment helpers,
matrix-Bernstein bound evaluators, an empirical restricted strong
convexity probe, error-bound right-hand sides, and sample-size
thresholds for exact recovery.

``calibrate_lambda0`` reports every draw's noise-matrix operator norm.
The experiments need only the calibrated quantile and take it from
``_noise_quantile``, which finds the same value bit for bit by certified
screening: a draw whose norm a Cholesky certificate proves below the
running k-th largest is skipped without an eigenvalue solve.  Every
draw goes through that screen (``linalg._operator_norm_unless_below``),
which forms its Gram matrix and shifted copy in two buffers allocated
once per calibration, so all of the calibration's eigenvalue solves are
the screen's.

Absolute constants that the bounds leave unspecified are explicit
parameters defaulting to 1; values computed with the defaults are
uncalibrated and only meaningful for scaling comparisons.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import _operator_norm_unless_below, matrix_norm, operator_norm
from .sampling import Dataset, EnsembleSpec, GaussianEnsemble, sample_inner_products

__all__ = [
    "CalibrationReport",
    "RademacherSketch",
    "RscProbeReport",
    "RecoveryThreshold",
    "calibrate_lambda0",
    "rademacher_sketch",
    "estimate_orlicz",
    "gaussian_square_mgf",
    "truncation_constant",
    "bernstein_bound",
    "bernstein_expectation_bound",
    "sample_constraint_set",
    "rsc_probe",
    "error_bound_rhs",
    "exact_recovery_threshold",
]


# ---------------------------------------------------------------------------
# Regularization calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    """Empirical upper quantile of the noise-matrix operator norm.

    ``samples`` holds the raw operator-norm draws (unmultiplied);
    ``lambda0`` is multiplier times the ceil((1-quantile)*reps)-th
    largest draw, so the event lambda0 >= multiplier*||noise matrix||
    has probability about ``quantile`` on fresh data.
    """

    multiplier: float
    reps: int
    quantile: float
    lambda0: float
    samples: np.ndarray


def _quantile_rank(reps: int, quantile: float) -> int:
    """Rank k = ceil((1-quantile)*reps) of the calibrated draw, counted
    from the largest."""
    if reps < 10:
        raise ValueError("reps must be at least 10")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    return math.ceil((1.0 - quantile) * reps)


def _noise_matrices(spec: EnsembleSpec, n: int, reps: int, rng: np.random.Generator, weights):
    """The ``reps`` matrices (1/n) sum_i w_i X_i, each over a fresh size-n
    sample from ``rng`` followed by its n weights ``weights(n)``: the noise
    matrices of a calibration and the draws of a Rademacher sketch, so
    both consume their stream in one order.  Each is a fresh array,
    divided by n in place."""
    for _ in range(reps):
        ms = spec.sample_batch(n, rng)
        # w stays bound across the yield: freed before the caller's
        # eigen-solve instead, it raised a cold calibration's minor page
        # faults from 11k to 19.5k (250 draws at d=200, n=20000) and was
        # slower in 4 of 4 paired runs
        w = weights(n)
        m = ms.adjoint(w)
        m /= n
        yield m


def _gaussian_noise(sigma: float, rng: np.random.Generator):
    """The weight draw of a calibration: n N(0, sigma^2) values from
    ``rng``, or zeros at sigma = 0."""
    return lambda n: rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)


def calibrate_lambda0(
    spec: EnsembleSpec,
    n: int,
    sigma: float,
    multiplier: float,
    reps: int,
    quantile: float,
    rng: np.random.Generator,
) -> CalibrationReport:
    """Quantile calibration of the regularization level.

    Each rep draws a fresh size-n sample of measurements and noise,
    forms (1/n) sum_i eps_i X_i, and records its operator norm; the
    report's lambda0 is the multiplier times the empirical upper
    ``quantile`` of those draws.
    """
    k = _quantile_rank(reps, quantile)
    draws = np.array([operator_norm(m) for m in _noise_matrices(spec, n, reps, rng, _gaussian_noise(sigma, rng))])
    order = np.sort(draws)[::-1]
    lambda0 = float(multiplier) * float(order[k - 1])
    return CalibrationReport(
        multiplier=float(multiplier),
        reps=reps,
        quantile=float(quantile),
        lambda0=lambda0,
        samples=draws,
    )


def _noise_quantile(
    spec: EnsembleSpec, n: int, sigma: float, reps: int, quantile: float, rng: np.random.Generator
) -> float:
    """``calibrate_lambda0(spec, n, sigma, 1.0, reps, quantile, rng).lambda0``
    bit for bit, leaving ``rng`` in the same state, from only the operator
    norms that can reach it.

    The k largest norms so far sit in a min-heap, seeded with k zeros,
    whose root t is the running k-th largest.  A draw whose norm is
    certified below t cannot change the k-th largest and is skipped; only
    the others get the exact operator norm, from the Gram matrix the
    certificate already formed.  A bound of 0 certifies nothing, so each
    of the first k draws gets its norm and replaces a seed (at sigma = 0
    every norm is 0 and the seeds stay).  With draws in random order
    about k (1 + ln(reps/k)) of them get the norm.
    """
    k = _quantile_rank(reps, quantile)
    d = min(spec.shape)
    buffers = (np.empty((d, d)), np.empty((d, d)))
    top = [0.0] * k
    for m in _noise_matrices(spec, n, reps, rng, _gaussian_noise(sigma, rng)):
        value = _operator_norm_unless_below(m, top[0], buffers)
        if value is not None and value > top[0]:
            heapq.heapreplace(top, value)
    return top[0]


@dataclass(frozen=True)
class RademacherSketch:
    """Monte Carlo estimate of E||(1/n) sum_i zeta_i X_i||_op with
    independent sign flips zeta_i."""

    reps: int
    mean_op_norm: float
    draws: np.ndarray


def rademacher_sketch(spec: EnsembleSpec, n: int, reps: int, rng: np.random.Generator) -> RademacherSketch:
    if reps < 1:
        raise ValueError("reps must be at least 1")
    flipped = _noise_matrices(spec, n, reps, rng, lambda k: rng.integers(0, 2, size=k) * 2.0 - 1.0)
    draws = np.array([operator_norm(m) for m in flipped])
    return RademacherSketch(reps=reps, mean_op_norm=float(np.mean(draws)), draws=draws)


# ---------------------------------------------------------------------------
# Orlicz norms and Gaussian helpers
# ---------------------------------------------------------------------------


def estimate_orlicz(
    spec: EnsembleSpec,
    b,
    p: int,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of the exponential Orlicz norm of <X, b>:
    the smallest t with E exp((|<X,b>|/t)^p) <= 2.

    One fixed draw of inner products is reused across the whole
    geometric bisection (64 steps on the bracket
    [1e-6, 1e3] * ||b||_F), which makes the criterion monotone in t and
    the bisection well posed.  A zero matrix returns the bracket floor.
    """
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if samples < 100:
        raise ValueError("samples too small for a stable estimate")
    b = np.asarray(b, dtype=float)
    scale = matrix_norm(b, "frobenius")
    lo, hi = 1e-6 * scale, 1e3 * scale
    if scale == 0.0:
        return lo
    z = np.abs(sample_inner_products(spec, b, samples, rng))

    def feasible(t: float) -> bool:
        with np.errstate(over="ignore"):
            vals = np.exp((z / t) ** p)
            mean = float(np.mean(vals))
        return mean <= 2.0

    if not feasible(hi):
        raise ValueError("Orlicz criterion not satisfied anywhere in the bracket")
    if feasible(lo):
        return lo
    for _ in range(64):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def gaussian_square_mgf(sigma: float, eta: float) -> float:
    """E exp(eta * Z^2) for Z ~ N(0, sigma^2): 1/sqrt((1 - 2 sigma^2 eta)+),
    infinite once 2 sigma^2 eta >= 1."""
    arg = 1.0 - 2.0 * sigma**2 * eta
    if arg <= 0.0:
        return float("inf")
    return 1.0 / math.sqrt(arg)


def truncation_constant(nu: float, sigma: float, p: int) -> float:
    """Truncation level nu * max{5, [10 log(2 nu^2 / sigma^2)]^(1/p)} at
    which a psi_p random variable with norm nu and second moment sigma^2
    keeps at least half its second moment."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if nu <= 0:
        raise ValueError("nu must be positive")
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    log_arg = 10.0 * math.log(2.0 * nu**2 / sigma**2)
    alt = log_arg ** (1.0 / p) if log_arg > 0 else 0.0
    return nu * max(5.0, alt)


# ---------------------------------------------------------------------------
# Matrix Bernstein bound evaluators
# ---------------------------------------------------------------------------


def bernstein_bound(
    sigma_z: float,
    delta: float,
    n: int,
    d_r: int,
    d_c: int,
    t: float,
    c: float = 1.0,
) -> float:
    """Tail level for the operator norm of an average of n independent
    centered random matrices: c * max{ sigma_z sqrt((t+log d)/n),
    delta log(delta/sigma_z) (t+log d)/n } with d = d_r + d_c.

    sigma_z is the variance proxy and delta the exponential-moment scale.
    The constant c is unspecified by the theory and defaults to 1
    (uncalibrated).  When delta <= sigma_z the log factor would be
    non-positive; it is clamped at 1 with a warning.
    """
    if min(sigma_z, delta, n, t) <= 0:
        raise ValueError("sigma_z, delta, n, t must be positive")
    d = d_r + d_c
    log_factor = math.log(delta / sigma_z)
    if log_factor <= 0.0:
        warnings.warn("delta <= sigma_z: clamping log factor at 1", stacklevel=2)
        log_factor = 1.0
    load = (t + math.log(d)) / n
    return c * max(sigma_z * math.sqrt(load), delta * log_factor * load)


def bernstein_expectation_bound(sigma_z: float, n: int, d_r: int, d_c: int, c: float = 1.0) -> float:
    """Expectation version of the same bound:
    c * sigma_z * sqrt(2 e log(d) / n), valid once n dominates the
    exponential-moment scale.  c defaults to 1 (uncalibrated)."""
    if sigma_z <= 0 or n <= 0:
        raise ValueError("sigma_z and n must be positive")
    d = d_r + d_c
    return c * sigma_z * math.sqrt(2.0 * math.e * math.log(d) / n)


# ---------------------------------------------------------------------------
# Restricted strong convexity probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RscProbeReport:
    """Empirical restricted-strong-convexity margins.

    For each sampled candidate A in the constraint set the margin is
    (1/n)||X(A)||^2 - (gamma_min/4)||A||_F^2 + beta_emp; a violation is
    a strictly negative margin.
    """

    nu: float
    eta: float
    trials: int
    min_margin: float
    violation_count: int
    beta_emp: float


def sample_constraint_set(
    spec: EnsembleSpec, nu: float, eta: float, rng: np.random.Generator, max_attempts: int
) -> np.ndarray:
    """Draw one matrix with unit spikiness norm, squared Frobenius norm
    at least nu, and nuclear norm at most sqrt(eta) times Frobenius.

    Candidates are random rank-k factor products with k = max(eta//72, 1);
    low-rank draws satisfy the nuclear-to-Frobenius ratio automatically,
    so only the Frobenius floor is rejected on.
    """
    cand, _ = _sample_constraint_set_budgeted(spec, nu, eta, rng, max_attempts)
    return cand


def _sample_constraint_set_budgeted(
    spec: EnsembleSpec, nu: float, eta: float, rng: np.random.Generator, budget: int
) -> tuple[np.ndarray, int]:
    k = max(int(eta // 72), 1)
    d_r, d_c = spec.shape
    while budget > 0:
        budget -= 1
        cand = rng.standard_normal((d_r, k)) @ rng.standard_normal((d_c, k)).T
        denom = spec.spikiness_norm(cand)
        if denom == 0.0:
            continue
        cand = cand / denom
        fro = matrix_norm(cand, "frobenius")
        if fro**2 >= nu and matrix_norm(cand, "nuclear") <= math.sqrt(eta) * fro:
            return cand, budget
    raise ValueError("failed to sample the constraint set; nu may exceed its feasible range")


def rsc_probe(
    ds: Dataset,
    nu: float,
    eta: float,
    trials: int,
    rng: np.random.Generator,
) -> RscProbeReport:
    """Check the restricted-strong-convexity inequality on random
    candidates from the constraint set.

    beta_emp is the curvature slack (93 eta frak_c^2 / gamma_min) times
    the squared Monte Carlo mean of a 64-draw Rademacher sketch at the
    dataset's sample size.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    spec = ds.spec
    consts = spec.constants()
    sketch = rademacher_sketch(spec, ds.n, 64, rng)
    beta_emp = 93.0 * eta * consts.frak_c**2 / consts.gamma_min * sketch.mean_op_norm**2
    min_margin = math.inf
    violations = 0
    budget = 100 * trials  # shared rejection budget for the whole probe
    for _ in range(trials):
        cand, budget = _sample_constraint_set_budgeted(spec, nu, eta, rng, budget)
        vals = ds.measurements.apply(cand)
        quad = float(vals @ vals) / ds.n
        margin = quad - 0.25 * consts.gamma_min * matrix_norm(cand, "frobenius") ** 2 + beta_emp
        min_margin = min(min_margin, margin)
        if margin < 0.0:
            violations += 1
    return RscProbeReport(
        nu=float(nu),
        eta=float(eta),
        trials=trials,
        min_margin=float(min_margin),
        violation_count=violations,
        beta_emp=float(beta_emp),
    )


# ---------------------------------------------------------------------------
# Error-bound right-hand sides
# ---------------------------------------------------------------------------


def error_bound_rhs(kind: str, **params) -> float:
    """Evaluate a named error-bound right-hand side.

    kind="deterministic": (100 lam^2 r / (3 alpha^2) + 8 b_star^2 beta / alpha)
                          max'd with 4 b_star^2 nu;
                          params lam, r, alpha, beta, b_star, nu.
    kind="probabilistic": c_prime * lam^2 r / gamma_min^2;
                          params lam, r, gamma_min, c_prime (default 1).
    kind="application":   c7 * max(sigma^2, b_star^2) * rho d r / n;
                          params sigma, b_star, rho, d, r, n, c7 (default 1).

    The c_prime and c7 constants are unspecified by the theory; with the
    defaults the values are uncalibrated.
    """
    if kind == "deterministic":
        lam, r = params["lam"], params["r"]
        alpha, beta = params["alpha"], params["beta"]
        b_star, nu = params["b_star"], params["nu"]
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        return max(100.0 * lam**2 * r / (3.0 * alpha**2) + 8.0 * b_star**2 * beta / alpha, 4.0 * b_star**2 * nu)
    if kind == "probabilistic":
        lam, r, gamma_min = params["lam"], params["r"], params["gamma_min"]
        if gamma_min <= 0:
            raise ValueError("gamma_min must be positive")
        return params.get("c_prime", 1.0) * lam**2 * r / gamma_min**2
    if kind == "application":
        sigma, b_star = params["sigma"], params["b_star"]
        rho, d, r, n = params["rho"], params["d"], params["r"], params["n"]
        return params.get("c7", 1.0) * max(sigma**2, b_star**2) * rho * d * r / n
    raise ValueError(f"unknown bound kind {kind!r}")


# ---------------------------------------------------------------------------
# Exact-recovery sample thresholds
# ---------------------------------------------------------------------------


class RecoveryThreshold(NamedTuple):
    nu0: float
    n_min: int


def _sketch_dimension_factor(spec: EnsembleSpec) -> float:
    """Dimension factor of the sketch scaling model mean(n) ~ c * sqrt(f/n):
    f = d for dense Gaussian measurements (whose operator norm carries no
    log factor), f = d log d for the structured ensembles."""
    d = max(spec.d_r, spec.d_c)
    if isinstance(spec, GaussianEnsemble):
        return float(d)
    return d * math.log(d)


def exact_recovery_threshold(spec: EnsembleSpec, r: int, rng: np.random.Generator) -> RecoveryThreshold:
    """Smallest sample size at which the sketch-modelled Rademacher
    operator norm satisfies the noiseless recovery condition
    mean^2 <= gamma_min^2 nu0 / (800 frak_c^2 eta) with eta = 72 r.

    The model is mean(n) ~ c * sqrt(f/n) with the dimension factor f
    fixed per ensemble (d for dense Gaussian measurements, d log d
    otherwise); the amplitude c is fitted as the geometric mean of two
    48-rep Monte Carlo sketch runs at (base_n, 4*base_n), base_n =
    max(8d, 64).  A free-slope two point fit is deliberately avoided:
    extrapolating it across several orders of magnitude in n turns
    sketch noise in the slope into order-of-magnitude errors in the
    threshold.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    consts = spec.constants()
    eta = 72.0 * r
    target_sq = consts.gamma_min**2 * consts.nu0 / (800.0 * consts.frak_c**2 * eta)
    base_n = max(8 * max(spec.d_r, spec.d_c), 64)
    factor = _sketch_dimension_factor(spec)
    m1 = rademacher_sketch(spec, base_n, 48, rng).mean_op_norm
    m4 = rademacher_sketch(spec, 4 * base_n, 48, rng).mean_op_norm
    c1 = m1 / math.sqrt(factor / base_n)
    c4 = m4 / math.sqrt(factor / (4 * base_n))
    c = math.sqrt(c1 * c4)
    n_min = max(1, math.ceil(c**2 * factor / target_sq))
    return RecoveryThreshold(nu0=consts.nu0, n_min=int(n_min))
