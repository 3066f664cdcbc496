"""Dense matrix primitives: trace inner product, norms, SVD helpers,
singular-value soft thresholding, and row/column-space projections.

The two kernels every estimator leans on, singular-value soft
thresholding (the nuclear-norm prox) and the operator norm (the
calibrated penalty level), work on the Gram matrix a^T a of the smaller
side, a = m or m^T with min(d_r, d_c) columns.  One symmetric SVD
(``np.linalg.svd(..., hermitian=True)``, an eigensolver underneath) of
that Gram matrix costs about 0.6x a full ``gesdd`` of m with vectors at
d = 200 (single thread) and breaks even near d = 30.  Squaring the
singular values loses accuracy only in directions whose singular values
are tiny, and those enter the prox through ||a v||, which is tiny with
them: the prox is accurate to about eps * s_max / tau relative, and the
operator norm to a few eps.  A matrix whose squares overflow or fall
below the normal floats is scaled by a power of two first (``_gram``).
The nuclear norm, numerical rank, thin SVD and projectors use ``gesdd``.

Soft thresholding has one kernel, the private ``_soft_threshold_stack``:
one stacked symmetric SVD of the Gram matrices (by ``_gram``) of
same-shape matrices, each with its own tau, then per matrix one
truncated product.  ``soft_threshold`` is its one-matrix call, and the
K lockstep cross-validation folds take their prox steps in one call.

Calibration screens its noise draws with the private
``_operator_norm_unless_below``: a Cholesky factorization of the shifted
Gram matrix certifies that the operator norm lies below a bound, without
the eigenvalue solve; a draw it cannot certify takes that solve on the
same Gram matrix.

All routines are pure functions on 2-D float arrays and are safe to call
concurrently.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "SvdFactors",
    "trace_inner",
    "matrix_norm",
    "operator_norm",
    "svd",
    "numerical_rank",
    "soft_threshold",
    "project_perp",
    "project_parallel",
]

# Singular values below RANK_RTOL * s_max are treated as zero when a
# numerical rank is needed; this sits at the double-precision SVD noise
# floor.
RANK_RTOL = 1e-10


class SvdFactors(NamedTuple):
    """Thin SVD ``left @ diag(singulars) @ right.T``.

    ``left`` is d_r x k and ``right`` is d_c x k, both with orthonormal
    columns; ``singulars`` is non-increasing and non-negative.
    """

    left: np.ndarray
    singulars: np.ndarray
    right: np.ndarray

    def compose(self) -> np.ndarray:
        return (self.left * self.singulars) @ self.right.T


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _tall(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """``m`` or its transpose, whichever has no more columns than rows,
    and whether it was transposed; its Gram matrix is the smaller one."""
    wide = m.shape[0] < m.shape[1]
    return (m.T if wide else m), wide


def _check_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def trace_inner(a, b) -> float:
    """Trace inner product tr(a b^T) = sum_ij a_ij b_ij."""
    a = _as_matrix(a)
    b = _as_matrix(b)
    _check_same_shape(a, b)
    return float(np.sum(a * b))


def matrix_norm(m, kind: str, p: float | None = None, q: float | None = None) -> float:
    """Evaluate a named matrix norm.

    kind is one of:
      - "frobenius": root sum of squared entries
      - "nuclear":   sum of singular values
      - "operator":  largest singular value, the square root of the top
                     eigenvalue of the smaller Gram matrix (relative
                     error a few eps)
      - "linf":      largest absolute entry
      - "l_pq":      (sum_rows (sum_cols |m_rc|^p)^(q/p))^(1/q); the inner
                     index runs over the columns of each row.  q may be
                     inf, giving the maximum row l^p norm.
    """
    m = _as_matrix(m)
    if kind == "frobenius":
        return float(np.linalg.norm(m, "fro"))
    if kind == "nuclear":
        return float(np.sum(np.linalg.svd(m, compute_uv=False)))
    if kind == "operator":
        if min(m.shape) == 0:
            return 0.0
        g, e = _gram(m)
        return float(np.ldexp(_gram_norm(g), e))
    if kind == "linf":
        return float(np.max(np.abs(m))) if m.size else 0.0
    if kind == "l_pq":
        if p is None or q is None or p < 1 or q < 1:
            raise ValueError("l_pq norm needs p, q >= 1")
        row = np.sum(np.abs(m) ** p, axis=1) ** (1.0 / p)
        if np.isinf(q):
            return float(np.max(row))
        return float(np.sum(row**q) ** (1.0 / q))
    raise ValueError(f"unknown norm kind {kind!r}")


def operator_norm(m) -> float:
    return matrix_norm(m, "operator")


def _gram(m: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, int]:
    """(g, e): the smaller Gram matrix g = a^T a of m * 2^-e, a = m or m^T
    (see ``_tall``), into ``out`` when given (the same product, bit for
    bit).  e = 0 unless m is nonzero and its own Gram's largest diagonal
    entry lies outside [smallest normal float, half the largest] (squares
    underflow, or an entry may overflow); then 2^e scales m's largest
    entry.  Raises ValueError when m has a non-finite entry."""
    a, _ = _tall(m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        g = np.matmul(a.T, a, out=out)
    if np.finfo(float).tiny <= g.diagonal().max(initial=0.0) <= np.finfo(float).max / 2 or not a.any():
        return g, 0
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    e = int(np.frexp(np.max(np.abs(a)))[1])
    return _gram(np.ldexp(m, -e), out=g)[0], e


def _gram_norm(g: np.ndarray) -> float:
    """Operator norm of a from its Gram matrix g = a^T a: the square root of
    g's top eigenvalue (relative error a few eps)."""
    return float(np.sqrt(np.linalg.svd(g, compute_uv=False, hermitian=True)[0]))


def _operator_norm_unless_below(m, bound: float, out: tuple[np.ndarray, np.ndarray]) -> float | None:
    """None when ``operator_norm(m) < bound`` is certified, otherwise
    ``operator_norm(m)`` itself, bit for bit; both from one Gram matrix.
    ``out``, two d x d arrays, receives the Gram matrix and its shifted
    copy, so a caller screening many matrices allocates them once.

    The certificate is a completed Cholesky factorization of
    bound^2 (1 - delta) I - a^T a, with a^T a the Gram matrix that
    ``operator_norm`` forms.  The computed factor is that of a matrix
    within the Cholesky backward error (about d^2 eps bound^2 in norm,
    d = min(d_r, d_c)) of this one, so a completed factorization puts the
    Gram's top eigenvalue below bound^2 (1 - delta) plus that error; delta
    sits far above both it and the eigensolver's error.  The Gram product
    plus the Cholesky cost under half the eigenvalue solve at d = 200 (one
    thread), and an uncertified matrix reuses its Gram for that solve.
    """
    gram, shifted = out
    g, e = _gram(_as_matrix(m), out=gram)
    bound = np.ldexp(bound, -e)
    d = g.shape[0]
    delta = max(1e-8, 16.0 * d * d * np.finfo(float).eps)
    shifted = np.negative(g, out=shifted)
    shifted.flat[:: d + 1] += bound * bound * (1.0 - delta)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return float(np.ldexp(_gram_norm(g), e))
    return None


def svd(m) -> SvdFactors:
    """Thin SVD of ``m`` with singular values sorted non-increasing."""
    m = _as_matrix(m)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return SvdFactors(left=u, singulars=s, right=vh.T)


def numerical_rank(m) -> int:
    """Count singular values above RANK_RTOL times the largest one."""
    return _rank(np.linalg.svd(_as_matrix(m), compute_uv=False))


def _rank(s: np.ndarray) -> int:
    """Number of the non-increasing singular values ``s`` above RANK_RTOL
    times the largest one."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_RTOL * s[0]))


def soft_threshold(m, tau: float, singulars: np.ndarray | None = None) -> np.ndarray:
    """Shrink the singular values of ``m`` by ``tau`` (floored at zero).

    This is the proximal map of tau * nuclear norm: it minimizes
    0.5 * ||X - m||_F^2 + tau * ||X||_* over X.  When ``singulars`` is
    given (length min(m.shape)), it receives the shrunk singular values,
    non-increasing, whose sum is the nuclear norm of the result.

    With a = m (or m^T when m is wide) and a^T a = V diag(s^2) V^T from
    one symmetric SVD, the result is a V_k diag((s_k - tau) / s_k) V_k^T
    over the k singular values above tau: a matrix function of the
    min(d_r, d_c)-square Gram matrix, about 0.6x the cost of a full SVD
    of m at d = 200.  Its relative error is about eps * s_max / tau.
    It is the stacked kernel of the cross-validation folds on one matrix.
    """
    return _soft_threshold_stack([m], [tau], None if singulars is None else singulars[None])[0]


def _soft_threshold_stack(ms, taus, singulars: np.ndarray | None = None) -> list[np.ndarray]:
    """:func:`soft_threshold` of each of P same-shape matrices ``ms`` with
    its own ``taus[p]``, from one stacked ``np.linalg.svd(...,
    hermitian=True)`` of their Gram matrices (the same LAPACK solve for
    each matrix as for one alone), so a matrix's result does not depend
    on the others in the stack.  The input matrices are not copied into
    one array, which would change the memory layout of a Fortran-ordered
    one, and with it the BLAS path and the last bits of its products.
    Row p of ``singulars`` (shape (P, min(d_r, d_c))) receives the p-th
    shrunk singular values.
    """
    taus = np.asarray(taus, dtype=float)
    mats = [np.asarray(m, dtype=float) for m in ms]
    if len({m.shape for m in mats}) != 1 or mats[0].ndim != 2:
        raise ValueError("need a non-empty list of 2-D matrices of one shape")
    if taus.shape != (len(mats),):
        raise ValueError("need one tau per matrix")
    if not taus.min() >= 0:  # NaN included
        raise ValueError("tau must be non-negative")
    r = min(mats[0].shape)
    gram = np.empty((len(mats), r, r))
    # Gram p is that of m_p * 2^-e_p: its singular values shrink by
    # tau_p * 2^-e_p, and the ratios (s_k - tau) / s_k below are m_p's own
    exps = [_gram(m, out=g)[1] for m, g in zip(mats, gram)]
    taus = np.ldexp(taus, np.negative(exps)) if any(exps) else taus
    _, s2, vh = np.linalg.svd(gram, hermitian=True)
    s = np.sqrt(s2)
    shrunk = np.maximum(s - taus[:, None], 0.0)
    if singulars is not None:
        if singulars.shape != s.shape:
            raise ValueError(f"singulars buffer has shape {singulars.shape}, need {s.shape}")
        singulars[...] = np.ldexp(shrunk, np.array(exps)[:, None]) if any(exps) else shrunk
    outs = []
    for m, tau, sp, vp, shrunk_p in zip(mats, taus, s, vh, shrunk):
        # a V_k diag((s_k - tau) / s_k) V_k^T, transposed back when a is m^T
        a, wide = _tall(m)
        k = int(np.count_nonzero(sp > tau))
        vk = vp[:k].T
        out = ((a @ vk) * (shrunk_p[:k] / sp[:k])) @ vk.T
        outs.append(out.T if wide else out)
    return outs


def _span_projectors(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projectors onto the row space and column space of b."""
    u, s, vh = np.linalg.svd(b, full_matrices=False)
    k = _rank(s)
    uk = u[:, :k]
    vk = vh[:k, :].T
    return uk @ uk.T, vk @ vk.T


def project_perp(b, a) -> np.ndarray:
    """Component of ``a`` whose row and column spaces are both orthogonal
    to the singular subspaces of ``b``."""
    b = _as_matrix(b)
    a = _as_matrix(a)
    _check_same_shape(a, b)
    pu, pv = _span_projectors(b)
    iu = np.eye(b.shape[0]) - pu
    iv = np.eye(b.shape[1]) - pv
    return iu @ a @ iv


def project_parallel(b, a) -> np.ndarray:
    """Complement of :func:`project_perp`; its rank is at most twice the
    numerical rank of ``b``."""
    b = _as_matrix(b)
    a = _as_matrix(a)
    _check_same_shape(a, b)
    return a - project_perp(b, a)
