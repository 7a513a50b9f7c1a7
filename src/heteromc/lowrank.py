"""Truncated-SVD machinery: exact and approximate singular value thresholding.

The approximate path follows the warm-started subspace (power) iteration:
once an orthonormal basis Q captures the top left singular subspace of Z,
thresholding the small matrix Q^T Z, whose SVD each power step takes as
Rayleigh-Ritz pairs, reproduces the thresholding of Z itself.  Only the
singular directions above the threshold survive that step, so the iteration
stops once the Ritz subspace above the threshold has settled, whatever the
rest of Q does; the right Ritz vectors below it seed a caller's next start.
That path touches Z only through the products ``z @ x`` and ``z.T @ y``, so
Z may be a dense array or a :class:`SparsePlusLowRank` operator, which a
solver on sparsely observed data uses to never form a d_u x D matrix.
The rank-1 SVD also takes a scipy sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg, sparse


def _values(z) -> np.ndarray:
    return z.values if hasattr(z, "values") else np.asarray(z, dtype=float)


def _operand(z):
    """``z`` for code that only multiplies by it: operators and scipy sparse
    matrices pass through, anything else becomes a dense array."""
    if isinstance(z, SparsePlusLowRank) or sparse.issparse(z):
        return z
    return _values(z)


class SparsePlusLowRank:
    """The matrix ``a @ b.T + s``, applied without forming it.

    ``a`` (m x r) and ``b`` (n x r) are dense factors and ``s`` is an m x n
    scipy sparse matrix.  A product with a k-column block costs
    O(nnz(s) k + (m + n) r k) instead of the dense O(m n k).
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, s):
        if a.shape[1] != b.shape[1] or s.shape != (a.shape[0], b.shape[0]):
            raise ValueError("factor and sparse shapes disagree")
        self.a, self.b, self.s = a, b, s
        self.shape = s.shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.a @ (self.b.T @ x) + self.s @ x

    @property
    def T(self) -> "SparsePlusLowRank":
        return SparsePlusLowRank(self.b, self.a, self.s.T)


@dataclass
class ThinFactors:
    """Rank-k factorization ``u @ diag(sigma) @ v.T`` with orthonormal u, v."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.u.ndim != 2 or self.v.ndim != 2 or self.sigma.ndim != 1:
            raise ValueError("u, v must be matrices and sigma a vector")
        if not self.u.shape[1] == self.sigma.size == self.v.shape[1]:
            raise ValueError("factor widths disagree")

    @property
    def rank(self) -> int:
        return int(self.sigma.size)

    @property
    def nuclear(self) -> float:
        return float(self.sigma.sum())

    def to_matrix(self) -> np.ndarray:
        if self.rank == 0:
            return np.zeros((self.u.shape[0], self.v.shape[0]))
        return (self.u * self.sigma) @ self.v.T


def svt_exact(z, tau: float) -> ThinFactors:
    """Singular value thresholding via a full SVD.

    Returns the factors of ``U diag((sigma_i - tau)_+) V^T`` keeping only
    singular values strictly above ``tau``; ``tau >= sigma_1`` gives empty
    factors (the zero matrix).
    """
    z = _values(z)
    u, s, vt = np.linalg.svd(z, full_matrices=False)
    keep = s > tau
    return ThinFactors(u[:, keep], s[keep] - tau, vt[keep].T)


def qr_orthonormalize(m: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis for the range of ``m`` with R-diagonal >= 0.

    Columns whose R-diagonal magnitude falls below ``drop_tol`` (linearly
    dependent or zero input columns) are dropped, so the returned basis can
    be narrower than the input.  The QR is unpivoted, so a column dropped
    before a kept one still takes a direction (its residual's, or rounding
    noise), which is then projected out of the kept ones: they can span less
    than the range of ``m``.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError("need at least as many rows as columns")
    if m.shape[1] == 0:
        return m.copy()
    q, r = linalg.qr(m, mode="economic", check_finite=False)
    diag = np.diagonal(r)
    q *= np.where(diag < 0, -1.0, 1.0)
    keep = np.abs(diag) > drop_tol
    return q if keep.all() else q[:, keep]


def _subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    # ||A A^T - B B^T||_F for orthonormal A, B, in the cancellation-free
    # residual form ||A - B B^T A||_F^2 + ||B - A A^T B||_F^2
    # (B^T A)^T = A^T B, so one k_b x k_a product serves both residuals
    ba = b.T @ a
    ra = a - b @ ba
    rb = b - a @ ba.T
    return float(np.sqrt(np.sum(ra**2) + np.sum(rb**2)))


def _refill(q: np.ndarray, width: int, rng: np.random.Generator) -> np.ndarray:
    """Append random columns to the basis ``q`` until it has ``max(width, 1)``.

    The power method uses only the span of its warm start, so the new
    columns are neither orthogonalized nor normalized; they are scaled by
    1/sqrt(D) to unit expected norm, since the QR drop tolerance is absolute.
    """
    extra = max(width, 1) - q.shape[1]
    if extra <= 0:
        return q
    return np.hstack([q, rng.standard_normal((q.shape[0], extra)) / np.sqrt(q.shape[0])])


def power_method(z, r0: np.ndarray, delta: float, max_iters: int = 100,
                 lam: float = 0.0) -> tuple[np.ndarray, bool, np.ndarray, np.ndarray]:
    """Warm-started subspace iteration for the top left singular subspace of z.

    Only the span of the warm start ``r0`` matters; its columns need not be
    orthonormal.  Each step orthonormalizes ``w = z @ y`` (``y = r0`` at
    first) into ``q``, forms ``y = z.T @ q`` and the Rayleigh-Ritz pairs of
    ``Q^T Z`` by one ``eigh`` of the k x k Gram ``y.T @ y``; the Ritz
    vectors whose singular value estimate exceeds ``lam``, in descending
    order, span ``p = q @ vec``, the part of the basis that survives a
    threshold at ``lam``.  The iteration stops when consecutive ``p`` differ
    by at most ``delta`` in projector Frobenius norm, so a tail below
    ``lam`` that is still moving does not hold it up; ``lam = 0`` tests the
    whole basis.  A Ritz value crossing ``lam`` changes the width of ``p``
    and so the gap by at least 1; one step (``max_iters=1``) tests nothing.
    Returns the last step's ``(p, converged, y @ vec, tail)``: ``y @ vec ==
    z.T @ p`` has orthogonal columns whose norms are the Ritz values, and
    ``tail`` holds, as unit columns in descending order, the right Ritz
    vectors whose Ritz values are nonzero and at most ``lam``.  A
    rank-deficient step keeps the narrower basis of its numerical range, so
    ``p`` can have fewer columns than ``r0`` (none when ``z @ r0``
    vanishes).  Non-finite products raise ``LinAlgError``.  ``z`` is a dense
    matrix or anything with ``@`` and ``.T``, such as a SparsePlusLowRank.
    """
    z = _operand(z)
    r0 = np.asarray(r0, dtype=float)
    if r0.ndim != 2 or r0.shape[0] != z.shape[1] or r0.shape[1] < 1:
        raise ValueError("warm start must be a D x k matrix with k >= 1")
    if r0.shape[1] > z.shape[0]:
        raise ValueError("warm-start width exceeds the row dimension")
    y = r0
    prev_p = None
    converged = False
    # an overflow leaves non-finite values, which raise LinAlgError below
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max(max_iters, 1)):
            w = z @ y
            _require_finite(w)
            q = qr_orthonormalize(w)
            y = z.T @ q
            gram = y.T @ y
            # finite only if y is and forming it did not overflow
            _require_finite(gram)
            # the Gram's eigenvectors are the Ritz vectors of Q^T Z; a Ritz value is a
            # column norm of y @ vec, as a Gram eigenvalue squares the conditioning
            vec = np.linalg.eigh(gram)[1][:, ::-1]
            ritz = y @ vec
            sigma = np.linalg.norm(ritz, axis=0)
            above = sigma > lam
            p = q @ vec[:, above]
            if prev_p is not None and _subspace_gap(p, prev_p) <= delta:
                converged = True
                break
            prev_p = p
    below = ~above & (sigma > 0)
    return p, converged, ritz[:, above], ritz[:, below] / sigma[below]


def _require_finite(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise np.linalg.LinAlgError("power iteration produced non-finite values")


def approx_svt(z, r0: np.ndarray, lam: float, delta: float,
               max_iters: int = 100) -> tuple[ThinFactors, bool, np.ndarray]:
    """Approximate SVT: the threshold step on the power method's Ritz pairs.

    The power method stops on the subspace above ``lam`` and hands over its
    last Rayleigh-Ritz pairs (see :func:`power_method`), the SVD of the
    small ``Q^T Z``, whose singular values are the column norms of
    ``y = Z^T p``.  Returns ``(factors, converged, tail)``, the last two the
    power method's: ``converged`` is false when it stopped at ``max_iters``
    with the gap above ``delta`` or took one step, and ``tail``, its right
    Ritz vectors at or below ``lam``, is orthogonal to ``factors.v``.  With
    a warm start spanning the surviving subspace the result matches
    :func:`svt_exact`; at most ``r0.shape[1]`` singular values survive.
    Ties ``sigma_i == lam`` are excluded, matching the zero shift there.
    ``z`` may be an operator and is applied only inside the power method.
    """
    p, converged, y, tail = power_method(z, r0, delta, max_iters=max_iters, lam=lam)
    sigma = np.linalg.norm(y, axis=0)
    return ThinFactors(p, sigma - lam, y / sigma), converged, tail


def rank1_svd(y, tol: float = 1e-10, max_iters: int = 1000) -> tuple[np.ndarray, float, np.ndarray]:
    """Top singular triplet ``(u, sigma_1, v)`` by power iteration.

    ``y`` may be a scipy sparse matrix; its transpose is built once, since
    a sparse ``.T`` is a new matrix object.
    """
    y = _operand(y)
    y_t = y.T
    if not (y.count_nonzero() if sparse.issparse(y) else np.any(y)):
        raise ValueError("rank-1 SVD of a zero matrix")
    rng = np.random.default_rng(4211)
    v = rng.standard_normal(y.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    for _ in range(max(max_iters, 1)):
        u = y @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            v = rng.standard_normal(y.shape[1])
            v /= np.linalg.norm(v)
            continue
        u /= nu
        v = y_t @ u
        sigma_new = float(np.linalg.norm(v))
        v /= sigma_new
        if abs(sigma_new - sigma) <= tol * sigma_new:
            sigma = sigma_new
            break
        sigma = sigma_new
    return u, sigma, v
