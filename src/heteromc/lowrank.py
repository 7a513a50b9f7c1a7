"""Truncated-SVD machinery: exact and approximate singular value thresholding.

The approximate path follows the warm-started subspace (power) iteration:
once an orthonormal basis Q captures the top left singular subspace of Z,
thresholding the small matrix Q^T Z reproduces the thresholding of Z itself.
Dense intermediates are fine at the scales this package targets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _values(z) -> np.ndarray:
    return z.values if hasattr(z, "values") else np.asarray(z, dtype=float)


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

    @classmethod
    def empty(cls, d_u: int, d: int) -> "ThinFactors":
        return cls(np.zeros((d_u, 0)), np.zeros(0), np.zeros((d, 0)))

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
    be narrower than the input.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] < m.shape[1]:
        raise ValueError("need at least as many rows as columns")
    if m.shape[1] == 0:
        return m.copy()
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r)
    q = q * np.where(diag < 0, -1.0, 1.0)
    return q[:, np.abs(diag) > drop_tol]


def _subspace_gap(a: np.ndarray, b: np.ndarray) -> float:
    # ||A A^T - B B^T||_F for orthonormal A, B, in the cancellation-free
    # residual form ||A - B B^T A||_F^2 + ||B - A A^T B||_F^2
    ra = a - b @ (b.T @ a)
    rb = b - a @ (a.T @ b)
    return float(np.sqrt(np.sum(ra**2) + np.sum(rb**2)))


def _refill(q: np.ndarray, width: int, rng: np.random.Generator) -> np.ndarray:
    """Pad the orthonormal basis ``q`` with random orthonormal columns to
    ``max(width, 1)`` columns."""
    width = max(width, 1)
    while q.shape[1] < width:
        extra = rng.standard_normal((q.shape[0], width - q.shape[1]))
        if q.shape[1]:
            extra -= q @ (q.T @ extra)
        extra = qr_orthonormalize(extra)
        if extra.shape[1] == 0:
            raise np.linalg.LinAlgError("cannot refill a degenerate basis")
        q = np.hstack([q, extra]) if q.shape[1] else extra
    return q


def power_method(z, r0: np.ndarray, delta: float,
                 max_iters: int = 100) -> tuple[np.ndarray, bool]:
    """Warm-started subspace iteration for the top left singular subspace of z.

    Stops when consecutive projectors differ by at most ``delta`` in
    Frobenius norm; returns ``(q, converged)``.  Rank-deficient
    intermediates are re-orthonormalized with a deterministic random refill.
    """
    z = _values(z)
    r0 = np.asarray(r0, dtype=float)
    if r0.ndim != 2 or r0.shape[0] != z.shape[1] or r0.shape[1] < 1:
        raise ValueError("warm start must be a D x k matrix with k >= 1")
    if r0.shape[1] > z.shape[0]:
        raise ValueError("warm-start width exceeds the row dimension")
    refill_rng = np.random.default_rng(7919)
    w = z @ r0
    prev_q = None
    converged = False
    for _ in range(max(max_iters, 1)):
        if not np.all(np.isfinite(w)):
            raise np.linalg.LinAlgError("power iteration produced non-finite values")
        q = qr_orthonormalize(w)
        if q.shape[1] < w.shape[1]:
            q = _refill(q, w.shape[1], refill_rng)
        if prev_q is not None and _subspace_gap(q, prev_q) <= delta:
            converged = True
            break
        with np.errstate(over="ignore", invalid="ignore"):
            w = z @ (z.T @ q)
        prev_q = q
    return q, converged


def approx_svt(z, r0: np.ndarray, lam: float, delta: float,
               max_iters: int = 100) -> ThinFactors:
    """Approximate SVT: power-method basis, then exact SVT of the small Q^T Z.

    With a warm start spanning the surviving subspace the result matches
    :func:`svt_exact`; at most ``r0.shape[1]`` singular values survive.
    Ties ``sigma_i == lam`` are excluded, matching the zero shift there.
    """
    z = _values(z)
    q, _ = power_method(z, r0, delta, max_iters=max_iters)
    u_small, s, vt = np.linalg.svd(q.T @ z, full_matrices=False)
    keep = s > lam
    return ThinFactors((q @ u_small)[:, keep], s[keep] - lam, vt[keep].T)


def rank1_svd(y, tol: float = 1e-10, max_iters: int = 1000) -> tuple[np.ndarray, float, np.ndarray]:
    """Top singular triplet ``(u, sigma_1, v)`` by power iteration."""
    y = _values(y)
    if not np.any(y):
        raise ValueError("rank-1 SVD of a zero matrix")
    rng = np.random.default_rng(4211)
    v = rng.standard_normal(y.shape[1])
    v /= np.linalg.norm(v)
    sigma = 0.0
    u = y @ v
    for _ in range(max_iters):
        u = y @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            v = rng.standard_normal(y.shape[1])
            v /= np.linalg.norm(v)
            continue
        u /= nu
        v = y.T @ u
        sigma_new = float(np.linalg.norm(v))
        v /= sigma_new
        if abs(sigma_new - sigma) <= tol * sigma_new:
            sigma = sigma_new
            break
        sigma = sigma_new
    return u, sigma, v
