"""Data terms of the penalized objective: likelihood, Lipschitz risks, diagnostics.

Every data term is one sum over the observed set Omega of a per-source
pointwise loss, normalized by the full matrix size d_u * D, not by the
number of observed entries.  :class:`DataTerm` evaluates that sum and its
gradient; the likelihood, the empirical risk, the solvers' smooth losses
and the Bregman fit below are instances of it.  Since the sum only reads
the parameter on Omega, it takes a dense matrix, thin factors (gathered on
Omega without forming the matrix) or the length-nnz vector of entries on
Omega itself.  Likelihood terms need family tags on the observation set;
the distribution-free path takes per-source Lipschitz losses instead.  The
penalty is :func:`nuclear_norm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.sparse.linalg import svds
from scipy.special import expit

from .data import CollectiveMatrix, ObservationSet
from .families import g_prime, g_value, bregman, strong_convexity_bounds
from .jsonconf import check_finite
from .lowrank import ThinFactors, _values

LOSS_KINDS = ("hinge", "logistic", "quantile")

# Entries of one row tile of a factor product (2 MB of float64).  Gathering
# a rank-35 product on 450k entries of a 3000 x 3000 matrix takes 28 ms with
# tiles of 2^17-2^20 entries (32-37 ms at 2^15, 2^16, 2^21), against 68 ms
# for row dots over Omega.  At rank 1 a tile's product, of inner dimension
# 1, costs 3.8 ns per entry (0.7 at rank 2), so the tiles take 32 ms and
# u_i sigma v_j read on Omega 3.5 ms (medians of 15; 2 CPUs, 1 BLAS thread).
_TILE_ENTRIES = 2**18


def _n_total(obs: ObservationSet) -> int:
    return obs.layout.d_u * obs.layout.D


def _families(obs: ObservationSet):
    if obs.families is None:
        raise ValueError("observation set carries no family tags")
    return obs.families


class DataTerm:
    """(1/(d_u D)) sum over Omega of per-source pointwise losses, and its gradient.

    ``pairs[v]`` is a ``(value, grad)`` pair of elementwise functions of
    ``(y, eta)`` for source ``v``; ``grad`` may be None when only values are
    needed.  Each evaluation gathers ``eta``, the entries of ``w`` on Omega,
    once (see :meth:`gather`), applies each source's pair to its contiguous
    slice of the length-nnz vector, sums the per-source values in source
    order and scatters the gradient once.  With ``losses`` given, margin-loss
    labels are checked here, once.
    """

    def __init__(self, obs: ObservationSet, pairs, losses=None):
        pairs = tuple(pairs)
        if len(pairs) != obs.layout.V:
            raise ValueError("need one loss per source")
        self.obs = obs
        self.parts = []
        for v, pair in enumerate(pairs):
            sl = obs.source_slice(v)
            if losses is not None:
                _check_labels(losses[v], obs.y[sl])
            if sl.start < sl.stop:
                self.parts.append((sl, pair))
        self.n_total = _n_total(obs)
        self._tiles = None

    def gather(self, w) -> np.ndarray:
        """Entries of ``w`` on Omega, in observation order.

        ``w`` is a d_u x D matrix, a :class:`~heteromc.lowrank.ThinFactors`
        or already the length-nnz vector of those entries.  Rank-1 factors
        are read as u_i sigma v_j in O(nnz), higher ranks from row tiles of
        the product (see :data:`_TILE_ENTRIES`).
        """
        if isinstance(w, ThinFactors):
            return self._gather_factors(w)
        w = _values(w)
        if w.ndim == 1:
            if w.shape != (self.obs.n,):
                raise ValueError("an entry vector needs one value per observation")
            return w
        return w[self.obs.i, self.obs.cols]

    def _gather_factors(self, f: ThinFactors) -> np.ndarray:
        # Rank 1: u_i sigma v_j with the tile product's two roundings, so the
        # same bits.  Higher ranks, row tile by row tile: form the tile of
        # (u sigma) v^T, then read the observed entries from it, in CSR
        # order; O(d_u D r) flops, O(tile) memory.
        if f.rank == 0:
            return np.zeros(self.obs.n)
        if f.rank == 1:
            return np.take(f.u[:, 0] * f.sigma[0], self.obs.i) * np.take(f.v[:, 0], self.obs.cols)
        if self._tiles is None:
            order, cols, indptr = self.obs.csr_index()
            d_u, big_d = self.obs.layout.d_u, self.obs.layout.D
            rows = max(1, _TILE_ENTRIES // big_d)
            starts = np.arange(0, d_u, rows)
            flat = (self.obs.i[order] % rows) * big_d + cols
            self._tiles = (order, flat, starts, indptr[np.append(starts, d_u)], rows)
        order, flat, starts, bounds, rows = self._tiles
        us = f.u * f.sigma
        out = np.empty(self.obs.n)
        for r0, lo, hi in zip(starts, bounds[:-1], bounds[1:]):
            if lo < hi:
                out[lo:hi] = np.take(us[r0:r0 + rows] @ f.v.T, flat[lo:hi])
        eta = np.empty_like(out)
        eta[order] = out
        return eta

    def value(self, w, y=None) -> float:
        """Normalized data term at ``w``; ``y`` replaces the observed values."""
        eta = self.gather(w)
        y = self.obs.y if y is None else y
        total = 0.0
        for sl, (fn, _) in self.parts:
            total += float(np.sum(fn(y[sl], eta[sl])))
        return total / self.n_total

    def grad_on_omega(self, w) -> np.ndarray:
        """The gradient's entries on Omega, in observation order."""
        eta = self.gather(w)
        g = np.empty_like(eta)
        for sl, (_, fn) in self.parts:
            g[sl] = fn(self.obs.y[sl], eta[sl])
        return g / self.n_total

    def grad(self, w) -> np.ndarray:
        """Dense d_u x D gradient; zero off the observed support."""
        out = np.zeros((self.obs.layout.d_u, self.obs.layout.D))
        out[self.obs.i, self.obs.cols] = self.grad_on_omega(w)
        return out


def _likelihood_pair(model):
    # negative log-likelihood G(eta) - y * eta and its derivative G'(eta) - y
    return (lambda y, eta: g_value(model, eta) - y * eta,
            lambda y, eta: g_prime(model, eta) - y)


def _likelihood_term(obs: ObservationSet) -> DataTerm:
    """Likelihood-mode data term: the negative log-likelihood over Omega."""
    return DataTerm(obs, [_likelihood_pair(m) for m in _families(obs)])


def neg_log_likelihood(obs: ObservationSet, w) -> float:
    """Negative log-likelihood -(1/(d_u D)) sum_Omega (y * w - G(w))."""
    return _likelihood_term(obs).value(w)


def grad_neg_log_likelihood(obs: ObservationSet, w) -> CollectiveMatrix:
    """Gradient of the likelihood term; zero off the observed support."""
    return CollectiveMatrix(obs.layout, _likelihood_term(obs).grad(w))


def lipschitz_grad_constant(obs: ObservationSet) -> float:
    """Gradient Lipschitz constant sup G'' / (d_u D) of the likelihood term.

    The curvature bound is taken over the families' evaluation intervals,
    so the constant holds for parameters inside them.  It is the likelihood
    mode's step constant in :func:`~heteromc.solvers.tight_lipschitz`.
    """
    return max(strong_convexity_bounds(m)[1] for m in _families(obs)) / _n_total(obs)


def grad_operator_norm(obs: ObservationSet, w) -> float:
    """Spectral norm of the likelihood gradient, by ARPACK's ``svds``.

    The gradient vanishes off Omega, so ``svds`` runs, from a fixed start
    vector, on its sparse d_u x D matrix and no dense one is formed.
    """
    g = _likelihood_term(obs).grad_on_omega(w)
    if not np.any(g):
        return 0.0
    csr = obs.to_csr(g)
    if min(csr.shape) == 1:  # svds needs k < min(shape); a vector's norm is its own
        return float(np.linalg.norm(g))
    v0 = np.random.default_rng(4211).standard_normal(min(csr.shape))
    return float(svds(csr, k=1, v0=v0, return_singular_vectors=False)[0])


@dataclass(frozen=True)
class LipschitzLoss:
    """A per-source loss that is rho-Lipschitz in its second argument."""

    kind: str
    tau: float | None = None
    rho: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss {self.kind!r}; expected one of {LOSS_KINDS}")
        if self.kind == "quantile":
            if self.tau is None or not 0 < self.tau < 1:
                raise ValueError("quantile loss needs tau in (0, 1)")
        elif self.tau is not None:
            raise ValueError(f"{self.kind} loss takes no tau")
        check_finite("rho", self.rho)
        if self.rho <= 0:
            raise ValueError("rho must be positive")

    @classmethod
    def hinge(cls) -> "LipschitzLoss":
        return cls("hinge")

    @classmethod
    def logistic(cls) -> "LipschitzLoss":
        return cls("logistic")

    @classmethod
    def quantile(cls, tau: float) -> "LipschitzLoss":
        return cls("quantile", tau=tau)


def _check_labels(loss: LipschitzLoss, y) -> None:
    if loss.kind in ("hinge", "logistic"):
        y = np.asarray(y)
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError(f"{loss.kind} loss needs labels in {{-1, +1}}")


def _loss(loss: LipschitzLoss, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    if loss.kind == "hinge":
        return np.maximum(0.0, 1.0 - y * x)
    if loss.kind == "logistic":
        return np.logaddexp(0.0, -y * x)
    z = x - y
    return z * (loss.tau - (z <= 0))


def empirical_risk(obs: ObservationSet, w, losses) -> float:
    """(1/(d_u D)) sum_Omega l^v(y, w)."""
    losses = tuple(losses)
    return DataTerm(obs, [(partial(_loss, l), None) for l in losses], losses).value(w)


def solver_loss_terms(loss: LipschitzLoss, smoothing: float = 1e-2):
    """Value/gradient pair with Lipschitz-continuous gradient for the solvers.

    Logistic is already smooth; quantile is replaced by its Moreau envelope
    with parameter ``smoothing`` (gradient Lipschitz constant 1/smoothing).
    Hinge has no Lipschitz gradient, so the proximal solvers reject it.
    """
    if loss.kind == "logistic":
        return partial(_loss, loss), lambda y, x: -y * expit(-y * x)
    if loss.kind == "quantile":
        tau, m = loss.tau, float(smoothing)
        if m <= 0:
            raise ValueError("smoothing must be positive")
        lo, hi = m * (tau - 1.0), m * tau

        def value(y, x):
            z = x - y
            quad = z**2 / (2.0 * m)
            upper = tau * z - 0.5 * m * tau**2
            lower = (tau - 1.0) * z - 0.5 * m * (tau - 1.0) ** 2
            return np.where(z > hi, upper, np.where(z < lo, lower, quad))

        def grad(y, x):
            return np.clip((x - y) / m, tau - 1.0, tau)

        return value, grad
    raise ValueError(
        "hinge loss has no Lipschitz gradient; the proximal solvers support "
        "logistic and smoothed quantile losses"
    )


def solver_loss_curvature(loss: LipschitzLoss, smoothing: float = 1e-2) -> float:
    """Lipschitz constant of :func:`solver_loss_terms`' gradient; hinge has none."""
    return {"logistic": 0.25, "quantile": 1.0 / smoothing}[loss.kind]


def map_binary_labels(obs: ObservationSet, losses) -> ObservationSet:
    """Recode 0/1 observations as -1/+1 for margin-based losses.

    Sources whose loss is hinge or logistic and whose values are all in
    {0, 1} get ``y -> 2y - 1``; sources already in {-1, +1} (or under other
    losses) pass through unchanged.
    """
    losses = tuple(losses)
    if len(losses) != obs.layout.V:
        raise ValueError("need one loss per source")
    margin = np.array([l.kind in ("hinge", "logistic") for l in losses])
    non_binary = np.bincount(obs.v, weights=~np.isin(obs.y, (0.0, 1.0)),
                             minlength=obs.layout.V)
    recode = (margin & (non_binary == 0))[obs.v]
    return obs.with_y(np.where(recode, 2.0 * obs.y - 1.0, obs.y))


def nuclear_norm(w) -> float:
    """Sum of singular values, via a full SVD."""
    return float(np.linalg.svd(_values(w), compute_uv=False).sum())


def bregman_fit(obs: ObservationSet, w_hat, w_true) -> float:
    """Masked Bregman discrepancy (1/(d_u D)) sum_Omega d_G(w_hat, w_true)."""
    pairs = [(partial(_bregman_to, m), None) for m in _families(obs)]
    term = DataTerm(obs, pairs)
    return term.value(w_hat, y=term.gather(w_true))


def _bregman_to(model, target, eta):
    return bregman(model, eta, target)
