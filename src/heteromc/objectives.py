"""Objective functions: penalized likelihood, Lipschitz risks, diagnostics.

Every data term is one sum over the observed set Omega of a per-source
pointwise loss, normalized by the full matrix size d_u * D, not by the
number of observed entries.  :class:`DataTerm` evaluates that sum and its
gradient; the likelihood, risk and Bregman functions below are instances of
it.  Since the sum only reads the parameter on Omega, it takes a dense
matrix, thin factors (gathered on Omega without forming the matrix) or the
length-nnz vector of entries on Omega itself.  Likelihood terms need family
tags on the observation set; the distribution-free path takes per-source
Lipschitz losses instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import expit

from .data import CollectiveMatrix, ObservationSet
from .families import g_prime, g_value, bregman, strong_convexity_bounds
from .lowrank import ThinFactors, _values, rank1_svd

LOSS_KINDS = ("hinge", "logistic", "quantile")

# Entries of one row tile of a factor product (2 MB of float64).  Gathering
# a rank-35 product on 450k entries of a 3000 x 3000 matrix took 24 ms with
# tiles of 2^18 entries (27-37 ms for 2^15-2^21), against 125 ms for a
# fancy-indexed einsum (2 CPUs, 1 BLAS thread).
_TILE_ENTRIES = 2**18


def _n_total(obs: ObservationSet) -> int:
    return obs.layout.d_u * obs.layout.D


def _families(obs: ObservationSet, families=None):
    families = families if families is not None else obs.families
    if families is None:
        raise ValueError("observation set carries no family tags")
    return tuple(families)


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
        or already the length-nnz vector of those entries.
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
        # Row tile by row tile: form the tile of (u sigma) v^T, then read the
        # observed entries from it, in CSR order; O(d_u D r) flops, O(tile) memory.
        if f.rank == 0:
            return np.zeros(self.obs.n)
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


def lipschitz_grad_constant(obs: ObservationSet, families=None) -> float:
    """Gradient Lipschitz constant sup G'' / (d_u D) of the likelihood term.

    The curvature bound is taken over the families' evaluation intervals,
    so the constant holds for parameters inside them.  It is also the
    solvers' data-scale step constant, :func:`~heteromc.solvers.tight_lipschitz`.
    """
    families = _families(obs, families)
    return max(strong_convexity_bounds(m)[1] for m in families) / _n_total(obs)


def grad_operator_norm(obs: ObservationSet, w) -> float:
    """Spectral norm of the likelihood gradient, by power iteration."""
    g = grad_neg_log_likelihood(obs, w).values
    if not np.any(g):
        return 0.0
    return rank1_svd(g, tol=1e-12)[1]


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


def loss_value(loss: LipschitzLoss, y, x):
    """Pointwise loss l(y, x)."""
    _check_labels(loss, y)
    out = _loss(loss, np.asarray(y, dtype=float), np.asarray(x, dtype=float))
    return out if out.ndim else float(out)


def _loss(loss: LipschitzLoss, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    if loss.kind == "hinge":
        return np.maximum(0.0, 1.0 - y * x)
    if loss.kind == "logistic":
        return np.logaddexp(0.0, -y * x)
    z = x - y
    return z * (loss.tau - (z <= 0))


def _loss_subgrad(loss: LipschitzLoss, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    if loss.kind == "hinge":
        # at the kink y*x == 1 we pick the zero-slope endpoint
        return np.where(y * x < 1.0, -y, 0.0)
    if loss.kind == "logistic":
        return -y * expit(-y * x)
    z = x - y
    return loss.tau - (z <= 0).astype(float)


def _risk_term(obs: ObservationSet, losses) -> DataTerm:
    """Empirical risk over Omega with the per-source losses' subgradients."""
    losses = tuple(losses)
    pairs = [(partial(_loss, l), partial(_loss_subgrad, l)) for l in losses]
    return DataTerm(obs, pairs, losses)


def empirical_risk(obs: ObservationSet, w, losses) -> float:
    """(1/(d_u D)) sum_Omega l^v(y, w)."""
    return _risk_term(obs, losses).value(w)


def risk_subgradient(obs: ObservationSet, w, losses) -> CollectiveMatrix:
    """A member of the risk subdifferential; entries bounded by rho/(d_u D)."""
    return CollectiveMatrix(obs.layout, _risk_term(obs, losses).grad(w))


def solver_loss_terms(loss: LipschitzLoss, smoothing: float = 1e-2):
    """Value/gradient pair with Lipschitz-continuous gradient for the solvers.

    Logistic is already smooth; quantile is replaced by its Moreau envelope
    with parameter ``smoothing`` (gradient Lipschitz constant 1/smoothing).
    Hinge has no Lipschitz gradient, so the proximal solvers reject it.
    """
    if loss.kind == "logistic":
        return partial(_loss, loss), partial(_loss_subgrad, loss)
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


@dataclass(frozen=True)
class ObjectiveValue:
    """Decomposed penalized objective: total = data_term + lam * penalty."""

    data_term: float
    penalty: float
    total: float
    lam: float

    def to_dict(self) -> dict:
        return {"data_term": self.data_term, "penalty": self.penalty,
                "total": self.total, "lambda": self.lam}


def objective_value(obs: ObservationSet, w, lam: float, mode: str = "likelihood",
                    losses=None) -> ObjectiveValue:
    """Penalized objective with either likelihood or empirical-risk data term."""
    if mode == "likelihood":
        data = neg_log_likelihood(obs, w)
    elif mode == "general_loss":
        if losses is None:
            raise ValueError("general_loss mode needs per-source losses")
        data = empirical_risk(obs, w, losses)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    penalty = nuclear_norm(w)
    return ObjectiveValue(data, penalty, data + lam * penalty, lam)


def bregman_fit(obs: ObservationSet, w_hat, w_true, families=None) -> float:
    """Masked Bregman discrepancy (1/(d_u D)) sum_Omega d_G(w_hat, w_true)."""
    pairs = [(partial(_bregman_to, m), None) for m in _families(obs, families)]
    term = DataTerm(obs, pairs)
    return term.value(w_hat, y=term.gather(w_true))


def _bregman_to(model, target, eta):
    return bregman(model, eta, target)
