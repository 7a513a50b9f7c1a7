"""Natural exponential families for heterogeneous data sources.

Each source is modeled by a one-parameter natural exponential family with
density ``h(x) exp(eta * x - G(eta))``.  The log-partition function ``G``
and its first two derivatives drive every likelihood computation: ``G'`` is
the mean of the distribution at natural parameter ``eta`` and ``G''`` its
variance.  Five families are supported, each with a known nuisance
parameter:

===========  ====================  ============================
family       nuisance              natural-parameter domain
===========  ====================  ============================
gaussian     variance sigma^2      all reals
binomial     trial count N         all reals (logit link)
gamma        shape alpha           eta < 0
negbinomial  success count r       eta < 0
poisson      (none)                all reals
===========  ====================  ============================

Bernoulli data is handled as ``binomial`` with a single trial.  Models also
carry ``gamma``, a sup-norm bound on the natural parameters of the source,
and ``kappa``, a tail constant; together these define the interval on which
the curvature of ``G`` is bracketed by :func:`strong_convexity_bounds`.

All operations are pure functions of their inputs and accept scalars or
arrays for the natural parameter.  Samplers take an explicit seed or
generator and never share hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

FAMILIES = ("gaussian", "binomial", "gamma", "negbinomial", "poisson")

_NEGATIVE_DOMAIN = frozenset({"gamma", "negbinomial"})
_NUISANCE_ROLE = {
    "gaussian": "variance",
    "binomial": "trial count",
    "gamma": "shape",
    "negbinomial": "success count",
}


class DomainError(ValueError):
    """Raised when a natural parameter falls outside a family's domain."""


@dataclass(frozen=True)
class ExpFamilyModel:
    """One source's distribution family with its known nuisance parameter.

    Parameters
    ----------
    family : str
        One of ``gaussian``, ``binomial``, ``gamma``, ``negbinomial``,
        ``poisson``.
    nuisance : float, optional
        Known family parameter: variance for gaussian, trial count for
        binomial, shape for gamma, success count for negbinomial.  Poisson
        has none.
    gamma : float
        Sup-norm bound on the natural parameters of the source.
    kappa : float
        Tail constant widening the interval on which the curvature of the
        log-partition function is bracketed.  Defaults to 1.
    interval : (float, float), optional
        Admissible natural-parameter interval ``(lo, hi)``.  Required for
        gamma and negbinomial, whose parameters must stay away from zero;
        both endpoints must then be negative and ``gamma`` is derived as
        ``max(|lo|, |hi|)``.
    """

    family: str
    nuisance: float | None = None
    gamma: float = 1.0
    kappa: float = 1.0
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == "poisson":
            if self.nuisance is not None:
                raise ValueError("poisson has no nuisance parameter")
        else:
            if self.nuisance is None or self.nuisance <= 0:
                role = _NUISANCE_ROLE[self.family]
                raise ValueError(f"{self.family} needs a positive {role}")
        if self.family == "binomial" and self.nuisance != int(self.nuisance):
            raise ValueError("binomial trial count must be a positive integer")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.family in _NEGATIVE_DOMAIN:
            if self.interval is None:
                raise ValueError(
                    f"{self.family} needs an admissible interval (lo, hi) "
                    "with lo <= hi < 0"
                )
            lo, hi = float(self.interval[0]), float(self.interval[1])
            if not lo <= hi < 0:
                raise ValueError(
                    "interval endpoints must have the same (negative) sign "
                    "and satisfy lo <= hi < 0"
                )
            object.__setattr__(self, "interval", (lo, hi))
            object.__setattr__(self, "gamma", max(abs(lo), abs(hi)))
        elif self.interval is not None:
            raise ValueError("interval is only meaningful for gamma/negbinomial")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    @property
    def eval_interval(self) -> tuple[float, float]:
        """Interval over which :func:`strong_convexity_bounds` brackets G''."""
        reach = self.gamma + 1.0 / self.kappa
        if self.family in _NEGATIVE_DOMAIN:
            return (-reach, self.interval[1])
        return (-reach, reach)


def _check_domain(model: ExpFamilyModel, eta) -> None:
    if model.family in _NEGATIVE_DOMAIN and np.any(np.asarray(eta) >= 0):
        raise DomainError(
            f"{model.family} natural parameter must be strictly negative"
        )


def _unwrap(out: np.ndarray):
    return out if out.ndim else float(out)


def g_value(model: ExpFamilyModel, eta):
    """Log-partition function G evaluated at natural parameter ``eta``.

    Strictly convex on the family's domain.  Raises :class:`DomainError`
    for gamma/negbinomial when any ``eta`` is nonnegative.
    """
    _check_domain(model, eta)
    eta = np.asarray(eta, dtype=float)
    k = model.family
    if k == "gaussian":
        out = 0.5 * model.nuisance * eta**2
    elif k == "binomial":
        # N * log(1 + exp(eta)), overflow-safe
        out = model.nuisance * np.logaddexp(0.0, eta)
    elif k == "gamma":
        out = -model.nuisance * np.log(-eta)
    elif k == "negbinomial":
        # -r * log(1 - exp(eta)) for eta < 0
        out = -model.nuisance * np.log(-np.expm1(eta))
    else:  # poisson
        out = np.exp(eta)
    return _unwrap(out)


def g_prime(model: ExpFamilyModel, eta):
    """First derivative G'; equals the mean of the distribution at ``eta``."""
    _check_domain(model, eta)
    eta = np.asarray(eta, dtype=float)
    k = model.family
    if k == "gaussian":
        out = model.nuisance * eta
    elif k == "binomial":
        out = model.nuisance * expit(eta)
    elif k == "gamma":
        out = -model.nuisance / eta
    elif k == "negbinomial":
        # r * exp(eta) / (1 - exp(eta))
        out = model.nuisance / np.expm1(-eta)
    else:
        out = np.exp(eta)
    return _unwrap(out)


def g_second(model: ExpFamilyModel, eta):
    """Second derivative G''; equals the variance at ``eta``."""
    _check_domain(model, eta)
    eta = np.asarray(eta, dtype=float)
    k = model.family
    if k == "gaussian":
        out = np.full_like(eta, float(model.nuisance))
    elif k == "binomial":
        p = expit(eta)
        out = model.nuisance * p * (1.0 - p)
    elif k == "gamma":
        out = model.nuisance / eta**2
    elif k == "negbinomial":
        out = model.nuisance * np.exp(eta) / np.expm1(eta) ** 2
    else:
        out = np.exp(eta)
    return _unwrap(out)


def strong_convexity_bounds(model: ExpFamilyModel) -> tuple[float, float]:
    """Curvature bracket ``(l_sq, u_sq)`` with l_sq <= G'' <= u_sq.

    The bracket holds on ``model.eval_interval``.  Gaussian, binomial,
    poisson and gamma use closed forms; the negbinomial bracket is taken as
    the grid min/max of :func:`g_second`, whose closed forms are not
    reliable in print.
    """
    k = model.family
    reach = model.gamma + 1.0 / model.kappa
    if k == "gaussian":
        return float(model.nuisance), float(model.nuisance)
    if k == "binomial":
        n = model.nuisance
        low = n * math.exp(-reach) / (1.0 + math.exp(reach)) ** 2
        return low, n / 4.0
    if k == "poisson":
        return math.exp(-reach), math.exp(reach)
    if k == "gamma":
        lo, hi = model.interval
        low = model.nuisance / reach**2
        high = model.nuisance / min(abs(lo), abs(hi)) ** 2
        return low, high
    grid = np.linspace(*model.eval_interval, 4097)
    vals = g_second(model, grid)
    return float(vals.min()), float(vals.max())


def bregman(model: ExpFamilyModel, x, y):
    """Bregman divergence of the log-partition function: G(x) - G(y) - (x-y) G'(y).

    Nonnegative, and zero exactly when ``x == y``.
    """
    gx = np.asarray(g_value(model, x), dtype=float)
    gy = np.asarray(g_value(model, y), dtype=float)
    out = gx - gy - (np.asarray(x, float) - np.asarray(y, float)) * g_prime(model, y)
    return _unwrap(np.asarray(out))


def sample(model: ExpFamilyModel, eta, rng):
    """Draw one observation per entry of ``eta``.

    ``rng`` is a seed or a ``numpy.random.Generator``; draws are
    reproducible for a fixed seed.  The empirical mean converges to
    ``g_prime(model, eta)`` and the variance to ``g_second(model, eta)``.
    """
    _check_domain(model, eta)
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    eta = np.asarray(eta, dtype=float)
    k = model.family
    if k == "gaussian":
        out = rng.normal(model.nuisance * eta, math.sqrt(model.nuisance))
    elif k == "binomial":
        out = rng.binomial(int(model.nuisance), expit(eta))
    elif k == "gamma":
        out = rng.gamma(model.nuisance, scale=-1.0 / eta)
    elif k == "negbinomial":
        out = rng.negative_binomial(model.nuisance, -np.expm1(eta))
    else:
        out = rng.poisson(np.exp(eta))
    return _unwrap(np.asarray(out, dtype=float))
