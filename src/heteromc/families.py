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
Every family's ``G''`` is monotone on its domain except binomial's, which
peaks at 0, so the bracket is the min and max of ``G''`` at the interval's
two ends and at 0 when 0 lies inside.

Each family is one private record: ``G``, ``G'``, ``G''`` and a sampler as
functions of the nuisance and ``eta``, its nuisance role and its domain.
All operations are pure functions of their inputs and accept scalars or
arrays for the natural parameter.  Samplers take an explicit seed or
generator and never share hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import expit

from .jsonconf import check_number


class _Family(NamedTuple):
    role: str | None  # what the nuisance is; None when there is none
    g: Callable
    g_prime: Callable
    g_second: Callable
    sample: Callable  # (rng, nuisance, eta) -> draws
    negative: bool = False  # domain is eta < 0


_RECORDS = {
    "gaussian": _Family(
        "variance",
        lambda s, eta: 0.5 * s * eta**2,
        lambda s, eta: s * eta,
        lambda s, eta: np.full_like(eta, float(s)),
        lambda rng, s, eta: rng.normal(s * eta, math.sqrt(s))),
    "binomial": _Family(
        "trial count",
        lambda n, eta: n * np.logaddexp(0.0, eta),  # N log(1 + e^eta), overflow-safe
        lambda n, eta: n * expit(eta),
        lambda n, eta: n * expit(eta) * expit(-eta),  # 1 - expit(eta) rounds to 0 past 37
        lambda rng, n, eta: rng.binomial(int(n), expit(eta))),
    "gamma": _Family(
        "shape",
        lambda a, eta: -a * np.log(-eta),
        lambda a, eta: -a / eta,
        lambda a, eta: a / eta**2,
        lambda rng, a, eta: rng.gamma(a, scale=-1.0 / eta),
        negative=True),
    "negbinomial": _Family(
        "success count",
        lambda r, eta: -r * np.log(-np.expm1(eta)),  # -r log(1 - e^eta)
        lambda r, eta: r / np.expm1(-eta),  # r e^eta / (1 - e^eta)
        lambda r, eta: r * np.exp(eta) / np.expm1(eta) ** 2,
        lambda rng, r, eta: rng.negative_binomial(r, -np.expm1(eta)),
        negative=True),
    "poisson": _Family(
        None, *[lambda _, eta: np.exp(eta)] * 3,  # G = G' = G'' = e^eta
        lambda rng, _, eta: rng.poisson(np.exp(eta))),
}

FAMILIES = tuple(_RECORDS)


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

    Every number must be finite and none a boolean, and the curvature
    bracket of :func:`strong_convexity_bounds` must be finite and positive.
    """

    family: str
    nuisance: float | None = None
    gamma: float = 1.0
    kappa: float = 1.0
    interval: tuple[float, float] | None = None

    def __post_init__(self):
        if self.family not in _RECORDS:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        record = _RECORDS[self.family]
        # a family with a negative domain derives gamma from its interval below
        check_number("gamma", self.gamma, None if record.negative else "positive")
        check_number("kappa", self.kappa, "positive")
        if record.role is None:
            if self.nuisance is not None:
                raise ValueError(f"{self.family} has no nuisance parameter")
        else:
            check_number("nuisance", self.nuisance, "positive",
                         integer="value" if self.family == "binomial" else None)
        if record.negative:
            if self.interval is None:
                raise ValueError(
                    f"{self.family} needs an admissible interval (lo, hi) "
                    "with lo <= hi < 0"
                )
            for end in self.interval:
                check_number("interval", end)
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
        with np.errstate(all="ignore"):
            bracket = strong_convexity_bounds(self)
        if not 0 < bracket[0] <= bracket[1] < math.inf:
            key = "interval" if record.negative else "gamma"
            raise ValueError(
                f"{self.family} {key} {getattr(self, key)} with kappa {self.kappa} gives "
                f"the curvature bracket (l_sq, u_sq) = {bracket} on "
                f"{self.eval_interval}, which must be finite and positive")

    @property
    def eval_interval(self) -> tuple[float, float]:
        """Interval over which :func:`strong_convexity_bounds` brackets G''."""
        reach = self.gamma + 1.0 / self.kappa
        return (-reach, self.interval[1] if _RECORDS[self.family].negative else reach)


def _record(model: ExpFamilyModel, eta) -> _Family:
    """``model``'s family record, once ``eta`` is checked against its domain."""
    record = _RECORDS[model.family]
    if record.negative and np.any(np.asarray(eta) >= 0):
        raise DomainError(f"{model.family} natural parameter must be strictly negative")
    return record


def _unwrap(out: np.ndarray):
    return out if out.ndim else float(out)


def g_value(model: ExpFamilyModel, eta):
    """Log-partition function G evaluated at natural parameter ``eta``.

    Strictly convex on the family's domain.  Raises :class:`DomainError`
    for gamma/negbinomial when any ``eta`` is nonnegative.
    """
    return _unwrap(_record(model, eta).g(model.nuisance, np.asarray(eta, dtype=float)))


def g_prime(model: ExpFamilyModel, eta):
    """First derivative G'; equals the mean of the distribution at ``eta``."""
    return _unwrap(_record(model, eta).g_prime(model.nuisance, np.asarray(eta, dtype=float)))


def g_second(model: ExpFamilyModel, eta):
    """Second derivative G''; equals the variance at ``eta``."""
    return _unwrap(_record(model, eta).g_second(model.nuisance, np.asarray(eta, dtype=float)))


def strong_convexity_bounds(model: ExpFamilyModel) -> tuple[float, float]:
    """Curvature bracket ``(l_sq, u_sq)`` with l_sq <= G'' <= u_sq.

    The bracket holds on ``model.eval_interval`` and is tight there: it is
    the min and max of :func:`g_second` at the interval's ends and at its
    point nearest 0, since G'' is monotone on each family's domain except
    binomial's, which peaks at 0.
    """
    lo, hi = model.eval_interval
    ends = g_second(model, np.array([lo, min(hi, 0.0), hi]))
    return float(ends.min()), float(ends.max())


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
    draw = _record(model, eta).sample
    # a Generator passes through default_rng unaltered
    out = draw(np.random.default_rng(rng), model.nuisance, np.asarray(eta, dtype=float))
    return _unwrap(np.asarray(out, dtype=float))
