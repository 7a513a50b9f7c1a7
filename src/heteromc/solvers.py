"""Proximal solvers for nuclear-norm penalized completion.

Three drivers share one objective: a plain proximal-gradient step, an
accelerated solver with exact SVT, and the main accelerated inexact solver
that combines warm-started approximate SVT with a continuation schedule on
the regularization weight and a restart whenever the objective increases.

The data term is normalized by d_u * D, so its gradient varies on the scale
sup G'' / (d_u D).  The ``lipschitz`` knob defaults to 1, a valid bound
whenever that curvature ratio is below one, but step sizes (and the
continuation thresholds, which are expressed in penalty units as
``lipschitz * sigma_1``) only match the data scale when ``lipschitz`` is
set near the true constant; :func:`tight_lipschitz` computes it and the
benchmark harness uses it everywhere.

The inexact solver keeps every iterate as thin factors and evaluates the
data term on Omega from them.  Its SVT input Z = X - grad(X) / L, at the
extrapolated point X, takes the gradient from X's entries on Omega and is
either built as a dense matrix or, on sparsely observed data, applied as
the operator "low rank + sparse on Omega"
(:class:`~heteromc.lowrank.SparsePlusLowRank`), so no d_u x D array is
formed there and memory stays O(nnz + (d_u + D) r).
:data:`DENSE_Z_MIN_DENSITY` chooses between the two.  The exact-SVT
drivers stay dense, since a full SVD needs the matrix.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .data import CollectiveMatrix, ObservationSet, estimate_mu
from .families import strong_convexity_bounds
from .lowrank import (
    SparsePlusLowRank,
    ThinFactors,
    _refill,
    approx_svt,
    qr_orthonormalize,
    rank1_svd,
    svt_exact,
)
from .objectives import (
    DataTerm,
    LipschitzLoss,
    _likelihood_term,
    grad_neg_log_likelihood,
    lipschitz_grad_constant,
    neg_log_likelihood,
    nuclear_norm,
    solver_loss_terms,
)

# Observed fraction nnz / (d_u D) above which plais_impute builds Z densely.
# One power step Z Z^T Q with a width-20 low-rank part, dense vs structured
# (2 CPUs, 1 BLAS thread; the scipy sparse product is single-threaded):
#   3000 x 3000,  p=0.05, k=30:   61 vs  16 ms
#   2000 x 2100,  p=0.1,  k=40:   29 vs  18 ms;  k=100: 55 vs 49 ms;
#                         k=300: 108 vs 113 ms
#   300 x 300,    p=0.2,  k=140: 1.4 vs 2.7 ms;  p=0.6, k=30: 0.5 vs 1.8 ms
# A whole 2000 x 2100, p=0.1 fit (basis up to 338 wide) took 10.1-11.1 s
# dense and 9.7-9.8 s structured, so p=0.1 is about a wash and the
# desk-scale sizes need the dense form; the crossover sits between 0.05
# and 0.1.
DENSE_Z_MIN_DENSITY = 0.075


class NumericalError(RuntimeError):
    """A solve produced a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers.

    ``lam`` may be the string ``"auto"``, in which case the regularization
    weight comes from :func:`lambda_heuristic` (likelihood mode) or
    :func:`lambda_general_loss`.  ``nu`` is the continuation decay, and
    ``init_rank`` pads the first warm start of the inexact solver (set it to
    five times the expected rank to reproduce the learning-rank behaviour).
    """

    lam: float | str = "auto"
    nu: float = 0.7
    epsilon: float = 1e-6
    max_iters: int = 500
    lipschitz: float = 1.0
    gamma: float = 1.0
    mode: str = "likelihood"
    losses: tuple[LipschitzLoss, ...] | None = None
    constant_c: float = 1.0
    init_rank: int | None = None
    warm_slack: int = 5
    basis_drop: float = 1e-10
    smoothing: float = 1e-2
    clip_final: bool = False
    momentum: bool = True

    def validate(self) -> None:
        if not 0 < self.nu < 1:
            raise ValueError("nu must lie in (0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.lipschitz <= 0:
            raise ValueError("lipschitz must be positive")
        if self.lam != "auto" and float(self.lam) < 0:
            raise ValueError("lambda must be nonnegative")
        if self.mode not in ("likelihood", "general_loss"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "general_loss" and not self.losses:
            raise ValueError("general_loss mode needs per-source losses")
        if self.warm_slack < 0 or (self.init_rank is not None and self.init_rank < 1):
            raise ValueError("warm_slack must be >= 0 and init_rank >= 1")
        if self.basis_drop <= 0:
            raise ValueError("basis_drop must be positive")


@dataclass
class FitResult:
    """Full trace of one solve.

    ``rank_history`` records the surviving rank of each accepted iterate,
    ``input_rank_history`` the width of the subspace carried between
    iterations by the inexact solver (slack padding excluded), and
    ``restarts`` the iterations where the objective increased and the
    momentum counter was reset.
    """

    factors: ThinFactors
    rank_history: list[int]
    objective_history: list[float]
    restarts: list[int]
    wall_time: float
    terminated_by: str
    lambda_used: float
    input_rank_history: list[int] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    config: SolverConfig | None = None

    def to_dict(self) -> dict:
        return {
            "config": config_to_dict(self.config) if self.config else None,
            "lambda": self.lambda_used,
            "objective_history": list(self.objective_history),
            "rank_history": list(self.rank_history),
            "input_rank_history": list(self.input_rank_history),
            "restarts": list(self.restarts),
            "terminated_by": self.terminated_by,
            "wall_time_ms": self.wall_time * 1e3,
            "flags": list(self.flags),
        }


# JSON key of each SolverConfig field whose key differs from its name
_CONFIG_KEYS = {"lam": "lambda"}


def config_to_dict(cfg: SolverConfig) -> dict:
    out = {_CONFIG_KEYS.get(f.name, f.name): getattr(cfg, f.name) for f in fields(cfg)}
    if cfg.losses is not None:
        out["losses"] = [asdict(l) for l in cfg.losses]
    return out


def config_from_dict(d: dict) -> SolverConfig:
    """Inverse of :func:`config_to_dict`; a missing key takes the field default."""
    kwargs = {f.name: d[key] for f in fields(SolverConfig)
              if (key := _CONFIG_KEYS.get(f.name, f.name)) in d}
    if kwargs.get("losses") is not None:
        kwargs["losses"] = tuple(LipschitzLoss(**l) for l in kwargs["losses"])
    return SolverConfig(**kwargs)


def lambda_heuristic(obs: ObservationSet, families=None, constant_c: float = 1.0) -> float:
    """Regularization weight 2c (U v K)(sqrt(mu) + log(d_u v D)^{3/2}) / (d_u D)."""
    if constant_c <= 0:
        raise ValueError("constant_c must be positive")
    families = tuple(families) if families is not None else obs.families
    if families is None:
        raise ValueError("need family tags to size the regularization weight")
    mu = estimate_mu(obs)
    u_gamma = max(math.sqrt(strong_convexity_bounds(m)[1]) for m in families)
    kappa = max(m.kappa for m in families)
    d_u, big_d = obs.layout.d_u, obs.layout.D
    log_term = math.log(max(d_u, big_d)) ** 1.5
    return 2.0 * constant_c * max(u_gamma, kappa) * (math.sqrt(mu) + log_term) / (d_u * big_d)


def lambda_general_loss(obs: ObservationSet, losses, constant_c: float = 1.0) -> float:
    """Distribution-free weight 2c rho (sqrt(mu) + sqrt(log(d_u v D))) / (d_u D)."""
    if constant_c <= 0:
        raise ValueError("constant_c must be positive")
    rho = max(l.rho for l in losses)
    mu = estimate_mu(obs)
    d_u, big_d = obs.layout.d_u, obs.layout.D
    log_term = math.sqrt(math.log(max(d_u, big_d)))
    return 2.0 * constant_c * rho * (math.sqrt(mu) + log_term) / (d_u * big_d)


def lambda_calibration_sweep(obs: ObservationSet, families=None,
                             constants=(0.25, 0.5, 1.0, 2.0, 4.0)) -> dict[float, float]:
    """Heuristic weight at a ladder of constants, for calibration runs."""
    return {c: lambda_heuristic(obs, families, constant_c=c) for c in constants}


def theory_bound(kind: str, params: dict) -> float:
    """Reference error-rate curve evaluated at user-supplied constants.

    ``kind="expfam"`` gives the normalized squared-Frobenius rate for the
    likelihood estimator, ``kind="general"`` the excess-risk rate for
    Lipschitz losses.  Only used to draw curves next to empirical errors.
    """
    c = params.get("constant_c", 1.0)
    d_u, big_d = params["d_u"], params["D"]
    p, rank, mu = params["p"], params["rank"], params["mu"]
    logd = math.log(max(d_u, big_d))
    if kind == "expfam":
        u_or_k = max(math.sqrt(params["U2"]), params.get("K", 1.0))
        factor = params["gamma"] ** 2 + u_or_k**2 / params["L2"] ** 2
        return c * rank * factor * (mu + logd**3) / (p**2 * d_u * big_d)
    if kind == "general":
        rho, varsigma = params["rho"], params["varsigma"]
        factor = rho**2 + rho**1.5 * math.sqrt(params["gamma"] / varsigma)
        return c * rank * factor * (mu + logd) / (p * d_u * big_d)
    raise ValueError(f"unknown bound kind {kind!r}")


# The data-scale step constant sup G'' / (d_u D) is the likelihood gradient's
# Lipschitz constant; the solvers and the harness know it by this name.
tight_lipschitz = lipschitz_grad_constant


def resolve_lambda(obs: ObservationSet, cfg: SolverConfig) -> float:
    if cfg.lam == "auto":
        if cfg.mode == "likelihood":
            return lambda_heuristic(obs, constant_c=cfg.constant_c)
        return lambda_general_loss(obs, cfg.losses, constant_c=cfg.constant_c)
    return float(cfg.lam)


def _data_terms(obs: ObservationSet, cfg: SolverConfig):
    """``(term, value, grad)`` for the configured data term.

    ``term`` is its :class:`DataTerm`; ``value`` and the dense ``grad`` are
    callables (likelihood mode calls the likelihood functions by name).
    """
    if cfg.mode == "likelihood":
        return (
            _likelihood_term(obs),
            lambda w: neg_log_likelihood(obs, w),
            lambda w: grad_neg_log_likelihood(obs, w).values,
        )
    pairs = [solver_loss_terms(l, cfg.smoothing) for l in cfg.losses]
    term = DataTerm(obs, pairs, cfg.losses)
    return term, term.value, term.grad


def pg_step(w: CollectiveMatrix, obs: ObservationSet, lam: float,
            lipschitz: float = 1.0) -> CollectiveMatrix:
    """One proximal-gradient step: SVT of the forward gradient step."""
    z = w.values - grad_neg_log_likelihood(obs, w).values / lipschitz
    return CollectiveMatrix(w.layout, svt_exact(z, lam / lipschitz).to_matrix())


def _check_finite(value: float) -> float:
    if not math.isfinite(value):
        raise NumericalError("objective became non-finite")
    return value


def _finalize(factors: ThinFactors, cfg: SolverConfig, flags: list[str]) -> ThinFactors:
    if cfg.clip_final:
        w = factors.to_matrix()
        clipped = np.clip(w, -cfg.gamma, cfg.gamma)
        if not np.array_equal(clipped, w):
            flags.append("clipped")
            return svt_exact(clipped, 0.0)
    return factors


def apg_solve(obs: ObservationSet, cfg: SolverConfig | None = None) -> FitResult:
    """Accelerated proximal gradient with exact SVT at a fixed weight.

    Starts from the observed matrix; each iteration extrapolates with the
    Nesterov momentum sequence, takes a gradient step of length
    1/lipschitz and soft-thresholds the singular values at lam/lipschitz.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    start = time.perf_counter()
    y_dense = obs.dense_y()
    if obs.n == 0 or not np.any(y_dense):
        raise ValueError("solver needs nonzero observations to initialize")
    lam = resolve_lambda(obs, cfg)
    big_l = cfg.lipschitz
    _, value, grad = _data_terms(obs, cfg)

    w_prev = y_dense.copy()
    w_cur = y_dense
    a_prev = a_cur = 1.0
    f_cur = _check_finite(value(w_cur) + lam * nuclear_norm(w_cur))
    objective_history = [f_cur]
    rank_history: list[int] = []
    factors: ThinFactors | None = None
    terminated_by = "max_iters"
    for _ in range(1, cfg.max_iters + 1):
        theta = (a_prev - 1.0) / a_cur if cfg.momentum else 0.0
        q = w_cur + theta * (w_cur - w_prev)
        z = q - grad(q) / big_l
        factors = svt_exact(z, lam / big_l)
        w_next = factors.to_matrix()
        f_next = _check_finite(value(w_next) + lam * factors.nuclear)
        rank_history.append(factors.rank)
        objective_history.append(f_next)
        w_prev, w_cur = w_cur, w_next
        a_prev, a_cur = a_cur, 0.5 * (math.sqrt(4.0 * a_cur**2 + 1.0) + 1.0)
        stop = abs(f_next - f_cur) <= cfg.epsilon
        f_cur = f_next
        if stop:
            terminated_by = "tolerance"
            break
    flags: list[str] = []
    if factors is None:
        factors = svt_exact(w_cur, 0.0)
    if factors.rank == 0:
        flags.append("zero_solution")
    factors = _finalize(factors, cfg, flags)
    return FitResult(
        factors=factors,
        rank_history=rank_history,
        objective_history=objective_history,
        restarts=[],
        wall_time=time.perf_counter() - start,
        terminated_by=terminated_by,
        lambda_used=lam,
        flags=flags,
        config=cfg,
    )


def _warm_basis(v_cur: np.ndarray, v_prev: np.ndarray,
                drop_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the span of the current and previous right bases.

    The current columns come first, so truncation to D columns keeps them,
    and the R diagonal on each previous column is the norm of its residual
    against the columns before it; residual directions whose norm falls
    below ``drop_tol`` carry no usable warm-start information and are
    dropped.
    """
    return qr_orthonormalize(np.hstack([v_cur, v_prev])[:, :v_cur.shape[0]], drop_tol)


def _extrapolate(cur: ThinFactors, prev: ThinFactors, theta: float):
    """Factors ``(a, b)`` with ``a @ b.T == (1 + theta) cur - theta prev``."""
    a = cur.u * ((1.0 + theta) * cur.sigma)
    if theta == 0.0:
        return a, cur.v
    return (np.hstack([a, prev.u * (-theta * prev.sigma)]),
            np.hstack([cur.v, prev.v]))


def plais_impute(obs: ObservationSet, cfg: SolverConfig | None = None,
                 iter_callback=None) -> FitResult:
    """Accelerated inexact solver with continuation, warm starts and restarts.

    The per-iteration weight decays as nu^t (lam0 - lam) + lam from
    lam0 = lipschitz * sigma_1(Y) down to the target lam, so the SVT
    threshold sweeps from sigma_1(Y) to lam/lipschitz.  The approximate SVT
    is warm-started from the span of the right bases of the last two
    iterates, padded with random columns to ``init_rank`` on the first
    iteration and by ``warm_slack`` columns throughout.  The extrapolation
    weight is theta = (c - 1) / (c + 2) with ``momentum`` and 0 without;
    the counter c resets whenever the objective at the target weight
    increases.  Iterations stop when that objective's change falls within
    ``epsilon``.

    Iterates are thin factors, and the data term is evaluated on Omega
    from them.  The gradient at the extrapolated point is taken from its
    entries on Omega, (1 + theta) eta_t - theta eta_{t-1}, computed from the
    cached entries of the last two iterates.  Z is dense when the observed
    fraction exceeds :data:`DENSE_Z_MIN_DENSITY` and an operator otherwise;
    that choice sets only Z's storage, and both give the same iterates up
    to rounding.  ``flags`` gains ``"power_not_converged"`` when any power
    method stopped at its iteration cap.

    ``iter_callback(t, lam_t, rank, objective)`` is invoked once per
    iteration when given.
    """
    cfg = cfg if cfg is not None else SolverConfig()
    cfg.validate()
    start = time.perf_counter()
    layout = obs.layout
    if obs.n == 0 or not np.any(obs.y):
        raise ValueError("solver needs nonzero observations to initialize")
    big_l = cfg.lipschitz
    lam = resolve_lambda(obs, cfg)
    term, value, grad = _data_terms(obs, cfg)
    dense_z = obs.n > DENSE_Z_MIN_DENSITY * layout.d_u * layout.D

    u0, sigma1, v0 = rank1_svd(obs.to_csr())
    lam0 = big_l * sigma1
    delta0 = float(np.linalg.norm(obs.y))
    width_cap = min(layout.d_u, layout.D)

    factors = ThinFactors(u0.reshape(-1, 1), np.array([sigma1]), v0.reshape(-1, 1))
    factors_prev = factors
    eta = eta_prev = term.gather(factors)
    f_cur = _check_finite(value(eta) + lam * sigma1)
    c = 1
    objective_history = [f_cur]
    rank_history = [1]
    input_rank_history: list[int] = []
    restarts: list[int] = []
    power_capped = False
    terminated_by = "max_iters"
    for t in range(1, cfg.max_iters + 1):
        delta_t = cfg.nu**t * delta0
        lam_t = cfg.nu**t * (lam0 - lam) + lam
        theta = (c - 1.0) / (c + 2.0) if cfg.momentum else 0.0
        a, b = _extrapolate(factors, factors_prev, theta)
        eta_x = (1.0 + theta) * eta - theta * eta_prev
        if dense_z:
            z = a @ b.T - grad(eta_x) / big_l
        else:
            z = SparsePlusLowRank(a, b, obs.to_csr(-term.grad_on_omega(eta_x) / big_l))
        basis = _warm_basis(factors.v, factors_prev.v, cfg.basis_drop)
        if t == 1 and cfg.init_rank is not None:
            basis = _refill(basis, min(cfg.init_rank, width_cap),
                            np.random.default_rng((8081, t)))
        if basis.shape[1] > width_cap:
            basis = basis[:, :width_cap]
        input_rank_history.append(basis.shape[1])
        padded = _refill(basis, min(basis.shape[1] + cfg.warm_slack, width_cap),
                         np.random.default_rng((8082, t)))
        new_factors, converged = approx_svt(z, padded, lam_t / big_l, delta_t)
        power_capped = power_capped or not converged
        eta_next = term.gather(new_factors)
        f_next = _check_finite(value(eta_next) + lam * new_factors.nuclear)
        if f_next > f_cur:
            c = 1
            restarts.append(t)
        else:
            c += 1
        rank_history.append(new_factors.rank)
        objective_history.append(f_next)
        if iter_callback is not None:
            iter_callback(t, lam_t, new_factors.rank, f_next)
        factors_prev, factors = factors, new_factors
        eta_prev, eta = eta, eta_next
        stop = abs(f_next - f_cur) <= cfg.epsilon
        # a rank-0 collapse while lambda_t is still decaying is legitimate:
        # keep iterating so the continuation can revive the factors
        continuation_active = (lam_t - lam) > 1e-9 * max(lam0 - lam, 0.0)
        if new_factors.rank == 0 and continuation_active:
            stop = False
        f_cur = f_next
        if stop:
            terminated_by = "tolerance"
            break
    flags: list[str] = []
    if factors.rank == 0:
        flags.append("zero_solution")
    if power_capped:
        flags.append("power_not_converged")
    factors = _finalize(factors, cfg, flags)
    return FitResult(
        factors=factors,
        rank_history=rank_history,
        objective_history=objective_history,
        restarts=restarts,
        wall_time=time.perf_counter() - start,
        terminated_by=terminated_by,
        lambda_used=lam,
        input_rank_history=input_rank_history,
        flags=flags,
        config=cfg,
    )
