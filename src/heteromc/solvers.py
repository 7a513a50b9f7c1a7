"""Proximal solvers for nuclear-norm penalized completion.

Two drivers share one objective: an accelerated solver with exact SVT,
kept as the reference, and the main accelerated inexact solver that
combines warm-started approximate SVT with a continuation schedule on the
regularization weight and a restart whenever the objective increases.
Both share one frame: set-up (:func:`_begin`), the
stop test (:func:`_settled`) and the flags and result (:func:`_result`).

The inexact solver keeps every iterate as thin factors and evaluates the
data term on Omega from them.  Its SVT input Z = X - grad(X) / L, at the
extrapolated point X, takes the gradient from X's entries on Omega and is
either built as a dense matrix or applied as the operator "low rank +
sparse on Omega" (:class:`~heteromc.lowrank.SparsePlusLowRank`), so no
d_u x D array is formed there and memory stays O(nnz + (d_u + D) r).
Z is dense when the matrix has at most :data:`DENSE_Z_MAX_ENTRIES`
entries and structured otherwise; :attr:`FitResult.z_form` records the
choice.  The exact-SVT driver stays dense, since a full SVD needs the
matrix.
"""

from __future__ import annotations

import ctypes
import math
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Literal

import numpy as np

from .data import ObservationSet, estimate_mu
from .families import strong_convexity_bounds
from .jsonconf import check_number, to_json
from .lowrank import (
    SparsePlusLowRank,
    ThinFactors,
    _refill,
    approx_svt,
    qr_orthonormalize,  # noqa: F401  unused here; perfbench's tracer self-test looks it up
    rank1_svd,
    svt_exact,
)
from .objectives import (
    DataTerm,
    LipschitzLoss,
    _families,
    _likelihood_term,
    grad_neg_log_likelihood,
    lipschitz_grad_constant,
    neg_log_likelihood,
    nuclear_norm,
    solver_loss_curvature,
    solver_loss_terms,
)

# plais_impute builds Z as a dense d_u x D array when d_u D <=
# DENSE_Z_MAX_ENTRIES, whatever the fill, and as SparsePlusLowRank otherwise.
# Whole fits, one power step per iteration, structured / dense time
# (medians of 5; 2 CPUs, 1 BLAS thread; 3 sources of D / 3 columns, rank 5
# each, lambda = 0.01 L sigma_1(Y), init_rank=25, basis_drop=1e-3; same
# ranks and iteration counts, objectives within 3e-16 relative):
#   d_u x D       p=0.05  0.1   0.2   0.3   0.45  0.6   0.8   (dense s at p=0.8)
#   300 x 300      0.88   0.92  0.98  1.02  1.09  1.16  1.18   0.07
#   600 x 600      0.69   0.74  0.72  0.99  0.99  1.00  1.16   0.26
#   750 x 750      0.64   0.74  0.73  0.83  0.93  0.92  1.06   0.40
#   2000 x 2100    0.46   0.48  0.57  0.67  0.89  0.82  1.01   2.95
# From 750 x 750 (562k entries) on, the structured form loses at most 8 % at
# any fill (1000 x 999 and 1400 x 1401 too), so fill does not pick the form
# there.  Up to 600 x 600 (360k), as at desk sizes, the dense form wins by
# up to 23 % at high fill; the bound sits between the two rungs.  Below it,
# 450 x 450 and 600 x 600 at p <= 0.2 run 13-31 % faster structured, which
# the rule gives up for its one bound.
DENSE_Z_MAX_ENTRIES = 2**19
# Columns beyond the current rank in each warm start of plais_impute's
# approximate SVT, and so the most the iterate's rank can grow per iteration.
WARM_SLACK = 5
# glibc's malloc_trim, or None off glibc.  A solve frees many arrays of a few
# MB; once glibc's sliding mmap threshold has risen past their size it keeps
# them in its heap, and whether freed space there goes back to the system
# depends on where small blocks fall, which address and hash randomisation
# change from run to run.  Each finished solve of a matrix with at least
# TRIM_MIN_ENTRIES entries therefore trims the heap, so that a process holds
# only its live arrays between fits.  ROADMAP M rung (2000 x 2100, p=0.1), 2
# CPUs: process peak RSS over repeated fits went from 175-197 MB, varying run
# to run, to 178-181 MB.  Smaller solves free arrays under 1 MB and skip the
# trim: re-faulting the released pages in the next fit made repeated 300 x 300
# fits 4 % slower.
_MALLOC_TRIM = (getattr(ctypes.CDLL(None), "malloc_trim", None)
                if sys.platform.startswith("linux") else None)
TRIM_MIN_ENTRIES = 2**17


class NumericalError(RuntimeError):
    """A solve produced a non-finite objective."""


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers, checked when the config is built.

    ``lam`` may be the string ``"auto"``, in which case the regularization
    weight comes from :func:`lambda_heuristic` (likelihood mode) or
    :func:`lambda_general_loss`; ``losses`` are read in general_loss mode only.
    ``nu`` is the continuation decay, and ``init_rank`` sets the width of the
    first warm start of the inexact solver to ``init_rank`` +
    :data:`WARM_SLACK` columns (five times the expected rank reproduces the
    learning-rank behaviour).  Steps have length 1/``lipschitz``; unset, it
    is the configured data term's gradient Lipschitz constant, :func:`tight_lipschitz`.
    ``basis_drop`` has no effect; it is still read and checked only so that
    configs which name it, perfbench's among them, keep loading.
    """

    lam: float | Literal["auto"] = "auto"
    nu: float = 0.7
    epsilon: float = 1e-6
    max_iters: int = 500
    lipschitz: float | None = None
    mode: str = "likelihood"
    losses: tuple[LipschitzLoss, ...] | None = None
    constant_c: float = 1.0
    init_rank: int | None = None
    basis_drop: float = 1e-10
    smoothing: float = 1e-2

    JSON_KEYS = {"lam": "lambda"}

    def __post_init__(self):
        check_number("nu", self.nu, "in (0, 1)")
        for name in ("epsilon", "basis_drop", "smoothing", "constant_c"):
            check_number(name, getattr(self, name), "positive")
        if self.lipschitz is not None:
            check_number("lipschitz", self.lipschitz, "positive")
        check_number("max_iters", self.max_iters, "positive", integer="type")
        if self.init_rank is not None:
            check_number("init_rank", self.init_rank, "positive", integer="type")
        if self.lam != "auto":
            check_number("lambda", self.lam, "nonnegative")
        if self.mode not in ("likelihood", "general_loss"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "general_loss" and not self.losses:
            raise ValueError("general_loss mode needs per-source losses")
        if self.mode == "likelihood" and self.losses is not None:
            raise ValueError("losses are read only in general_loss mode")
        if any(l.kind == "hinge" for l in self.losses or ()):
            raise ValueError("losses: hinge has no Lipschitz gradient; use logistic or quantile")


@dataclass
class FitResult:
    """Full trace of one solve; ``factors`` is the last iterate, as the loop left it.

    ``rank_history`` records the surviving rank of each accepted iterate,
    ``input_rank_history`` the rank each warm start of the inexact solver
    carries, whose width is that plus :data:`WARM_SLACK`, capped at
    min(d_u, D): ``init_rank``, at most min(d_u, D), on the first iteration
    when it is set, and the iterate's rank otherwise, so
    ``input_rank_history[1:] == rank_history[1:-1]``.  ``restarts`` lists
    the iterations where the objective increased and the momentum counter
    was reset.  ``objective_history`` starts with the
    objective at the starting point in both drivers; ``rank_history`` starts
    with its rank only in :func:`plais_impute`.  ``z_form`` is how the SVT
    input was held: ``"dense"``, a d_u x D array, or ``"structured"``, the
    sparse-plus-low-rank operator (only :func:`plais_impute` uses it).
    The only flag is ``"zero_solution"``, set when the iterate is zero.
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
    z_form: Literal["dense", "structured"] = "dense"

    def to_dict(self) -> dict:
        return {
            "config": to_json(self.config),
            "lambda": self.lambda_used,
            "objective_history": list(self.objective_history),
            "rank_history": list(self.rank_history),
            "input_rank_history": list(self.input_rank_history),
            "restarts": list(self.restarts),
            "terminated_by": self.terminated_by,
            "wall_time_ms": self.wall_time * 1e3,
            "flags": list(self.flags),
            "z_form": self.z_form,
        }


def lambda_heuristic(obs: ObservationSet, constant_c: float = 1.0) -> float:
    """Regularization weight 2c (U v K)(sqrt(mu) + log(d_u v D)^{3/2}) / (d_u D)."""
    check_number("constant_c", constant_c, "positive")
    families = _families(obs)
    mu = estimate_mu(obs)
    u_gamma = max(math.sqrt(strong_convexity_bounds(m)[1]) for m in families)
    kappa = max(m.kappa for m in families)
    d_u, big_d = obs.layout.d_u, obs.layout.D
    log_term = math.log(max(d_u, big_d)) ** 1.5
    return 2.0 * constant_c * max(u_gamma, kappa) * (math.sqrt(mu) + log_term) / (d_u * big_d)


def lambda_general_loss(obs: ObservationSet, losses, constant_c: float = 1.0) -> float:
    """Distribution-free weight 2c rho (sqrt(mu) + sqrt(log(d_u v D))) / (d_u D)."""
    check_number("constant_c", constant_c, "positive")
    rho = max(l.rho for l in losses)
    mu = estimate_mu(obs)
    d_u, big_d = obs.layout.d_u, obs.layout.D
    log_term = math.sqrt(math.log(max(d_u, big_d)))
    return 2.0 * constant_c * rho * (math.sqrt(mu) + log_term) / (d_u * big_d)


def theory_bound(kind: str, params: dict) -> float:
    """Reference error-rate curve evaluated at user-supplied constants.

    ``kind="expfam"`` gives the normalized squared-Frobenius rate for the
    likelihood estimator, ``kind="general"`` the excess-risk rate for
    Lipschitz losses.  Only used to draw curves next to empirical errors.
    ``p`` must lie in (0, 1] and every other constant be positive and finite.
    """
    known = {"constant_c", "d_u", "D", "p", "rank", "mu", "gamma", "U2", "K", "L2",
             "rho", "varsigma"}
    if unknown := sorted(set(params) - known):
        raise ValueError(f"unknown bound key(s): {', '.join(map(repr, unknown))}")
    for key, value in params.items():
        check_number(key, value, "in (0, 1]" if key == "p" else "positive")
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


def tight_lipschitz(obs: ObservationSet, cfg: SolverConfig | None = None) -> float:
    """Gradient Lipschitz constant of ``cfg``'s data term, the likelihood's by default."""
    if cfg is None or cfg.mode == "likelihood":
        return lipschitz_grad_constant(obs)
    bound = max(solver_loss_curvature(l, cfg.smoothing) for l in cfg.losses)
    return bound / (obs.layout.d_u * obs.layout.D)


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


def _check_finite(value: float) -> float:
    if not math.isfinite(value):
        raise NumericalError("objective became non-finite")
    return value


def _begin(obs: ObservationSet, cfg: SolverConfig | None):
    """Both drivers' set-up: ``(cfg, start, lam)`` and :func:`_data_terms`."""
    cfg = cfg if cfg is not None else SolverConfig()
    start = time.perf_counter()
    if obs.n == 0 or not np.any(obs.y):
        raise ValueError("solver needs nonzero observations to initialize")
    cfg = replace(cfg, lipschitz=cfg.lipschitz or tight_lipschitz(obs, cfg))
    if cfg.lam != "auto":
        lam = float(cfg.lam)
    elif cfg.mode == "likelihood":
        lam = lambda_heuristic(obs, constant_c=cfg.constant_c)
    else:
        lam = lambda_general_loss(obs, cfg.losses, constant_c=cfg.constant_c)
    return (cfg, start, lam, *_data_terms(obs, cfg))


def _settled(f_next: float, f_cur: float, cfg: SolverConfig) -> bool:
    """The drivers' stop test: the objective moved by at most ``epsilon``."""
    return abs(f_next - f_cur) <= cfg.epsilon


def _result(factors: ThinFactors, cfg: SolverConfig, start: float, lam: float,
            terminated_by: str, **histories) -> FitResult:
    """Flags and the :class:`FitResult` of a finished solve."""
    flags = ["zero_solution"] if factors.rank == 0 else []
    if (_MALLOC_TRIM is not None
            and factors.u.shape[0] * factors.v.shape[0] >= TRIM_MIN_ENTRIES):
        _MALLOC_TRIM(0)
    return FitResult(factors=factors, wall_time=time.perf_counter() - start,
                     terminated_by=terminated_by, lambda_used=lam, flags=flags,
                     config=cfg, **histories)


def apg_solve(obs: ObservationSet, cfg: SolverConfig | None = None) -> FitResult:
    """Accelerated proximal gradient with exact SVT at a fixed weight.

    Starts from the observed matrix; each iteration extrapolates with the
    Nesterov momentum sequence, takes a gradient step of length
    1/lipschitz and soft-thresholds the singular values at lam/lipschitz.
    """
    cfg, start, lam, _, value, grad = _begin(obs, cfg)
    big_l = cfg.lipschitz
    w_cur = obs.dense_y()
    w_prev = w_cur.copy()
    a_prev = a_cur = 1.0
    f_cur = _check_finite(value(w_cur) + lam * nuclear_norm(w_cur))
    objective_history = [f_cur]
    rank_history: list[int] = []
    terminated_by = "max_iters"
    for _ in range(cfg.max_iters):
        theta = (a_prev - 1.0) / a_cur
        q = w_cur + theta * (w_cur - w_prev)
        z = q - grad(q) / big_l
        factors = svt_exact(z, lam / big_l)
        w_next = factors.to_matrix()
        f_next = _check_finite(value(w_next) + lam * factors.nuclear)
        rank_history.append(factors.rank)
        objective_history.append(f_next)
        w_prev, w_cur = w_cur, w_next
        a_prev, a_cur = a_cur, 0.5 * (math.sqrt(4.0 * a_cur**2 + 1.0) + 1.0)
        if _settled(f_next, f_cur, cfg):
            terminated_by = "tolerance"
            break
        f_cur = f_next
    return _result(factors, cfg, start, lam, terminated_by, rank_history=rank_history,
                   objective_history=objective_history, restarts=[])


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
    threshold sweeps from sigma_1(Y) to lam/lipschitz.  Each approximate SVT
    takes one power step, so the subspace iteration runs on across
    iterations (AIS-Impute, Yao and Kwok 2015).  Every warm start follows one
    rule: min(r + :data:`WARM_SLACK`, d_u, D) columns, where r is rank(W_t),
    or ``init_rank`` on the first iteration when it is set, filled with the
    right basis of W_t, then the last step's right Ritz vectors below the
    threshold in descending order, then random columns.  So the rank can
    grow by at most :data:`WARM_SLACK` per iteration, and the warm start
    stays near the rank while continuation lowers the threshold; the fixed
    point, and so the minimizer reached, does not depend on the warm start.  The
    extrapolation weight is theta = (c - 1) / (c + 2), 0 at c = 1; the
    counter c resets to 1 whenever the objective at the target weight
    increases.  Iterations stop when that objective's change falls within
    ``epsilon``.

    Iterates are thin factors, and the data term is evaluated on Omega
    from them.  The gradient at the extrapolated point is taken from its
    entries on Omega, (1 + theta) eta_t - theta eta_{t-1}, computed from the
    cached entries of the last two iterates.  Z is a dense array when
    d_u D <= :data:`DENSE_Z_MAX_ENTRIES`, whatever the fill, and the
    sparse-plus-low-rank operator otherwise (``z_form``); that choice sets
    only Z's storage, and both give the same iterates up to rounding.

    ``iter_callback(t, lam_t, rank, objective)`` is invoked once per
    iteration when given.
    """
    cfg, start, lam, term, value, grad = _begin(obs, cfg)
    big_l = cfg.lipschitz
    layout = obs.layout
    dense_z = layout.d_u * layout.D <= DENSE_Z_MAX_ENTRIES

    s = obs.to_csr()  # built once; a structured Z's sparse part is rewritten in it
    u0, sigma1, v0 = rank1_svd(s)
    lam0 = big_l * sigma1
    width_cap = min(layout.d_u, layout.D)

    factors = ThinFactors(u0.reshape(-1, 1), np.array([sigma1]), v0.reshape(-1, 1))
    factors_prev = factors
    tail = np.zeros((layout.D, 0))
    eta = eta_prev = term.gather(factors)
    f_cur = _check_finite(value(eta) + lam * sigma1)
    c = 1
    objective_history = [f_cur]
    rank_history = [1]
    input_rank_history: list[int] = []
    restarts: list[int] = []
    terminated_by = "max_iters"
    for t in range(1, cfg.max_iters + 1):
        lam_t = cfg.nu**t * (lam0 - lam) + lam
        theta = (c - 1.0) / (c + 2.0)
        a, b = _extrapolate(factors, factors_prev, theta)
        eta_x = (1.0 + theta) * eta - theta * eta_prev
        if dense_z:
            # in place: two d_u x D arrays at the peak; g/(-L) + m == m - g/L bitwise
            z = grad(eta_x)
            z /= -big_l
            z += a @ b.T
        else:
            z = SparsePlusLowRank(a, b, obs.to_csr(-term.grad_on_omega(eta_x) / big_l, out=s))
        carried = factors.rank
        if t == 1 and cfg.init_rank is not None:
            carried = min(cfg.init_rank, width_cap)
        width = min(carried + WARM_SLACK, width_cap)
        input_rank_history.append(carried)
        padded = _refill(np.hstack([factors.v, tail])[:, :width], width, (8082, t))
        new_factors, _, tail = approx_svt(z, padded, lam_t / big_l, 0.0, max_iters=1)
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
        # a rank-0 collapse while lambda_t is still decaying is legitimate:
        # keep iterating so the continuation can revive the factors
        if _settled(f_next, f_cur, cfg) and not (
                new_factors.rank == 0 and lam_t - lam > 1e-9 * max(lam0 - lam, 0.0)):
            terminated_by = "tolerance"
            break
        f_cur = f_next
    return _result(factors, cfg, start, lam, terminated_by, rank_history=rank_history,
                   objective_history=objective_history, restarts=restarts,
                   input_rank_history=input_rank_history,
                   z_form="dense" if dense_z else "structured")
