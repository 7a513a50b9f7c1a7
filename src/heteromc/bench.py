"""Experiment harness: synthetic sweeps, cold-start comparison, rate checks.

Reproduces the synthetic protocol at desk scale: generate a low-rank
collective matrix, reveal a fraction p of the entries, split the revealed
entries 80/20, fit the joint estimator and the per-source baselines, and
record relative errors.  Trials are independent jobs keyed by
(experiment, p, trial, method) so results merge deterministically.

By default the fits treat the revealed entries as noise-free values under a
unit-variance gaussian likelihood (the square-loss path); set
``noise="model"`` to draw the observations from the tagged families instead.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.stats import binomtest

from .data import (
    CollectiveMatrix,
    ObservationSet,
    SamplingScheme,
    SyntheticConfig,
    cold_start_slice,
    cold_start_transform,
    generate_synthetic,
    mask_sample,
    observe_from_model,
)
from .families import ExpFamilyModel
from .jsonconf import to_json
from .lowrank import _values, rank1_svd
from .objectives import _TILE_ENTRIES, empirical_risk, map_binary_labels
from .solvers import (
    FitResult,
    NumericalError,
    SolverConfig,
    plais_impute,
    theory_bound,
)


def _sq_sums(w_hat, w_true, starts=(0,)) -> tuple[np.ndarray, np.ndarray]:
    """Sum of (w_hat - w_true)^2 and of w_true^2 over each column block.

    Block k holds the columns from ``starts[k]`` up to the next start.  The
    sums run over row blocks of about ``_TILE_ENTRIES`` entries, so the only
    temporary is one block-sized buffer for the difference, also for strided
    views.
    """
    hv, tv = _values(w_hat), _values(w_true)
    if hv.shape != tv.shape:
        raise ValueError("shapes disagree")
    if tv.ndim != 2:
        hv, tv = hv.reshape(-1, 1), tv.reshape(-1, 1)
    d_u, big_d = tv.shape
    rows = max(1, _TILE_ENTRIES // max(big_d, 1))
    buf = np.empty((min(rows, d_u), big_d))
    err, ref = np.zeros(big_d), np.zeros(big_d)
    for r0 in range(0, d_u, rows):
        t = tv[r0:r0 + rows]
        d = np.subtract(hv[r0:r0 + rows], t, out=buf[:len(t)])
        err += np.einsum("ij,ij->j", d, d)
        ref += np.einsum("ij,ij->j", t, t)
    bounds = list(zip(starts, (*starts[1:], big_d)))
    return (np.array([err[lo:hi].sum() for lo, hi in bounds]),
            np.array([ref[lo:hi].sum() for lo, hi in bounds]))


def _ratio(err: float, ref: float) -> float:
    if ref == 0:
        raise ValueError("ground truth is the zero matrix")
    return float(np.sqrt(err) / np.sqrt(ref))


def relative_error(w_hat, w_true) -> float:
    """Frobenius error of the estimate relative to the full ground truth.

    Streams over row blocks: no array the size of the operands is formed,
    not even for strided views such as one source's columns.
    """
    err, ref = _sq_sums(w_hat, w_true)
    return _ratio(err[0], ref[0])


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic experiment: instance family, p sweep and solver knobs.

    ``rel_lambda`` sizes the fit weight from the data as
    ``rel_lambda * sigma_1(Y_train) / (d_u D)``; leave it unset to use the
    solver config's own weight (or its "auto" heuristic).  An unset
    ``lipschitz`` is worked out for each sub-fit's own data term.
    """

    d_u: int
    d_vs: tuple[int, ...]
    ranks: tuple[int, ...]
    factor_laws: tuple[str, ...]
    p_grid: tuple[float, ...]
    gamma: float = 1.0
    trials: int = 1
    seed: int = 0
    solver: SolverConfig = field(default_factory=SolverConfig)
    methods: tuple[str, ...] = ("collective", "per_source")
    shared_factors: bool = False
    noise: str = "none"
    fit_families: tuple[ExpFamilyModel, ...] | None = None
    train_fraction: float = 0.8
    rel_lambda: float | None = None
    experiment_id: str = "exp"

    JSON_KEYS = {"fit_families": "families"}

    def __post_init__(self):
        for name in ("d_vs", "ranks", "factor_laws", "p_grid", "methods"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.fit_families is not None:
            object.__setattr__(self, "fit_families", tuple(self.fit_families) or None)
        if not self.p_grid or any(not 0 < p <= 1 for p in self.p_grid):
            raise ValueError("p_grid must be nonempty with entries in (0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.noise not in ("none", "model"):
            raise ValueError("noise must be 'none' or 'model'")
        if not 0 < self.train_fraction <= 1:
            raise ValueError("train_fraction must be in (0, 1]")
        for m in self.methods:
            if m not in ("collective", "per_source"):
                raise ValueError(f"unknown method {m!r}")

    def families(self) -> tuple[ExpFamilyModel, ...]:
        if self.fit_families is not None:
            return self.fit_families
        return tuple(ExpFamilyModel("gaussian", 1.0, gamma=self.gamma)
                     for _ in self.d_vs)


@dataclass
class MetricRecord:
    """Append-only record of one fit inside an experiment."""

    experiment_id: str
    p: float
    trial: int
    method: str
    re_collective: float
    re_per_source: tuple[float, ...]
    sq_error: float
    final_rank: int
    wall_time: float
    lambda_used: float
    heldout_risk: float | None = None
    objective_trace: tuple[float, ...] = ()
    error: str | None = None

    JSON_KEYS = {"lambda_used": "lambda"}

    def to_dict(self) -> dict:
        return to_json(self)


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _fit_config(spec: ExperimentSpec, obs_train: ObservationSet) -> SolverConfig:
    cfg = spec.solver
    if spec.rel_lambda is not None:
        # data-scale weight: a fraction of the observed spectral norm in
        # penalty units, independent of the family curvature
        sigma1 = rank1_svd(obs_train.to_csr())[1]
        n = obs_train.layout.d_u * obs_train.layout.D
        cfg = replace(cfg, lam=spec.rel_lambda * sigma1 / n)
    return cfg


def _split(obs: ObservationSet, fraction: float, seed) -> tuple[ObservationSet, ObservationSet]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(obs.n)
    n_train = math.ceil(fraction * obs.n)
    return obs.subset(np.sort(perm[:n_train])), obs.subset(np.sort(perm[n_train:]))


def _instance(spec: ExperimentSpec, p: float, p_idx: int, trial: int,
              cold_v: int | None = None) -> tuple[CollectiveMatrix, ObservationSet]:
    """Ground truth of one trial and its observations at rate ``p``.

    With ``cold_v`` the first fifth of that source's observations and the
    truth entries under them are zeroed (a cold start), before 0/1 labels
    are recoded for margin losses, so zeroed labels become -1.
    """
    truth = generate_synthetic(SyntheticConfig(
        spec.d_u, spec.d_vs, spec.ranks, spec.factor_laws, gamma=spec.gamma,
        seed=_derive_seed(spec.seed, 1, p_idx, trial),
        shared_factors=spec.shared_factors,
    ))
    scheme = SamplingScheme.uniform(p)
    seed = _derive_seed(spec.seed, 2, p_idx, trial)
    if spec.noise == "model":
        obs = observe_from_model(truth, spec.families(), scheme, seed)
    else:
        obs = mask_sample(truth, scheme, seed, spec.families())
    if cold_v is not None:
        zeroed = cold_start_slice(obs, cold_v)
        truth = truth.copy()
        truth.values[obs.i[zeroed], obs.cols[zeroed]] = 0.0
        obs = cold_start_transform(obs, cold_v)
    if spec.solver.mode == "general_loss":
        obs = map_binary_labels(obs, spec.solver.losses)
    return truth, obs


def _fit_collective(spec: ExperimentSpec, obs_train: ObservationSet) -> tuple[np.ndarray, list[FitResult]]:
    fit = plais_impute(obs_train, _fit_config(spec, obs_train))
    return fit.factors.to_matrix(), [fit]


def _fit_source(spec: ExperimentSpec, obs: ObservationSet, v: int) -> FitResult:
    """Fit source ``v`` alone, under its own loss in general-loss mode."""
    sub = obs.restrict_source(v)
    cfg = _fit_config(spec, sub)
    if cfg.losses is not None:
        cfg = replace(cfg, losses=(cfg.losses[v],))
    return plais_impute(sub, cfg)


def _fit_per_source(spec: ExperimentSpec, obs_train: ObservationSet) -> tuple[np.ndarray, list[FitResult]]:
    fits = [_fit_source(spec, obs_train, v) for v in range(obs_train.layout.V)]
    return np.hstack([fit.factors.to_matrix() for fit in fits]), fits


def _trial_record(spec: ExperimentSpec, p: float, trial: int, method: str,
                  truth: CollectiveMatrix, fit, obs_test: ObservationSet | None = None) -> MetricRecord:
    """Record of ``fit() -> (w_hat, fits)`` against ``truth``.

    Rank and wall time are summed over the fits; the weight and the
    objective trace are the first fit's.  All errors come from one streamed
    pass of :func:`_sq_sums`.  A fit that raises a numerical or input error
    gives a record with NaN errors and the message in ``error``.
    """
    try:
        w_hat, fits = fit()
        err, ref = _sq_sums(w_hat, truth, truth.layout.col_offsets)
        return MetricRecord(
            experiment_id=spec.experiment_id,
            p=p,
            trial=trial,
            method=method,
            re_collective=_ratio(err.sum(), ref.sum()),
            re_per_source=tuple(map(_ratio, err, ref)),
            sq_error=float(err.sum()) / truth.values.size,
            final_rank=sum(f.factors.rank for f in fits),
            wall_time=sum(f.wall_time for f in fits),
            lambda_used=fits[0].lambda_used,
            heldout_risk=_heldout(spec, obs_test, w_hat),
            objective_trace=tuple(fits[0].objective_history),
        )
    except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
        nan = float("nan")
        return MetricRecord(spec.experiment_id, p, trial, method, nan,
                            tuple(nan for _ in spec.d_vs), nan, 0, 0.0, nan,
                            error=str(exc))


def _heldout(spec: ExperimentSpec, obs_test: ObservationSet | None, w_hat: np.ndarray) -> float | None:
    if spec.solver.mode != "general_loss" or obs_test is None or obs_test.n == 0:
        return None
    return empirical_risk(obs_test, w_hat, spec.solver.losses)


_FITTERS = {"collective": _fit_collective, "per_source": _fit_per_source}


def _run_cell(spec: ExperimentSpec, p: float, p_idx: int, trial: int) -> list[MetricRecord]:
    truth, obs = _instance(spec, p, p_idx, trial)
    obs_train, obs_test = obs, None
    if spec.train_fraction < 1:
        obs_train, obs_test = _split(obs, spec.train_fraction,
                                     _derive_seed(spec.seed, 3, p_idx, trial))
    return [_trial_record(spec, p, trial, method, truth,
                          partial(_FITTERS[method], spec, obs_train), obs_test)
            for method in spec.methods]


def _run_jobs(job, items, jobs: int) -> list[MetricRecord]:
    """Records of ``job(item)`` for every item, in (p, trial, method) order."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(job, items))
    else:
        chunks = [job(item) for item in items]
    records = [r for chunk in chunks for r in chunk]
    records.sort(key=lambda r: (r.p, r.trial, r.method))
    return records


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[MetricRecord]:
    """Sweep the p grid; one record per (p, trial, method)."""
    cells = [(p, p_idx, trial)
             for p_idx, p in enumerate(spec.p_grid)
             for trial in range(spec.trials)]
    return _run_jobs(lambda c: _run_cell(spec, *c), cells, jobs)


def run_cold_start(spec: ExperimentSpec, target_v: int, jobs: int = 1,
                   transform: bool = True) -> list[MetricRecord]:
    """Cold-start comparison at p = p_grid[0].

    Each trial zeroes the first fifth of the target source's observed
    values, fits the collective estimator and the per-component estimator of
    the cold source, and records errors against the zeroed ground truth.
    With ``transform=False`` the scenario reduces to the plain comparison.
    """
    p = spec.p_grid[0]

    def one_trial(trial: int) -> list[MetricRecord]:
        truth, obs = _instance(spec, p, 0, trial, target_v if transform else None)

        def fit_component():
            fit = _fit_source(spec, obs, target_v)
            w_hat = truth.values.copy()
            w_hat[:, truth.layout.block_cols(target_v)] = fit.factors.to_matrix()
            return w_hat, [fit]

        return [_trial_record(spec, p, trial, "collective", truth,
                              partial(_fit_collective, spec, obs)),
                _trial_record(spec, p, trial, "per_source", truth, fit_component)]

    return _run_jobs(one_trial, range(spec.trials), jobs)


def summarize(records: list[MetricRecord]) -> list[dict]:
    """Mean and standard deviation of the collective error per (p, method)."""
    keys = sorted({(r.p, r.method) for r in records if r.error is None})
    out = []
    for p, method in keys:
        vals = [r.re_collective for r in records
                if r.p == p and r.method == method and r.error is None]
        out.append({"p": p, "method": method,
                    "mean_re": float(np.mean(vals)),
                    "std_re": float(np.std(vals)),
                    "n": len(vals)})
    return out


def _bound_at(bound_params: dict | None, p: float) -> float | None:
    """Reference bound at sampling rate ``p``; None without parameters."""
    if bound_params is None:
        return None
    params = dict(bound_params)
    kind = params.pop("kind", "expfam")
    params["p"] = p
    params.setdefault("mu", p * max(params["d_u"], params["D"]))
    return theory_bound(kind, params)


def curve_table(records: list[MetricRecord], bound_params: dict | None = None,
                method: str = "collective") -> list[dict]:
    """Rows ``p, mean_re, std_re, bound`` for external plotting."""
    rows = []
    for entry in summarize([r for r in records if r.method == method]):
        rows.append({"p": entry["p"], "mean_re": entry["mean_re"],
                     "std_re": entry["std_re"], "bound": _bound_at(bound_params, entry["p"])})
    return rows


def rate_regression(records: list[MetricRecord], bound_params: dict | None = None) -> dict:
    """Regress the mean normalized squared error on 1/p.

    Returns the fitted slope and intercept, the coefficient of
    determination, and a per-p curve table that includes the reference
    bound when ``bound_params`` is given.
    """
    usable = [r for r in records if r.method == "collective" and r.error is None]
    ps = sorted({r.p for r in usable})
    if len(ps) < 4:
        raise ValueError("need at least 4 distinct sampling rates")
    means = np.array([
        np.mean([r.sq_error for r in usable if r.p == p]) for p in ps
    ])
    x = 1.0 / np.array(ps)
    slope, intercept = np.polyfit(x, means, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((means - fitted) ** 2))
    ss_tot = float(np.sum((means - means.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    table = [{"p": p, "mean_sq_error": float(mean_sq), "fitted": float(fit_val),
              "bound": _bound_at(bound_params, p)}
             for p, mean_sq, fit_val in zip(ps, means, fitted)]
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": float(r_squared), "curve_table": table}


def sign_test_pvalue(wins: int, n: int) -> float:
    """One-sided exact binomial p-value for ``wins`` successes out of ``n``."""
    return float(binomtest(wins, n, 0.5, alternative="greater").pvalue)
