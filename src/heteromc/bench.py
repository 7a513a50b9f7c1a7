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
from dataclasses import dataclass, field, fields, replace

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
from .families import ExpFamilyModel, model_from_dict, model_to_dict
from .lowrank import rank1_svd
from .objectives import empirical_risk, map_binary_labels
from .solvers import (
    FitResult,
    NumericalError,
    SolverConfig,
    config_from_dict,
    config_to_dict,
    plais_impute,
    theory_bound,
    tight_lipschitz,
)


def relative_error(w_hat, w_true) -> float:
    """Frobenius error of the estimate relative to the full ground truth."""
    hv = w_hat.values if hasattr(w_hat, "values") else np.asarray(w_hat, float)
    tv = w_true.values if hasattr(w_true, "values") else np.asarray(w_true, float)
    if hv.shape != tv.shape:
        raise ValueError("shapes disagree")
    denom = np.linalg.norm(tv)
    if denom == 0:
        raise ValueError("ground truth is the zero matrix")
    return float(np.linalg.norm(hv - tv) / denom)


# JSON key of each ExperimentSpec field whose key differs from its name
_SPEC_KEYS = {"fit_families": "families"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic experiment: instance family, p sweep and solver knobs.

    ``rel_lambda`` sizes the fit weight from the data as
    ``rel_lambda * sigma_1(Y_train) / (d_u D)``; leave it unset to use the
    solver config's own weight (or its "auto" heuristic).  With
    ``auto_lipschitz`` every sub-fit replaces the configured Lipschitz
    constant by the data-scale one for its own layout.
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
    auto_lipschitz: bool = True
    experiment_id: str = "exp"

    def __post_init__(self):
        object.__setattr__(self, "d_vs", tuple(self.d_vs))
        object.__setattr__(self, "ranks", tuple(self.ranks))
        object.__setattr__(self, "factor_laws", tuple(self.factor_laws))
        object.__setattr__(self, "p_grid", tuple(self.p_grid))
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.fit_families is not None:
            object.__setattr__(self, "fit_families", tuple(self.fit_families))
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

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "solver":
                value = config_to_dict(value)
            elif f.name == "fit_families":
                value = None if value is None else [model_to_dict(m) for m in value]
            elif isinstance(value, tuple):
                value = list(value)
            out[_SPEC_KEYS.get(f.name, f.name)] = value
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; a missing key takes the field default,
        and missing factor laws default to gaussian."""
        kwargs = {f.name: d[key] for f in fields(cls)
                  if (key := _SPEC_KEYS.get(f.name, f.name)) in d}
        kwargs.setdefault("factor_laws", ["gaussian"] * len(d["d_vs"]))
        kwargs["solver"] = config_from_dict(d.get("solver", {}))
        fams = kwargs.get("fit_families")
        kwargs["fit_families"] = tuple(model_from_dict(m) for m in fams) if fams else None
        return cls(**kwargs)


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

    def to_dict(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "p": self.p,
            "trial": self.trial,
            "method": self.method,
            "re_collective": self.re_collective,
            "re_per_source": list(self.re_per_source),
            "sq_error": self.sq_error,
            "final_rank": self.final_rank,
            "wall_time": self.wall_time,
            "lambda": self.lambda_used,
            "heldout_risk": self.heldout_risk,
            "objective_trace": list(self.objective_trace),
            "error": self.error,
        }


def _derive_seed(*parts) -> int:
    return int(np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(1)[0])


def _fit_config(spec: ExperimentSpec, obs_train: ObservationSet) -> SolverConfig:
    cfg = spec.solver
    if spec.auto_lipschitz:
        cfg = replace(cfg, lipschitz=tight_lipschitz(obs_train))
    if spec.rel_lambda is not None:
        # data-scale weight: a fraction of the observed spectral norm in
        # penalty units, independent of the family curvature
        sigma1 = rank1_svd(obs_train.dense_y())[1]
        n = obs_train.layout.d_u * obs_train.layout.D
        cfg = replace(cfg, lam=spec.rel_lambda * sigma1 / n)
    return cfg


def _split(obs: ObservationSet, fraction: float, seed) -> tuple[ObservationSet, ObservationSet]:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(obs.n)
    n_train = math.ceil(fraction * obs.n)
    return obs.subset(np.sort(perm[:n_train])), obs.subset(np.sort(perm[n_train:]))


def _observe(spec: ExperimentSpec, truth: CollectiveMatrix, p: float, seed) -> ObservationSet:
    scheme = SamplingScheme.uniform(p)
    if spec.noise == "model":
        obs = observe_from_model(truth, spec.families(), scheme, seed)
    else:
        obs = mask_sample(truth, scheme, seed, spec.families())
    if spec.solver.mode == "general_loss":
        obs = map_binary_labels(obs, spec.solver.losses)
    return obs


def _fit_collective(spec: ExperimentSpec, obs_train: ObservationSet) -> FitResult:
    return plais_impute(obs_train, _fit_config(spec, obs_train))


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


def _block_slices(spec: ExperimentSpec) -> list[slice]:
    offsets = np.concatenate([[0], np.cumsum(spec.d_vs)])
    return [slice(int(a), int(b)) for a, b in zip(offsets[:-1], offsets[1:])]


def _record(spec: ExperimentSpec, truth_values: np.ndarray, w_hat: np.ndarray,
            p: float, trial: int, method: str, fit_meta: dict,
            heldout_risk: float | None) -> MetricRecord:
    per_source = tuple(
        relative_error(w_hat[:, sl], truth_values[:, sl])
        for sl in _block_slices(spec)
    )
    return MetricRecord(
        experiment_id=spec.experiment_id,
        p=p,
        trial=trial,
        method=method,
        re_collective=relative_error(w_hat, truth_values),
        re_per_source=per_source,
        sq_error=float(np.sum((w_hat - truth_values) ** 2)) / truth_values.size,
        final_rank=fit_meta["rank"],
        wall_time=fit_meta["wall_time"],
        lambda_used=fit_meta["lambda"],
        heldout_risk=heldout_risk,
        objective_trace=tuple(fit_meta["trace"]),
    )


def _failed_record(spec, p, trial, method, message) -> MetricRecord:
    nan = float("nan")
    return MetricRecord(spec.experiment_id, p, trial, method, nan,
                        tuple(nan for _ in spec.d_vs), nan, 0, 0.0, nan,
                        error=message)


def _heldout(spec: ExperimentSpec, obs_test: ObservationSet, w_hat: np.ndarray) -> float | None:
    if spec.solver.mode != "general_loss" or obs_test.n == 0:
        return None
    return empirical_risk(obs_test, w_hat, spec.solver.losses)


def _run_cell(spec: ExperimentSpec, p: float, p_idx: int, trial: int) -> list[MetricRecord]:
    truth = generate_synthetic(SyntheticConfig(
        spec.d_u, spec.d_vs, spec.ranks, spec.factor_laws, gamma=spec.gamma,
        seed=_derive_seed(spec.seed, 1, p_idx, trial),
        shared_factors=spec.shared_factors,
    ))
    obs = _observe(spec, truth, p, _derive_seed(spec.seed, 2, p_idx, trial))
    if spec.train_fraction < 1:
        obs_train, obs_test = _split(obs, spec.train_fraction,
                                     _derive_seed(spec.seed, 3, p_idx, trial))
    else:
        obs_train, obs_test = obs, obs.subset(np.array([], dtype=int))
    records = []
    for method in spec.methods:
        try:
            if method == "collective":
                fit = _fit_collective(spec, obs_train)
                w_hat = fit.factors.to_matrix()
                meta = {"rank": fit.factors.rank, "wall_time": fit.wall_time,
                        "lambda": fit.lambda_used, "trace": fit.objective_history}
            else:
                w_hat, fits = _fit_per_source(spec, obs_train)
                meta = {"rank": sum(f.factors.rank for f in fits),
                        "wall_time": sum(f.wall_time for f in fits),
                        "lambda": fits[0].lambda_used,
                        "trace": fits[0].objective_history}
            records.append(_record(spec, truth.values, w_hat, p, trial, method,
                                   meta, _heldout(spec, obs_test, w_hat)))
        except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
            records.append(_failed_record(spec, p, trial, method, str(exc)))
    return records


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
        truth = generate_synthetic(SyntheticConfig(
            spec.d_u, spec.d_vs, spec.ranks, spec.factor_laws, gamma=spec.gamma,
            seed=_derive_seed(spec.seed, 1, 0, trial),
            shared_factors=spec.shared_factors,
        ))
        obs = _observe(spec, truth, p, _derive_seed(spec.seed, 2, 0, trial))
        truth_cold = truth.values.copy()
        if transform:
            obs_cold = cold_start_transform(obs, target_v)
            zeroed = cold_start_slice(obs, target_v)
            truth_cold[obs.i[zeroed], obs.cols[zeroed]] = 0.0
        else:
            obs_cold = obs
        records = []
        try:
            fit = _fit_collective(spec, obs_cold)
            records.append(_record(
                spec, truth_cold, fit.factors.to_matrix(), p, trial,
                "collective",
                {"rank": fit.factors.rank, "wall_time": fit.wall_time,
                 "lambda": fit.lambda_used, "trace": fit.objective_history},
                None))
        except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
            records.append(_failed_record(spec, p, trial, "collective", str(exc)))
        try:
            comp = _fit_source(spec, obs_cold, target_v)
            w_comp = np.array(truth_cold)
            w_comp[:, _block_slices(spec)[target_v]] = comp.factors.to_matrix()
            records.append(_record(
                spec, truth_cold, w_comp, p, trial, "per_source",
                {"rank": comp.factors.rank, "wall_time": comp.wall_time,
                 "lambda": comp.lambda_used, "trace": comp.objective_history},
                None))
        except (ValueError, NumericalError, np.linalg.LinAlgError) as exc:
            records.append(_failed_record(spec, p, trial, "per_source", str(exc)))
        return records

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


def curve_table(records: list[MetricRecord], bound_params: dict | None = None,
                method: str = "collective") -> list[dict]:
    """Rows ``p, mean_re, std_re, bound`` for external plotting."""
    rows = []
    for entry in summarize([r for r in records if r.method == method]):
        bound = None
        if bound_params is not None:
            params = dict(bound_params)
            kind = params.pop("kind", "expfam")
            params["p"] = entry["p"]
            params.setdefault("mu", entry["p"] * max(params["d_u"], params["D"]))
            bound = theory_bound(kind, params)
        rows.append({"p": entry["p"], "mean_re": entry["mean_re"],
                     "std_re": entry["std_re"], "bound": bound})
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
    table = []
    for p, mean_sq, fit_val in zip(ps, means, fitted):
        bound = None
        if bound_params is not None:
            params = dict(bound_params)
            kind = params.pop("kind", "expfam")
            params["p"] = p
            params.setdefault("mu", p * max(params["d_u"], params["D"]))
            bound = theory_bound(kind, params)
        table.append({"p": p, "mean_sq_error": float(mean_sq),
                      "fitted": float(fit_val), "bound": bound})
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": float(r_squared), "curve_table": table}


def sign_test_pvalue(wins: int, n: int) -> float:
    """One-sided exact binomial p-value for ``wins`` successes out of ``n``."""
    return float(binomtest(wins, n, 0.5, alternative="greater").pvalue)
