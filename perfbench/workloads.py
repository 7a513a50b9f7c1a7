"""The three benchmark workloads and the output checks on their results.

Each workload is one function ``(seed, workdir, solves) -> Rep`` that
builds its inputs from the seed, runs heteromc end to end and checks what
came out.  Solver calls are timed by the tracer installed around it, which
appends one record per call to the live list ``solves``, so a workload only
reports what the tracer cannot see: fits, quality and check verdicts.

Why these three (the layer each ROADMAP item changes does most of the work
in one workload and little in another):

* ``fit-m`` -- the ROADMAP M rung in one in-process solve.  The warm-started
  power method and its QR dominate, so a cheaper inexact-SVT inner loop
  shows here; at p=0.1 a sparse-plus-low-rank iterate should not help.
* ``sparse-cli`` -- 5 % of a 3000 x 3000 matrix observed, a narrow basis,
  and the files going through ``io`` and the ``heteromc fit`` command.
  Dense d_u x D arithmetic and CSV parsing dominate, so a structured
  iterate and faster I/O show here, in time and in peak memory.
* ``desk-sweep`` -- 48 small fits through the experiment harness in both
  data-term modes.  Thousands of short calls into ``data`` and
  ``objectives`` per run, so a single data-term layer shows here.  The
  p=0.2 fits widen the warm-start basis and still spend most of their time
  in the power method.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from heteromc import bench, cli, data, io as hio, lowrank, objectives, solvers
from heteromc.families import ExpFamilyModel

LAWS = ("gaussian", "poisson", "bernoulli")
GAUSSIAN3 = tuple(ExpFamilyModel("gaussian", 1.0) for _ in LAWS)
DESK_P = (0.2, 0.4, 0.6, 0.8)
DESK_TRIALS = 3
DESK_METHODS = ("collective", "per_source")

# Output-check ceilings, 7-22 % above the worst value the seed commit
# reached over benchmark seeds 0-10: room for seed-to-seed variation, none
# for a fit that got clearly worse.
FIT_M_MAX_ERROR, FIT_M_MAX_RANK = 0.06, 34
SPARSE_MAX_ERROR, SPARSE_MAX_RANK = 0.23, 6
# mean relative error per p over trials and methods, in either mode
DESK_MAX_ERROR = {0.2: 0.33, 0.4: 0.06, 0.6: 0.05, 0.8: 0.045}


@dataclass
class Rep:
    """What one repetition of a workload produced."""

    rel_error: float
    fits: int  # fits attempted
    # fits that raised, exited non-zero, ended other than by tolerance or
    # failed an output check; each counted once
    failed_fits: int
    fit_seconds: list[float]  # latency of each fit that returned
    checks: list[tuple[str, bool]]
    counters: dict[str, float] = field(default_factory=dict)


def derive_seed(seed: int, *stream: int) -> int:
    """Independent program seed for ``stream`` from the benchmark seed."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


def _instance(seed: int, d_u: int, d_v: int, p: float, shared: bool):
    truth = data.generate_synthetic(data.SyntheticConfig(
        d_u, (d_v,) * 3, (5, 5, 5), LAWS, seed=derive_seed(seed, 1),
        shared_factors=shared))
    obs = data.mask_sample(truth, data.SamplingScheme.uniform(p),
                           derive_seed(seed, 2), GAUSSIAN3)
    return truth, obs


def _weight(obs, scale: float) -> tuple[float, float]:
    """README weight ``scale * L * sigma_1(Y)`` with L from tight_lipschitz."""
    lip = solvers.tight_lipschitz(obs)
    return scale * lip * lowrank.rank1_svd(obs.dense_y())[1], lip


def _fit_checks(rel_error: float, rank: int, terminated_by: str,
                max_error: float, max_rank: int) -> list[tuple[str, bool]]:
    return [
        (f"terminated_by={terminated_by}", terminated_by == "tolerance"),
        (f"rel_error={rel_error:.4f} <= {max_error}", rel_error <= max_error),
        (f"final_rank={rank} <= {max_rank}", rank <= max_rank),
    ]


def _failed(checks) -> int:
    """Failed-fit count of a single-fit workload."""
    return int(not all(ok for _, ok in checks))


def fit_m(seed: int, workdir: Path, solves: list) -> Rep:
    truth, obs = _instance(seed, 2000, 700, 0.1, shared=False)
    lam, lip = _weight(obs, 0.01)
    cfg = solvers.SolverConfig(lam=lam, lipschitz=lip, init_rank=25, basis_drop=1e-3)
    fit = solvers.plais_impute(obs, cfg)
    rel = bench.relative_error(fit.factors.to_matrix(), truth.values)
    checks = _fit_checks(rel, fit.factors.rank, fit.terminated_by,
                         FIT_M_MAX_ERROR, FIT_M_MAX_RANK)
    return Rep(rel, 1, _failed(checks), [fit.wall_time], checks)


def sparse_cli(seed: int, workdir: Path, solves: list) -> Rep:
    truth, obs = _instance(seed, 3000, 1000, 0.05, shared=True)
    lam, lip = _weight(obs, 0.1)
    layout_path, obs_path = workdir / "layout.json", workdir / "obs.csv"
    config_path, out = workdir / "config.json", workdir / "fit"
    hio.save_layout(layout_path, obs.layout, GAUSSIAN3)
    hio.save_observations(obs_path, obs)
    config_path.write_text(json.dumps({"solver": {
        "lambda": lam, "lipschitz": lip, "init_rank": 25, "basis_drop": 1e-3}}),
        encoding="utf-8")
    del obs
    code = cli.main(["fit", "--config", str(config_path), "--obs", str(obs_path),
                     "--layout", str(layout_path), "--out", str(out)])
    checks = [(f"exit_code={code}", code == cli.EXIT_OK)]
    try:
        factors = hio.load_factors(out / "factors")
        doc = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        checks.append((f"factors load back: {exc}", False))
        return Rep(float("nan"), 1, 1, [], checks)
    checks.append(("factors load back", True))
    rel = bench.relative_error(factors.to_matrix(), truth.values)
    checks += _fit_checks(rel, factors.rank, doc["terminated_by"],
                          SPARSE_MAX_ERROR, SPARSE_MAX_RANK)
    return Rep(rel, 1, _failed(checks), [doc["wall_time_ms"] / 1e3], checks,
               {"io.obs_csv.bytes": obs_path.stat().st_size})


def _desk_specs(seed: int) -> dict[str, bench.ExperimentSpec]:
    solver = solvers.SolverConfig(init_rank=25, max_iters=400, basis_drop=1e-3, epsilon=1e-6)
    common = dict(d_u=300, d_vs=(100, 100, 100), ranks=(5, 5, 5), factor_laws=LAWS,
                  p_grid=DESK_P, trials=1, methods=DESK_METHODS, rel_lambda=0.01)
    quantile = replace(solver, mode="general_loss", smoothing=1.0,
                       losses=tuple(objectives.LipschitzLoss.quantile(0.5) for _ in LAWS))
    return {
        "likelihood": bench.ExperimentSpec(**common, seed=derive_seed(seed, 1), solver=solver,
                                           experiment_id="desk-likelihood"),
        "quantile": bench.ExperimentSpec(**common, seed=derive_seed(seed, 2), solver=quantile,
                                         experiment_id="desk-quantile"),
    }


def _by_tolerance(solves) -> bool:
    return all(s.result is not None and s.result.terminated_by == "tolerance" for s in solves)


def desk_sweep(seed: int, workdir: Path, solves: list) -> Rep:
    # Each fit is its own run_experiment call, so the solver calls it made
    # are the ones recorded during that call.
    checks, latencies, errors, fits, failed = [], [], [], 0, 0
    for mode, spec in _desk_specs(seed).items():
        records, off_tolerance = [], []
        for p_idx, p in enumerate(DESK_P):
            for trial in range(DESK_TRIALS):
                cell = replace(spec, p_grid=(p,), seed=derive_seed(spec.seed, p_idx, trial))
                for method in DESK_METHODS:
                    first = len(solves)
                    [record] = bench.run_experiment(replace(cell, methods=(method,)))
                    records.append(record)
                    off_tolerance.append(not _by_tolerance(solves[first:]))
        raised = [r.error is not None for r in records]
        checks.append((f"{mode}: {sum(raised)} fits raised", not any(raised)))
        checks.append((f"{mode}: {sum(off_tolerance)} fits ended other than by tolerance",
                       not any(off_tolerance)))
        over = []
        for p in DESK_P:
            mean = float(np.mean([r.re_collective for r in records if r.p == p]))
            ceiling = DESK_MAX_ERROR[p]
            ok = mean <= ceiling  # false for NaN, so a raised fit fails here too
            checks.append((f"{mode} p={p}: mean rel_error={mean:.4f} <= {ceiling}", ok))
            over += [] if ok else [p]
        fits += len(records)
        failed += sum(r.error is not None or off or r.p in over
                      for r, off in zip(records, off_tolerance))
        latencies += [r.wall_time for r in records if r.error is None]
        errors += [r.re_collective for r in records if r.error is None]
    return Rep(float(np.mean(errors)), fits, failed, latencies, checks)


WORKLOADS = {"fit-m": fit_m, "sparse-cli": sparse_cli, "desk-sweep": desk_sweep}
