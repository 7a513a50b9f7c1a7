"""Self-tests of the outside-in tracer and the benchmark runner.

Run with ``python -m pytest perfbench``.  They use a 60 x 60 instance, so
they finish in seconds; the real workloads are exercised by run.py.
"""

import importlib
import math
from types import SimpleNamespace

import pytest

import heteromc
from heteromc import bench, data, lowrank, objectives, solvers
from heteromc.families import ExpFamilyModel

import run
import workloads
from tracing import LAYERS, METHODS, SetupDone, Solve, Tracer

# Names that callers import by name, so they must be patched in the caller.
BY_NAME = {
    solvers: ("approx_svt", "qr_orthonormalize", "rank1_svd",
              "neg_log_likelihood", "grad_neg_log_likelihood"),
    objectives: ("g_value", "g_prime"),
}


def _small_fit() -> tuple[float, int, int]:
    truth = data.generate_synthetic(data.SyntheticConfig(
        60, (20, 20, 20), (2, 2, 2), workloads.LAWS, seed=3))
    fams = tuple(ExpFamilyModel("gaussian", 1.0) for _ in range(3))
    obs = data.mask_sample(truth, data.SamplingScheme.uniform(0.6), 4, fams)
    lip = solvers.tight_lipschitz(obs)
    lam = 0.01 * lip * lowrank.rank1_svd(obs.dense_y())[1]
    fit = solvers.plais_impute(obs, solvers.SolverConfig(
        lam=lam, lipschitz=lip, init_rank=10, basis_drop=1e-3))
    rel = bench.relative_error(fit.factors.to_matrix(), truth.values)
    return rel, len(fit.objective_history) - 1, fit.factors.rank


def _tiny(seed, workdir, solves) -> workloads.Rep:
    rel, _, rank = _small_fit()
    return workloads.Rep(rel, 1, 0, [0.01], [("small fit", rank > 0)])


def _namespaces() -> dict:
    modules = [importlib.import_module(f"heteromc.{layer}") for layer in LAYERS]
    classes = [getattr(importlib.import_module(f"heteromc.{layer}"), cls)
               for layer, by_class in METHODS.items() for cls in by_class]
    return {ns: dict(vars(ns)) for ns in modules + classes + [heteromc]}


def test_wrappers_are_bound_where_callers_look_names_up():
    originals = {(mod, name): getattr(mod, name)
                 for mod, names in BY_NAME.items() for name in names}
    with Tracer(full=True) as tracer:
        for (mod, name), original in originals.items():
            assert getattr(mod, name) is not original
            assert getattr(mod, name).__wrapped__ is original
        _small_fit()
        totals = tracer.span_totals()
    for span in ("lowrank.approx_svt", "lowrank.qr_orthonormalize", "lowrank.power_method",
                 "lowrank.rank1_svd", "objectives.neg_log_likelihood",
                 "objectives.grad_neg_log_likelihood", "families.g_value",
                 "families.g_prime", "data.ObservationSet.cols",
                 "lowrank.ThinFactors.to_matrix", "solvers.plais_impute"):
        assert totals[span]["calls"] > 0, span


def _changed(before: dict) -> list[str]:
    after = _namespaces()
    return [f"{ns!r}.{key}" for ns, attrs in before.items()
            for key, value in attrs.items() if after[ns][key] is not value]


def test_wrappers_restore_the_originals():
    before = _namespaces()
    with Tracer(full=True):
        assert _changed(before)
    assert not _changed(before)


def test_originals_are_restored_when_the_workload_raises():
    before = _namespaces()
    with pytest.raises(SetupDone):
        with Tracer(full=True) as tracer:
            tracer.stop_at_solver = True
            _small_fit()
    assert not _changed(before)


def test_traced_fit_is_bit_identical_to_untraced():
    with Tracer(full=False):
        plain = _small_fit()
    with Tracer(full=True):
        traced = _small_fit()
    assert traced == plain


def test_self_times_partition_the_root_spans():
    with Tracer(full=True) as tracer:
        _small_fit()
    totals = tracer.span_totals()
    roots = sum(end - start for start, end, parent in
                zip(tracer.span_start, tracer.span_end, tracer.span_parent) if parent < 0)
    assert all(0 <= t["self_s"] <= t["s"] + 1e-12 for t in totals.values())
    assert math.isclose(sum(t["self_s"] for t in totals.values()), roots, rel_tol=1e-9)
    pm = totals["lowrank.power_method"]
    assert pm["self_s"] < pm["s"]  # QR calls inside it are its children


def test_untraced_run_reports_every_end_to_end_metric(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    result = run.measure("tiny", seed=0, seconds=0.0, trace=False)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["extra"]["setup_samples"] >= run.SETUP_PASSES
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_overhead_and_identical_results(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    result = run.measure("tiny", seed=0, seconds=0.0, trace=True)
    assert result["correct"], result["checks"]
    assert set(result["metrics"]) == set(run.PER_LAYER_UNITS)
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert metrics["solvers.plais_impute.calls"] == 1
    assert metrics["lowrank.power_method.s"] <= metrics["solvers.plais_impute.s"]
    assert "trace.overhead_s" in metrics
    assert sum("equals untraced" in text for text, _ in result["checks"]) == 3


def test_desk_sweep_counts_each_failed_fit_once(monkeypatch):
    """A fit that raised has no latency; fits failing for several reasons count once."""
    solves, calls = [], iter(range(1000))

    def fake_run_experiment(spec):
        k = next(calls)
        raised = k == 0  # likelihood, p=0.2: its mean error is NaN, so all 6 fits fail
        ended = "max_iters" if k == 6 else "tolerance"  # likelihood, p=0.4
        solves.append(Solve(0.0, 0.1, None if raised else SimpleNamespace(terminated_by=ended)))
        return [bench.MetricRecord(
            spec.experiment_id, spec.p_grid[0], 0, spec.methods[0],
            math.nan if raised else 0.01, (), 0.0, 1, 0.0 if raised else 0.5, 0.0,
            error="raised" if raised else None)]

    monkeypatch.setattr(workloads.bench, "run_experiment", fake_run_experiment)
    rep = workloads.desk_sweep(0, None, solves)
    assert rep.fits == len(solves) == 48
    assert rep.failed_fits == 7
    assert rep.fit_seconds == [0.5] * 47
    assert not all(ok for _, ok in rep.checks)
