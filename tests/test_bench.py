import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import heteromc
from heteromc import (
    ExpFamilyModel,
    ExperimentSpec,
    MetricRecord,
    SolverConfig,
    rate_regression,
    relative_error,
    run_cold_start,
    run_experiment,
    sign_test_pvalue,
    summarize,
    theory_bound,
)
from heteromc.bench import _FITTERS, _instance, _split, _trial_record
from heteromc.jsonconf import from_json, to_json
from conftest import gaussian_instance


def small_spec(**over):
    base = dict(
        d_u=40, d_vs=(16, 12), ranks=(2, 2), factor_laws=("gaussian", "gaussian"),
        p_grid=(0.8,), trials=1, seed=7,
        solver=SolverConfig(max_iters=200, basis_drop=1e-3),
        methods=("collective",), rel_lambda=0.01, experiment_id="unit",
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_relative_error_basics(rng):
    a = rng.normal(size=(5, 6))
    assert relative_error(a, a) == 0.0
    assert relative_error(2 * a, a) == pytest.approx(1.0)
    b = rng.normal(size=(5, 6))
    assert relative_error(b, a) == pytest.approx(
        np.linalg.norm(b - a) / np.linalg.norm(a))
    with pytest.raises(ValueError):
        relative_error(a, np.zeros_like(a))
    with pytest.raises(ValueError, match="shapes disagree"):
        relative_error(a, a[:, :-1])
    b[2, 3] = np.nan
    assert math.isnan(relative_error(b, a))
    assert math.isnan(relative_error(a, b))
    # a vector goes through the same streamed pass as a column
    assert relative_error(b[:, 0], a[:, 0]) == pytest.approx(
        np.linalg.norm(b[:, 0] - a[:, 0]) / np.linalg.norm(a[:, 0]), rel=1e-12)


def peak_bytes(fn, *args):
    """Result of ``fn(*args)`` and the peak traced allocation during it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unstreamed_relative_error(w_hat, w_true):
    return np.linalg.norm(w_hat - w_true) / np.linalg.norm(w_true)


def test_relative_error_streams_without_operand_sized_temporaries():
    rng = np.random.default_rng(11)
    truth = rng.normal(size=(2000, 1500))
    w_hat = truth + 0.1 * rng.normal(size=truth.shape)
    limit = truth.nbytes / 8
    source = np.s_[:, 500:]  # a strided view, as one source's columns are
    assert not truth[source].flags["C_CONTIGUOUS"]
    for hv, tv in [(w_hat, truth), (w_hat[source], truth[source])]:
        rel, peak = peak_bytes(relative_error, hv, tv)
        assert peak < limit
        assert rel == pytest.approx(unstreamed_relative_error(hv, tv), rel=1e-12)


@pytest.mark.parametrize("method", ["collective", "per_source"])
def test_trial_record_matches_the_unstreamed_errors(method):
    spec = small_spec(d_vs=(16, 12, 9), ranks=(2, 2, 1),
                      factor_laws=("gaussian",) * 3, methods=(method,))
    truth, obs = _instance(spec, 0.8, 0, 0)
    result = _FITTERS[method](spec, obs)
    rec = _trial_record(spec, 0.8, 0, method, truth, lambda: result)
    w_hat, layout = result[0], truth.layout
    assert rec.error is None
    assert rec.re_collective == pytest.approx(
        unstreamed_relative_error(w_hat, truth.values), rel=1e-12)
    assert rec.re_per_source == pytest.approx(
        [unstreamed_relative_error(w_hat[:, layout.block_cols(v)], truth.block(v))
         for v in range(layout.V)], rel=1e-12)
    assert rec.sq_error == pytest.approx(
        float(np.sum((w_hat - truth.values) ** 2)) / truth.values.size, rel=1e-12)


def test_split_partition():
    obs, _ = gaussian_instance(seed=3, p=0.7)
    train, test = _split(obs, 0.8, 5)
    assert train.n == math.ceil(0.8 * obs.n)
    assert train.n + test.n == obs.n
    seen = set(zip(train.v, train.i, train.j)) | set(zip(test.v, test.i, test.j))
    assert len(seen) == obs.n  # disjoint cover


def _stable(records):
    # wall-clock time is the one legitimately nondeterministic field
    out = []
    for r in records:
        d = r.to_dict()
        d.pop("wall_time")
        out.append(d)
    return out


def test_run_experiment_bookkeeping_and_determinism():
    spec = small_spec(p_grid=(0.5, 0.9), trials=2,
                      methods=("collective", "per_source"))
    records = run_experiment(spec)
    assert len(records) == 2 * 2 * 2
    assert _stable(records) == _stable(run_experiment(spec))
    assert _stable(records) == _stable(run_experiment(spec, jobs=2))


def test_run_experiment_near_complete_recovery():
    spec = small_spec(p_grid=(1.0,), rel_lambda=1e-4)
    rec = run_experiment(spec)[0]
    assert rec.method == "collective"
    assert rec.re_collective < 0.05
    assert rec.error is None


def test_run_experiment_re_decays_with_p():
    spec = small_spec(d_u=80, d_vs=(30, 30), ranks=(3, 3), p_grid=(0.3, 0.9),
                      trials=3)
    rows = summarize(run_experiment(spec))
    by_p = {row["p"]: row["mean_re"] for row in rows}
    assert by_p[0.9] < by_p[0.3]


def test_collective_beats_per_source_on_shared_factors():
    spec = small_spec(d_u=60, d_vs=(25, 25), ranks=(3, 3), p_grid=(0.35,),
                      trials=10, shared_factors=True,
                      methods=("collective", "per_source"))
    records = run_experiment(spec)
    coll = {r.trial: r.re_collective for r in records if r.method == "collective"}
    per = {r.trial: r.re_collective for r in records if r.method == "per_source"}
    wins = sum(coll[t] < per[t] for t in coll)
    assert np.mean(list(coll.values())) <= np.mean(list(per.values()))
    assert sign_test_pvalue(wins, len(coll)) < 0.05


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # only the sign test needs scipy.stats, so it is imported on first use;
    # the import runs in a fresh interpreter, which no other test has touched
    src = str(Path(heteromc.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, heteromc, heteromc.cli; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
    # P(X >= 8) for X ~ Binomial(10, 1/2) is 56 / 1024
    assert sign_test_pvalue(8, 10) == pytest.approx(56 / 1024, rel=1e-12)


def test_cold_start_records_and_ordering():
    spec = small_spec(d_u=60, d_vs=(25, 25), ranks=(3, 3), p_grid=(0.4,),
                      trials=10, shared_factors=True)
    records = run_cold_start(spec, target_v=0)
    assert len(records) == 20  # two methods per trial
    coll = {r.trial: r.re_per_source[0] for r in records if r.method == "collective"}
    comp = {r.trial: r.re_per_source[0] for r in records if r.method == "per_source"}
    assert len(coll) == len(comp) == 10
    assert np.mean(list(coll.values())) <= np.mean(list(comp.values()))


def test_cold_start_without_transform_matches_plain_comparison():
    spec = small_spec(d_u=50, d_vs=(20, 20), ranks=(2, 2), p_grid=(0.6,),
                      trials=2, shared_factors=True)
    cold = run_cold_start(spec, target_v=0, transform=False)
    plain = run_experiment(ExperimentSpec(**{**spec.__dict__, "train_fraction": 1.0,
                                             "methods": ("collective",)}))
    # without the transform the collective fit sees identical data
    c0 = [r for r in cold if r.method == "collective"]
    assert c0[0].re_collective == pytest.approx(plain[0].re_collective)


def test_rate_regression_exact_law():
    ps = (0.2, 0.4, 0.6, 0.8)
    c = 3.7
    records = [
        MetricRecord("synthetic", p, t, "collective", 0.1, (0.1,), c / p, 3,
                     0.0, 1e-3)
        for p in ps for t in range(2)
    ]
    reg = rate_regression(records)
    assert reg["r_squared"] == pytest.approx(1.0)
    assert reg["slope"] == pytest.approx(c)
    assert reg["intercept"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        rate_regression(records[:4])


def test_rate_regression_reference_curve_matches_theory_bound():
    ps = (0.2, 0.4, 0.6, 0.8)
    records = [MetricRecord("synthetic", p, 0, "collective", 0.1, (0.1,),
                            1.0 / p, 3, 0.0, 1e-3) for p in ps]
    params = {"kind": "expfam", "rank": 3, "d_u": 50, "D": 40, "gamma": 1.0,
              "L2": 1.0, "U2": 1.0, "K": 1.0, "constant_c": 1.0}
    reg = rate_regression(records, params)
    for row in reg["curve_table"]:
        expected = theory_bound("expfam", {**{k: v for k, v in params.items()
                                              if k != "kind"},
                                           "p": row["p"],
                                           "mu": row["p"] * 50})
        assert row["bound"] == pytest.approx(expected, rel=1e-12)


def test_general_loss_mode_records_heldout_risk():
    from heteromc import LipschitzLoss
    # one-bit style source: binomial(1) observations at the low-rank natural
    # parameters, recoded to +-1 labels inside the general-loss path
    spec = small_spec(
        d_u=30, d_vs=(20,), ranks=(2,), factor_laws=("gaussian",),
        p_grid=(0.9,),
        solver=SolverConfig(lam=1e-6, mode="general_loss",
                            losses=(LipschitzLoss.logistic(),),
                            lipschitz=0.25 / (30 * 20), max_iters=150),
        rel_lambda=None, noise="model",
        fit_families=(ExpFamilyModel("binomial", 1),),
    )
    records = run_experiment(spec)
    rec = records[0]
    assert rec.error is None
    assert rec.heldout_risk is not None and math.log(2) * 0.1 < rec.heldout_risk


def test_cold_start_with_margin_losses_fits():
    from heteromc import LipschitzLoss
    # the zeroed 0/1 labels must be recoded with the rest, to -1
    spec = small_spec(
        d_u=30, d_vs=(15, 15), ranks=(2, 2), factor_laws=("gaussian", "gaussian"),
        p_grid=(0.9,), trials=2, methods=("collective", "per_source"),
        solver=SolverConfig(lam=1e-6, mode="general_loss",
                            losses=(LipschitzLoss.logistic(), LipschitzLoss.logistic()),
                            lipschitz=0.25 / (30 * 30), max_iters=150),
        rel_lambda=None, noise="model",
        fit_families=(ExpFamilyModel("binomial", 1), ExpFamilyModel("binomial", 1)),
    )
    records = run_cold_start(spec, target_v=0)
    assert len(records) == 4
    assert [r.error for r in records] == [None] * 4


def test_per_source_fits_use_their_own_loss():
    from heteromc import LipschitzLoss, map_binary_labels
    from heteromc.bench import _fit_per_source
    losses = (LipschitzLoss.quantile(0.5), LipschitzLoss.logistic())
    spec = small_spec(solver=SolverConfig(mode="general_loss", losses=losses, smoothing=1.0,
                                          max_iters=200, basis_drop=1e-3))
    obs, _ = gaussian_instance(d_u=20, d_vs=(8, 6), ranks=(2, 2), seed=4, noise=False)
    obs = obs.with_y(np.where(obs.v == 1, obs.y > 0, obs.y))
    _, fits = _fit_per_source(spec, map_binary_labels(obs, losses))
    assert [fit.config.losses for fit in fits] == [(losses[0],), (losses[1],)]


def test_every_sub_fit_steps_with_its_own_layouts_constant():
    from heteromc import LipschitzLoss
    # smoothed quantile: the gradient's Lipschitz constant is 1/smoothing over d_u d_v
    losses = (LipschitzLoss.quantile(0.5), LipschitzLoss.quantile(0.3))
    spec = small_spec(solver=SolverConfig(mode="general_loss", losses=losses, smoothing=0.05,
                                          max_iters=50, basis_drop=1e-3))
    _, obs = _instance(spec, 0.8, 0, 0)
    for method, widths in (("collective", [obs.layout.D]), ("per_source", spec.d_vs)):
        _, fits = _FITTERS[method](spec, obs)
        assert [fit.config.lipschitz for fit in fits] == [
            1.0 / (0.05 * spec.d_u * d_v) for d_v in widths]


def test_map_binary_labels():
    from heteromc import LipschitzLoss, map_binary_labels
    from heteromc.data import BlockLayout, ObservationSet
    layout = BlockLayout(3, (2, 2))
    obs = ObservationSet(layout, [0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 0, 1],
                         [0.0, 1.0, 0.3, 0.9])
    out = map_binary_labels(obs, (LipschitzLoss.logistic(),
                                  LipschitzLoss.quantile(0.5)))
    assert np.array_equal(out.y[out.source_slice(0)], [-1.0, 1.0])
    # non-margin losses left untouched
    assert np.array_equal(out.y[out.source_slice(1)], [0.3, 0.9])


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        small_spec(p_grid=())
    with pytest.raises(ValueError):
        small_spec(p_grid=(0.0,))
    with pytest.raises(ValueError):
        small_spec(trials=0)
    # numbers are checked as SyntheticConfig checks them: a boolean is none
    for bad, message in (({"trials": 1.5}, "trials must be an integer"),
                         ({"trials": True}, "trials must be a finite number"),
                         ({"seed": 2.5}, "seed must be an integer"),
                         ({"p_grid": (True,)}, "p_grid must be a finite number"),
                         ({"p_grid": (0.5, math.nan)}, "p_grid must be a finite number"),
                         ({"train_fraction": True}, "train_fraction must be a finite number"),
                         # the instance is checked before any trial runs
                         ({"d_u": 40.5}, "d_u must be an integer"),
                         ({"factor_laws": ("gaussian", "nope")}, "unknown factor law"),
                         ({"ranks": (2, 20)}, "ranks must satisfy")):
        with pytest.raises(ValueError, match=f"^{message}"):
            small_spec(**bad)
    assert type(small_spec(trials=2.0).trials) is int
    with pytest.raises(ValueError):
        small_spec(methods=("bogus",))
    with pytest.raises(ValueError):
        small_spec(noise="weird")
    # the fit weight and the gaussian bound are checked before any fit runs
    for bad in ({"rel_lambda": -0.01}, {"rel_lambda": 0.0}, {"rel_lambda": math.nan},
                {"rel_lambda": math.inf}, {"rel_lambda": True}, {"gamma": math.nan},
                {"gamma": 0.0}, {"gamma": math.inf}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} must be (positive|a finite number)"):
            small_spec(**bad)


def test_experiment_spec_dict_round_trip():
    spec = small_spec(trials=3, shared_factors=True,
                      fit_families=(ExpFamilyModel("poisson"),
                                    ExpFamilyModel("binomial", 2)))
    assert from_json(ExperimentSpec, to_json(spec), "experiment") == spec


def test_failed_fits_give_error_records():
    # an absurdly small step constant, which the harness honours, makes
    # every fit diverge
    spec = small_spec(methods=("collective", "per_source"), rel_lambda=None,
                      solver=SolverConfig(lam=1e-9, lipschitz=1e-12, max_iters=200,
                                          basis_drop=1e-3))
    for records in (run_experiment(spec), run_cold_start(spec, target_v=0)):
        assert [r.method for r in records] == ["collective", "per_source"]
        for r in records:
            assert r.error
            assert math.isnan(r.re_collective) and math.isnan(r.sq_error)
            assert len(r.re_per_source) == 2 and all(map(math.isnan, r.re_per_source))
            assert r.final_rank == 0


def test_invalid_solver_config_raises_instead_of_error_records():
    # a config fault is the caller's, not one fit's: it raises where the
    # config is built, before any experiment can run and record it
    with pytest.raises(ValueError, match="^nu must"):
        small_spec(solver=SolverConfig(nu=1.5))
