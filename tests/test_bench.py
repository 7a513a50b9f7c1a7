import math

import numpy as np
import pytest

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
from heteromc.bench import _split
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
        rel_lambda=None, auto_lipschitz=False, noise="model",
        fit_families=(ExpFamilyModel("binomial", 1),),
    )
    records = run_experiment(spec)
    rec = records[0]
    assert rec.error is None
    assert rec.heldout_risk is not None and math.log(2) * 0.1 < rec.heldout_risk


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
    with pytest.raises(ValueError):
        small_spec(methods=("bogus",))
    with pytest.raises(ValueError):
        small_spec(noise="weird")


def test_experiment_spec_dict_round_trip():
    spec = small_spec(trials=3, shared_factors=True,
                      fit_families=(ExpFamilyModel("poisson"),
                                    ExpFamilyModel("binomial", 2)))
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec
