import math
from dataclasses import replace

import numpy as np
import pytest

from heteromc import (
    CollectiveMatrix,
    ExpFamilyModel,
    LipschitzLoss,
    SamplingScheme,
    SolverConfig,
    SyntheticConfig,
    apg_solve,
    generate_synthetic,
    lambda_general_loss,
    lambda_heuristic,
    mask_sample,
    objective_value,
    pg_step,
    plais_impute,
    rank1_svd,
    relative_error,
    theory_bound,
    tight_lipschitz,
)
from heteromc import solvers
from heteromc.data import BlockLayout, ObservationSet, estimate_mu
from heteromc.lowrank import ThinFactors
from heteromc.solvers import config_from_dict, config_to_dict

from conftest import GAUSS, gaussian_instance


def data_scale_lambda(obs, lipschitz, rel=0.05):
    return rel * lipschitz * rank1_svd(obs.dense_y())[1]


def test_pg_step_zero_iterate_and_fixed_point():
    obs, truth = gaussian_instance(seed=1, noise=False, p=1.0)
    w = CollectiveMatrix(obs.layout, obs.dense_y())
    lip = tight_lipschitz(obs)
    # threshold above the whole spectrum zeroes the iterate
    huge = 2.0 * lip * np.linalg.svd(w.values, compute_uv=False)[0]
    assert not pg_step(w, obs, huge, lip).values.any()
    # perfect fit and lambda = 0 is a fixed point
    out = pg_step(w, obs, 0.0, lip)
    assert np.allclose(out.values, w.values, atol=1e-10)


def test_pg_step_descends(rng):
    obs, _ = gaussian_instance(seed=2, p=0.8)
    lam = data_scale_lambda(obs, 1.0, rel=1e-3)
    w = CollectiveMatrix(obs.layout, rng.normal(size=obs.dense_y().shape))
    prev = objective_value(obs, w, lam).total
    for _ in range(50):
        w = pg_step(w, obs, lam, 1.0)  # L=1 dominates the true constant
        cur = objective_value(obs, w, lam).total
        assert cur <= prev + 1e-12
        prev = cur


def test_apg_recovers_tiny_noise_free_instance():
    syn = SyntheticConfig(10, (12,), (2,), ("gaussian",), seed=3)
    truth = generate_synthetic(syn)
    obs = mask_sample(truth, SamplingScheme.uniform(1.0), 4, (GAUSS,))
    lip = tight_lipschitz(obs)
    fit = apg_solve(obs, SolverConfig(lam=1e-9, lipschitz=lip, max_iters=3000,
                                      epsilon=1e-18))
    w = fit.factors.to_matrix()
    masked_err = float(np.sum((w - truth.values) ** 2 * obs.dense_mask()))
    assert masked_err < 1e-4


def test_apg_huge_lambda_gives_zero():
    obs, _ = gaussian_instance(seed=5)
    lam = 10.0 * np.linalg.svd(obs.dense_y(), compute_uv=False)[0]
    fit = apg_solve(obs, SolverConfig(lam=lam, lipschitz=1.0, max_iters=20))
    assert fit.factors.rank == 0
    assert "zero_solution" in fit.flags
    assert fit.objective_history[-1] == pytest.approx(
        objective_value(obs, np.zeros(obs.dense_y().shape), lam).total)


def test_apg_without_momentum_is_pg():
    obs, _ = gaussian_instance(seed=6, p=0.9)
    lip = tight_lipschitz(obs)
    lam = data_scale_lambda(obs, lip)
    fit = apg_solve(obs, SolverConfig(lam=lam, lipschitz=lip, momentum=False,
                                      max_iters=25, epsilon=1e-30))
    w = CollectiveMatrix(obs.layout, obs.dense_y())
    trace = [objective_value(obs, w, lam).total]
    for _ in range(len(fit.objective_history) - 1):
        w = pg_step(w, obs, lam, lip)
        trace.append(objective_value(obs, w, lam).total)
    assert np.allclose(fit.objective_history, trace, atol=1e-8)


def test_apg_objective_nonincreasing_with_unit_lipschitz():
    rng = np.random.default_rng(7)
    for _ in range(10):
        obs, _ = gaussian_instance(seed=int(rng.integers(1 << 30)), p=0.7)
        fit = apg_solve(obs, SolverConfig(lam=lambda_heuristic(obs), lipschitz=1.0,
                                          max_iters=40, epsilon=1e-6))
        diffs = np.diff(fit.objective_history)
        assert diffs.max(initial=0.0) <= 1e-9


def test_apg_rejects_empty_observations():
    layout = BlockLayout(4, (3,))
    empty = ObservationSet(layout, [], [], [], [], (GAUSS,))
    with pytest.raises(ValueError):
        apg_solve(empty, SolverConfig(lam=0.1))
    zeros = ObservationSet(layout, [0], [0], [0], [0.0], (GAUSS,))
    with pytest.raises(ValueError):
        plais_impute(zeros, SolverConfig(lam=0.1))


def test_plais_zero_solution_when_lambda_dominates():
    obs, _ = gaussian_instance(seed=8)
    lip = tight_lipschitz(obs)
    lam0 = lip * rank1_svd(obs.dense_y())[1]
    fit = plais_impute(obs, SolverConfig(lam=1.5 * lam0, lipschitz=lip, max_iters=50))
    assert fit.factors.rank == 0
    assert not fit.factors.to_matrix().any()
    assert "zero_solution" in fit.flags


def test_plais_matches_apg_with_frozen_continuation():
    obs, _ = gaussian_instance(d_u=20, d_vs=(12, 8), ranks=(2, 2), seed=9, p=0.8)
    lip = tight_lipschitz(obs)
    lam = data_scale_lambda(obs, lip)
    apg = apg_solve(obs, SolverConfig(lam=lam, lipschitz=lip, max_iters=4000,
                                      epsilon=1e-14))
    # nu ~ 0 freezes lambda_t at lambda after the first step and makes the
    # approximate SVT tolerance collapse immediately
    pl = plais_impute(obs, SolverConfig(lam=lam, lipschitz=lip, nu=1e-9,
                                        max_iters=4000, epsilon=1e-14,
                                        warm_slack=8))
    assert abs(apg.objective_history[-1] - pl.objective_history[-1]) < 1e-6


def test_plais_desk_scale_rank_learning():
    syn = SyntheticConfig(120, (40, 40, 40), (3, 3, 3),
                          ("gaussian", "poisson", "bernoulli"), seed=10)
    truth = generate_synthetic(syn)
    fams = tuple(ExpFamilyModel("gaussian", 1.0) for _ in range(3))
    obs = mask_sample(truth, SamplingScheme.uniform(0.7), 11, fams)
    lip = tight_lipschitz(obs)
    cfg = SolverConfig(lam=data_scale_lambda(obs, lip, rel=0.01), lipschitz=lip,
                       init_rank=15, basis_drop=1e-3, max_iters=300, epsilon=1e-9)
    fit = plais_impute(obs, cfg)
    assert fit.rank_history[-1] <= 9
    assert len(set(fit.rank_history[-4:])) == 1  # rank trace settles
    assert relative_error(fit.factors.to_matrix(), truth.values) < 0.25


def test_plais_restart_soundness():
    obs, _ = gaussian_instance(d_u=40, d_vs=(25, 15), ranks=(3, 2), seed=12, p=0.7)
    lip = tight_lipschitz(obs)
    cfg = SolverConfig(lam=data_scale_lambda(obs, lip), lipschitz=lip, nu=0.5,
                       max_iters=200, epsilon=1e-16)
    fit = plais_impute(obs, cfg)
    # between consecutive restarts the recorded objective never increases
    boundaries = [0] + fit.restarts + [len(fit.objective_history) - 1]
    for a, b in zip(boundaries, boundaries[1:]):
        seg = np.array(fit.objective_history[a:b])
        if len(seg) > 1:
            assert np.diff(seg).max(initial=0.0) <= 1e-9
    # every recorded increase coincides with a restart index
    diffs = np.diff(fit.objective_history)
    for t in np.nonzero(diffs > 0)[0] + 1:
        assert t in fit.restarts


def test_plais_final_lambda_descent():
    obs, _ = gaussian_instance(d_u=40, d_vs=(25, 15), ranks=(3, 2), seed=13, p=0.7)
    lip = tight_lipschitz(obs)
    lam = data_scale_lambda(obs, lip)
    cfg = SolverConfig(lam=lam, lipschitz=lip, nu=0.05, max_iters=200, epsilon=1e-6)
    fit = plais_impute(obs, cfg)
    lam0 = lip * rank1_svd(obs.dense_y())[1]
    lam_ts = [cfg.nu**t * (lam0 - lam) + lam
              for t in range(1, len(fit.objective_history))]
    conv = next(t for t, lt in enumerate(lam_ts, start=1) if abs(lt - lam) < 1e-12)
    tail = np.array(fit.objective_history[conv:])
    assert len(tail) > 3
    assert np.diff(tail).max(initial=0.0) <= 1e-9


def test_plais_deterministic():
    obs, _ = gaussian_instance(seed=14, p=0.6)
    lip = tight_lipschitz(obs)
    cfg = SolverConfig(lam=data_scale_lambda(obs, lip), lipschitz=lip, max_iters=80)
    a = plais_impute(obs, cfg)
    b = plais_impute(obs, cfg)
    assert a.rank_history == b.rank_history
    assert a.input_rank_history == b.input_rank_history
    assert np.array_equal(a.objective_history, b.objective_history)
    assert np.array_equal(a.factors.to_matrix(), b.factors.to_matrix())


def test_plais_callback_and_result_fields():
    obs, _ = gaussian_instance(seed=15)
    lip = tight_lipschitz(obs)
    seen = []
    cfg = SolverConfig(lam=data_scale_lambda(obs, lip), lipschitz=lip, max_iters=60)
    fit = plais_impute(obs, cfg, iter_callback=lambda *row: seen.append(row))
    assert len(seen) == len(fit.objective_history) - 1
    assert all(np.isfinite(fit.objective_history))
    assert fit.terminated_by in ("tolerance", "max_iters")
    assert len(fit.input_rank_history) == len(fit.rank_history) - 1
    d = fit.to_dict()
    assert d["wall_time_ms"] >= 0 and d["lambda"] == fit.lambda_used


def test_plais_general_loss_logistic():
    rng = np.random.default_rng(16)
    syn = SyntheticConfig(30, (20, 16), (2, 2), ("gaussian", "gaussian"), seed=17)
    truth = generate_synthetic(syn)
    layout = truth.layout
    labels = np.where(rng.random((30, layout.D)) < 1 / (1 + np.exp(-4 * truth.values)),
                      1.0, -1.0)
    signs = CollectiveMatrix(layout, labels)
    obs = mask_sample(signs, SamplingScheme.uniform(0.8), 18)
    losses = (LipschitzLoss.logistic(), LipschitzLoss.logistic())
    lip = 0.25 / (30 * layout.D)  # logistic curvature bound
    cfg = SolverConfig(lam="auto", constant_c=0.02, mode="general_loss",
                       losses=losses, lipschitz=lip, max_iters=200)
    fit = plais_impute(obs, cfg)
    w = fit.factors.to_matrix()
    # the fitted scores separate better than chance on observed entries
    agree = np.sign(w[obs.i, obs.cols]) == np.sign(obs.y)
    assert agree.mean() > 0.75
    assert np.diff(fit.objective_history)[np.array(fit.restarts, int) - 1].max(initial=0) >= 0


def test_plais_smoothed_quantile_runs():
    obs, truth = gaussian_instance(d_u=20, d_vs=(14,), ranks=(2,), seed=19, p=0.9)
    losses = (LipschitzLoss.quantile(0.5),)
    lip = 1.0 / (0.05 * 20 * truth.layout.D)  # 1/smoothing scaled by n
    cfg = SolverConfig(lam=1e-7, mode="general_loss", losses=losses,
                       smoothing=0.05, lipschitz=lip, max_iters=300)
    fit = plais_impute(obs, cfg)
    assert fit.factors.rank >= 1
    with pytest.raises(ValueError):
        plais_impute(obs, SolverConfig(lam=0.1, mode="general_loss",
                                       losses=(LipschitzLoss.hinge(),)))


def test_clip_final_flag():
    obs, _ = gaussian_instance(seed=20, p=0.9)
    lip = tight_lipschitz(obs)
    cfg = SolverConfig(lam=1e-9, lipschitz=lip, gamma=0.2, clip_final=True,
                       max_iters=50)
    fit = plais_impute(obs, cfg)
    assert fit.factors.to_matrix().max() <= 0.2 + 1e-9
    assert "clipped" in fit.flags


def test_lambda_heuristic_hand_formula():
    layout = BlockLayout(100, (100,))
    full = CollectiveMatrix(layout, np.ones((100, 100)))
    obs = mask_sample(full, SamplingScheme.uniform(1.0), 0, (GAUSS,))
    got = lambda_heuristic(obs)
    assert estimate_mu(obs) == 100
    expected = 2 * 1.0 * (math.sqrt(100) + math.log(100) ** 1.5) / 10_000
    assert got == pytest.approx(expected, rel=1e-12)
    assert lambda_heuristic(obs, constant_c=2.0) == pytest.approx(2 * got)


def test_lambda_heuristic_empty_observations():
    layout = BlockLayout(50, (20,))
    empty = ObservationSet(layout, [], [], [], [], (GAUSS,))
    expected = 2 * (math.log(50) ** 1.5) / 1000
    assert lambda_heuristic(empty) == pytest.approx(expected, rel=1e-12)


def test_lambda_general_loss_hand_formula():
    layout = BlockLayout(10, (10,))
    rng = np.random.default_rng(0)
    # 16 observations in one row and one column would give mu=16; easier:
    # construct a mask whose largest marginal count is known
    obs = ObservationSet(layout, [0] * 10, [0] * 10, list(range(10)),
                         rng.normal(size=10))
    mu = estimate_mu(obs)
    got = lambda_general_loss(obs, (LipschitzLoss.hinge(),))
    expected = 2 * 1.0 * (math.sqrt(mu) + math.sqrt(math.log(10))) / 100
    assert got == pytest.approx(expected, rel=1e-12)
    doubled = lambda_general_loss(obs, (LipschitzLoss("hinge", rho=2.0),))
    assert doubled == pytest.approx(2 * got)


def test_theory_bound_scalings_and_spot_value():
    base = {"rank": 5, "p": 0.5, "d_u": 300, "D": 300, "mu": 600,
            "gamma": 1.0, "L2": 1.0, "U2": 1.0, "K": 1.0, "constant_c": 1.0}
    b = theory_bound("expfam", base)
    assert theory_bound("expfam", {**base, "p": 1.0}) == pytest.approx(b / 4)
    assert theory_bound("expfam", {**base, "rank": 10}) == pytest.approx(2 * b)
    # hand arithmetic of the closed form
    logd = math.log(300)
    expected = 5 * (1 + 1) * (600 + logd**3) / (0.25 * 300 * 300)
    assert b == pytest.approx(expected, rel=1e-12)
    g = theory_bound("general", {**base, "rho": 1.0, "varsigma": 0.5})
    assert theory_bound("general", {**base, "rho": 1.0, "varsigma": 0.5,
                                    "p": 1.0}) == pytest.approx(g / 2)


def test_solver_config_round_trip():
    cfg = SolverConfig(lam=0.5, nu=0.3, epsilon=1e-8, max_iters=77,
                       lipschitz=0.01, gamma=2.0, mode="general_loss",
                       losses=(LipschitzLoss.quantile(0.25),), constant_c=0.5,
                       init_rank=12, warm_slack=3, basis_drop=1e-4,
                       smoothing=0.1, clip_final=True, momentum=False)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ValueError):
        SolverConfig(nu=1.5).validate()
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0).validate()
    with pytest.raises(ValueError):
        SolverConfig(mode="general_loss").validate()


def test_partial_solver_dict_takes_field_defaults():
    # the solver section a config file may give: only the keys it sets
    d = {"lambda": 2.5e-5, "lipschitz": 1.6e-7, "init_rank": 25, "basis_drop": 1e-3}
    assert config_from_dict(d) == SolverConfig(lam=2.5e-5, lipschitz=1.6e-7,
                                               init_rank=25, basis_drop=1e-3)


def test_lambda_calibration_sweep():
    from heteromc import lambda_calibration_sweep
    obs, _ = gaussian_instance(seed=23)
    sweep = lambda_calibration_sweep(obs)
    assert set(sweep) == {0.25, 0.5, 1.0, 2.0, 4.0}
    base = lambda_heuristic(obs)
    for c, lam in sweep.items():
        assert lam == pytest.approx(c * base)


def test_plais_mixed_family_likelihood():
    from heteromc import SamplingScheme, SyntheticConfig, bregman_fit, \
        generate_synthetic, observe_from_model
    syn = SyntheticConfig(60, (20, 20, 20), (2, 2, 2), ("gaussian",) * 3,
                          seed=77, gamma=2.0)
    truth = generate_synthetic(syn)
    fams = (ExpFamilyModel("gaussian", 1.0, gamma=2.0),
            ExpFamilyModel("poisson", gamma=2.0),
            ExpFamilyModel("binomial", 3, gamma=2.0))
    obs = observe_from_model(truth, fams, SamplingScheme.uniform(0.7), 78)
    lip = tight_lipschitz(obs)
    n = obs.layout.d_u * obs.layout.D
    lam = 0.2 * rank1_svd(obs.dense_y())[1] / n
    fit = plais_impute(obs, SolverConfig(lam=lam, lipschitz=lip, max_iters=200))
    assert fit.factors.rank >= 1
    assert fit.objective_history[-1] < fit.objective_history[0]
    w_hat = fit.factors.to_matrix()
    # the fit is closer to the truth than the zero matrix, per-family
    assert bregman_fit(obs, w_hat, truth.values) < bregman_fit(
        obs, np.zeros_like(w_hat), truth.values)


def _sparse_fit_setup(mode):
    obs, _ = gaussian_instance(d_u=60, d_vs=(30, 30), ranks=(3, 2), seed=21, p=0.15)
    if mode == "likelihood":
        lip = tight_lipschitz(obs)
        return obs, SolverConfig(lam=data_scale_lambda(obs, lip), lipschitz=lip,
                                 init_rank=10)
    losses = (LipschitzLoss.quantile(0.5),) * 2
    lip = 1.0 / (obs.layout.d_u * obs.layout.D)  # smoothing 1 -> curvature 1
    return obs, SolverConfig(mode="general_loss", losses=losses, smoothing=1.0,
                             lam=data_scale_lambda(obs, lip), lipschitz=lip, init_rank=10)


@pytest.mark.parametrize("mode", ["likelihood", "general_loss"])
def test_plais_dense_and_structured_z_give_the_same_fit(monkeypatch, mode):
    obs, cfg = _sparse_fit_setup(mode)
    fits = []
    for crossover in (0.0, 1.0):  # every instance dense, then none
        monkeypatch.setattr(solvers, "DENSE_Z_MIN_DENSITY", crossover)
        fits.append(plais_impute(obs, cfg))
    dense, structured = fits
    assert dense.terminated_by == structured.terminated_by == "tolerance"
    assert dense.rank_history == structured.rank_history
    assert dense.restarts == structured.restarts
    assert np.allclose(dense.objective_history, structured.objective_history,
                       rtol=1e-9, atol=0)


def test_plais_structured_z_builds_no_dense_matrix(monkeypatch):
    obs, cfg = _sparse_fit_setup("likelihood")

    def forbidden(self):
        raise AssertionError("built a d_u x D matrix")

    monkeypatch.setattr(solvers, "DENSE_Z_MIN_DENSITY", 1.0)
    monkeypatch.setattr(ObservationSet, "dense_y", forbidden)
    monkeypatch.setattr(ThinFactors, "to_matrix", forbidden)
    fit = plais_impute(obs, cfg)
    assert fit.terminated_by == "tolerance" and fit.factors.rank > 0


def test_plais_flags_a_power_method_at_its_cap(monkeypatch):
    obs, cfg = _sparse_fit_setup("likelihood")
    capped = solvers.approx_svt
    monkeypatch.setattr(solvers, "approx_svt",
                        lambda *args: capped(*args, max_iters=1))
    assert plais_impute(obs, cfg).flags.count("power_not_converged") == 1


def test_plais_without_momentum_never_extrapolates(monkeypatch):
    obs, cfg = _sparse_fit_setup("likelihood")
    thetas = []
    extrapolate = solvers._extrapolate

    def spy(cur, prev, theta):
        thetas.append(theta)
        return extrapolate(cur, prev, theta)

    monkeypatch.setattr(solvers, "_extrapolate", spy)
    fit = plais_impute(obs, replace(cfg, momentum=False))
    assert fit.terminated_by == "tolerance"
    assert thetas and set(thetas) == {0.0}
