import gc
import math
import os
import platform
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from heteromc import (
    CollectiveMatrix,
    ExpFamilyModel,
    LipschitzLoss,
    SamplingScheme,
    SolverConfig,
    SyntheticConfig,
    apg_solve,
    generate_synthetic,
    grad_neg_log_likelihood,
    lambda_general_loss,
    lambda_heuristic,
    mask_sample,
    neg_log_likelihood,
    observe_from_model,
    plais_impute,
    rank1_svd,
    relative_error,
    svt_exact,
    theory_bound,
    tight_lipschitz,
)
import heteromc
from heteromc import objectives, solvers
from heteromc.data import BlockLayout, ObservationSet, estimate_mu
from heteromc.lowrank import ThinFactors, _refill
from heteromc.jsonconf import from_json, to_json

from conftest import GAUSS, curved_instance, gaussian_instance, penalized_objective


def data_scale_lambda(obs, lipschitz, rel=0.05):
    return rel * lipschitz * rank1_svd(obs.dense_y())[1]


def pg_step(w, obs, lam, lipschitz):
    """One proximal-gradient step: SVT of the forward gradient step."""
    z = w - grad_neg_log_likelihood(obs, w).values / lipschitz
    return svt_exact(z, lam / lipschitz).to_matrix()


def test_pg_step_zero_iterate_and_fixed_point():
    obs, truth = gaussian_instance(seed=1, noise=False, p=1.0)
    w = obs.dense_y()
    lip = tight_lipschitz(obs)
    # threshold above the whole spectrum zeroes the iterate
    huge = 2.0 * lip * np.linalg.svd(w, compute_uv=False)[0]
    assert not pg_step(w, obs, huge, lip).any()
    # perfect fit and lambda = 0 is a fixed point
    out = pg_step(w, obs, 0.0, lip)
    assert np.allclose(out, w, atol=1e-10)


def test_pg_step_descends(rng):
    obs, _ = gaussian_instance(seed=2, p=0.8)
    lam = data_scale_lambda(obs, 1.0, rel=1e-3)
    w = rng.normal(size=obs.dense_y().shape)
    prev = penalized_objective(obs, w, lam)
    for _ in range(50):
        w = pg_step(w, obs, lam, 1.0)  # L=1 dominates the true constant
        cur = penalized_objective(obs, w, lam)
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
    masked_err = float(np.sum((w - truth.values)[obs.i, obs.cols] ** 2))
    assert masked_err < 1e-4


def test_apg_huge_lambda_gives_zero():
    obs, _ = gaussian_instance(seed=5)
    lam = 10.0 * np.linalg.svd(obs.dense_y(), compute_uv=False)[0]
    fit = apg_solve(obs, SolverConfig(lam=lam, lipschitz=1.0, max_iters=20))
    assert fit.factors.rank == 0
    assert "zero_solution" in fit.flags
    assert fit.objective_history[-1] == pytest.approx(
        penalized_objective(obs, np.zeros(obs.dense_y().shape), lam))


def test_apg_first_step_is_pg():
    # the extrapolation weight is 0 at the first step; unit curvature, then a
    # gaussian-variance-2 plus poisson instance
    for obs in (gaussian_instance(seed=6, p=0.9)[0], curved_instance(seed=6, p=0.9)[0]):
        lip = tight_lipschitz(obs)
        lam = data_scale_lambda(obs, lip)
        fit = apg_solve(obs, SolverConfig(lam=lam, lipschitz=lip, max_iters=1))
        w = pg_step(obs.dense_y(), obs, lam, lip)
        assert np.allclose(fit.factors.to_matrix(), w, rtol=0.0, atol=1e-12)
        assert fit.objective_history[1] == pytest.approx(penalized_objective(obs, w, lam),
                                                         rel=1e-12)


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
                                        max_iters=4000, epsilon=1e-14))
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
    assert d["z_form"] == fit.z_form == "dense"  # 24 x 32 is below the size bound


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


@pytest.mark.parametrize("driver, start_ranks", [(apg_solve, 0), (plais_impute, 1)],
                         ids=["apg_solve", "plais_impute"])
def test_both_drivers_share_flags_stop_and_histories(driver, start_ranks):
    obs, _ = gaussian_instance(seed=21, p=0.9)
    lip = tight_lipschitz(obs)
    lam0 = lip * rank1_svd(obs.dense_y())[1]
    zero = driver(obs, SolverConfig(lam=1.5 * lam0, lipschitz=lip, max_iters=50))
    assert zero.factors.rank == 0
    assert zero.flags[0] == "zero_solution"
    one = driver(obs, SolverConfig(lam=1e-9, lipschitz=lip, epsilon=1e-30, max_iters=1))
    assert one.terminated_by == "max_iters"
    assert len(one.objective_history) == 2
    # only plais_impute records the rank of its starting point
    assert len(one.rank_history) == 1 + start_ranks


@pytest.mark.parametrize("driver", [apg_solve, plais_impute], ids=["apg_solve", "plais_impute"])
def test_a_finished_solve_trims_the_heap_once_from_trim_min_entries(monkeypatch, driver):
    if sys.platform.startswith("linux") and platform.libc_ver()[0] == "glibc":
        assert solvers._MALLOC_TRIM is not None
    pads = []
    monkeypatch.setattr(solvers, "_MALLOC_TRIM", pads.append)
    obs, _ = gaussian_instance(seed=21, p=0.9)
    entries = obs.layout.d_u * obs.layout.D
    for bound, trims in ((entries + 1, []), (entries, [0])):
        monkeypatch.setattr(solvers, "TRIM_MIN_ENTRIES", bound)
        pads.clear()
        driver(obs, SolverConfig(lam=0.1, max_iters=5))
        assert pads == trims


def test_lambda_heuristic_hand_formula():
    layout = BlockLayout(100, (100,))
    full = CollectiveMatrix(layout, np.ones((100, 100)))
    obs = mask_sample(full, SamplingScheme.uniform(1.0), 0, (GAUSS,))
    got = lambda_heuristic(obs)
    assert estimate_mu(obs) == 100
    expected = 2 * 1.0 * (math.sqrt(100) + math.log(100) ** 1.5) / 10_000
    assert got == pytest.approx(expected, rel=1e-12)
    # the weight is linear in the constant; a power of two scales it exactly
    for c in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert lambda_heuristic(obs, c) == c * got


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
                       lipschitz=0.01, mode="general_loss",
                       losses=(LipschitzLoss.quantile(0.25),), constant_c=0.5,
                       init_rank=12, basis_drop=1e-4, smoothing=0.1)
    assert from_json(SolverConfig, to_json(cfg), "solver") == cfg
    # a config is checked when it is built, also by replace
    with pytest.raises(ValueError):
        SolverConfig(nu=1.5)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(mode="general_loss")
    with pytest.raises(ValueError, match="^nu must"):
        replace(cfg, nu=1.5)
    # each range check names its field
    for bad, field in [({"constant_c": 0.0}, "constant_c"), ({"basis_drop": -1.0}, "basis_drop"),
                       ({"smoothing": 0.0}, "smoothing"),
                       ({"init_rank": 2.5}, "init_rank"), ({"init_rank": 0}, "init_rank"),
                       ({"max_iters": 0}, "max_iters"), ({"max_iters": 10.0}, "max_iters")]:
        with pytest.raises(ValueError, match=f"^{field} must"):
            SolverConfig(**bad)
    # bool is an Integral, but True is not a number of iterations, a rank or a weight
    for name in ("nu", "epsilon", "max_iters", "lipschitz", "constant_c", "init_rank",
                 "basis_drop", "smoothing", "lam"):
        with pytest.raises(ValueError, match=f"^{'lambda' if name == 'lam' else name} must"):
            SolverConfig(**{name: True})
    with pytest.raises(ValueError, match="^losses are read only in general_loss mode"):
        SolverConfig(losses=(LipschitzLoss.logistic(),))


def test_partial_solver_dict_takes_field_defaults():
    # the solver section a config file may give: only the keys it sets
    d = {"lambda": 2.5e-5, "lipschitz": 1.6e-7, "init_rank": 25, "basis_drop": 1e-3}
    assert from_json(SolverConfig, d, "solver") == SolverConfig(
        lam=2.5e-5, lipschitz=1.6e-7, init_rank=25, basis_drop=1e-3)
    # "lam" is the field name, not its JSON key: a typo is named, not ignored
    with pytest.raises(ValueError, match="'lam'"):
        from_json(SolverConfig, {"lam": 0.1, "nu": 0.5}, "solver")


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
    curved = mode in ("curved", "curved_high_fill")
    if curved:  # sup G'' = 4, so the step constant is not 1 / (d_u D)
        syn = SyntheticConfig(60, (30, 30), (3, 2), ("gaussian",) * 2, seed=21)
        fams = (ExpFamilyModel("gaussian", 4.0), ExpFamilyModel("binomial", 10))
        p = 0.9 if mode == "curved_high_fill" else 0.15
        obs = observe_from_model(generate_synthetic(syn), fams, SamplingScheme.uniform(p), 22)
    else:
        obs, _ = gaussian_instance(d_u=60, d_vs=(30, 30), ranks=(3, 2), seed=21, p=0.15)
    if curved or mode == "likelihood":
        lip = tight_lipschitz(obs)
        # at 90 % observed the default weight zeroes the fit; this one ends at rank 19
        rel = 0.02 if mode == "curved_high_fill" else 0.05
        return obs, SolverConfig(lam=data_scale_lambda(obs, lip, rel), lipschitz=lip,
                                 init_rank=10)
    losses = (LipschitzLoss.quantile(0.5),) * 2
    lip = 1.0 / (obs.layout.d_u * obs.layout.D)  # smoothing 1 -> curvature 1
    return obs, SolverConfig(mode="general_loss", losses=losses, smoothing=1.0,
                             lam=data_scale_lambda(obs, lip), lipschitz=lip, init_rank=10)


def force_z_form(monkeypatch, form):
    """Set plais_impute's one Z-form bound, ``DENSE_Z_MAX_ENTRIES``, so that
    every instance takes ``form``."""
    monkeypatch.setattr(solvers, "DENSE_Z_MAX_ENTRIES",
                        {"dense": math.inf, "structured": 0}[form])


# structured Z runs at every fill above the size bound, so one curved
# instance is 90 % observed
@pytest.mark.parametrize("mode", ["likelihood", "general_loss", "curved", "curved_high_fill"])
def test_plais_dense_and_structured_z_give_the_same_fit(monkeypatch, mode):
    obs, cfg = _sparse_fit_setup(mode)
    if mode.startswith("curved"):
        assert cfg.lipschitz == pytest.approx(4.0 / (obs.layout.d_u * obs.layout.D))
    fits = []
    for form in ("dense", "structured"):
        force_z_form(monkeypatch, form)
        fits.append(plais_impute(obs, cfg))
        assert fits[-1].z_form == form
    dense, structured = fits
    assert dense.terminated_by == structured.terminated_by == "tolerance"
    assert dense.factors.rank > 0
    assert dense.rank_history == structured.rank_history
    assert dense.restarts == structured.restarts
    assert np.allclose(dense.objective_history, structured.objective_history,
                       rtol=1e-9, atol=0)


def test_plais_structured_z_builds_no_dense_matrix(monkeypatch):
    obs, cfg = _sparse_fit_setup("likelihood")

    def forbidden(self):
        raise AssertionError("built a d_u x D matrix")

    force_z_form(monkeypatch, "structured")
    monkeypatch.setattr(ObservationSet, "dense_y", forbidden)
    monkeypatch.setattr(ThinFactors, "to_matrix", forbidden)
    fit = plais_impute(obs, cfg)
    assert fit.z_form == "structured"
    assert fit.terminated_by == "tolerance" and fit.factors.rank > 0


def test_plais_structured_z_builds_omegas_csr_matrix_once(monkeypatch):
    obs, cfg = _sparse_fit_setup("likelihood")
    built = []

    class Counting(sparse.csr_matrix):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    force_z_form(monkeypatch, "structured")
    monkeypatch.setattr(sparse, "csr_matrix", Counting)
    fit = plais_impute(obs, cfg)
    assert fit.z_form == "structured" and len(fit.objective_history) > 2
    assert len(built) == 1


@pytest.mark.parametrize("form", ["dense", "structured"])
def test_a_set_and_its_cached_likelihood_term_form_no_cycle(monkeypatch, form):
    # with a cycle, a dead set and its term would wait for a full collection
    obs, cfg = _sparse_fit_setup("likelihood")
    force_z_form(monkeypatch, form)
    fit = plais_impute(obs, cfg)
    assert fit.z_form == form
    w = fit.factors.to_matrix()
    neg_log_likelihood(obs, w)
    grad_neg_log_likelihood(obs, w)
    assert objectives._likelihood_term(obs) is objectives._likelihood_term(obs)
    alive = weakref.ref(obs)
    gc.disable()
    try:
        del obs
        assert alive() is None
    finally:
        gc.enable()


GESDD_FAILURE = """
from dataclasses import replace
from heteromc import ExperimentSpec, LipschitzLoss, SolverConfig, bench, plais_impute
spec = ExperimentSpec(d_u=300, d_vs=(100, 100, 100), ranks=(5, 5, 5),
                      factor_laws=("gaussian", "poisson", "bernoulli"), p_grid=(0.2,),
                      seed=1, rel_lambda=0.01, methods=("collective",),
                      solver=SolverConfig(mode="general_loss", smoothing=0.01,
                                          losses=(LipschitzLoss.quantile(0.5),) * 3))
obs = bench._instance(spec, 0.2, 0, 0)[1]
fit = plais_impute(obs, replace(bench._fit_config(spec, obs), max_iters=80))
print(len(fit.objective_history) - 1, fit.factors.rank)
"""


def test_plais_fits_past_the_residual_that_gesdd_fails_on():
    # At one BLAS thread LAPACK's gesdd raised "SVD did not converge" on this
    # instance's warm-basis residual at t = 77, at rank 245 of 300, with
    # nothing non-finite.  The thread count changes the rounding, so the fit
    # runs in a child process with one BLAS thread.
    src = str(Path(heteromc.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", GESDD_FAILURE], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    iterations, rank = map(int, out.stdout.split())
    assert iterations == 80 and rank > 0


# 1024 columns: 512 rows make exactly DENSE_Z_MAX_ENTRIES = 2**19 entries;
# the fill does not matter
@pytest.mark.parametrize("d_u, nnz, form", [
    (512, 2**16, "dense"),  # at the size bound, an eighth observed
    (513, 2**16, "structured"),  # one row past it
    (512, 512 * 1024, "dense"),  # at the size bound, fully observed
    (513, 513 * 1024, "structured"),  # one row past it, fully observed
])
def test_plais_picks_the_z_form_by_size(d_u, nnz, form):
    assert solvers.DENSE_Z_MAX_ENTRIES == 512 * 1024
    flat = np.arange(nnz)
    y = np.random.default_rng(3).standard_normal(nnz)
    obs = ObservationSet(BlockLayout(d_u, (1024,)), np.zeros(nnz, dtype=int),
                         flat // 1024, flat % 1024, y, (GAUSS,))
    fit = plais_impute(obs, SolverConfig(lam=1e-9, max_iters=1))
    assert fit.z_form == fit.to_dict()["z_form"] == form


def test_plais_takes_one_power_step_from_the_basis_then_the_tail_then_random_columns(monkeypatch):
    obs, cfg = _sparse_fit_setup("likelihood")
    calls = []
    svt = solvers.approx_svt

    def recording(*args, **kwargs):
        out = svt(*args, **kwargs)
        calls.append((args[1], kwargs, out))
        return out

    monkeypatch.setattr(solvers, "approx_svt", recording)
    fit = plais_impute(obs, cfg)
    assert fit.terminated_by == "tolerance" and len(calls) > 2
    assert all(kwargs == {"max_iters": 1} for _, kwargs, _ in calls)
    assert fit.input_rank_history == [cfg.init_rank, *fit.rank_history[1:-1]]
    # the first warm start pads the rank-1 start to init_rank + WARM_SLACK
    first = calls[0][0]
    assert np.array_equal(first, _refill(first[:, :1], cfg.init_rank + solvers.WARM_SLACK,
                                         np.random.default_rng((8082, 1))))
    # after V_t come the last call's sub-threshold Ritz vectors, in their
    # order, and then exactly the columns _refill draws from (8082, t)
    for t in range(2, len(calls) + 1):
        r0 = calls[t - 1][0]
        cur, _, tail = calls[t - 2][2]
        r, width = cur.rank, min(cur.rank + solvers.WARM_SLACK, obs.layout.d_u, obs.layout.D)
        k = min(tail.shape[1], width - r)
        assert r0.shape[1] == width
        assert np.array_equal(r0[:, :r], cur.v)
        assert np.array_equal(r0[:, r:r + k], tail[:, :k])
        drawn = _refill(np.empty((obs.layout.D, r + k)), width, np.random.default_rng((8082, t)))
        assert np.array_equal(r0[:, r + k:], drawn[:, r + k:])


@pytest.mark.parametrize("form", ["dense", "structured"])
def test_plais_warm_start_is_at_most_the_rank_plus_the_slack(monkeypatch, form):
    obs, cfg = _sparse_fit_setup("likelihood")
    force_z_form(monkeypatch, form)
    fit = plais_impute(obs, cfg)
    assert fit.z_form == form
    assert fit.input_rank_history[0] == cfg.init_rank
    for t in range(1, len(fit.input_rank_history)):
        assert fit.input_rank_history[t] <= fit.rank_history[t] + solvers.WARM_SLACK, t


# apg_solve steps at the largest curvature, so with a variance-2 family its
# 1e-12 stop falls 9e-9 relative short of the minimum; 1e-14 does not
@pytest.mark.parametrize("variances, epsilon", [((1.0, 1.0), 1e-12), ((1.0, 2.0), 1e-14)])
def test_plais_rank_grows_past_the_slack_to_the_minimizer(variances, epsilon):
    # the minimizers have rank 34 and 30; from a one-column start and no
    # init_rank the warm start begins 6 wide and adds at most WARM_SLACK
    # columns per iteration
    syn = SyntheticConfig(200, (100, 100), (15, 15), ("gaussian",) * 2, seed=5)
    fams = tuple(ExpFamilyModel("gaussian", v) for v in variances)
    obs = mask_sample(generate_synthetic(syn), SamplingScheme.uniform(0.5), 6, fams)
    lip = tight_lipschitz(obs)
    cfg = SolverConfig(lam=data_scale_lambda(obs, lip, rel=0.02), lipschitz=lip,
                       epsilon=epsilon, max_iters=5000)
    apg = apg_solve(obs, cfg)
    pl = plais_impute(obs, cfg)
    assert apg.terminated_by == pl.terminated_by == "tolerance"
    assert pl.factors.rank == apg.factors.rank > solvers.WARM_SLACK + 1
    assert pl.objective_history[-1] == pytest.approx(apg.objective_history[-1], rel=1e-9)


def _smooth_loss_setup(kind):
    """Instance and config, with its hand-written step constant, of
    test_plais_general_loss_logistic, test_plais_smoothed_quantile_runs or
    the general-loss case of :func:`_sparse_fit_setup`."""
    if kind == "logistic":
        rng = np.random.default_rng(16)
        syn = SyntheticConfig(30, (20, 16), (2, 2), ("gaussian", "gaussian"), seed=17)
        truth = generate_synthetic(syn)
        layout = truth.layout
        labels = np.where(rng.random((30, layout.D)) < 1 / (1 + np.exp(-4 * truth.values)),
                          1.0, -1.0)
        obs = mask_sample(CollectiveMatrix(layout, labels), SamplingScheme.uniform(0.8), 18)
        return obs, SolverConfig(lam="auto", constant_c=0.02, mode="general_loss",
                                 losses=(LipschitzLoss.logistic(),) * 2,
                                 lipschitz=0.25 / (30 * layout.D), max_iters=200)
    if kind == "quantile":
        obs, truth = gaussian_instance(d_u=20, d_vs=(14,), ranks=(2,), seed=19, p=0.9)
        return obs, SolverConfig(lam=1e-7, mode="general_loss",
                                 losses=(LipschitzLoss.quantile(0.5),), smoothing=0.05,
                                 lipschitz=1.0 / (0.05 * 20 * truth.layout.D), max_iters=300)
    return _sparse_fit_setup("general_loss")


@pytest.mark.parametrize("kind", ["logistic", "quantile", "sparse_quantile"])
def test_derived_step_constant_equals_the_hand_written_ones(kind):
    obs, cfg = _smooth_loss_setup(kind)
    assert tight_lipschitz(obs, cfg) == cfg.lipschitz


@pytest.mark.parametrize("driver", [apg_solve, plais_impute])
@pytest.mark.parametrize("mode", ["curved", "logistic", "quantile"])
def test_unset_lipschitz_steps_with_the_data_terms_constant(driver, mode):
    obs, cfg = _sparse_fit_setup(mode) if mode == "curved" else _smooth_loss_setup(mode)
    cfg = replace(cfg, lipschitz=None, max_iters=60)
    fit = driver(obs, cfg)
    assert fit.config.lipschitz == tight_lipschitz(obs, cfg)
    explicit = driver(obs, replace(cfg, lipschitz=tight_lipschitz(obs, cfg)))
    assert fit.objective_history == explicit.objective_history
    assert fit.rank_history == explicit.rank_history
    for got, want in zip((fit.factors.u, fit.factors.sigma, fit.factors.v),
                         (explicit.factors.u, explicit.factors.sigma, explicit.factors.v)):
        assert np.array_equal(got, want)
