import math

import numpy as np
import pytest

from heteromc import (
    BlockLayout,
    CollectiveMatrix,
    ExpFamilyModel,
    LipschitzLoss,
    ObservationSet,
    bregman,
    bregman_fit,
    empirical_risk,
    g_prime,
    g_value,
    grad_neg_log_likelihood,
    grad_operator_norm,
    lipschitz_grad_constant,
    neg_log_likelihood,
    nuclear_norm,
    rank1_svd,
    strong_convexity_bounds,
)
from heteromc.objectives import DataTerm, solver_loss_terms

from conftest import (ALL_FAMILIES, GAUSS, POIS, curved_instance, domain_matrix, make_obs,
                      penalized_objective)


def naive_nll(obs, w):
    # per-entry loop oracle
    total = 0.0
    for v, i, j, y in zip(obs.v, obs.i, obs.j, obs.y):
        eta = w[i, obs.layout.col_offsets[v] + j]
        total += y * eta - g_value(obs.families[v], eta)
    return -total / (obs.layout.d_u * obs.layout.D)


def test_nll_empty():
    layout = BlockLayout(4, (3,))
    obs = ObservationSet(layout, [], [], [], [], (GAUSS,))
    assert neg_log_likelihood(obs, np.zeros((4, 3))) == 0.0
    assert not grad_neg_log_likelihood(obs, np.zeros((4, 3))).values.any()


def test_nll_single_poisson_observation():
    layout = BlockLayout(5, (4,))
    obs = ObservationSet(layout, [0], [2], [1], [1.0], (POIS,))
    # 1*0 - e^0 = -1, so the NLL is 1/n
    assert neg_log_likelihood(obs, np.zeros((5, 4))) == pytest.approx(1.0 / 20)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_nll_matches_loop_oracle(model, rng):
    obs, params = make_obs(model, d_u=9, d_v=7, p=0.8, seed=3)
    w = domain_matrix(model, (9, 7), rng)
    assert neg_log_likelihood(obs, w) == pytest.approx(naive_nll(obs, w), rel=1e-12)


def test_gradient_zero_at_mean_link(rng):
    obs, _ = make_obs(GAUSS, d_u=8, d_v=6, seed=4)
    # choose w so that G'(w) = y at every observation
    w = np.zeros((8, 6))
    w[obs.i, obs.cols] = obs.y / GAUSS.nuisance
    assert np.allclose(grad_neg_log_likelihood(obs, w).values, 0.0, atol=1e-15)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_gradient_matches_finite_differences(model, rng):
    obs, _ = make_obs(model, d_u=20, d_v=30, p=0.6, seed=5)
    w = domain_matrix(model, (20, 30), rng)
    grad = grad_neg_log_likelihood(obs, w).values
    h = 1e-5
    fd = np.zeros_like(w)
    for i, c in zip(obs.i, obs.cols):
        wp, wm = w.copy(), w.copy()
        wp[i, c] += h
        wm[i, c] -= h
        fd[i, c] = (neg_log_likelihood(obs, wp) - neg_log_likelihood(obs, wm)) / (2 * h)
    assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-6
    # zero off the observed support
    mask = np.zeros(w.shape, dtype=bool)
    mask[obs.i, obs.cols] = True
    assert not grad[~mask].any()


def test_lipschitz_constant_value():
    layout = BlockLayout(10, (10,))
    obs = ObservationSet(layout, [0], [0], [0], [1.0], (GAUSS,))
    assert lipschitz_grad_constant(obs) == pytest.approx(0.01)  # U=1, n=100


# non-unit curvatures: sup G'' = 4 and 10/4, where sqrt(sup G'') is no bound
NON_UNIT = (ExpFamilyModel("gaussian", 4.0), ExpFamilyModel("binomial", 10))


@pytest.mark.parametrize("model", ALL_FAMILIES + NON_UNIT,
                         ids=[m.family for m in ALL_FAMILIES] + ["gaussian-var4", "binomial-n10"])
def test_lipschitz_bound_holds_empirically(model, rng):
    obs, _ = make_obs(model, d_u=12, d_v=10, p=0.7, seed=6)
    bound = lipschitz_grad_constant(obs)
    lo, hi = model.interval if model.interval else (-model.gamma, model.gamma)
    for _ in range(100):
        w = rng.uniform(lo, hi, (12, 10))
        q = rng.uniform(lo, hi, (12, 10))
        num = np.linalg.norm(grad_neg_log_likelihood(obs, w).values
                             - grad_neg_log_likelihood(obs, q).values)
        assert num <= bound * np.linalg.norm(w - q) * (1 + 1e-12)


def _scalar_loss(loss, y, x):
    """Pointwise loss l(y, x) of one entry, the oracle for empirical_risk."""
    if loss.kind == "hinge":
        return max(0.0, 1.0 - y * x)
    if loss.kind == "logistic":
        return float(np.logaddexp(0.0, -y * x))
    z = x - y
    return z * (loss.tau - (z <= 0))


def _single_risk(loss, y, x):
    # one observation of a 1 x 1 matrix: the risk is the pointwise loss
    obs = ObservationSet(BlockLayout(1, (1,)), [0], [0], [0], [y])
    return empirical_risk(obs, np.array([[x]]), (loss,))


def test_loss_values():
    assert _single_risk(LipschitzLoss.hinge(), 1.0, 1.0) == 0.0
    assert _single_risk(LipschitzLoss.logistic(), 1.0, 0.0) == pytest.approx(math.log(2))
    # z(tau - 1{z<=0}) at z = 2, tau = 0.5
    assert _single_risk(LipschitzLoss.quantile(0.5), 0.0, 2.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        _single_risk(LipschitzLoss.hinge(), 0.5, 1.0)
    with pytest.raises(ValueError):
        LipschitzLoss.quantile(1.5)


def _label_obs(seed=0, d_u=10, d_v=8, layout_sizes=(8, 6)):
    rng = np.random.default_rng(seed)
    layout = BlockLayout(d_u, layout_sizes)
    mask = rng.random((d_u, layout.D)) < 0.7
    ii, cc = np.nonzero(mask)
    offsets = np.asarray(layout.col_offsets + (layout.D,))
    vv = np.searchsorted(offsets, cc, side="right") - 1
    jj = cc - offsets[vv]
    y = rng.choice([-1.0, 1.0], size=ii.size)
    return ObservationSet(layout, vv, ii, jj, y), rng


def test_empirical_risk_cases():
    obs, rng = _label_obs(seed=1)
    losses = (LipschitzLoss.hinge(), LipschitzLoss.logistic())
    layout = obs.layout
    empty = ObservationSet(layout, [], [], [], [])
    assert empirical_risk(empty, np.zeros((10, layout.D)), losses) == 0.0
    # all-correct hinge with margins >= 1 has zero risk
    w = np.zeros((10, layout.D))
    w[obs.i, obs.cols] = 2.0 * obs.y
    assert empirical_risk(obs, w, (LipschitzLoss.hinge(),) * 2) == 0.0
    # loop oracle
    w = rng.normal(size=(10, layout.D))
    total = 0.0
    for v, i, j, y in zip(obs.v, obs.i, obs.j, obs.y):
        total += _scalar_loss(losses[v], y, w[i, layout.col_offsets[v] + j])
    assert empirical_risk(obs, w, losses) == pytest.approx(
        total / (10 * layout.D), rel=1e-12)


def test_logistic_solver_gradient_finite_differences():
    obs, rng = _label_obs(seed=2)
    losses = (LipschitzLoss.logistic(), LipschitzLoss.logistic())
    w = rng.normal(size=(10, obs.layout.D))
    g = DataTerm(obs, [solver_loss_terms(l) for l in losses], losses).grad(w)
    h = 1e-5
    fd = np.zeros_like(w)
    for i, c in zip(obs.i, obs.cols):
        wp, wm = w.copy(), w.copy()
        wp[i, c] += h
        wm[i, c] -= h
        fd[i, c] = (empirical_risk(obs, wp, losses) - empirical_risk(obs, wm, losses)) / (2 * h)
    assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6


def test_nuclear_norm_values(rng):
    assert nuclear_norm(np.diag([3.0, 1.0, 0.0])) == pytest.approx(4.0)
    u = rng.normal(size=6)
    v = rng.normal(size=9)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    assert nuclear_norm(5.0 * np.outer(u, v)) == pytest.approx(5.0)
    a = rng.normal(size=(7, 5))
    assert nuclear_norm(a) == pytest.approx(np.linalg.svd(a, compute_uv=False).sum())


def test_grad_operator_norm_matches_the_dense_gradient(rng):
    # gaussian variance 2 plus poisson, so the gradient is not a unit-scale residual
    obs, truth = curved_instance(seed=4)
    for w in (truth.values, 0.5 * truth.values + 0.1 * rng.normal(size=truth.values.shape)):
        dense = rank1_svd(grad_neg_log_likelihood(obs, w).values, tol=1e-12)[1]
        assert grad_operator_norm(obs, w) == pytest.approx(dense, rel=1e-10, abs=0)


def test_objective_convexity_along_segments(rng):
    # unit curvature, then a gaussian-variance-2 plus poisson instance
    for obs in (make_obs(GAUSS, d_u=8, d_v=7, seed=8)[0],
                curved_instance(d_u=8, d_vs=(4, 3), ranks=(2, 1), seed=8)[0]):
        for _ in range(20):
            w = rng.normal(size=(8, 7))
            q = rng.normal(size=(8, 7))
            mid = penalized_objective(obs, (w + q) / 2, 0.2)
            avg = (penalized_objective(obs, w, 0.2) + penalized_objective(obs, q, 0.2)) / 2
            assert mid <= avg + 1e-10


def test_bregman_fit_values(rng):
    obs, params = make_obs(GAUSS, d_u=6, d_v=5, seed=9)
    assert bregman_fit(obs, params.values, params.values) == 0.0
    layout = BlockLayout(4, (5,))
    single = ObservationSet(layout, [0], [1], [2], [0.3], (GAUSS,))
    w_true = np.zeros((4, 5))
    w_hat = w_true.copy()
    w_hat[1, 2] = 2.0
    # gaussian divergence (x-y)^2/2 = 2 at a single observed entry
    assert bregman_fit(single, w_hat, w_true) == pytest.approx(2.0 / 20)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_bregman_fit_sandwich(model, rng):
    obs, params = make_obs(model, d_u=10, d_v=8, seed=10)
    w_hat = domain_matrix(model, (10, 8), rng)
    got = bregman_fit(obs, w_hat, params.values)
    low, high = strong_convexity_bounds(model)
    delta_sq = float(np.sum((w_hat - params.values)[obs.i, obs.cols] ** 2)) / 80
    assert low / 2 * delta_sq <= got + 1e-12
    assert got <= high / 2 * delta_sq + 1e-12
