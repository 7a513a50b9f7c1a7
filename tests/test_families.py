import math

import numpy as np
import pytest

from heteromc import (
    DomainError,
    ExpFamilyModel,
    bregman,
    g_prime,
    g_second,
    g_value,
    sample,
    strong_convexity_bounds,
)
from heteromc.jsonconf import from_json, to_json

from conftest import ALL_FAMILIES, GAMMA_M, GAUSS, NEGBIN, POIS, family_grid


def test_g_value_closed_forms():
    assert g_value(POIS, 0.0) == pytest.approx(1.0)
    assert g_value(GAUSS, 0.0) == 0.0
    assert g_value(ExpFamilyModel("binomial", 4), 0.0) == pytest.approx(4 * math.log(2))
    assert g_value(GAMMA_M, -1.0) == pytest.approx(0.0)  # -alpha*log(1)


def test_g_prime_closed_forms():
    assert g_prime(POIS, 0.0) == pytest.approx(1.0)
    assert g_prime(ExpFamilyModel("binomial", 2), 0.0) == pytest.approx(1.0)
    assert g_prime(GAUSS, 0.7) == pytest.approx(0.7)


def test_g_second_closed_forms():
    assert g_second(ExpFamilyModel("gaussian", 2.0), 0.31) == pytest.approx(2.0)
    assert g_second(POIS, math.log(3)) == pytest.approx(3.0)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_derivatives_match_finite_differences(model):
    # central-difference oracle, step 1e-5
    eta = family_grid(model)
    h = 1e-5
    fd_prime = (g_value(model, eta + h) - g_value(model, eta - h)) / (2 * h)
    fd_second = (g_prime(model, eta + h) - g_prime(model, eta - h)) / (2 * h)
    assert np.allclose(g_prime(model, eta), fd_prime, rtol=1e-6)
    assert np.allclose(g_second(model, eta), fd_second, rtol=1e-5)


def test_strong_convexity_closed_values():
    assert strong_convexity_bounds(ExpFamilyModel("gaussian", 1.0)) == (1.0, 1.0)
    low, high = strong_convexity_bounds(ExpFamilyModel("poisson", gamma=1.0, kappa=1.0))
    assert low == pytest.approx(math.exp(-2))
    assert high == pytest.approx(math.exp(2))


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_strong_convexity_sandwich_on_grid(model):
    # grid-search oracle over the evaluation interval
    grid = np.linspace(*model.eval_interval, 10_000)
    vals = g_second(model, grid)
    low, high = strong_convexity_bounds(model)
    assert low <= vals.min() + 1e-12
    assert vals.max() <= high + 1e-12
    assert np.all(vals > 0)
    # and tight: each end is the grid's extreme, up to the grid's spacing
    assert low == pytest.approx(vals.min(), rel=1e-6)
    assert high == pytest.approx(vals.max(), rel=1e-6)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_convexity_on_grid(model):
    eta = family_grid(model, num=25)
    e1, e2 = np.meshgrid(eta, eta)
    mid = g_value(model, (e1 + e2) / 2)
    avg = (g_value(model, e1) + g_value(model, e2)) / 2
    assert np.all(mid <= avg + 1e-12)
    off_diag = np.abs(e1 - e2) > 1e-8
    assert np.all(mid[off_diag] < avg[off_diag])


def test_bregman_values():
    assert bregman(GAUSS, 3.0, 1.0) == pytest.approx(2.0)  # (x-y)^2/2
    # direct evaluation of e^1 - e^0 - 1*e^0
    assert bregman(POIS, 1.0, 0.0) == pytest.approx(math.e - 2.0)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_bregman_nonnegative_and_identity(model, rng):
    eta = family_grid(model, num=15)
    x, y = np.meshgrid(eta, eta)
    d = bregman(model, x, y)
    assert np.all(d >= -1e-12)
    assert np.allclose(bregman(model, eta, eta), 0.0, atol=1e-12)
    off = np.abs(x - y) > 1e-6
    assert np.all(d[off] > 0)


def test_domain_errors():
    for bad in (0.0, 0.5, np.array([-1.0, 0.2])):
        with pytest.raises(DomainError):
            g_value(GAMMA_M, bad)
        with pytest.raises(DomainError):
            g_prime(NEGBIN, bad)
    with pytest.raises(DomainError):
        sample(GAMMA_M, 1.0, 0)


def test_model_validation():
    with pytest.raises(ValueError):
        ExpFamilyModel("weibull", 1.0)
    with pytest.raises(ValueError):
        ExpFamilyModel("gaussian", -1.0)
    with pytest.raises(ValueError):
        ExpFamilyModel("poisson", 1.0)
    with pytest.raises(ValueError):
        ExpFamilyModel("gamma", 1.0)  # missing interval
    with pytest.raises(ValueError):
        ExpFamilyModel("gamma", 1.0, interval=(-1.0, 0.5))  # mixed signs
    with pytest.raises(ValueError):
        ExpFamilyModel("binomial", 2.5)
    # gamma bound is derived from the interval
    assert ExpFamilyModel("gamma", 1.0, interval=(-2.0, -0.5)).gamma == 2.0
    # a curvature bracket that overflows or underflows is named, with no warning
    for build, message in (
            (lambda: ExpFamilyModel("poisson", gamma=800.0), "poisson gamma 800.0"),
            (lambda: ExpFamilyModel("poisson", kappa=1e-3), "poisson gamma 1.0 with kappa"),
            (lambda: ExpFamilyModel("binomial", 1, gamma=1e3), "binomial gamma"),
            (lambda: ExpFamilyModel("gamma", 1.0, interval=(-2.0, -1e-200)),
             "gamma interval"),
            (lambda: ExpFamilyModel("negbinomial", 1.0, interval=(-1e3, -1.0)),
             "negbinomial interval")):
        with pytest.raises(ValueError, match=f"^{message}.*must be finite and positive"):
            build()
    # binomial's G'' stays positive where 1 - sigma(eta) rounds to 0
    assert strong_convexity_bounds(ExpFamilyModel("binomial", 1, gamma=40.0))[0] == (
        pytest.approx(math.exp(-41), rel=1e-12))


def test_sampler_gaussian_mean():
    # law-of-large-numbers check: mean within 4*sigma/sqrt(n) of G'(eta)
    mu = 0.8
    draws = sample(GAUSS, np.full(100_000, mu), rng=7)
    assert abs(draws.mean() - mu) < 4.0 / math.sqrt(100_000)


def test_sampler_poisson_mean():
    draws = sample(POIS, np.zeros(100_000), rng=8)
    assert abs(draws.mean() - 1.0) < 0.02


def test_sampler_bernoulli_frequency():
    model = ExpFamilyModel("binomial", 1)
    draws = sample(model, np.zeros(100_000), rng=9)
    assert abs((draws == 1.0).mean() - 0.5) < 0.01


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_sampler_moments(model):
    lo, hi = model.eval_interval
    eta = lo + 0.6 * (hi - lo)
    draws = sample(model, np.full(200_000, eta), rng=11)
    mean, var = g_prime(model, eta), g_second(model, eta)
    assert abs(draws.mean() - mean) < 5 * math.sqrt(var / 200_000)
    assert abs(draws.var() - var) < 0.05 * var + 5e-3


def test_sampler_reproducible():
    a = sample(POIS, np.zeros(100), rng=42)
    b = sample(POIS, np.zeros(100), rng=42)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("model", ALL_FAMILIES, ids=lambda m: m.family)
def test_model_dict_round_trip(model):
    assert from_json(ExpFamilyModel, to_json(model), "family") == model
