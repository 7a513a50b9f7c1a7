import numpy as np
import pytest

from heteromc import (
    BlockLayout,
    CollectiveMatrix,
    ExpFamilyModel,
    ObservationSet,
    SamplingScheme,
    SyntheticConfig,
    generate_synthetic,
    mask_sample,
    neg_log_likelihood,
    nuclear_norm,
    observe_from_model,
)

GAUSS = ExpFamilyModel("gaussian", 1.0)
POIS = ExpFamilyModel("poisson")
BINOM2 = ExpFamilyModel("binomial", 2)
GAMMA_M = ExpFamilyModel("gamma", 0.2, interval=(-1.5, -0.5))
NEGBIN = ExpFamilyModel("negbinomial", 1.0, interval=(-2.0, -0.5))

ALL_FAMILIES = (GAUSS, BINOM2, GAMMA_M, NEGBIN, POIS)


def family_grid(model, num=41):
    """Evaluation grid inside the model's admissible interval."""
    lo, hi = model.eval_interval
    pad = 1e-3 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, num)


def domain_matrix(model, shape, rng):
    """Random parameter matrix with entries inside the model's domain."""
    lo, hi = model.eval_interval
    return rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), shape)


def make_obs(model, d_u=20, d_v=30, p=0.8, seed=0, w_true=None):
    """Masked observations for one source drawn from its family at w_true."""
    rng = np.random.default_rng(seed)
    layout = BlockLayout(d_u, (d_v,))
    if w_true is None:
        w_true = domain_matrix(model, (d_u, d_v), rng)
    params = CollectiveMatrix(layout, w_true)
    return observe_from_model(params, (model,), SamplingScheme.uniform(p), seed + 1), params


def gaussian_instance(d_u=24, d_vs=(18, 14), ranks=(3, 2), p=0.7, seed=0,
                      noise=True):
    """Small gaussian collective instance: (observations, truth)."""
    syn = SyntheticConfig(d_u, d_vs, ranks, ("gaussian",) * len(d_vs), seed=seed)
    truth = generate_synthetic(syn)
    fams = tuple(ExpFamilyModel("gaussian", 1.0) for _ in d_vs)
    scheme = SamplingScheme.uniform(p)
    if noise:
        obs = observe_from_model(truth, fams, scheme, seed + 1)
    else:
        obs = mask_sample(truth, scheme, seed + 1, fams)
    return obs, truth


def penalized_objective(obs, w, lam):
    """Likelihood objective f(W) + lam ||W||_*, the quantity both drivers record."""
    return neg_log_likelihood(obs, w) + lam * nuclear_norm(w)


def curved_instance(d_u=24, d_vs=(18, 14), ranks=(3, 2), p=0.7, seed=0):
    """Gaussian (variance 2) plus poisson instance: (observations, truth).

    Its curvatures differ from 1 and from each other, so a unit-scale slip
    does not cancel out.
    """
    syn = SyntheticConfig(d_u, d_vs, ranks, ("gaussian", "poisson"), seed=seed)
    truth = generate_synthetic(syn)
    fams = (ExpFamilyModel("gaussian", 2.0), POIS)
    return observe_from_model(truth, fams, SamplingScheme.uniform(p), seed + 1), truth


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
