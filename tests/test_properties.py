"""Property tests: observation-set invariants, the data term, file formats."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from heteromc import (
    BlockLayout,
    ExpFamilyModel,
    LipschitzLoss,
    ObservationSet,
    SolverConfig,
    empirical_risk,
    g_prime,
    g_value,
    grad_neg_log_likelihood,
    neg_log_likelihood,
    risk_subgradient,
)
from heteromc import io as hio
from heteromc.objectives import solver_loss_terms
from heteromc.solvers import _data_terms

SETTINGS = settings(max_examples=60, deadline=None)

layouts = st.builds(
    BlockLayout,
    st.integers(1, 6),
    st.lists(st.integers(1, 5), min_size=1, max_size=3).map(tuple),
)

# every family, with non-unit nuisance parameters where the family has one
families = st.one_of(
    st.builds(ExpFamilyModel, st.just("gaussian"), st.floats(0.25, 4.0)),
    st.builds(ExpFamilyModel, st.just("binomial"), st.integers(1, 10)),
    st.builds(lambda a, lo, w: ExpFamilyModel("gamma", a, interval=(lo - w, lo)),
              st.floats(0.2, 3.0), st.floats(-2.0, -0.3), st.floats(0.0, 1.0)),
    st.builds(lambda r, lo, w: ExpFamilyModel("negbinomial", r, interval=(lo - w, lo)),
              st.floats(0.5, 5.0), st.floats(-2.0, -0.3), st.floats(0.0, 1.0)),
    st.builds(ExpFamilyModel, st.just("poisson")),
)

losses = st.one_of(
    st.just(LipschitzLoss.hinge()),
    st.just(LipschitzLoss.logistic()),
    st.floats(0.05, 0.95).map(LipschitzLoss.quantile),
)


@st.composite
def observation_sets(draw, layout_strategy=layouts, tagged=False):
    """Random observation set, its triplets passed in shuffled order."""
    layout = draw(layout_strategy)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((layout.d_u, layout.D)) < draw(st.floats(0.0, 1.0))
    ii, cc = np.nonzero(mask)
    vj = [layout.split_col(int(c)) for c in cc]
    vv = np.array([v for v, _ in vj], dtype=np.int64)
    jj = np.array([j for _, j in vj], dtype=np.int64)
    y = rng.normal(size=ii.size)
    perm = rng.permutation(ii.size)
    fams = tuple(draw(families) for _ in layout.d_vs) if tagged else None
    return ObservationSet(layout, vv[perm], ii[perm], jj[perm], y[perm], fams)


def assert_invariants(obs):
    keys = list(zip(obs.v.tolist(), obs.i.tolist(), obs.j.tolist()))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert obs.cols.tolist() == [obs.layout.global_col(v, j) for v, _, j in keys]
    assert obs.cols is obs.cols and not obs.cols.flags.writeable
    stop = 0
    for v in range(obs.layout.V):
        sl = obs.source_slice(v)
        assert sl.start == stop <= sl.stop
        assert np.all(obs.v[sl] == v)
        stop = sl.stop
    assert stop == obs.n


@SETTINGS
@given(observation_sets(), st.data())
def test_observation_set_invariants_survive_derivations(obs, data):
    assert_invariants(obs)
    idx = data.draw(st.permutations(range(obs.n)))[:data.draw(st.integers(0, obs.n))]
    assert_invariants(obs.subset(np.array(idx, dtype=np.int64)))
    assert_invariants(obs.with_y(-obs.y))
    v = data.draw(st.integers(0, obs.layout.V - 1))
    sub = obs.restrict_source(v)
    assert_invariants(sub)
    assert np.array_equal(sub.y, obs.y[obs.source_slice(v)])


def domain_params(obs, rng):
    """Parameter matrix whose block v lies inside family v's interval."""
    w = np.empty((obs.layout.d_u, obs.layout.D))
    for v, model in enumerate(obs.families):
        lo, hi = model.interval or (-model.gamma, model.gamma)
        block = obs.layout.block_cols(v)
        w[:, block] = rng.uniform(lo, hi, (obs.layout.d_u, block.stop - block.start))
    return w


def assert_sum_close(got, terms, n):
    """``got`` equals sum(terms) / n up to summation-order rounding."""
    slack = 1e-12 * sum(abs(t) for t in terms) / n
    assert got == pytest.approx(sum(terms) / n, rel=0, abs=slack + 1e-300)


def entries(obs):
    """Per-entry loop over (v, row, global column, y)."""
    for v, i, j, y in zip(obs.v, obs.i, obs.j, obs.y):
        yield v, i, obs.layout.global_col(v, j), y


@SETTINGS
@given(observation_sets(tagged=True), st.integers(0, 2**32 - 1))
def test_likelihood_term_matches_entry_loop(obs, seed):
    w = domain_params(obs, np.random.default_rng(seed))
    n = obs.layout.d_u * obs.layout.D
    terms, grad = [], np.zeros_like(w)
    for v, i, c, y in entries(obs):
        model = obs.families[v]
        terms.append(g_value(model, w[i, c]) - y * w[i, c])
        grad[i, c] = (g_prime(model, w[i, c]) - y) / n
    assert_sum_close(neg_log_likelihood(obs, w), terms, n)
    assert np.allclose(grad_neg_log_likelihood(obs, w).values, grad, rtol=1e-12, atol=1e-12 / n)


def _labelled(obs, chosen):
    """Recode margin-loss sources to +-1 labels."""
    margin = np.array([l.kind != "quantile" for l in chosen])[obs.v]
    return obs.with_y(np.where(margin, np.where(obs.y > 0, 1.0, -1.0), obs.y))


def _loss(loss, y, x):
    if loss.kind == "hinge":
        return max(0.0, 1.0 - y * x)
    if loss.kind == "logistic":
        return float(np.logaddexp(0.0, -y * x))
    return (x - y) * (loss.tau - float(x - y <= 0))


def _subgrad(loss, y, x):
    if loss.kind == "hinge":
        return -y if y * x < 1.0 else 0.0
    if loss.kind == "logistic":
        return -y * expit(-y * x)
    return loss.tau - float(x - y <= 0)


@SETTINGS
@given(observation_sets(), st.data())
def test_risk_term_matches_entry_loop(obs, data):
    chosen = tuple(data.draw(losses) for _ in obs.layout.d_vs)
    obs = _labelled(obs, chosen)
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=(obs.layout.d_u, obs.layout.D))
    n = obs.layout.d_u * obs.layout.D
    terms, grad = [], np.zeros_like(w)
    for v, i, c, y in entries(obs):
        terms.append(_loss(chosen[v], y, w[i, c]))
        grad[i, c] = _subgrad(chosen[v], y, w[i, c]) / n
    assert_sum_close(empirical_risk(obs, w, chosen), terms, n)
    assert np.allclose(risk_subgradient(obs, w, chosen).values, grad, rtol=1e-12, atol=1e-12 / n)


@SETTINGS
@given(observation_sets(), st.data())
def test_solver_data_term_matches_entry_loop(obs, data):
    # the distribution-free solver path: smooth logistic and smoothed quantile
    chosen = tuple(data.draw(losses.filter(lambda l: l.kind != "hinge"))
                   for _ in obs.layout.d_vs)
    obs = _labelled(obs, chosen)
    cfg = SolverConfig(mode="general_loss", losses=chosen, smoothing=0.5)
    value, grad = _data_terms(obs, cfg)
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=(obs.layout.d_u, obs.layout.D))
    n = obs.layout.d_u * obs.layout.D
    pairs = [solver_loss_terms(l, cfg.smoothing) for l in chosen]
    terms, expected = [], np.zeros_like(w)
    for v, i, c, y in entries(obs):
        terms.append(float(pairs[v][0](y, w[i, c])))
        expected[i, c] = pairs[v][1](y, w[i, c]) / n
    assert_sum_close(value(w), terms, n)
    assert np.allclose(grad(w), expected, rtol=1e-12, atol=1e-12 / n)


def test_margin_labels_checked_when_the_term_is_built():
    obs = ObservationSet(BlockLayout(2, (2,)), [0], [0], [0], [0.5])
    cfg = SolverConfig(mode="general_loss", losses=(LipschitzLoss.logistic(),))
    with pytest.raises(ValueError, match="logistic loss needs labels"):
        _data_terms(obs, cfg)


finite = st.floats(allow_nan=False, allow_infinity=False)


@SETTINGS
@given(observation_sets(), st.lists(finite, min_size=1))
def test_observation_csv_round_trip(obs, values):
    obs = obs.with_y(np.resize(np.array(values), obs.n))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.csv"
        hio.save_observations(path, obs)
        back = hio.load_observations(path, obs.layout)
    for name in ("v", "i", "j", "y"):
        assert np.array_equal(getattr(back, name), getattr(obs, name))


@SETTINGS
@given(layouts, st.data())
def test_layout_json_round_trip(layout, data):
    fams = data.draw(st.one_of(
        st.none(), st.tuples(*(families for _ in layout.d_vs))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        hio.save_layout(path, layout, fams)
        assert hio.load_layout(path) == (layout, fams)
