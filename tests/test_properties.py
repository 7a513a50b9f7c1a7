"""Property tests: observation-set invariants, the data term, file formats,
the sparse-plus-low-rank operator, singular value thresholding and the
solver's warm-start basis."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
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
    ThinFactors,
    approx_svt,
    rank1_svd,
    risk_subgradient,
    svt_exact,
)
from heteromc import io as hio
from heteromc import objectives
from heteromc.lowrank import SparsePlusLowRank, qr_orthonormalize
from heteromc.objectives import DataTerm, solver_loss_terms
from heteromc.solvers import _data_terms, _warm_basis

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
    _, value, grad = _data_terms(obs, cfg)
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


seeds = st.integers(0, 2**32 - 1)


def random_operator(m, n, r, density, rng):
    """A SparsePlusLowRank and the dense matrix it stands for."""
    a, b = rng.normal(size=(m, r)), rng.normal(size=(n, r))
    s = sparse.random(m, n, density=density, format="csr", random_state=rng)
    return SparsePlusLowRank(a, b, s), a @ b.T + s.toarray()


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 3), st.floats(0.0, 1.0),
       st.integers(1, 4), seeds)
def test_operator_products_match_the_dense_matrix(m, n, r, density, k, seed):
    rng = np.random.default_rng(seed)
    op, dense = random_operator(m, n, r, density, rng)
    x, y = rng.normal(size=(n, k)), rng.normal(size=(m, k))
    assert op.shape == dense.shape
    assert np.allclose(op @ x, dense @ x, rtol=1e-12, atol=1e-12)
    assert np.allclose(op.T @ y, dense.T @ y, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(observation_sets(), st.integers(0, 3), st.integers(1, 40), seeds)
def test_factor_gather_matches_dense_entries(obs, r, tile, seed):
    # small tiles give several row tiles, some of them without observations
    rng = np.random.default_rng(seed)
    f = ThinFactors(rng.normal(size=(obs.layout.d_u, r)), rng.uniform(0.1, 2.0, r),
                    rng.normal(size=(obs.layout.D, r)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(objectives, "_TILE_ENTRIES", tile)
        eta = DataTerm(obs, [(None, None)] * obs.layout.V).gather(f)
    assert np.allclose(eta, f.to_matrix()[obs.i, obs.cols], rtol=1e-12, atol=1e-12)
    assert np.array_equal(obs.to_csr().toarray(), obs.dense_y())


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 8), st.floats(0.05, 1.0), seeds)
def test_rank1_svd_sparse_and_dense_agree(m, n, density, seed):
    y = sparse.random(m, n, density=density, format="csr",
                      random_state=np.random.default_rng(seed))
    if not y.nnz:
        return
    u_s, sigma_s, v_s = rank1_svd(y)
    u_d, sigma_d, v_d = rank1_svd(y.toarray())
    assert sigma_s == pytest.approx(sigma_d, rel=1e-10)
    assert np.allclose(u_s, u_d, atol=1e-8) and np.allclose(v_s, v_d, atol=1e-8)


@SETTINGS
@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 3), st.floats(0.0, 1.0),
       st.data(), seeds)
def test_svt_is_the_nuclear_norm_prox(m, n, r, density, data, seed):
    op, z = random_operator(m, n, r, density, np.random.default_rng(seed))
    s_all = np.linalg.svd(z, compute_uv=False)
    if s_all[0] < 1e-2:
        return
    # a threshold halfway between two singular values (or above them all),
    # kept off the numerically zero ones
    floor = max(1e-3 * s_all[0], 1e-3)
    cut = data.draw(st.integers(0, s_all.size - 1))
    below = s_all[cut + 1] if cut + 1 < s_all.size else 0.0
    tau = max((s_all[cut] + below) / 2, floor)
    x = svt_exact(z, tau)
    # z - x = tau (U V^T + W), U^T W = 0, W V = 0, ||W||_2 <= 1
    w = (z - x.to_matrix()) / tau - x.u @ x.v.T
    assert np.allclose(x.u.T @ w, 0.0, atol=1e-9)
    assert np.allclose(w @ x.v, 0.0, atol=1e-9)
    assert np.linalg.norm(w, 2) <= 1.0 + 1e-9
    # a warm start spanning the surviving right singular subspace, plus one
    # direction outside the null space
    k = min(x.rank + 1, int(np.sum(s_all > floor)))
    r0 = np.linalg.svd(z)[2][:k].T
    for form in (z, op):
        out, converged = approx_svt(form, r0, tau, delta=1e-8)
        assert converged and out.rank == x.rank
        assert np.allclose(out.to_matrix(), x.to_matrix(), atol=1e-8)


def explicit_warm_basis(v_cur, v_prev, drop_tol):
    """Reference: project the previous basis against the current one, then merge."""
    if v_cur.shape[1] == 0:
        stack = v_prev
    elif v_prev.shape[1] == 0:
        stack = v_cur
    else:
        resid = v_prev - v_cur @ (v_cur.T @ v_prev)
        stack = np.hstack([v_cur, resid])
    if stack.shape[1] == 0:
        return stack
    return qr_orthonormalize(stack[:, :stack.shape[0]], drop_tol)


@SETTINGS
@given(st.integers(1, 12), st.data(), seeds)
def test_warm_basis_spans_what_the_explicit_projection_spans(d, data, seed):
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(0, d), label="current width")
    # a residual of norm r carries a rounding error of about 1e-16 / r in
    # its direction, so a 1e-10 projector tolerance needs r >= 1e-5
    drop_tol = data.draw(st.sampled_from([1e-6, 1e-4, 1e-3, 1e-2]), label="drop_tol")
    basis = np.linalg.qr(rng.normal(size=(d, d)))[0]
    v_cur = basis[:, :k]
    if data.draw(st.booleans(), label="equal bases"):
        v_prev, width = v_cur.copy(), k
    else:
        # previous columns with a residual of norm r outside span(v_cur) and
        # the columns before them, then columns with residual 0.  A column
        # dropped before a kept one would leave its rounding-noise direction
        # projected out of the kept one, differently in the two versions.
        moving = data.draw(st.integers(0, d - k), label="moving columns")
        r = np.array(data.draw(st.lists(st.floats(10 * drop_tol, 1.0), min_size=moving,
                                         max_size=moving), label="residual norms"))
        static = data.draw(st.integers(0, 3), label="static columns")
        inside = v_cur @ rng.normal(size=(k, moving + static))
        inside /= np.maximum(np.linalg.norm(inside, axis=0), 1e-300)
        v_prev = inside.copy()
        v_prev[:, :moving] = np.sqrt(1.0 - r**2) * inside[:, :moving] + r * basis[:, k:k + moving]
        width = k + moving
    got = _warm_basis(v_cur, v_prev, drop_tol)
    ref = explicit_warm_basis(v_cur, v_prev, drop_tol)
    assert got.shape == ref.shape == (d, width)
    assert np.allclose(got.T @ got, np.eye(got.shape[1]), atol=1e-10)
    assert np.linalg.norm(got @ got.T - ref @ ref.T) <= 1e-10
