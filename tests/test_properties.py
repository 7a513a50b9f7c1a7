"""Property tests: observation-set invariants and the builders that emit them
in canonical order, the data term, file formats, the sparse-plus-low-rank
operator, singular value thresholding, the solver's warm-start basis and
the JSON form of the config objects."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from heteromc import (
    BlockLayout,
    CollectiveMatrix,
    ExpFamilyModel,
    ExperimentSpec,
    LipschitzLoss,
    MetricRecord,
    ObservationSet,
    SamplingScheme,
    SolverConfig,
    SyntheticConfig,
    empirical_risk,
    g_prime,
    g_value,
    generate_synthetic,
    grad_neg_log_likelihood,
    mask_sample,
    neg_log_likelihood,
    ThinFactors,
    approx_svt,
    rank1_svd,
    svt_exact,
    tight_lipschitz,
)
from heteromc import io as hio
from heteromc import objectives
from heteromc.data import FACTOR_LAWS, _draw_factor
from heteromc.jsonconf import from_json, to_json
from heteromc.lowrank import SparsePlusLowRank
from heteromc.objectives import DataTerm, solver_loss_terms
from heteromc.solvers import _data_terms

SETTINGS = settings(max_examples=60, deadline=None)
seeds = st.integers(0, 2**32 - 1)

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
    offsets = np.array(layout.col_offsets)
    vv = np.searchsorted(offsets, cc, side="right") - 1
    jj = cc - offsets[vv]
    y = rng.normal(size=ii.size)
    perm = rng.permutation(ii.size)
    fams = tuple(draw(families) for _ in layout.d_vs) if tagged else None
    return ObservationSet(layout, vv[perm], ii[perm], jj[perm], y[perm], fams)


def assert_invariants(obs):
    keys = list(zip(obs.v.tolist(), obs.i.tolist(), obs.j.tolist()))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert obs.cols.tolist() == [obs.layout.col_offsets[v] + j for v, _, j in keys]
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


# -- canonical order: the builders emit it, the constructor checks it ------


def mask_sample_sorting(full, scheme, seed):
    """The ``mask_sample`` that sorted its draws: nonzero over the whole
    matrix, source lookup by ``searchsorted`` and a lexsort into (v, i, j)
    order.  The reference for what the in-order builder must return."""
    rng = np.random.default_rng(seed)
    probs = scheme.p if scheme.kind == "uniform" else scheme.prob_matrix(full.layout)
    mask = rng.random(full.values.shape) < probs
    ii, cc = np.nonzero(mask)
    offsets = np.asarray(full.layout.col_offsets + (full.layout.D,))
    vv = np.searchsorted(offsets, cc, side="right") - 1
    jj = cc - offsets[vv]
    order = np.lexsort((jj, ii, vv))
    return vv[order], ii[order], jj[order], full.values[ii, cc][order]


def generate_synthetic_hstack(cfg):
    """The ``generate_synthetic`` that scaled a copy of each block product and
    stacked the copies; the reference for the in-place build."""
    shared_l = None
    if cfg.shared_factors:
        attempt = 0
        while True:
            rng = np.random.default_rng((cfg.seed, 999, attempt))
            shared_l = _draw_factor(cfg.factor_laws[0], (cfg.d_u, cfg.ranks[0]), rng)
            if np.abs(shared_l).max() > 0:
                break
            attempt += 1
    blocks, resampled = [], {}
    for v, (dv, r, law) in enumerate(zip(cfg.d_vs, cfg.ranks, cfg.factor_laws)):
        attempt = 0
        while True:
            rng = np.random.default_rng((cfg.seed, v, attempt))
            left = shared_l if shared_l is not None else _draw_factor(law, (cfg.d_u, r), rng)
            right = _draw_factor(law, (dv, r), rng)
            m = left @ right.T
            peak = float(np.abs(m).max())
            if peak > 0:
                break
            attempt += 1
        if attempt:
            resampled[v] = attempt
        blocks.append(m * (cfg.gamma / peak))
    return np.hstack(blocks), resampled


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_set(a, b):
    for name in ("v", "i", "j", "y", "cols"):
        assert same_bits(getattr(a, name), getattr(b, name)), name
    for v in range(a.layout.V):
        assert a.source_slice(v) == b.source_slice(v)


@st.composite
def distinct_triplets(draw):
    """A layout and distinct canonical-order triplets over it; one source
    may be left without observations."""
    layout = draw(layouts)
    rng = np.random.default_rng(draw(seeds))
    mask = rng.random((layout.d_u, layout.D)) < draw(st.floats(0.0, 1.0))
    empty = draw(st.one_of(st.none(), st.integers(0, layout.V - 1)))
    if empty is not None:
        mask[:, layout.block_cols(empty)] = False
    vv, ii, jj = [], [], []
    for v in range(layout.V):
        rows, cols = np.nonzero(mask[:, layout.block_cols(v)])
        vv += [v] * rows.size
        ii += rows.tolist()
        jj += cols.tolist()
    y = rng.normal(size=len(vv))
    return layout, np.array(vv, dtype=np.int64), np.array(ii, dtype=np.int64), \
        np.array(jj, dtype=np.int64), y, rng


@SETTINGS
@given(distinct_triplets())
def test_shuffled_and_sorted_triplets_build_the_same_set(doc):
    layout, v, i, j, y, rng = doc
    perm = rng.permutation(v.size)
    shuffled = ObservationSet(layout, v[perm], i[perm], j[perm], y[perm])
    in_order = ObservationSet(layout, v, i, j, y)
    assert_same_set(shuffled, in_order)
    assert_invariants(in_order)
    if v.size:
        # one triplet observed twice, next to its twin or anywhere
        k = int(rng.integers(v.size))
        for order in (np.insert(np.arange(v.size), k, k),
                      rng.permutation(np.append(np.arange(v.size), k))):
            with pytest.raises(ValueError, match="duplicate"):
                ObservationSet(layout, v[order], i[order], j[order], y[order])


def test_in_order_input_is_copied_unless_already_read_only():
    layout = BlockLayout(3, (2, 2))
    v, i, j, y = (np.array(a) for a in ([0, 0, 1], [0, 2, 1], [1, 0, 1], [1.0, 2.0, 3.0]))
    obs = ObservationSet(layout, v, i, j, y)
    y[0] = 9.0  # the caller's array stays writable and apart from the set
    assert obs.y[0] == 1.0 and not obs.y.flags.writeable
    # read-only arrays, such as another set's, are shared
    assert np.shares_memory(obs.with_y(obs.y).y, obs.y)


@SETTINGS
@given(layouts, st.sampled_from([1.0, 0.5, 0.05, None]), seeds)
def test_mask_sample_matches_the_sorting_reference(layout, p, seed):
    rng = np.random.default_rng(seed)
    full = CollectiveMatrix(layout, rng.normal(size=(layout.d_u, layout.D)))
    scheme = (SamplingScheme.uniform(p) if p is not None
              else SamplingScheme.per_entry(rng.uniform(1e-3, 1.0, (layout.d_u, layout.D))))
    obs = mask_sample(full, scheme, seed)
    assert_same_set(obs, ObservationSet(layout, *mask_sample_sorting(full, scheme, seed)))
    if p == 1.0:
        assert obs.n == layout.d_u * layout.D


@st.composite
def synthetic_configs(draw):
    d_u = draw(st.integers(1, 8))
    d_vs = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    shared = draw(st.booleans())
    top = min(d_u, *d_vs)
    if shared:
        ranks = [draw(st.integers(1, top))] * len(d_vs)
    else:
        ranks = [draw(st.integers(1, min(d_u, dv))) for dv in d_vs]
    laws = [draw(st.sampled_from(FACTOR_LAWS)) for _ in d_vs]
    return SyntheticConfig(d_u, tuple(d_vs), tuple(ranks), tuple(laws),
                           gamma=draw(st.floats(0.1, 5.0)), seed=draw(seeds),
                           shared_factors=shared)


@SETTINGS
@given(synthetic_configs())
def test_generate_synthetic_matches_the_hstack_reference(cfg):
    out = generate_synthetic(cfg)
    values, resampled = generate_synthetic_hstack(cfg)
    assert same_bits(out.values, values)
    assert out.meta["resampled"] == resampled


def test_generate_synthetic_matches_the_reference_through_resamples():
    # 1 x 1 Bernoulli blocks are all zero with probability 3/4 per draw
    cfgs = [SyntheticConfig(1, (1, 3), (1, 1), ("bernoulli", "gaussian"), seed=s,
                            shared_factors=shared)
            for s in range(20) for shared in (False, True)]
    redraws = 0
    for cfg in cfgs:
        out = generate_synthetic(cfg)
        values, resampled = generate_synthetic_hstack(cfg)
        assert same_bits(out.values, values) and out.meta["resampled"] == resampled
        redraws += bool(resampled)
    assert redraws
    big = SyntheticConfig(60, (40, 25, 33), (4, 4, 4), FACTOR_LAWS, seed=3, shared_factors=True)
    assert same_bits(generate_synthetic(big).values, generate_synthetic_hstack(big)[0])


def test_mask_sample_and_the_csv_round_trip_never_sort(monkeypatch):
    layout = BlockLayout(40, (13, 1, 30))
    full = CollectiveMatrix(layout, np.random.default_rng(8).normal(size=(40, 44)))

    def no_sort(*args, **kwargs):
        raise AssertionError("sorted the observations")

    monkeypatch.setattr(np, "lexsort", no_sort)
    obs = mask_sample(full, SamplingScheme.uniform(0.3), 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.csv"
        hio.save_observations(path, obs)
        back = hio.load_observations(path, layout)
    assert_same_set(back, obs)
    half = obs.subset(np.arange(0, obs.n, 2))  # increasing positions keep the order
    assert_same_set(half.with_y(obs.y[::2]), half)
    with pytest.raises(AssertionError, match="sorted"):  # the patch does bite
        ObservationSet(layout, obs.v[::-1], obs.i[::-1], obs.j[::-1], obs.y[::-1])


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
        yield v, i, obs.layout.col_offsets[v] + j, y


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


@SETTINGS
@given(observation_sets(), st.data())
def test_risk_term_matches_entry_loop(obs, data):
    chosen = tuple(data.draw(losses) for _ in obs.layout.d_vs)
    obs = _labelled(obs, chosen)
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=(obs.layout.d_u, obs.layout.D))
    n = obs.layout.d_u * obs.layout.D
    terms = [_loss(chosen[v], y, w[i, c]) for v, i, c, y in entries(obs)]
    assert_sum_close(empirical_risk(obs, w, chosen), terms, n)


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


@SETTINGS
@given(observation_sets(tagged=True), st.booleans(), st.data())
def test_step_constant_bounds_the_gradient_change(obs, likelihood, data):
    # |g(a) - g(b)| <= L |a - b| entrywise on Omega, with L = tight_lipschitz:
    # every family inside its evaluation interval, and logistic and
    # smoothed quantile at any smoothing and tau
    rng = np.random.default_rng(data.draw(seeds))
    if likelihood:
        cfg = SolverConfig()
        lo, hi = np.array([m.eval_interval for m in obs.families])[obs.v].T
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
    else:
        chosen = tuple(data.draw(losses.filter(lambda l: l.kind != "hinge"))
                       for _ in obs.layout.d_vs)
        obs = _labelled(obs, chosen)
        cfg = SolverConfig(mode="general_loss", losses=chosen,
                           smoothing=data.draw(st.floats(1e-3, 10.0)))
        scale = cfg.smoothing * data.draw(st.sampled_from([0.1, 1.0, 10.0]))
        a, b = obs.y + scale * rng.normal(size=(2, obs.n))
    term = _data_terms(obs, cfg)[0]
    ga, gb = term.grad_on_omega(a), term.grad_on_omega(b)
    n = obs.layout.d_u * obs.layout.D
    rounding = 1e-12 * (np.abs(ga) + np.abs(gb) + (1.0 + np.abs(obs.y)) / n)
    assert np.all(np.abs(ga - gb) <= tight_lipschitz(obs, cfg) * np.abs(a - b) * (1 + 1e-9)
                  + rounding)


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


def load_observations_per_line(path, layout, families=None):
    """The per-line reader that ``io.load_observations`` replaced: the
    reference for what its whole-file parse must return."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != hio.OBS_HEADER:
        raise hio.DataFormatError(f"{path}: line 1: expected header {hio.OBS_HEADER!r}")
    vv, ii, jj, yy = [], [], [], []
    for num, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise hio.DataFormatError(f"{path}: line {num}: expected 4 fields")
        try:
            vv.append(int(parts[0]))
            ii.append(int(parts[1]))
            jj.append(int(parts[2]))
            yy.append(float(parts[3]))
        except ValueError as exc:
            raise hio.DataFormatError(f"{path}: line {num}: {exc}") from exc
    return ObservationSet(layout, np.array(vv, dtype=np.int64), np.array(ii, dtype=np.int64),
                          np.array(jj, dtype=np.int64), np.array(yy), families)


padding = st.sampled_from(["", " ", "  ", "\t "])


@st.composite
def observation_csvs(draw):
    """An observation set's CSV text, with blank lines, spaces around the
    fields, mixed value notations and optional CRLF line ends."""
    obs = draw(observation_sets())
    values = draw(st.lists(st.floats(), min_size=obs.n, max_size=obs.n))
    notations = st.sampled_from([repr, "{:.17e}".format, "{:.3g}".format, "{:+.6f}".format])
    lines = ["v,i,j,y"]
    for row in zip(obs.v.tolist(), obs.i.tolist(), obs.j.tolist(), values):
        lines += [draw(padding) for _ in range(draw(st.integers(0, 2)))]
        fields = [str(x) for x in row[:3]] + [draw(notations)(row[3])]
        lines.append(",".join(draw(padding) + f + draw(padding) for f in fields))
    lines += [draw(padding) for _ in range(draw(st.integers(0, 2)))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return obs.layout, end.join(lines) + draw(st.sampled_from(["", end]))


@SETTINGS
@given(observation_csvs())
def test_observation_csv_reader_matches_the_per_line_reference(doc):
    layout, text = doc
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "obs.csv"
        path.write_bytes(text.encode("utf-8"))
        got = hio.load_observations(path, layout)
        ref = load_observations_per_line(path, layout)
    for name in ("v", "i", "j"):
        assert np.array_equal(getattr(got, name), getattr(ref, name))
    assert np.array_equal(got.y.view(np.int64), ref.y.view(np.int64))


@SETTINGS
@given(layouts, st.data())
def test_layout_json_round_trip(layout, data):
    fams = data.draw(st.one_of(
        st.none(), st.tuples(*(families for _ in layout.d_vs))))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "layout.json"
        hio.save_layout(path, layout, fams)
        assert hio.load_layout(path) == (layout, fams)
        assert path.read_text() == json.dumps(layout_doc_reference(layout, fams), indent=2) + "\n"


# Reference writers: the hand-written per-class writers that to_json
# replaced.  Their JSON is the file format, so the shared writer must
# produce it byte for byte.
def fields_dict_reference(obj, keys):
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out[keys.get(f.name, f.name)] = list(value) if isinstance(value, tuple) else value
    return out


def config_to_dict_reference(cfg):
    out = {{"lam": "lambda"}.get(f.name, f.name): getattr(cfg, f.name)
           for f in dataclasses.fields(cfg)}
    if cfg.losses is not None:
        out["losses"] = [dataclasses.asdict(l) for l in cfg.losses]
    return out


def model_to_dict_reference(model):
    return {
        "family": model.family,
        "nuisance": model.nuisance,
        "gamma": model.gamma,
        "kappa": model.kappa,
        "interval": list(model.interval) if model.interval is not None else None,
    }


def spec_to_dict_reference(spec):
    out = fields_dict_reference(spec, {"fit_families": "families"})
    out["solver"] = config_to_dict_reference(spec.solver)
    fams = spec.fit_families
    out["families"] = None if fams is None else [model_to_dict_reference(m) for m in fams]
    return out


def layout_doc_reference(layout, families):
    return {
        "d_u": layout.d_u,
        "d_vs": list(layout.d_vs),
        "families": [model_to_dict_reference(m) for m in families] if families else None,
    }


positive = st.floats(1e-6, 1e3)
# past gamma + 1/kappa of about 708 poisson's bracket overflows, which the
# model rejects, so gamma stays below 100 here
family_models = st.builds(dataclasses.replace, families,
                          gamma=st.floats(1e-6, 1e2), kappa=st.floats(0.1, 10.0))
solver_knobs = dict(
    lam=st.one_of(st.just("auto"), st.floats(0.0, 1.0), st.integers(0, 3)),
    nu=st.floats(0.01, 0.99), epsilon=positive, max_iters=st.integers(1, 1000),
    lipschitz=positive, constant_c=positive,
    init_rank=st.one_of(st.none(), st.integers(1, 50)), basis_drop=positive,
    smoothing=positive,
)
# a config is checked when built, so mode and losses are drawn together
solver_configs = st.one_of(
    st.builds(SolverConfig, mode=st.just("likelihood"), losses=st.none(), **solver_knobs),
    st.builds(SolverConfig, mode=st.just("general_loss"),
              losses=st.lists(losses.filter(lambda l: l.kind != "hinge"),
                              min_size=1, max_size=3).map(tuple), **solver_knobs),
)
# a spec checks its instance as SyntheticConfig does, so it takes syn's sharing
experiment_specs = synthetic_configs().flatmap(lambda syn: st.builds(
    ExperimentSpec, st.just(syn.d_u), st.just(syn.d_vs), st.just(syn.ranks),
    st.just(syn.factor_laws), st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
    gamma=positive, trials=st.integers(1, 5), seed=seeds, solver=solver_configs,
    methods=st.lists(st.sampled_from(["collective", "per_source"]), min_size=1, max_size=2),
    shared_factors=st.just(syn.shared_factors), noise=st.sampled_from(["none", "model"]),
    fit_families=st.one_of(st.none(), st.lists(family_models, min_size=1,
                                                max_size=3).map(tuple)),
    train_fraction=st.floats(0.1, 1.0), rel_lambda=st.one_of(st.none(), positive),
    experiment_id=st.text(max_size=8),
))


@pytest.mark.parametrize("cls, objects, reference", [
    (SolverConfig, solver_configs, config_to_dict_reference),
    (ExperimentSpec, experiment_specs, spec_to_dict_reference),
    (ExpFamilyModel, family_models, model_to_dict_reference),
    (SyntheticConfig, synthetic_configs(), None),
], ids=["solver", "experiment", "family", "synthetic"])
@SETTINGS
@given(data=st.data())
def test_config_json_round_trip_matches_the_reference_writer(cls, objects, reference, data):
    obj = data.draw(objects)
    text = json.dumps(to_json(obj))
    assert from_json(cls, json.loads(text), "config") == obj
    if reference is not None:
        assert text == json.dumps(reference(obj))


maybe_nan = st.floats(allow_infinity=False)
metric_records = st.builds(
    MetricRecord, st.text(max_size=8), st.floats(0.01, 1.0), st.integers(0, 9),
    st.sampled_from(["collective", "per_source"]), maybe_nan,
    st.lists(maybe_nan, max_size=3).map(tuple), maybe_nan, st.integers(0, 50), positive,
    maybe_nan, heldout_risk=st.one_of(st.none(), maybe_nan),
    objective_trace=st.lists(maybe_nan, max_size=4).map(tuple),
    error=st.one_of(st.none(), st.text(max_size=8)),
)


@SETTINGS
@given(metric_records)
def test_metric_record_json_matches_the_reference_writer(record):
    assert (json.dumps(record.to_dict())
            == json.dumps(fields_dict_reference(record, {"lambda_used": "lambda"})))


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


def fully_observed(d_u, d_vs, empty=None):
    """Every entry of a ``d_u`` x ``d_vs`` layout observed, except source ``empty``'s."""
    layout = BlockLayout(d_u, d_vs)
    keep = [(v, i, j) for v in range(layout.V) if v != empty
            for i in range(d_u) for j in range(d_vs[v])]
    vv, ii, jj = map(list, zip(*keep))
    return ObservationSet(layout, vv, ii, jj, np.ones(len(keep)))


@SETTINGS
@given(observation_sets(), seeds, st.floats(-6.0, 6.0))
@example(fully_observed(1, (7, 3)), 0, 0.0)  # d_u = 1
@example(fully_observed(9, (1,)), 1, 0.0)  # V = D = 1
@example(fully_observed(12, (5, 4, 6), empty=1), 2, 3.0)  # an empty source
def test_rank1_gather_is_the_dense_products_entries_bit_for_bit(obs, seed, log_scale):
    # the rank-1 gather reads u_i sigma v_j off Omega with the two roundings
    # of the dense product, which stays here as the reference
    rng = np.random.default_rng(seed)
    sigma = [10.0**log_scale * rng.uniform(0.1, 2.0)]
    f = ThinFactors(rng.normal(size=(obs.layout.d_u, 1)), sigma,
                    rng.normal(size=(obs.layout.D, 1)))
    eta = DataTerm(obs, [(None, None)] * obs.layout.V).gather(f)
    assert same_bits(eta, f.to_matrix()[obs.i, obs.cols])


@SETTINGS
@given(observation_sets(), seeds)
def test_csr_written_in_place_equals_a_new_one(obs, seed):
    values = np.random.default_rng(seed).normal(size=obs.n)
    s = obs.to_csr()
    indices, indptr = s.indices.copy(), s.indptr.copy()
    assert obs.to_csr(values, out=s) is s
    fresh = obs.to_csr(values)
    assert same_bits(s.data, fresh.data)
    assert same_bits(s.indices, indices) and same_bits(s.indptr, indptr)
    assert same_bits(s.indices, fresh.indices) and same_bits(s.indptr, fresh.indptr)


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
        out, converged, _ = approx_svt(form, r0, tau, delta=1e-8)
        assert converged and out.rank == x.rank
        assert np.allclose(out.to_matrix(), x.to_matrix(), atol=1e-8)
