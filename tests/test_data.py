import math
import re

import numpy as np
import pytest

from heteromc import (
    BlockLayout,
    CollectiveMatrix,
    ExpFamilyModel,
    ObservationSet,
    SamplingScheme,
    SyntheticConfig,
    cold_start_transform,
    empirical_marginals,
    estimate_mu,
    generate_synthetic,
    mask_sample,
    observe_from_model,
    weighted_frobenius_sq,
)

from conftest import GAUSS, POIS


def full_matrix(d_u, d_vs, seed=0):
    layout = BlockLayout(d_u, d_vs)
    rng = np.random.default_rng(seed)
    return CollectiveMatrix(layout, rng.normal(size=(d_u, layout.D)))


@pytest.mark.parametrize("d_vs", [(1,), (3, 4), (100, 1, 57), (4000, 5999, 1)])
def test_column_indexing_bijection(d_vs):
    layout = BlockLayout(5, d_vs)
    seen = set()
    for v, dv in enumerate(d_vs):
        cols = layout.block_cols(v)
        assert (cols.start, cols.stop) == (layout.col_offsets[v], layout.col_offsets[v] + dv)
        assert seen.isdisjoint(range(cols.start, cols.stop))
        seen.update(range(cols.start, cols.stop))
    assert seen == set(range(layout.D))


def test_layout_validation():
    with pytest.raises(ValueError):
        BlockLayout(0, (3,))
    with pytest.raises(ValueError):
        BlockLayout(3, ())
    with pytest.raises(ValueError):
        BlockLayout(3, (2, 0))
    # a non-integral size is named, not truncated
    with pytest.raises(ValueError, match="layout d_vs must hold int64 integers, got 2.5"):
        BlockLayout(4, (2.5, 3))
    assert BlockLayout(4, (np.int64(2), 3.0)).d_vs == (2, 3)


def test_synthetic_config_sizes_must_be_integers():
    with pytest.raises(ValueError, match="d_vs must hold int64 integers, got 12.5"):
        SyntheticConfig(10, (12.5,), (2,), ("gaussian",))
    with pytest.raises(ValueError, match="ranks must hold int64 integers, got 1.5"):
        SyntheticConfig(10, (12,), (1.5,), ("gaussian",))
    cfg = SyntheticConfig(10, [np.int64(12)], [2.0], ["gaussian"])
    assert cfg.d_vs == (12,) and cfg.ranks == (2,) and type(cfg.d_vs[0]) is int


def test_mask_sample_extremes():
    full = full_matrix(10, (6, 6))
    obs = mask_sample(full, SamplingScheme.uniform(1.0), 0)
    assert obs.n == 10 * 12
    tiny = mask_sample(full, SamplingScheme.uniform(1e-12), 0)
    assert tiny.n == 0


def test_mask_sample_concentration():
    full = full_matrix(200, (150, 150), seed=1)
    obs = mask_sample(full, SamplingScheme.uniform(0.5), 3)
    frac = obs.n / (200 * 300)
    assert abs(frac - 0.5) < 4 * math.sqrt(0.25 / (200 * 300))


def test_mask_sample_values_and_determinism():
    full = full_matrix(12, (5, 9), seed=2)
    a = mask_sample(full, SamplingScheme.uniform(0.4), 7)
    b = mask_sample(full, SamplingScheme.uniform(0.4), 7)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.i, b.i)
    # observed values match the source matrix
    assert np.array_equal(a.y, full.values[a.i, a.cols])


def test_observation_set_validation():
    layout = BlockLayout(4, (3,))
    with pytest.raises(ValueError):
        ObservationSet(layout, [0, 0], [1, 1], [2, 2], [1.0, 2.0])  # duplicate
    with pytest.raises(ValueError):
        ObservationSet(layout, [0], [4], [0], [1.0])  # row out of range
    with pytest.raises(ValueError):
        ObservationSet(layout, [1], [0], [0], [1.0])  # source out of range
    with pytest.raises(ValueError):
        ObservationSet(layout, [0], [0], [3], [1.0])  # column out of range
    # a non-integral index is named, not truncated
    with pytest.raises(ValueError, match="index i must hold int64 integers, got 1.7"):
        ObservationSet(layout, [0.0], [1.7], [2.2], [5.0])
    with pytest.raises(ValueError, match="index j must hold int64 integers, got -0.5"):
        ObservationSet(layout, [0], [1], np.array([-0.5]), [5.0])
    for bad in (np.nan, np.inf, 1e300):
        message = re.escape(f"index v must hold int64 integers, got {bad}")
        with pytest.raises(ValueError, match=message):
            ObservationSet(layout, [bad], [1], [2], [5.0])
    whole = ObservationSet(layout, [0.0], np.array([1.0], dtype=np.float32), [2.0], [5.0])
    assert whole.i.dtype == np.int64 and (whole.v[0], whole.i[0], whole.j[0]) == (0, 1, 2)


def test_empirical_marginals_against_recount():
    full = full_matrix(15, (7, 11), seed=3)
    obs = mask_sample(full, SamplingScheme.uniform(0.6), 5)
    row, cols = empirical_marginals(obs)
    # brute-force recount oracle
    for v in range(2):
        for i in range(15):
            expected = sum(1 for a, b in zip(obs.v, obs.i) if a == v and b == i)
            assert row[v, i] == expected
        for j in range(obs.layout.d_vs[v]):
            expected = sum(1 for a, b in zip(obs.v, obs.j) if a == v and b == j)
            assert cols[v][j] == expected


def test_empirical_marginals_extremes():
    full = full_matrix(6, (4, 2))
    empty = mask_sample(full, SamplingScheme.uniform(1e-12), 0)
    row, cols = empirical_marginals(empty)
    assert not row.any() and not any(c.any() for c in cols)
    everything = mask_sample(full, SamplingScheme.uniform(1.0), 0)
    row, cols = empirical_marginals(everything)
    assert np.array_equal(row[0], np.full(6, 4)) and np.array_equal(row[1], np.full(6, 2))


def test_estimate_mu_full_observation():
    square = full_matrix(8, (8,))
    assert estimate_mu(mask_sample(square, SamplingScheme.uniform(1.0), 0)) == 8
    multi = full_matrix(4, (2, 2, 2))
    # row marginal sums across sources: 3*2 = 6 > d_u = 4
    assert estimate_mu(mask_sample(multi, SamplingScheme.uniform(1.0), 0)) == 6


def test_estimate_mu_matches_brute_force():
    full = full_matrix(20, (9, 14), seed=4)
    obs = mask_sample(full, SamplingScheme.uniform(0.5), 6)
    row, cols = empirical_marginals(obs)
    expected = max(row.sum(axis=0).max(), max(c.max() for c in cols))
    assert estimate_mu(obs) == expected


def test_weighted_frobenius():
    layout = BlockLayout(5, (4,))
    zero = CollectiveMatrix.zeros(layout)
    assert weighted_frobenius_sq(zero, SamplingScheme.uniform(0.5)) == 0.0
    rng = np.random.default_rng(0)
    a = CollectiveMatrix(layout, rng.normal(size=(5, 4)))
    scale = math.sqrt(10.0) / a.frob_norm()
    a = CollectiveMatrix(layout, a.values * scale)  # ||a||_F^2 = 10
    assert weighted_frobenius_sq(a, SamplingScheme.uniform(0.3)) == pytest.approx(3.0, rel=1e-12)
    table = rng.uniform(0.1, 1.0, size=(5, 4))
    got = weighted_frobenius_sq(a, SamplingScheme.per_entry(table))
    brute = sum(table[i, j] * a.values[i, j] ** 2 for i in range(5) for j in range(4))
    assert got == pytest.approx(brute, rel=1e-12)


def test_sampling_scheme_validation():
    with pytest.raises(ValueError):
        SamplingScheme.uniform(0.0)
    with pytest.raises(ValueError):
        SamplingScheme.uniform(1.5)
    with pytest.raises(ValueError):
        SamplingScheme.per_entry(np.array([[0.5, 0.0]]))


def test_generate_synthetic_rank_one_ones():
    # rank-1 all-ones factors give a constant block at the sup-norm bound
    cfg = SyntheticConfig(6, (5,), (1,), ("bernoulli",), gamma=2.0, seed=0)
    m = generate_synthetic(cfg)
    block = m.block(0)
    assert np.all(np.abs(block) <= 2.0 + 1e-12)
    assert np.abs(m.values).max() == pytest.approx(2.0, abs=1e-12)


def test_generate_synthetic_desk_scale_block():
    cfg = SyntheticConfig(300, (100,), (5,), ("gaussian",), seed=1)
    m = generate_synthetic(cfg)
    assert m.block(0).shape == (300, 100)
    # numerical SVD rank oracle, tol 1e-8
    s = np.linalg.svd(m.block(0), compute_uv=False)
    assert (s > 1e-8 * s[0]).sum() <= 5


@pytest.mark.parametrize("law", ["gaussian", "poisson", "bernoulli"])
def test_generate_synthetic_rank_and_scale(law):
    cfg = SyntheticConfig(30, (12, 20), (4, 3), (law, law), gamma=1.0, seed=5)
    m = generate_synthetic(cfg)
    for v, r in enumerate((4, 3)):
        block = m.block(v)
        s = np.linalg.svd(block, compute_uv=False)
        assert (s > 1e-8 * max(s[0], 1)).sum() <= r
        assert np.abs(block).max() == pytest.approx(1.0, abs=1e-12)


def test_generate_synthetic_deterministic():
    cfg = SyntheticConfig(20, (10, 10), (2, 2), ("poisson", "bernoulli"), seed=9)
    assert np.array_equal(generate_synthetic(cfg).values, generate_synthetic(cfg).values)


def test_generate_synthetic_degenerate_resample():
    # 1x1 bernoulli block is all-zero with probability 3/4 per draw;
    # scan seeds for one that needed a redraw
    for seed in range(60):
        cfg = SyntheticConfig(1, (1, 4), (1, 1), ("bernoulli", "gaussian"), seed=seed)
        m = generate_synthetic(cfg)
        assert np.any(m.values)
        if m.meta["resampled"]:
            assert m.meta["resampled"].get(0, 0) >= 1
            break
    else:
        pytest.fail("no degenerate draw found in 60 seeds")


def test_shared_factor_mode_collapses_rank():
    cfg = SyntheticConfig(40, (15, 15, 15), (3, 3, 3), ("gaussian",) * 3,
                          seed=2, shared_factors=True)
    m = generate_synthetic(cfg)
    s = np.linalg.svd(m.values, compute_uv=False)
    assert (s > 1e-8 * s[0]).sum() <= 3


def test_observe_from_model_empty_and_poisson_mean():
    layout = BlockLayout(100, (100,))
    params = CollectiveMatrix(layout, np.zeros((100, 100)))
    empty = observe_from_model(params, (POIS,), SamplingScheme.uniform(1e-12), 0)
    assert empty.n == 0
    obs = observe_from_model(params, (POIS,), SamplingScheme.uniform(1.0), 1)
    assert abs(obs.y.mean() - 1.0) < 0.05  # G'(0) = 1 over 1e4 entries


def test_observe_from_model_small_variance_tracks_parameters():
    layout = BlockLayout(30, (30,))
    rng = np.random.default_rng(3)
    params = CollectiveMatrix(layout, rng.uniform(-1, 1, size=(30, 30)))
    model = ExpFamilyModel("gaussian", 1e-6)
    obs = observe_from_model(params, (model,), SamplingScheme.uniform(1.0), 4)
    # with variance 1e-6 the draws sit within 0.01 of the mean parameter
    means = model.nuisance * params.values[obs.i, obs.cols]
    assert (np.abs(obs.y - means) < 0.01).mean() > 0.99


def test_cold_start_zeroes_first_fifth():
    layout = BlockLayout(5, (4, 4))
    v = [0] * 10 + [1] * 3
    i = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 0, 1, 2]
    j = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 0, 0]
    y = np.arange(1.0, 14.0)
    obs = ObservationSet(layout, v, i, j, y)
    cold = cold_start_transform(obs, 0)
    sl = cold.source_slice(0)
    assert (cold.y[sl] == 0).sum() == 2  # ceil(10/5)
    assert np.array_equal(cold.y[sl.stop:], obs.y[sl.stop:])
    # idempotence: reapplying keeps the same zero pattern
    again = cold_start_transform(cold, 0)
    assert (again.y[again.source_slice(0)] == 0).sum() == 2
    # mask unchanged
    assert np.array_equal(cold.i, obs.i) and np.array_equal(cold.j, obs.j)


def test_cold_start_unobserved_source_warns():
    layout = BlockLayout(3, (2, 2))
    obs = ObservationSet(layout, [0, 0], [0, 1], [0, 1], [1.0, 2.0])
    with pytest.warns(UserWarning):
        out = cold_start_transform(obs, 1)
    assert np.array_equal(out.y, obs.y)


def test_cold_start_order_is_row_major():
    layout = BlockLayout(4, (3,))
    # constructor sorts into (v, i, j) order regardless of input order
    obs = ObservationSet(layout, [0, 0, 0], [2, 0, 1], [0, 2, 1], [5.0, 7.0, 9.0])
    cold = cold_start_transform(obs, 0)
    assert cold.y[0] == 0.0 and np.array_equal(cold.i, [0, 1, 2])


def test_mask_sample_per_entry_table():
    layout = BlockLayout(200, (100, 100))
    full = CollectiveMatrix(layout, np.ones((200, 200)))
    table = np.empty((200, 200))
    table[:, :100] = 0.9
    table[:, 100:] = 0.1
    obs = mask_sample(full, SamplingScheme.per_entry(table), 13)
    counts = np.bincount(obs.v, minlength=2)
    assert counts[0] > 0.8 * 200 * 100
    assert counts[1] < 0.2 * 200 * 100


def test_uniform_sampling_draws_like_a_constant_table_without_building_one(monkeypatch):
    full = full_matrix(30, (20, 17), seed=4)
    table = mask_sample(full, SamplingScheme.per_entry(np.full((30, 37), 0.3)), 9)

    def no_table(self, layout):
        raise AssertionError("built a d_u x D probability table")

    monkeypatch.setattr(SamplingScheme, "prob_matrix", no_table)
    uniform = mask_sample(full, SamplingScheme.uniform(0.3), 9)
    for name in ("v", "i", "j", "y"):
        assert np.array_equal(getattr(uniform, name), getattr(table, name))
