import warnings

import numpy as np
import pytest
from scipy import sparse

from heteromc import (
    ThinFactors,
    approx_svt,
    nuclear_norm,
    power_method,
    qr_orthonormalize,
    rank1_svd,
    svt_exact,
)
from heteromc.lowrank import SparsePlusLowRank, _refill


def random_low_rank(d, n, rank, rng, spectrum=None):
    u = np.linalg.qr(rng.normal(size=(d, rank)))[0]
    v = np.linalg.qr(rng.normal(size=(n, rank)))[0]
    s = spectrum if spectrum is not None else np.sort(rng.uniform(1, 10, rank))[::-1]
    return (u * s) @ v.T, s


def test_svt_exact_diagonal():
    out = svt_exact(np.diag([3.0, 1.0]), 2.0)
    assert out.rank == 1
    assert np.allclose(out.to_matrix(), np.diag([1.0, 0.0]))


def test_svt_exact_tau_zero_is_thin_svd(rng):
    z, s = random_low_rank(8, 6, 3, rng)
    out = svt_exact(z, 0.0)
    # strictly positive singular values survive; the leading ones are the
    # true spectrum and the reconstruction is the matrix itself
    assert np.allclose(out.to_matrix(), z, atol=1e-10)
    assert np.allclose(out.sigma[:3], s)
    assert np.all(out.sigma[3:] < 1e-12)


def test_svt_exact_kills_everything():
    z = np.diag([2.0, 1.0])
    out = svt_exact(z, 5.0)
    assert out.rank == 0
    assert not out.to_matrix().any()


def test_svt_prox_characterization(rng):
    # oracle: svt minimizes 0.5||Z-Q||_F^2 + tau ||Q||_*; no random
    # perturbation may improve the objective
    for trial in range(4):
        z = rng.normal(size=(10, 8))
        tau = rng.uniform(0.2, 3.0)
        q_star = svt_exact(z, tau).to_matrix()
        best = 0.5 * np.sum((z - q_star) ** 2) + tau * nuclear_norm(q_star)
        for _ in range(250):
            pert = q_star + rng.normal(scale=rng.choice([1e-3, 1e-1]), size=q_star.shape)
            val = 0.5 * np.sum((z - pert) ** 2) + tau * nuclear_norm(pert)
            assert val >= best - 1e-9


def test_svt_nonexpansive(rng):
    for _ in range(20):
        z1 = rng.normal(size=(9, 7))
        z2 = rng.normal(size=(9, 7))
        tau = rng.uniform(0.1, 2.0)
        d_out = np.linalg.norm(svt_exact(z1, tau).to_matrix() - svt_exact(z2, tau).to_matrix())
        assert d_out <= np.linalg.norm(z1 - z2) + 1e-12


def test_qr_orthonormalize_basics(rng):
    m = rng.normal(size=(10, 4))
    q = qr_orthonormalize(m)
    assert np.allclose(q.T @ q, np.eye(4), atol=1e-12)
    # orthonormal input comes back unchanged up to sign, and the sign
    # convention makes the map idempotent
    assert np.allclose(qr_orthonormalize(q), q, atol=1e-12)
    # duplicated column is dropped
    e1 = np.zeros((5, 1))
    e1[0] = 1.0
    q2 = qr_orthonormalize(np.hstack([e1, e1]))
    assert q2.shape == (5, 1)
    with pytest.raises(ValueError):
        qr_orthonormalize(rng.normal(size=(3, 5)))


def test_power_method_exact_rank(rng):
    z, _ = random_low_rank(20, 15, 4, rng)
    delta = 1e-8
    q, converged, _ = power_method(z, rng.normal(size=(15, 4)), delta)
    assert converged
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)
    resid = np.linalg.norm(z - q @ (q.T @ z))
    assert resid <= 10 * delta * np.linalg.norm(z)


def test_power_method_rank_one(rng):
    u = rng.normal(size=12)
    v = rng.normal(size=9)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    z = 4.0 * np.outer(u, v)
    delta = 1e-9
    q, converged, _ = power_method(z, rng.normal(size=(9, 1)), delta)
    assert converged
    assert abs(float(q[:, 0] @ u)) >= 1 - 10 * delta


def test_power_method_huge_delta_one_iteration(rng):
    z = rng.normal(size=(8, 6))
    q, converged, _ = power_method(z, rng.normal(size=(6, 3)), delta=1e3)
    assert converged
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_approx_svt_matches_exact_with_spanning_warm_start(rng):
    z, s = random_low_rank(14, 11, 4, rng)
    lam = (s[2] + s[3]) / 2  # three values stay above the threshold
    exact = svt_exact(z, lam)
    # warm start spanning the row space
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    out, _ = approx_svt(z, vt[:4].T, lam, delta=1e-10)
    assert out.rank == exact.rank == 3
    assert np.linalg.norm(out.to_matrix() - exact.to_matrix()) < 1e-8


def test_approx_svt_empty_and_diagonal(rng):
    z = np.diag([4.0, 2.0, 1.0])
    out, _ = approx_svt(z, np.eye(3), lam=5.0, delta=1e-10)
    assert out.rank == 0
    out2, _ = approx_svt(z, np.eye(3), lam=1.5, delta=1e-12)
    assert np.allclose(out2.to_matrix(), np.diag([2.5, 0.5, 0.0]), atol=1e-10)


def test_approx_svt_gap_shrinks_with_delta(rng):
    # slowly-decaying spectrum so the power method needs iterations
    spectrum = np.array([10.0, 9.0, 8.0, 7.0, 6.0])
    z, _ = random_low_rank(40, 30, 5, rng, spectrum)
    z = z + 0.05 * rng.normal(size=z.shape)
    lam = 5.0
    exact = svt_exact(z, lam).to_matrix()
    gaps = []
    for delta in (1e-1, 1e-3, 1e-5, 1e-7):
        out, _ = approx_svt(z, rng.normal(size=(30, 6)), lam, delta, max_iters=500)
        gaps.append(np.linalg.norm(out.to_matrix() - exact))
    for a, b in zip(gaps, gaps[1:]):
        assert b <= a + 1e-10
    assert gaps[-1] < 1e-6


def test_rank1_svd_cases(rng):
    u = rng.normal(size=10)
    v = rng.normal(size=7)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    _, sigma, _ = rank1_svd(7.0 * np.outer(u, v))
    assert sigma == pytest.approx(7.0, rel=1e-10)
    uu, sigma, _ = rank1_svd(np.diag([5.0, 3.0]))
    assert sigma == pytest.approx(5.0, rel=1e-8)
    assert abs(uu[0]) == pytest.approx(1.0, abs=1e-6)
    a = rng.normal(size=(30, 20))
    assert rank1_svd(a)[1] == pytest.approx(
        np.linalg.svd(a, compute_uv=False)[0], rel=1e-8)
    with pytest.raises(ValueError):
        rank1_svd(np.zeros((3, 3)))


def test_thin_factors_invariants(rng):
    z, _ = random_low_rank(12, 9, 3, rng)
    f = svt_exact(z, 0.5)
    assert np.allclose(f.u.T @ f.u, np.eye(f.rank), atol=1e-10)
    assert np.allclose(f.v.T @ f.v, np.eye(f.rank), atol=1e-10)
    assert np.all(np.diff(f.sigma) <= 0) and np.all(f.sigma > 0)
    empty = ThinFactors.empty(5, 4)
    assert empty.rank == 0 and empty.to_matrix().shape == (5, 4)
    with pytest.raises(ValueError):
        ThinFactors(np.zeros((3, 2)), np.zeros(1), np.zeros((4, 2)))


def test_power_method_iteration_cap_flag(rng):
    # nearly-degenerate spectrum converges slowly; the cap trips the flag
    spectrum = np.array([10.0, 9.999, 9.998, 9.997])
    z, _ = random_low_rank(30, 25, 4, rng, spectrum)
    z += 0.5 * rng.normal(size=z.shape)
    q, converged, _ = power_method(z, rng.normal(size=(25, 2)), delta=1e-14,
                                   max_iters=2)
    assert not converged
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)


def test_qr_orthonormalize_drops_zero_column():
    e1 = np.zeros((6, 1))
    e1[0] = 1.0
    q = qr_orthonormalize(np.hstack([e1, np.zeros((6, 1))]))
    assert q.shape == (6, 1)


def test_approx_svt_reports_an_unconverged_power_method(rng):
    z = rng.normal(size=(20, 15))
    out, converged = approx_svt(z, rng.normal(size=(15, 3)), lam=0.5, delta=1e-14,
                                max_iters=1)
    assert not converged and out.rank <= 3
    _, converged = approx_svt(z, rng.normal(size=(15, 3)), lam=0.5, delta=1e3)
    assert converged


def test_power_method_converges_on_a_warm_start_wider_than_the_rank(rng):
    # rank-1 z, 2-column warm start: the dependent column is dropped, not
    # replaced, so the basis settles at width 1
    z = np.outer(rng.normal(size=6), rng.normal(size=5))
    q, converged, _ = power_method(z, rng.normal(size=(5, 2)), delta=1e-8)
    assert converged
    assert q.shape == (6, 1)
    assert np.linalg.norm(z - q @ (q.T @ z)) <= 1e-8 * np.linalg.norm(z)


def test_power_method_rejects_non_finite_input_without_warnings(rng):
    z = rng.normal(size=(12, 9))
    z[3, 4] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            power_method(z, rng.normal(size=(9, 3)), delta=1e-8)


def test_ritz_stop_ignores_a_clustered_tail_below_the_threshold(rng):
    # three well-separated values above lam, a slowly converging cluster
    # below it, and a warm start reaching into the cluster
    spectrum = np.concatenate([[20.0, 15.0, 10.0], 1.0 - 0.001 * np.arange(20)])
    z, _ = random_low_rank(60, 40, spectrum.size, rng, spectrum)
    lam, r0 = 3.0, rng.normal(size=(40, 8))
    out, converged = approx_svt(z, r0, lam, delta=1e-8, max_iters=8)
    assert converged
    exact = svt_exact(z, lam)
    assert out.rank == exact.rank == 3
    assert np.linalg.norm(out.to_matrix() - exact.to_matrix()) < 1e-6
    _, converged, _ = power_method(z, r0, delta=1e-8, max_iters=8, lam=0.0)
    assert not converged


def test_a_ritz_value_crossing_the_threshold_is_not_convergence():
    # a width-1 basis starting near e2 turns towards e1; its Ritz value
    # is about 1.0006 after one step and 1.0095 after two
    z = np.diag([2.0, 1.0, 0.5])
    r0 = np.array([[0.01], [1.0], [0.0]])
    # the subspace moves by about 0.085 between the first two steps ...
    assert power_method(z, r0, delta=0.9, max_iters=2)[1]
    # ... but with lam between the two Ritz values the surviving part
    # grows from width 0 to width 1, a gap of at least 1
    assert not power_method(z, r0, delta=0.9, max_iters=2, lam=1.005)[1]
    assert power_method(z, r0, delta=0.9, max_iters=3, lam=1.005)[1]


@pytest.mark.parametrize("delta, max_iters", [(1e-8, 100), (1e-14, 2)])
def test_power_method_returns_its_last_product(rng, delta, max_iters):
    z = rng.normal(size=(20, 15))
    q, _, y = power_method(z, rng.normal(size=(15, 4)), delta, max_iters=max_iters)
    assert y.shape == (15, q.shape[1])
    assert np.allclose(y, z.T @ q, rtol=0, atol=1e-12)


class CountingOperator(SparsePlusLowRank):
    """A SparsePlusLowRank that counts its products, its transpose's included."""

    def __init__(self, a, b, s, calls=None):
        super().__init__(a, b, s)
        self.calls = calls if calls is not None else [0]

    def __matmul__(self, x):
        self.calls[0] += 1
        return super().__matmul__(x)

    @property
    def T(self):
        return CountingOperator(self.b, self.a, self.s.T, self.calls)


@pytest.mark.parametrize("delta, max_iters, steps", [
    (1e-14, 1, 1),  # stopped at the cap
    (1e-14, 3, 3),
    (1e3, 100, 2),  # converged at the first step that has a gap to test
])
def test_approx_svt_applies_z_only_inside_the_power_method(rng, delta, max_iters, steps):
    a, b = rng.normal(size=(20, 6)), rng.normal(size=(15, 6))
    op = CountingOperator(a, b, sparse.csr_matrix((20, 15)))
    r0 = rng.normal(size=(15, 3))
    out, converged = approx_svt(op, r0, lam=0.5, delta=delta, max_iters=max_iters)
    # one z @ y and one z.T @ q per power step, nothing after the last
    assert op.calls[0] == 2 * steps
    assert converged == (delta > 1)
    dense, _ = approx_svt(a @ b.T, r0, lam=0.5, delta=delta, max_iters=max_iters)
    assert np.allclose(out.to_matrix(), dense.to_matrix(), atol=1e-10)


def orthonormal_refill(q, width, rng):
    """Reference padding: random columns orthonormalized against ``q``."""
    width = max(width, 1)
    while q.shape[1] < width:
        extra = rng.standard_normal((q.shape[0], width - q.shape[1]))
        if q.shape[1]:
            extra -= q @ (q.T @ extra)
        extra = qr_orthonormalize(extra)
        if extra.shape[1] == 0:
            raise np.linalg.LinAlgError("cannot refill a degenerate basis")
        q = np.hstack([q, extra]) if q.shape[1] else extra
    return q


@pytest.mark.parametrize("d, k, width", [(12, 0, 0), (12, 0, 4), (12, 3, 7), (12, 3, 2),
                                         (5, 2, 5), (300, 20, 45)])
def test_refill_spans_the_orthonormal_padding(d, k, width):
    q = qr_orthonormalize(np.random.default_rng(1).normal(size=(d, k)))
    out = _refill(q, width, np.random.default_rng(7))
    ref = orthonormal_refill(q, width, np.random.default_rng(7))
    assert out.shape == ref.shape == (d, max(width, 1, k))
    assert np.array_equal(out[:, :k], q)
    span = qr_orthonormalize(out)
    assert span.shape == out.shape
    assert np.linalg.norm(span @ span.T - ref @ ref.T) <= 1e-10
