import warnings

import numpy as np
import pytest
from scipy import linalg, sparse
from scipy.linalg import lapack

from heteromc import (
    ThinFactors,
    approx_svt,
    nuclear_norm,
    power_method,
    qr_orthonormalize,
    rank1_svd,
    svt_exact,
)
from heteromc.lowrank import SparsePlusLowRank, _refill, _subspace_gap


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
    q, converged, _, _ = power_method(z, rng.normal(size=(15, 4)), delta)
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
    q, converged, _, _ = power_method(z, rng.normal(size=(9, 1)), delta)
    assert converged
    assert abs(float(q[:, 0] @ u)) >= 1 - 10 * delta


def test_power_method_huge_delta_one_iteration(rng):
    z = rng.normal(size=(8, 6))
    q, converged, _, _ = power_method(z, rng.normal(size=(6, 3)), delta=1e3)
    assert converged
    assert np.allclose(q.T @ q, np.eye(3), atol=1e-10)


def test_approx_svt_matches_exact_with_spanning_warm_start(rng):
    z, s = random_low_rank(14, 11, 4, rng)
    lam = (s[2] + s[3]) / 2  # three values stay above the threshold
    exact = svt_exact(z, lam)
    # warm start spanning the row space
    _, _, vt = np.linalg.svd(z, full_matrices=False)
    out, _, _ = approx_svt(z, vt[:4].T, lam, delta=1e-10)
    assert out.rank == exact.rank == 3
    assert np.linalg.norm(out.to_matrix() - exact.to_matrix()) < 1e-8


def test_approx_svt_empty_and_diagonal(rng):
    z = np.diag([4.0, 2.0, 1.0])
    out, _, _ = approx_svt(z, np.eye(3), lam=5.0, delta=1e-10)
    assert out.rank == 0
    out2, _, _ = approx_svt(z, np.eye(3), lam=1.5, delta=1e-12)
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
        out, _, _ = approx_svt(z, rng.normal(size=(30, 6)), lam, delta, max_iters=500)
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
    empty = ThinFactors(np.zeros((5, 0)), np.zeros(0), np.zeros((4, 0)))
    assert empty.rank == 0 and empty.to_matrix().shape == (5, 4)
    with pytest.raises(ValueError):
        ThinFactors(np.zeros((3, 2)), np.zeros(1), np.zeros((4, 2)))


def test_power_method_iteration_cap_flag(rng):
    # nearly-degenerate spectrum converges slowly; the cap trips the flag
    spectrum = np.array([10.0, 9.999, 9.998, 9.997])
    z, _ = random_low_rank(30, 25, 4, rng, spectrum)
    z += 0.5 * rng.normal(size=z.shape)
    q, converged, _, _ = power_method(z, rng.normal(size=(25, 2)), delta=1e-14,
                                      max_iters=2)
    assert not converged
    assert np.allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-10)


def test_qr_orthonormalize_drops_zero_column():
    e1 = np.zeros((6, 1))
    e1[0] = 1.0
    q = qr_orthonormalize(np.hstack([e1, np.zeros((6, 1))]))
    assert q.shape == (6, 1)


def copying_qr_orthonormalize(m, drop_tol=1e-10):
    # reference: the earlier body, which copied Q for the signs and the drop
    m = np.asarray(m, dtype=float)
    if m.shape[1] == 0:
        return m.copy()
    q, r = linalg.qr(m, mode="economic", check_finite=False)
    diag = np.diagonal(r)
    q = q * np.where(diag < 0, -1.0, 1.0)
    return q[:, np.abs(diag) > drop_tol]


def rank_deficient(rng):
    m = rng.normal(size=(40, 6))
    return np.hstack([m, m[:, :2] + m[:, 2:4]])


def with_zero_columns(rng):
    m = rng.normal(size=(30, 5))
    m[:, [1, 3]] = 0.0
    return m


@pytest.mark.parametrize("make", [
    lambda rng: rng.normal(size=(50, 8)),
    lambda rng: rng.normal(size=(7, 7)),
    rank_deficient,
    with_zero_columns,
    lambda rng: np.zeros((9, 0)),
], ids=["full-rank", "square", "rank-deficient", "zero-columns", "no-columns"])
def test_qr_orthonormalize_matches_the_copying_form_bit_for_bit(rng, make):
    m = make(rng)
    q, ref = qr_orthonormalize(m), copying_qr_orthonormalize(m)
    assert q.shape == ref.shape
    assert np.array_equal(q, ref)
    assert q.flags["F_CONTIGUOUS"] == ref.flags["F_CONTIGUOUS"]


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("make", [
    lambda rng: rng.normal(size=(300, 8)),
    lambda rng: rng.normal(size=(10, 10)),
    rank_deficient,
], ids=["tall", "square", "rank-deficient"])
def test_qr_orthonormalize_is_scipys_sign_fixed_q_bit_for_bit(rng, make, order):
    m = np.asarray(make(rng), order=order)
    q, r = linalg.qr(m, mode="economic")
    diag = np.diagonal(r)
    ref = (q * np.where(diag < 0, -1.0, 1.0))[:, np.abs(diag) > 1e-10]
    out = qr_orthonormalize(m)
    assert np.array_equal(out, ref)
    if make is rank_deficient:  # the two dependent columns are dropped
        assert out.shape == (40, 6)


def test_qr_orthonormalize_rejects_wide_input_and_copies_empty_input(rng):
    with pytest.raises(ValueError, match="at least as many rows as columns"):
        qr_orthonormalize(rng.normal(size=(3, 5)))
    empty = np.zeros((4, 0))
    out = qr_orthonormalize(empty)
    assert out.shape == (4, 0) and out is not empty


def two_product_gap(a, b):
    ra = a - b @ (b.T @ a)
    rb = b - a @ (a.T @ b)
    return float(np.sqrt(np.sum(ra**2) + np.sum(rb**2)))


@pytest.mark.parametrize("d, k_a, k_b", [(30, 5, 3), (30, 2, 9), (200, 17, 25), (8, 8, 1)])
def test_subspace_gap_matches_the_two_product_form(rng, d, k_a, k_b):
    a = qr_orthonormalize(rng.normal(size=(d, k_a)))
    b = qr_orthonormalize(rng.normal(size=(d, k_b)))
    assert _subspace_gap(a, b) == pytest.approx(two_product_gap(a, b), rel=1e-12, abs=1e-12)
    assert _subspace_gap(b, a) == pytest.approx(two_product_gap(b, a), rel=1e-12, abs=1e-12)


def test_subspace_gap_of_a_rotated_span_and_of_orthogonal_spans(rng):
    a = qr_orthonormalize(rng.normal(size=(40, 6)))
    rotation = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    assert _subspace_gap(a, a @ rotation) <= 1e-12
    basis = qr_orthonormalize(rng.normal(size=(40, 7)))
    a, b = basis[:, :4], basis[:, 4:]
    assert _subspace_gap(a, b) == pytest.approx(np.sqrt(4 + 3), rel=1e-12)


def test_approx_svt_reports_an_unconverged_power_method(rng):
    z = rng.normal(size=(20, 15))
    out, converged, _ = approx_svt(z, rng.normal(size=(15, 3)), lam=0.5, delta=1e-14,
                                   max_iters=1)
    assert not converged and out.rank <= 3
    _, converged, _ = approx_svt(z, rng.normal(size=(15, 3)), lam=0.5, delta=1e3)
    assert converged


def test_approx_svt_returns_the_sub_threshold_ritz_vectors(rng):
    z = rng.normal(size=(30, 20))
    s = np.linalg.svd(z, compute_uv=False)
    lam = (s[3] + s[4]) / 2
    r0 = rng.normal(size=(20, 9))
    out, converged, tail = approx_svt(z, r0, lam, delta=0.0, max_iters=1)
    assert not converged and tail.shape == (20, 9 - out.rank)
    assert np.allclose(tail.T @ tail, np.eye(tail.shape[1]), rtol=0, atol=1e-10)
    assert np.allclose(out.v.T @ tail, 0.0, rtol=0, atol=1e-10)
    # the one step's Ritz values are those of Q^T Z, Q the range of z @ r0
    ritz = np.linalg.norm(qr_orthonormalize(z @ r0).T @ z @ tail, axis=0)
    assert np.all(ritz > 0) and np.all(ritz <= lam) and np.all(np.diff(ritz) < 0)
    # from a full-width start the tail is svt_exact's discarded right subspace
    out, converged, tail = approx_svt(z, rng.normal(size=(20, 20)), lam, delta=1e-10)
    vt = np.linalg.svd(z)[2]
    assert converged and out.rank == svt_exact(z, lam).rank == 4
    assert _subspace_gap(tail, vt[4:].T) < 1e-8
    assert np.allclose(np.linalg.norm(z @ tail, axis=0), s[4:], rtol=1e-10, atol=0)


def test_power_method_converges_on_a_warm_start_wider_than_the_rank(rng):
    # rank-1 z, 2-column warm start: the dependent column is dropped, not
    # replaced, so the basis settles at width 1
    z = np.outer(rng.normal(size=6), rng.normal(size=5))
    q, converged, _, _ = power_method(z, rng.normal(size=(5, 2)), delta=1e-8)
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
    out, converged, _ = approx_svt(z, r0, lam, delta=1e-8, max_iters=8)
    assert converged
    exact = svt_exact(z, lam)
    assert out.rank == exact.rank == 3
    assert np.linalg.norm(out.to_matrix() - exact.to_matrix()) < 1e-6
    _, converged, _, _ = power_method(z, r0, delta=1e-8, max_iters=8, lam=0.0)
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
    r0 = rng.normal(size=(15, 4))
    s = np.linalg.svd(z, compute_uv=False)
    # a Ritz value never exceeds its singular value, so at most two of them
    # lie above a threshold between s[1] and s[2]
    for lam, width in ((0.0, 4), ((s[1] + s[2]) / 2, 2)):
        q, converged, y, _ = power_method(z, r0, delta, max_iters=max_iters, lam=lam)
        assert y.shape == (15, q.shape[1])
        assert np.allclose(y, z.T @ q, rtol=0, atol=1e-12)
        assert q.shape[1] <= width and (q.shape[1] == width or not converged)
        # q is the Ritz basis above lam: y's columns are orthogonal, with
        # norms (the Ritz values) above lam and descending
        norms = np.linalg.norm(y, axis=0)
        assert np.allclose(y.T @ y, np.diag(norms**2), rtol=0, atol=1e-10)
        assert np.all(norms > lam) and np.all(np.diff(norms) < 0)


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
    out, converged, _ = approx_svt(op, r0, lam=0.5, delta=delta, max_iters=max_iters)
    # one z @ y and one z.T @ q per power step, nothing after the last
    assert op.calls[0] == 2 * steps
    assert converged == (delta > 1)
    dense, _, _ = approx_svt(a @ b.T, r0, lam=0.5, delta=delta, max_iters=max_iters)
    assert np.allclose(out.to_matrix(), dense.to_matrix(), atol=1e-10)


@pytest.mark.parametrize("structured", [False, True])
def test_approx_svt_takes_its_factors_from_the_ritz_pairs(rng, monkeypatch, structured):
    # singular values from 1e4 down to 1, threshold between the last two
    m, n = 50, 40
    spectrum = np.logspace(4, 0, 12)
    u = np.linalg.qr(rng.normal(size=(m, 12)))[0]
    v = np.linalg.qr(rng.normal(size=(n, 12)))[0]
    z = (u * spectrum) @ v.T
    lam = 1.5
    exact = svt_exact(z, lam)
    form = z
    if structured:  # the two smallest directions in the sparse part
        form = CountingOperator(u[:, :10] * spectrum[:10], v[:, :10],
                                sparse.csr_matrix((u[:, 10:] * spectrum[10:]) @ v[:, 10:].T))
    calls = {"eigh": 0, "svd": 0, "qr": 0}

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    # QR is counted at numpy's qr or LAPACK's dgeqrf, the SVD and eigh through numpy's
    for module, name, key in ((np.linalg, "eigh", "eigh"), (np.linalg, "svd", "svd"),
                              (np.linalg, "qr", "qr"), (lapack, "dgeqrf", "qr")):
        monkeypatch.setattr(module, name, counted(module, name, key))
    out, converged, _ = approx_svt(form, rng.normal(size=(n, 15)), lam, delta=1e-10)
    monkeypatch.undo()
    assert converged and out.rank == exact.rank == 11
    ref = exact.to_matrix()
    assert np.linalg.norm(out.to_matrix() - ref) <= 1e-8 * np.linalg.norm(ref)
    assert np.allclose(out.u.T @ out.u, np.eye(11), rtol=0, atol=1e-10)
    assert np.allclose(out.v.T @ out.v, np.eye(11), rtol=0, atol=1e-10)
    assert np.all(np.diff(out.sigma) < 0)
    # one QR and one eigh per power step, and no SVD
    assert calls["svd"] == 0 and calls["eigh"] == calls["qr"] > 1
    if structured:
        assert form.calls[0] == 2 * calls["eigh"]


def test_refill_of_a_full_basis_builds_no_generator(monkeypatch, rng):
    q = rng.normal(size=(12, 4))

    def forbidden(*args, **kwargs):
        raise AssertionError("built a Generator")

    monkeypatch.setattr(np.random, "default_rng", forbidden)
    assert _refill(q, 4, (8082, 1)) is q
    assert _refill(q, 3, (8082, 1)) is q


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
