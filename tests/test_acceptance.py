"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single ``criterion N (<name>): PASS`` line when it
succeeds (run with ``pytest -s`` to see the lines as they appear) and
asserts the criterion's runtime budget.
"""

import math
import time

import numpy as np
import pytest

from heteromc import (
    CollectiveMatrix,
    ExpFamilyModel,
    ExperimentSpec,
    SamplingScheme,
    SolverConfig,
    SyntheticConfig,
    apg_solve,
    approx_svt,
    generate_synthetic,
    grad_neg_log_likelihood,
    grad_operator_norm,
    lambda_heuristic,
    lipschitz_grad_constant,
    mask_sample,
    neg_log_likelihood,
    nuclear_norm,
    observe_from_model,
    plais_impute,
    rank1_svd,
    rate_regression,
    relative_error,
    run_cold_start,
    run_experiment,
    sign_test_pvalue,
    summarize,
    svt_exact,
    tight_lipschitz,
)
from heteromc import io as hio
from heteromc.data import BlockLayout, ObservationSet

from conftest import ALL_FAMILIES, domain_matrix, gaussian_instance, make_obs


class budget:
    """Context manager asserting the criterion's budget in process CPU seconds.

    CPU time, not wall time, so that other load on the machine does not
    count against the criterion.
    """

    def __init__(self, number, name, seconds):
        self.number, self.name, self.seconds = number, name, seconds

    def __enter__(self):
        self.start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.process_time() - self.start
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded {self.seconds}s budget "
                f"({elapsed:.1f}s)")
            print(f"criterion {self.number} ({self.name}): PASS "
                  f"[{elapsed:.1f}s < {self.seconds}s]")
        else:
            print(f"criterion {self.number} ({self.name}): FAIL")
        return False


def test_criterion_1_gradient_correctness():
    with budget(1, "gradient correctness", 5):
        for seed, model in enumerate(ALL_FAMILIES):
            obs, _ = make_obs(model, d_u=20, d_v=30, p=0.6, seed=seed)
            rng = np.random.default_rng(100 + seed)
            w = domain_matrix(model, (20, 30), rng)
            grad = grad_neg_log_likelihood(obs, w).values
            h = 1e-5
            fd = np.zeros_like(w)
            for i, c in zip(obs.i, obs.cols):
                wp, wm = w.copy(), w.copy()
                wp[i, c] += h
                wm[i, c] -= h
                fd[i, c] = (neg_log_likelihood(obs, wp)
                            - neg_log_likelihood(obs, wm)) / (2 * h)
            rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
            assert rel < 1e-6, f"{model.family}: relative error {rel:.2e}"


def test_criterion_2_prox_oracle():
    with budget(2, "approximate SVT prox oracle", 10):
        rng = np.random.default_rng(2)
        for trial in range(3):
            u = np.linalg.qr(rng.normal(size=(50, 5)))[0]
            v = np.linalg.qr(rng.normal(size=(60, 5)))[0]
            s = np.array([9.0, 7.0, 5.0, 3.0, 1.5])
            z = (u * s) @ v.T
            lam = 4.0  # three survivors
            exact = svt_exact(z, lam)
            for width in (5, 7, 9):
                for delta in (1e-1, 1e-3, 1e-5, 1e-7):
                    out, _, _ = approx_svt(z, rng.normal(size=(60, width)), lam, delta)
                    gap = np.linalg.norm(out.to_matrix() - exact.to_matrix())
                    assert gap < 1e-6, f"width={width} delta={delta}: {gap:.2e}"
        # prox characterization: no perturbation beats the SVT output
        z = rng.normal(size=(50, 50))
        for tau in (0.5, 2.0, 8.0):
            q_star = svt_exact(z, tau).to_matrix()
            best = 0.5 * np.sum((z - q_star) ** 2) + tau * nuclear_norm(q_star)
            for _ in range(1000):
                pert = q_star + rng.normal(scale=rng.choice([1e-3, 1e-1]),
                                           size=q_star.shape)
                val = 0.5 * np.sum((z - pert) ** 2) + tau * nuclear_norm(pert)
                assert val >= best - 1e-9


def test_criterion_3_lipschitz_constant():
    with budget(3, "gradient Lipschitz constant", 10):
        rng = np.random.default_rng(3)
        for model in ALL_FAMILIES:
            obs, _ = make_obs(model, d_u=15, d_v=12, p=0.7, seed=31)
            bound = lipschitz_grad_constant(obs)
            lo, hi = model.interval if model.interval else (-model.gamma,
                                                            model.gamma)
            for _ in range(100):
                w = rng.uniform(lo, hi, (15, 12))
                q = rng.uniform(lo, hi, (15, 12))
                num = np.linalg.norm(grad_neg_log_likelihood(obs, w).values
                                     - grad_neg_log_likelihood(obs, q).values)
                den = np.linalg.norm(w - q)
                assert num <= bound * den * (1 + 1e-12), model.family


def test_criterion_4_solver_descent():
    with budget(4, "solver descent", 30):
        rng = np.random.default_rng(4)
        # APG with unit step bound: objective trace never increases
        for _ in range(30):
            obs, _ = gaussian_instance(seed=int(rng.integers(1 << 30)), p=0.7)
            fit = apg_solve(obs, SolverConfig(lam=lambda_heuristic(obs),
                                              lipschitz=1.0, max_iters=40,
                                              epsilon=1e-6))
            assert np.diff(fit.objective_history).max(initial=0.0) <= 1e-9
            assert fit.terminated_by in ("tolerance", "max_iters")
        # inexact solver: once the continuation reaches the final weight,
        # the objective keeps descending (stopping rule at 1e-6)
        for seed in range(8):
            obs, _ = gaussian_instance(d_u=40, d_vs=(25, 15), ranks=(3, 2),
                                       seed=seed, p=0.7)
            lip = tight_lipschitz(obs)
            lam = 0.05 * lip * rank1_svd(obs.dense_y())[1]
            cfg = SolverConfig(lam=lam, lipschitz=lip, nu=0.05, max_iters=200,
                               epsilon=1e-6)
            fit = plais_impute(obs, cfg)
            assert fit.terminated_by == "tolerance"
            lam0 = lip * rank1_svd(obs.dense_y())[1]
            lam_ts = [cfg.nu**t * (lam0 - lam) + lam
                      for t in range(1, len(fit.objective_history))]
            conv = next(t for t, lt in enumerate(lam_ts, start=1)
                        if abs(lt - lam) < 1e-12)
            tail = np.array(fit.objective_history[conv:])
            assert len(tail) > 3
            assert np.diff(tail).max(initial=0.0) <= 1e-9


def desk_exp1_spec(**over):
    base = dict(
        d_u=300, d_vs=(100, 100, 100), ranks=(5, 5, 5),
        factor_laws=("gaussian", "poisson", "bernoulli"),
        p_grid=(0.6,), trials=1, seed=123,
        solver=SolverConfig(init_rank=25, max_iters=400, basis_drop=1e-3,
                            epsilon=1e-9),
        methods=("collective",), rel_lambda=0.01, experiment_id="exp1_desk",
    )
    base.update(over)
    return ExperimentSpec(**base)


def test_criterion_5_rank_learning():
    with budget(5, "learning-rank curves", 60):
        syn = SyntheticConfig(300, (100, 100, 100), (5, 5, 5),
                              ("gaussian", "poisson", "bernoulli"), seed=55)
        truth = generate_synthetic(syn)
        fams = tuple(ExpFamilyModel("gaussian", 1.0) for _ in range(3))
        obs = mask_sample(truth, SamplingScheme.uniform(0.6), 56, fams)
        lip = tight_lipschitz(obs)
        cfg = SolverConfig(lam=0.01 * lip * rank1_svd(obs.dense_y())[1],
                           lipschitz=lip, init_rank=25,  # five times the rank
                           basis_drop=1e-3, max_iters=400, epsilon=1e-9)
        fit = plais_impute(obs, cfg)
        assert fit.input_rank_history[0] == 25
        assert fit.rank_history[-1] <= 15
        # both traces settle on one common constant
        tail_rank = set(fit.rank_history[-5:])
        tail_input = set(fit.input_rank_history[-5:])
        assert len(tail_rank) == 1 and tail_rank == tail_input
        assert relative_error(fit.factors.to_matrix(), truth.values) < 0.25


def test_criterion_6_re_decreases_with_p():
    with budget(6, "relative error vs sampling rate", 300):
        spec = desk_exp1_spec(
            p_grid=(0.2, 0.4, 0.6, 0.8), trials=5,
            solver=SolverConfig(init_rank=25, max_iters=400, basis_drop=1e-3,
                                epsilon=1e-6))
        rows = summarize(run_experiment(spec))
        means = [row["mean_re"] for row in sorted(rows, key=lambda r: r["p"])]
        assert all(b < a for a, b in zip(means, means[1:])), means


def test_criterion_7_rate_law():
    with budget(7, "error rate regression", 300):
        fams = tuple(ExpFamilyModel("gaussian", 1.0, gamma=30.0)
                     for _ in range(3))
        spec = desk_exp1_spec(
            factor_laws=("gaussian",) * 3, gamma=30.0,
            p_grid=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), trials=2,
            seed=321, shared_factors=True, noise="model", fit_families=fams,
            rel_lambda=None,
            solver=SolverConfig(lam="auto", constant_c=1.0, init_rank=25,
                                max_iters=300, basis_drop=1e-3),
            experiment_id="rate",
        )
        reg = rate_regression(run_experiment(spec))
        assert reg["r_squared"] > 0.8, reg["r_squared"]
        assert reg["slope"] > 0


def test_criterion_8_cold_start():
    with budget(8, "cold-start transfer", 300):
        spec = desk_exp1_spec(p_grid=(0.3,), trials=10, seed=99,
                              shared_factors=True)
        records = run_cold_start(spec, target_v=0)
        coll = {r.trial: r.re_per_source[0] for r in records
                if r.method == "collective"}
        comp = {r.trial: r.re_per_source[0] for r in records
                if r.method == "per_source"}
        assert len(coll) == len(comp) == 10
        assert np.mean(list(coll.values())) <= np.mean(list(comp.values()))
        wins = sum(coll[t] < comp[t] for t in coll)
        assert sign_test_pvalue(wins, 10) < 0.05, f"wins={wins}"


def test_criterion_9_lambda_calibration():
    with budget(9, "regularization weight calibration", 60):
        hits = 0
        fams = (ExpFamilyModel("gaussian", 1.0),)
        for k in range(200):
            syn = SyntheticConfig(200, (200,), (5,), ("gaussian",), seed=k)
            truth = generate_synthetic(syn)
            obs = observe_from_model(truth, fams, SamplingScheme.uniform(0.5),
                                     (k, 77))
            hits += lambda_heuristic(obs) >= 2.0 * grad_operator_norm(obs, truth)
        assert hits >= 180, f"{hits}/200"


def test_criterion_10_determinism_and_formats(tmp_path):
    with budget(10, "determinism and file formats", 10):
        syn = SyntheticConfig(25, (10, 8), (2, 2), ("gaussian", "poisson"),
                              seed=9)
        truth = generate_synthetic(syn)
        fams = (ExpFamilyModel("gaussian", 1.0), ExpFamilyModel("poisson"))
        obs = mask_sample(truth, SamplingScheme.uniform(0.7), 10, fams)
        # observation CSV round-trips byte-identically
        hio.save_observations(tmp_path / "a.csv", obs)
        back = hio.load_observations(tmp_path / "a.csv", obs.layout, fams)
        hio.save_observations(tmp_path / "b.csv", back)
        assert ((tmp_path / "a.csv").read_bytes()
                == (tmp_path / "b.csv").read_bytes())
        assert np.array_equal(back.y, obs.y)
        # layout JSON round-trips
        hio.save_layout(tmp_path / "layout.json", obs.layout, fams)
        layout2, fams2 = hio.load_layout(tmp_path / "layout.json")
        assert layout2 == obs.layout and fams2 == fams
        # factor binaries round-trip exactly
        lip = tight_lipschitz(obs)
        cfg = SolverConfig(lam=0.02 * lip * rank1_svd(obs.dense_y())[1],
                           lipschitz=lip, max_iters=120)
        fit = plais_impute(obs, cfg)
        hio.save_factors(tmp_path / "factors", fit.factors)
        loaded = hio.load_factors(tmp_path / "factors")
        assert np.array_equal(loaded.u, fit.factors.u)
        assert np.array_equal(loaded.sigma, fit.factors.sigma)
        assert np.array_equal(loaded.v, fit.factors.v)
        # identical seeds give bit-identical runs and regenerated data
        fit2 = plais_impute(obs, cfg)
        assert fit.rank_history == fit2.rank_history
        assert np.array_equal(fit.objective_history, fit2.objective_history)
        assert np.array_equal(generate_synthetic(syn).values, truth.values)
