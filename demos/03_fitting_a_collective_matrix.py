"""Fitting the penalized estimator and reading the solver traces.

The accelerated inexact solver sweeps its singular-value threshold from
sigma_1(Y) down to the target weight while the warm-started power method
keeps the per-iteration cost at the current rank.  The rank trace grows to
the true collective rank and the objective decreases to a plateau.
"""

import numpy as np

from heteromc import (
    ExpFamilyModel,
    SamplingScheme,
    SolverConfig,
    SyntheticConfig,
    apg_solve,
    generate_synthetic,
    mask_sample,
    plais_impute,
    rank1_svd,
    relative_error,
    tight_lipschitz,
)

cfg = SyntheticConfig(
    d_u=150, d_vs=(50, 50, 50), ranks=(3, 3, 3),
    factor_laws=("gaussian", "poisson", "bernoulli"), seed=21,
)
truth = generate_synthetic(cfg)
families = tuple(ExpFamilyModel("gaussian", 1.0) for _ in range(3))
obs = mask_sample(truth, SamplingScheme.uniform(0.5), 22, families)

# the weight is sized by the gradient Lipschitz constant, which the solvers
# also take as their step constant when none is given
lip = tight_lipschitz(obs)
lam = 0.01 * lip * rank1_svd(obs.dense_y())[1]
solver_cfg = SolverConfig(lam=lam, init_rank=15, basis_drop=1e-3, epsilon=1e-9,
                          max_iters=300)

fit = plais_impute(obs, solver_cfg)
print(f"stopped by {fit.terminated_by} after {len(fit.rank_history) - 1} "
      f"iterations ({fit.wall_time * 1e3:.0f} ms)")
print("rank trace:      ", fit.rank_history)
print("warm-width trace:", fit.input_rank_history)
print("restarts at:", fit.restarts)
print("objective: first", f"{fit.objective_history[0]:.6f}",
      "last", f"{fit.objective_history[-1]:.6f}")
print("recovered rank:", fit.factors.rank,
      "| true collective rank:", 9)
print("relative error:", relative_error(fit.factors.to_matrix(), truth.values))

# the exact-SVT accelerated driver reaches the same objective, more slowly
apg = apg_solve(obs, SolverConfig(lam=lam, epsilon=1e-9, max_iters=300))
print("\nexact-SVT accelerated driver:",
      f"{len(apg.rank_history)} iterations,",
      f"objective {apg.objective_history[-1]:.6f},",
      f"{apg.wall_time * 1e3:.0f} ms")
