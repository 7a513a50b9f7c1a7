"""Recovery error against the fraction of revealed entries.

Two views of the same sweep: the relative error decays as p grows, and on
shared-structure instances with model noise the mean squared error follows
a 1/p law, which the regression quantifies next to the reference rate
curve.
"""

import numpy as np

from heteromc import (
    ExpFamilyModel,
    ExperimentSpec,
    SolverConfig,
    rate_regression,
    run_experiment,
    summarize,
)

# noise-free sweep: relative error vs p
spec = ExperimentSpec(
    d_u=150, d_vs=(50, 50, 50), ranks=(3, 3, 3),
    factor_laws=("gaussian", "poisson", "bernoulli"),
    p_grid=(0.2, 0.4, 0.6, 0.8), trials=3, seed=31,
    solver=SolverConfig(init_rank=15, max_iters=300),
    methods=("collective",), rel_lambda=0.01, experiment_id="sweep",
)
records = run_experiment(spec, jobs=2)
print("p     mean RE   std RE")
for row in summarize(records):
    print(f"{row['p']:.1f}   {row['mean_re']:.4f}   {row['std_re']:.4f}")

# noisy shared-factor sweep: squared error vs 1/p regression
fams = tuple(ExpFamilyModel("gaussian", 1.0, gamma=30.0) for _ in range(3))
rate_spec = ExperimentSpec(
    d_u=150, d_vs=(50, 50, 50), ranks=(3, 3, 3),
    factor_laws=("gaussian",) * 3, gamma=30.0,
    p_grid=(0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9), trials=2, seed=32,
    solver=SolverConfig(lam="auto", constant_c=1.0, init_rank=15, max_iters=300),
    methods=("collective",), shared_factors=True, noise="model",
    fit_families=fams, experiment_id="rate",
)
# the rate constant is not pinned by the theory; 0.02 puts the reference
# curve on the scale of these instances
bound_params = {"kind": "expfam", "rank": 3, "d_u": 150, "D": 150,
                "gamma": 30.0, "L2": 1.0, "U2": 1.0, "K": 1.0,
                "constant_c": 0.02}
reg = rate_regression(run_experiment(rate_spec, jobs=2), bound_params)
print(f"\nsquared error ~ slope / p: slope={reg['slope']:.3f} "
      f"intercept={reg['intercept']:.3f} R^2={reg['r_squared']:.3f}")
print("p     mean sq err   fitted      reference curve")
for row in reg["curve_table"]:
    print(f"{row['p']:.1f}   {row['mean_sq_error']:.4e}   "
          f"{row['fitted']:.4e}  {row['bound']:.4e}")
