"""Cold-start scenario: does joint fitting help a corrupted source?

One source has the first fifth of its observed values zeroed out.  Fitting
all sources jointly lets the shared row structure compensate; fitting the
cold source alone cannot.  Means and standard deviations over ten trials
mirror the benchmark protocol.
"""

import numpy as np

from heteromc import (
    ExperimentSpec,
    SolverConfig,
    run_cold_start,
    sign_test_pvalue,
)

spec = ExperimentSpec(
    d_u=150, d_vs=(50, 50, 50), ranks=(3, 3, 3),
    factor_laws=("gaussian", "poisson", "bernoulli"),
    p_grid=(0.3,), trials=10, seed=41,
    solver=SolverConfig(init_rank=15, max_iters=300),
    shared_factors=True, rel_lambda=0.01, experiment_id="cold",
)
records = run_cold_start(spec, target_v=0, jobs=2)

coll = [r.re_per_source[0] for r in records if r.method == "collective"]
comp = [r.re_per_source[0] for r in records if r.method == "per_source"]
wins = sum(c < s for c, s in zip(coll, comp))

print("error on the cold source over 10 trials (mean +- std):")
print(f"  joint fit of all sources : {np.mean(coll):.4f} +- {np.std(coll):.4f}")
print(f"  cold source fitted alone : {np.mean(comp):.4f} +- {np.std(comp):.4f}")
print(f"joint fit wins {wins}/10 trials "
      f"(one-sided sign test p = {sign_test_pvalue(wins, 10):.4f})")

print("\nsame pipeline without the cold corruption (transform disabled):")
plain = run_cold_start(spec, target_v=0, jobs=2, transform=False)
coll0 = [r.re_per_source[0] for r in plain if r.method == "collective"]
comp0 = [r.re_per_source[0] for r in plain if r.method == "per_source"]
print(f"  joint {np.mean(coll0):.4f} vs alone {np.mean(comp0):.4f}")
