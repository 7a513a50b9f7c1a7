"""Every number a record takes from outside input is checked one way.

Each numeric field of the records built from a config, a layout file or a
call, and each number of the public functions that take one, rejects NaN,
infinity, a boolean, a string and a value outside its stated range, and an
integer field also a fraction, with a ``ValueError`` whose message starts
with the field's name.
"""

import math

import pytest

from heteromc import (
    BlockLayout,
    ExperimentSpec,
    ExpFamilyModel,
    LipschitzLoss,
    SamplingScheme,
    SolverConfig,
    SyntheticConfig,
    lambda_general_loss,
    lambda_heuristic,
)
from heteromc.objectives import solver_loss_terms

from conftest import GAUSS, make_obs

SPEC = dict(d_u=20, d_vs=(8, 8), ranks=(1, 1), factor_laws=("gaussian", "gaussian"),
            p_grid=(0.5,))
SYN = dict(d_u=10, d_vs=(12,), ranks=(2,), factor_laws=("gaussian",))
QUANTILE = LipschitzLoss.quantile(0.5)


def _obs():
    return make_obs(GAUSS, d_u=6, d_v=5)[0]


# (id, field as the message names it, build from the value, a value out of
# range or None when the field states no range of its own, integer field)
FIELDS = [
    ("solver-lambda", "lambda", lambda x: SolverConfig(lam=x), -1.0, False),
    ("solver-nu", "nu", lambda x: SolverConfig(nu=x), 1.0, False),
    ("solver-epsilon", "epsilon", lambda x: SolverConfig(epsilon=x), 0.0, False),
    ("solver-max_iters", "max_iters", lambda x: SolverConfig(max_iters=x), 0, True),
    ("solver-lipschitz", "lipschitz", lambda x: SolverConfig(lipschitz=x), -1.0, False),
    ("solver-constant_c", "constant_c", lambda x: SolverConfig(constant_c=x), 0.0, False),
    ("solver-init_rank", "init_rank", lambda x: SolverConfig(init_rank=x), 0, True),
    ("solver-basis_drop", "basis_drop", lambda x: SolverConfig(basis_drop=x), -1e-3, False),
    ("solver-smoothing", "smoothing", lambda x: SolverConfig(smoothing=x), 0.0, False),
    ("spec-d_u", "d_u", lambda x: ExperimentSpec(**{**SPEC, "d_u": x}), None, True),
    ("spec-d_vs", "d_vs", lambda x: ExperimentSpec(**{**SPEC, "d_vs": (8, x)}), None, True),
    ("spec-ranks", "ranks", lambda x: ExperimentSpec(**{**SPEC, "ranks": (1, x)}), 9, True),
    ("spec-p_grid", "p_grid", lambda x: ExperimentSpec(**{**SPEC, "p_grid": (0.5, x)}),
     1.5, False),
    ("spec-gamma", "gamma", lambda x: ExperimentSpec(**SPEC, gamma=x), 0.0, False),
    ("spec-trials", "trials", lambda x: ExperimentSpec(**SPEC, trials=x), 0, True),
    ("spec-seed", "seed", lambda x: ExperimentSpec(**SPEC, seed=x), None, True),
    ("spec-train_fraction", "train_fraction",
     lambda x: ExperimentSpec(**SPEC, train_fraction=x), 1.5, False),
    ("spec-rel_lambda", "rel_lambda", lambda x: ExperimentSpec(**SPEC, rel_lambda=x),
     -0.01, False),
    ("synthetic-d_u", "d_u", lambda x: SyntheticConfig(**{**SYN, "d_u": x}), None, True),
    ("synthetic-d_vs", "d_vs", lambda x: SyntheticConfig(**{**SYN, "d_vs": (x,)}), None, True),
    ("synthetic-ranks", "ranks", lambda x: SyntheticConfig(**{**SYN, "ranks": (x,)}), 0, True),
    ("synthetic-gamma", "gamma", lambda x: SyntheticConfig(**SYN, gamma=x), -1.0, False),
    ("synthetic-seed", "seed", lambda x: SyntheticConfig(**SYN, seed=x), None, True),
    ("layout-d_u", "layout d_u", lambda x: BlockLayout(x, (3,)), 0, True),
    ("layout-d_vs", "layout d_vs", lambda x: BlockLayout(4, (3, x)), 0, True),
    ("uniform-p", "p", SamplingScheme.uniform, 0.0, False),
    ("gaussian-nuisance", "nuisance", lambda x: ExpFamilyModel("gaussian", x), -1.0, False),
    ("binomial-nuisance", "nuisance", lambda x: ExpFamilyModel("binomial", x), 0, True),
    ("family-gamma", "gamma", lambda x: ExpFamilyModel("poisson", gamma=x), 0.0, False),
    ("family-kappa", "kappa", lambda x: ExpFamilyModel("poisson", kappa=x), 0.0, False),
    ("family-interval", "interval",
     lambda x: ExpFamilyModel("gamma", 2.0, interval=(-2.0, x)), 0.5, False),
    ("loss-tau", "tau", LipschitzLoss.quantile, 1.0, False),
    ("loss-rho", "rho", lambda x: LipschitzLoss("logistic", rho=x), 0.0, False),
    ("lambda_heuristic-constant_c", "constant_c", lambda x: lambda_heuristic(_obs(), x),
     0.0, False),
    ("lambda_general_loss-constant_c", "constant_c",
     lambda x: lambda_general_loss(_obs(), (QUANTILE,), x), 0.0, False),
    ("solver_loss_terms-smoothing", "smoothing", lambda x: solver_loss_terms(QUANTILE, x),
     0.0, False),
]


def _cases():
    for case_id, field, build, out_of_range, integer in FIELDS:
        bad = {"nan": math.nan, "inf": math.inf, "bool": True, "str": "abc"}
        if out_of_range is not None:
            bad["range"] = out_of_range
        if integer:
            bad["fraction"] = 2.5
        for kind, value in bad.items():
            yield pytest.param(field, build, value, id=f"{case_id}-{kind}")


@pytest.mark.parametrize("field, build, value", _cases())
def test_bad_number_is_rejected_by_its_field_name(field, build, value):
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value).startswith(f"{field} "), str(info.value)
