import json
import math
from pathlib import Path

import numpy as np
import pytest

from heteromc import lambda_heuristic
from heteromc.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_MAX_ITERS,
    EXIT_OK,
    main,
)
from heteromc import io as hio


GEN_CFG = {
    "d_u": 30,
    "d_vs": [12, 10],
    "ranks": [2, 2],
    "factor_laws": ["gaussian", "poisson"],
    "gamma": 1.0,
    "p": 0.7,
    "seed": 11,
}


def write_cfg(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def generate(tmp_path, out="gen", cfg=GEN_CFG):
    cfg_path = write_cfg(tmp_path, "gen.json", cfg)
    out_dir = tmp_path / out
    code = main(["generate", "--config", cfg_path, "--out", str(out_dir)])
    assert code == EXIT_OK
    return out_dir


def test_generate_round_trip_and_determinism(tmp_path):
    out1 = generate(tmp_path, "g1")
    layout, families = hio.load_layout(out1 / "layout.json")
    assert layout.d_u == 30 and layout.d_vs == (12, 10)
    assert families[0].family == "gaussian"
    obs = hio.load_observations(out1 / "obs.csv", layout, families)
    truth = hio.load_arrays(out1 / "truth")["values"]
    assert truth.shape == (30, 22)
    assert np.array_equal(obs.y, truth[obs.i, obs.cols])
    out2 = generate(tmp_path, "g2")
    assert (out1 / "obs.csv").read_bytes() == (out2 / "obs.csv").read_bytes()
    assert (out1 / "truth.bin").read_bytes() == (out2 / "truth.bin").read_bytes()


def test_generate_full_observation_row_count(tmp_path):
    out = generate(tmp_path, "gfull", {**GEN_CFG, "p": 1.0})
    lines = (out / "obs.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 30 * 22


def test_generate_requires_seed(tmp_path):
    cfg = {k: v for k, v in GEN_CFG.items() if k != "seed"}
    code = main(["generate", "--config", write_cfg(tmp_path, "g.json", cfg),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_fit_end_to_end(tmp_path, capsys):
    out = generate(tmp_path)
    fit_dir = tmp_path / "fit"
    code = main(["--verbose", "fit", "--obs", str(out / "obs.csv"),
                 "--layout", str(out / "layout.json"),
                 "--lambda", "1e-7", "--out", str(fit_dir)])
    assert code == EXIT_OK
    doc = json.loads((fit_dir / "fit.json").read_text())
    assert doc["terminated_by"] == "tolerance"
    assert len(doc["rank_history"]) >= 1
    factors = hio.load_factors(fit_dir / "factors")
    assert factors.u.shape[0] == 30
    err = capsys.readouterr().err
    first = json.loads(err.splitlines()[0])
    assert set(first) == {"iteration", "lambda_t", "rank", "objective"}


@pytest.mark.parametrize("position", ["before", "after"])
def test_fit_verbose_flag_in_either_position(tmp_path, capsys, position):
    out = generate(tmp_path)
    args = ["fit", "--obs", str(out / "obs.csv"), "--layout", str(out / "layout.json"),
            "--lambda", "1e-7", "--out", str(tmp_path / "fit")]
    args = ["--verbose", *args] if position == "before" else [*args, "--verbose"]
    assert main(args) == EXIT_OK
    lines = capsys.readouterr().err.splitlines()
    assert set(json.loads(lines[0])) == {"iteration", "lambda_t", "rank", "objective"}
    assert set(json.loads(lines[-1])) == {"lambda", "terminated_by"}


def test_fit_warns_on_zero_solution(tmp_path, capsys):
    out = generate(tmp_path)
    fit_dir = tmp_path / "fit_zero"
    code = main(["fit", "--obs", str(out / "obs.csv"), "--layout", str(out / "layout.json"),
                 "--lambda", "10", "--out", str(fit_dir)])
    doc = json.loads((fit_dir / "fit.json").read_text())
    assert "zero_solution" in doc["flags"]
    assert code == (EXIT_OK if doc["terminated_by"] == "tolerance" else EXIT_MAX_ITERS)
    [warning] = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning:") and "zero matrix" in warning


def test_fit_auto_lambda_logged(tmp_path):
    out = generate(tmp_path)
    fit_dir = tmp_path / "fit_auto"
    code = main(["fit", "--obs", str(out / "obs.csv"),
                 "--layout", str(out / "layout.json"),
                 "--lambda", "auto", "--out", str(fit_dir)])
    assert code in (EXIT_OK, EXIT_MAX_ITERS)
    doc = json.loads((fit_dir / "fit.json").read_text())
    layout, families = hio.load_layout(out / "layout.json")
    obs = hio.load_observations(out / "obs.csv", layout, families)
    assert doc["lambda"] == pytest.approx(lambda_heuristic(obs))


def test_fit_max_iters_exit_code(tmp_path):
    out = generate(tmp_path)
    code = main(["fit", "--obs", str(out / "obs.csv"),
                 "--layout", str(out / "layout.json"),
                 "--lambda", "1e-9", "--epsilon", "1e-30",
                 "--out", str(tmp_path / "fit_cap")])
    assert code == EXIT_MAX_ITERS


def test_fit_empty_and_malformed_observations(tmp_path):
    out = generate(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("v,i,j,y\n")
    code = main(["fit", "--obs", str(empty), "--layout",
                 str(out / "layout.json"), "--out", str(tmp_path / "f1")])
    assert code == EXIT_DATA
    assert not (tmp_path / "f1" / "fit.json").exists()
    bad = tmp_path / "bad.csv"
    bad.write_text("v,i,j,y\n0,0,0,1.0\n0,zero,1,2.0\n")
    code = main(["fit", "--obs", str(bad), "--layout",
                 str(out / "layout.json"), "--out", str(tmp_path / "f2")])
    assert code == EXIT_DATA


def test_experiment_command(tmp_path):
    cfg = {
        "d_u": 36, "d_vs": [14, 12], "ranks": [2, 2],
        "factor_laws": ["gaussian", "gaussian"], "p_grid": [0.5, 0.9],
        "trials": 2, "seed": 3, "rel_lambda": 0.01,
        "solver": {"max_iters": 150, "basis_drop": 1e-3},
        "methods": ["collective"],
    }
    out = tmp_path / "exp"
    code = main(["experiment", "--config", write_cfg(tmp_path, "e.json", cfg),
                 "--out", str(out), "--jobs", "2"])
    assert code == EXIT_OK
    records = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 4
    header, *rows = (out / "curves.csv").read_text().strip().splitlines()
    assert header == "p,mean_re,std_re,bound"
    assert len(rows) == 2


def test_experiment_empty_p_grid_is_usage_error(tmp_path):
    cfg = {"d_u": 10, "d_vs": [5], "ranks": [1], "p_grid": [], "seed": 1}
    code = main(["experiment", "--config", write_cfg(tmp_path, "e.json", cfg),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_coldstart_command_emits_paired_records(tmp_path):
    cfg = {
        "d_u": 40, "d_vs": [16, 16], "ranks": [2, 2],
        "factor_laws": ["gaussian", "gaussian"], "p_grid": [0.5],
        "trials": 10, "seed": 5, "rel_lambda": 0.01, "shared_factors": True,
        "solver": {"max_iters": 150, "basis_drop": 1e-3},
        "target_v": 0,
    }
    out = tmp_path / "cold"
    code = main(["coldstart", "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--out", str(out)])
    assert code == EXIT_OK
    records = [json.loads(line) for line in
               (out / "records.jsonl").read_text().splitlines()]
    assert len(records) == 20
    assert {r["method"] for r in records} == {"collective", "per_source"}
    assert (out / "summary.csv").exists()


def test_bounds_command_spot_value(tmp_path, capsys):
    cfg = {"kind": "expfam",
           "params": {"rank": 5, "p": 0.5, "d_u": 300, "D": 300, "mu": 600,
                      "gamma": 1.0, "L2": 1.0, "U2": 1.0, "K": 1.0,
                      "constant_c": 1.0}}
    code = main(["bounds", "--config", write_cfg(tmp_path, "b.json", cfg),
                 "--out", str(tmp_path / "b_out.json")])
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "b_out.json").read_text())
    expected = 5 * 2 * (600 + math.log(300) ** 3) / (0.25 * 300 * 300)
    assert doc["value"] == pytest.approx(expected, rel=1e-12)


def test_missing_config_file(tmp_path):
    code = main(["experiment", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_observation_csv_round_trip_is_lossless(tmp_path):
    out = generate(tmp_path)
    layout, families = hio.load_layout(out / "layout.json")
    obs = hio.load_observations(out / "obs.csv", layout, families)
    resaved = tmp_path / "resaved.csv"
    hio.save_observations(resaved, obs)
    assert resaved.read_bytes() == (out / "obs.csv").read_bytes()


def test_malformed_csv_reports_line_number(tmp_path):
    out = generate(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_text("v,i,j,y\n0,0,0,1.0\n0,zero,1,2.0\n")
    layout, families = hio.load_layout(out / "layout.json")
    with pytest.raises(hio.DataFormatError, match="line 3"):
        hio.load_observations(bad, layout, families)


def test_fit_numerical_failure_exit_code(tmp_path):
    from heteromc.cli import EXIT_NUMERIC
    out = generate(tmp_path)
    # an absurdly small step bound makes the gradient iteration diverge
    solver_cfg = write_cfg(tmp_path, "s.json", {"solver": {"lipschitz": 1e-12}})
    code = main(["fit", "--obs", str(out / "obs.csv"),
                 "--layout", str(out / "layout.json"),
                 "--lambda", "1e-9", "--config", solver_cfg,
                 "--out", str(tmp_path / "fit_diverge")])
    assert code == EXIT_NUMERIC


def test_fit_domain_error_exit_code(tmp_path, monkeypatch, capsys):
    from heteromc import cli
    from heteromc.cli import EXIT_NUMERIC
    from heteromc.families import DomainError
    out = generate(tmp_path)

    def out_of_domain(*args, **kwargs):
        raise DomainError("gamma natural parameter must be strictly negative")

    monkeypatch.setattr(cli, "plais_impute", out_of_domain)
    code = main(["fit", "--obs", str(out / "obs.csv"),
                 "--layout", str(out / "layout.json"),
                 "--out", str(tmp_path / "fit_domain")])
    assert code == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical failure: gamma")
