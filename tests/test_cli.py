import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from heteromc import BlockLayout, lambda_heuristic
from heteromc.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_MAX_ITERS,
    EXIT_OK,
    _records_exit,
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


@pytest.mark.parametrize("command", ["experiment", "coldstart"])
def test_every_fit_failing_is_a_data_error(tmp_path, capsys, command):
    # logistic losses need +-1 labels, and gaussian sources do not have them
    cfg = {
        "d_u": 40, "d_vs": [20, 16], "ranks": [2, 2],
        "factor_laws": ["gaussian", "gaussian"], "p_grid": [0.5], "seed": 5,
        "solver": {"mode": "general_loss",
                   "losses": [{"kind": "logistic"}, {"kind": "logistic"}]},
    }
    out = tmp_path / "out"
    code = main([command, "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(out)])
    assert code == EXIT_DATA
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    assert records and all(r["error"] for r in records)
    assert f"every fit failed: {records[0]['error']}" in capsys.readouterr().err


def test_one_successful_fit_is_enough_to_exit_ok(tmp_path, capsys):
    ok, failed = SimpleNamespace(error=None), SimpleNamespace(error="boom")
    assert _records_exit([failed, ok], tmp_path) == EXIT_OK
    assert "every fit failed" not in capsys.readouterr().err
    assert _records_exit([failed, failed], tmp_path) == EXIT_DATA


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


@pytest.mark.parametrize("line, fault", [
    ("0,1,2", "expected 4 fields, got 3"),
    ("0,1,2,3.0,4", "expected 4 fields, got 5"),
    ("0,zero,2,3.0", "'0,zero,2,3.0'"),
    ("0,1.5,2,3.0", "'0,1.5,2,3.0'"),
    ("0,1_0,2,3.0", "'0,1_0,2,3.0'"),
    ("0,1,2,abc", "'0,1,2,abc'"),
], ids=["3-fields", "5-fields", "index-zero", "index-1.5", "index-1_0", "value-abc"])
def test_malformed_line_is_named_by_its_file_line(tmp_path, line, fault):
    # the blank line 3 makes the file's line number differ from the data row's
    bad = tmp_path / "bad.csv"
    bad.write_text(f"v,i,j,y\n0,0,0,1.0\n\n{line}\n0,2,2,2.0\n")
    with pytest.raises(hio.DataFormatError) as info:
        hio.load_observations(bad, BlockLayout(3, (3,)))
    assert str(info.value).startswith(f"{bad}: line 4: ")
    assert fault in str(info.value)


def test_malformed_line_deep_in_a_large_file_is_named(tmp_path):
    rows = [f"0,{k // 100},{k % 100},{k}.5" for k in range(9000)]
    rows[7000] = "0,70,0.5,1.0"
    bad = tmp_path / "bad.csv"
    bad.write_text("v,i,j,y\n\n" + "\n".join(rows) + "\n")
    with pytest.raises(hio.DataFormatError, match=r": line 7003: .*'0,70,0\.5,1\.0'"):
        hio.load_observations(bad, BlockLayout(90, (100,)))


def test_crlf_file_loads_like_its_lf_twin(tmp_path):
    text = "v,i,j,y\n0,0,1,1.5\n\n0,2,0,-2.5e-3\n0,1,1,nan\n"
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    layout = BlockLayout(3, (2,))
    a, b = hio.load_observations(lf, layout), hio.load_observations(crlf, layout)
    for name in ("v", "i", "j", "y"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
    assert a.n == 3


def test_header_only_file_fit_is_a_data_error_without_warnings(tmp_path, capsys):
    out = generate(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("v,i,j,y\n\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--obs", str(empty), "--layout", str(out / "layout.json"),
                     "--out", str(tmp_path / "f")])
    assert code == EXIT_DATA
    assert "no observations" in capsys.readouterr().err


def test_extreme_values_round_trip_byte_identically(tmp_path):
    text = ("v,i,j,y\n0,0,0,nan\n0,0,1,inf\n0,0,2,-inf\n0,1,0,-0.00000000000000000e+00\n"
            "0,1,1,4.94065645841246544e-324\n0,1,2,1.79769313486231571e+308\n")
    path, again = tmp_path / "extreme.csv", tmp_path / "again.csv"
    path.write_text(text)
    obs = hio.load_observations(path, BlockLayout(2, (3,)))
    assert np.signbit(obs.y[3]) and obs.y[4] == 5e-324
    assert obs.y[5] == 1.7976931348623157e308
    hio.save_observations(again, obs)
    assert again.read_bytes() == path.read_bytes()


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


FIT_ARGS = ["fit", "--obs", "{gen}/obs.csv", "--layout", "{gen}/layout.json"]
COLD_CFG = {"d_u": 20, "d_vs": [8, 8], "ranks": [1, 1], "p_grid": [0.5],
            "trials": 1, "seed": 1}


@pytest.mark.parametrize("argv, cfg", [
    (FIT_ARGS, {"solver": {"nu": "abc"}}),
    (FIT_ARGS, {"solver": {"max_iters": 2.5}}),
    (FIT_ARGS, {"solver": {"lam": 0.1}}),  # the JSON key is "lambda"
    (FIT_ARGS, {"solver": {"mode": "general_loss", "losses": [{"kind": "nope"}]}}),
    (FIT_ARGS, [{"solver": {}}]),
    (["generate"], {**GEN_CFG, "p": "x"}),
    (["generate"], {**GEN_CFG, "seed": "a"}),
    (["generate"], {**GEN_CFG, "p": 1.5}),
    (["generate"], {**GEN_CFG, "families": [{"family": "gaussian", "nuisance": 1.0}]}),
    (["coldstart"], {**COLD_CFG, "target_v": 2}),
    (["bounds"], {"kind": "nope", "params": {"rank": 5, "p": 0.5, "d_u": 300,
                                             "D": 300, "mu": 600}}),
], ids=["nu-str", "max-iters-float", "solver-key-typo", "loss-kind", "json-array",
        "p-str", "seed-str", "p-above-1", "one-family-two-sources", "target-v-outside",
        "bound-kind"])
def test_bad_config_is_a_config_error(tmp_path, capsys, argv, cfg):
    gen = generate(tmp_path) if argv is FIT_ARGS else None
    argv = [a.format(gen=gen) for a in argv]
    code = main([*argv, "--config", write_cfg(tmp_path, "bad.json", cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1].startswith("config error:")


@pytest.mark.parametrize("key, value", [
    ("nu", "abc"), ("epsilon", "1e-6"), ("lipschitz", "1"), ("max_iters", "10"),
    ("lambda", "0.1"),
])
def test_solver_value_of_the_wrong_type_names_its_key(tmp_path, capsys, key, value):
    gen = generate(tmp_path)
    code = main(["fit", "--obs", str(gen / "obs.csv"), "--layout", str(gen / "layout.json"),
                 "--config", write_cfg(tmp_path, "s.json", {"solver": {key: value}}),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()[-1]
    assert err == f"config error: solver key {key!r} must be a number, got {value!r}"


def test_experiment_unknown_top_level_key_is_a_config_error(tmp_path, capsys):
    cfg = {**COLD_CFG, "trails": 3}
    code = main(["experiment", "--config", write_cfg(tmp_path, "e.json", cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "'trails'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_generate_unknown_top_level_key_is_a_config_error(tmp_path, capsys):
    cfg = {**GEN_CFG, "gama": 2.0}
    code = main(["generate", "--config", write_cfg(tmp_path, "g.json", cfg),
                 "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert "'gama'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


GAUSS = {"family": "gaussian", "nuisance": 1.0}


def run(argv):
    """``main``'s exit code, also when argparse rejects a flag value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, cfg, key", [
    (["generate"], {**GEN_CFG, "families": [{**GAUSS, "kapa": 3.0}, GAUSS]}, "'kapa'"),
    (["generate"], {**GEN_CFG, "d_u": 30.7}, "'d_u'"),
    (["generate"], {**GEN_CFG, "seed": 1.7}, "'seed'"),
    (["experiment"], {**COLD_CFG, "trials": "2"}, "'trials'"),
    (["generate"], {**GEN_CFG, "families": [{"family": "binomial", "nuisance": "1"}, GAUSS]},
     "'nuisance'"),
    (["experiment"], {**COLD_CFG, "trials": 1.5}, "'trials'"),
    (FIT_ARGS, {"solver": {"init_rank": 2.5}}, "'init_rank'"),
    (["experiment"], {**COLD_CFG, "methods": "collective"}, "'methods'"),
    ([*FIT_ARGS, "--lambda", "abc"], {}, "--lambda"),
    (["generate"], {**GEN_CFG, "p": True}, "'p'"),
    (["generate"], {**GEN_CFG, "p": "0.5"}, "'p'"),
    (["coldstart"], {**COLD_CFG, "target_v": 0.7}, "'target_v'"),
    # non-finite numbers arrive as floats, from a flag or as JSON NaN
    ([*FIT_ARGS, "--lambda", "nan"], {}, "lambda"),
    ([*FIT_ARGS, "--lambda", "inf"], {}, "lambda"),
    ([*FIT_ARGS, "--epsilon", "nan"], {}, "epsilon"),
    (FIT_ARGS, {"solver": {"lipschitz": math.nan}}, "lipschitz"),
    (FIT_ARGS, {"solver": {"basis_drop": math.nan}}, "basis_drop"),
    (FIT_ARGS, {"solver": {"smoothing": math.nan}}, "smoothing"),
    # a removed solver knob is an unknown key
    (FIT_ARGS, {"solver": {"momentum": False}}, "momentum"),
    (FIT_ARGS, {"solver": {"lambda": "auto", "constant_c": -1}}, "constant_c"),
    # the hinge loss has no step constant, so the solvers cannot take it
    (FIT_ARGS, {"solver": {"mode": "general_loss",
                           "losses": [{"kind": "hinge"}, {"kind": "hinge"}]}}, "losses"),
    # losses are read only in general_loss mode, so naming them elsewhere is a fault
    (FIT_ARGS, {"solver": {"lambda": 1e-5,
                           "losses": [{"kind": "logistic"}, {"kind": "logistic"}]}}, "losses"),
    # a bound parameter neither rate reads is named, before any fit runs
    (["bounds"], {"params": {"rank": 5, "p": 0.5, "d_u": 300, "D": 300, "mu": 600,
                             "gamma": 1.0, "L2": 1.0, "U2": 1.0, "constnt_c": 50.0}},
     "'constnt_c'"),
    (["experiment"], {**COLD_CFG, "bound_params": {"rank": 1, "d_u": 20, "D": 16,
                                                   "gamma": 1.0, "L2": 1.0, "U2": 1.0,
                                                   "constnt_c": 50.0}}, "'constnt_c'"),
], ids=["family-key-typo", "d_u-float", "seed-float", "trials-str", "nuisance-str",
        "trials-float", "init-rank-float", "methods-str", "lambda-flag-abc",
        "p-bool", "p-numeric-str", "target-v-float", "lambda-flag-nan",
        "lambda-flag-inf", "epsilon-flag-nan", "lipschitz-nan", "basis-drop-nan",
        "smoothing-nan", "removed-momentum", "constant-c-negative", "hinge-loss",
        "likelihood-losses", "bounds-key-typo", "bound-params-key-typo"])
def test_config_value_fault_is_a_config_error_naming_its_key(tmp_path, capsys, argv, cfg, key):
    gen = generate(tmp_path) if argv[0] == "fit" else None
    argv = [a.format(gen=gen) for a in argv]
    code = run([*argv, "--config", write_cfg(tmp_path, "bad.json", cfg),
                "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_p_and_target_v_are_accepted(tmp_path):
    # 1 is a number and an integer, so both values the CLI checks itself pass
    out = generate(tmp_path, "gint", {**GEN_CFG, "p": 1})
    assert len((out / "obs.csv").read_text().strip().splitlines()) == 1 + 30 * 22
    code = main(["coldstart", "--config",
                 write_cfg(tmp_path, "c.json", {**COLD_CFG, "target_v": 1}),
                 "--out", str(tmp_path / "cold")])
    assert code == EXIT_OK
    assert (tmp_path / "cold" / "summary.csv").exists()


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc["families"][0].update(kapa=3.0), "'kapa'"),
    (lambda doc: doc.update(d_u=30.7), "'d_u'"),
    (lambda doc: doc.update(d_v=[12, 10]), "'d_v'"),
], ids=["family-key-typo", "d_u-float", "unknown-key"])
def test_layout_fault_is_a_data_error_naming_its_key(tmp_path, capsys, edit, key):
    gen = generate(tmp_path)
    doc = json.loads((gen / "layout.json").read_text())
    edit(doc)
    (gen / "layout.json").write_text(json.dumps(doc))
    code = main(["fit", "--obs", str(gen / "obs.csv"), "--layout", str(gen / "layout.json"),
                 "--lambda", "1e-7", "--out", str(tmp_path / "out")])
    assert code == EXIT_DATA
    assert key in capsys.readouterr().err
