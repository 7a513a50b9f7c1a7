"""Command-line entry points: generate, fit, experiment, coldstart, bounds.

Every command takes a JSON config file plus a few direct overrides; all
randomness flows from the single seed field.  Exit codes: 0 success,
2 config error, 3 data error, 4 numerical failure, 5 stopped on the
iteration cap.  :func:`main` maps exceptions to these codes; a bad config
value surfaces as a ``KeyError``, ``TypeError`` or ``ValueError``.
``experiment`` and ``coldstart`` keep a failed fit as an error record and
exit 0 when at least one fit succeeded; when every fit failed they still
write their files, print the first error and exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io as hio
from .bench import (
    ExperimentSpec,
    _bound_at,
    curve_table,
    run_cold_start,
    run_experiment,
    summarize,
)
from .data import SamplingScheme, SyntheticConfig, generate_synthetic, mask_sample
from .families import DomainError, ExpFamilyModel
from .jsonconf import from_json, json_keys
from .solvers import NumericalError, SolverConfig, plais_impute, theory_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
EXIT_MAX_ITERS = 5


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: the config must be a JSON object")
    return cfg


def _check_keys(cfg: dict, known=()) -> None:
    """Reject top-level config keys that neither ``known`` nor the CLI reads."""
    read_by_cli = {"solver", "seed", "p", "families", "bound_params", "target_v",
                   "obs", "layout", "kind", "params"}
    if unknown := sorted(set(cfg) - read_by_cli - set(known)):
        raise ConfigError(f"unknown config key(s): {', '.join(map(repr, unknown))}")


def _solver_dict(cfg: dict, args) -> dict:
    """The config's solver section with the --lambda, --nu and --epsilon flags merged in."""
    solver = cfg.get("solver", {})
    flags = {"lambda": args.lam, "nu": args.nu, "epsilon": args.epsilon}
    flags = {k: v for k, v in flags.items() if v is not None}
    return {**solver, **flags} if isinstance(solver, dict) else solver


def _read_spec(cls, cfg: dict, args, **doc):
    """``cls`` read from the config keys it owns, with the seed, gaussian
    factor laws when none are given, and ``doc`` filled in."""
    keys = json_keys(cls)
    _check_keys(cfg, keys)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    if seed is None:
        raise ConfigError("a seed is required")
    own = {k: v for k, v in cfg.items() if k in keys}
    if isinstance(cfg.get("d_vs"), list):
        own.setdefault("factor_laws", ["gaussian"] * len(cfg["d_vs"]))
    return from_json(cls, {**own, "seed": seed, **doc}, "config")


def _experiment_spec(cfg: dict, args) -> ExperimentSpec:
    p_grid = [args.p] if args.p is not None else cfg.get("p_grid")
    if not p_grid:
        raise ConfigError("p_grid must be a nonempty list of probabilities")
    return _read_spec(ExperimentSpec, cfg, args, p_grid=p_grid,
                      solver=_solver_dict(cfg, args))


def _write_records(records, out_dir: Path) -> None:
    lines = [json.dumps(r.to_dict()) for r in records]
    (out_dir / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _records_exit(records, out_dir: Path) -> int:
    """Report the written records; EXIT_DATA when every fit failed."""
    print(f"wrote {len(records)} records to {out_dir}")
    if records and all(r.error is not None for r in records):
        print(f"every fit failed: {records[0].error}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _write_curves(rows, path: Path) -> None:
    lines = ["p,mean_re,std_re,bound"]
    for row in rows:
        bound = "" if row["bound"] is None else f"{row['bound']:.17e}"
        lines.append(f"{row['p']},{row['mean_re']:.17e},{row['std_re']:.17e},{bound}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    syn = _read_spec(SyntheticConfig, cfg, args)
    p = args.p if args.p is not None else cfg.get("p")
    if p is None:
        raise ConfigError("a sampling probability p is required")
    p = from_json(float, p, "config", "p")
    fams = cfg.get("families") or [{"family": "gaussian", "nuisance": 1.0}] * len(syn.d_vs)
    families = from_json(tuple[ExpFamilyModel, ...], fams, "config", "families")
    truth = generate_synthetic(syn)
    obs = mask_sample(truth, SamplingScheme.uniform(p),
                      np.random.SeedSequence((syn.seed, 2)), families)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hio.save_layout(out / "layout.json", truth.layout, families)
    hio.save_observations(out / "obs.csv", obs)
    hio.save_arrays(out / "truth", {"values": truth.values})
    print(f"wrote {obs.n} observations to {out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg)
    sc = from_json(SolverConfig, _solver_dict(cfg, args), "solver")
    obs_path = args.obs or cfg.get("obs")
    layout_path = args.layout or cfg.get("layout")
    if not obs_path or not layout_path:
        raise ConfigError("fit needs --obs and --layout (or config entries)")
    layout, families = hio.load_layout(layout_path)
    obs = hio.load_observations(obs_path, layout, families)
    if obs.n == 0:
        raise hio.DataFormatError(f"{obs_path}: no observations")
    callback = None
    if args.verbose:
        def callback(t, lam_t, rank, objective):
            print(json.dumps({"iteration": t, "lambda_t": lam_t,
                              "rank": rank, "objective": objective}),
                  file=sys.stderr)
    try:
        fit = plais_impute(obs, sc, iter_callback=callback)
    except (np.linalg.LinAlgError, DomainError):
        raise
    except ValueError as exc:
        raise hio.DataFormatError(str(exc)) from exc
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fit.json").write_text(json.dumps(fit.to_dict(), indent=2) + "\n",
                                  encoding="utf-8")
    hio.save_factors(out / "factors", fit.factors)
    if "zero_solution" in fit.flags:
        print(f"warning: the fit is the zero matrix at lambda={fit.lambda_used:.6g}",
              file=sys.stderr)
    if args.verbose:
        print(json.dumps({"lambda": fit.lambda_used,
                          "terminated_by": fit.terminated_by}), file=sys.stderr)
    return EXIT_OK if fit.terminated_by == "tolerance" else EXIT_MAX_ITERS


def cmd_experiment(args) -> int:
    cfg = _load_config(args.config)
    spec = _experiment_spec(cfg, args)
    _bound_at(cfg.get("bound_params"), spec.p_grid[0])  # a bad key fails before the run
    records = run_experiment(spec, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_records(records, out)
    _write_curves(curve_table(records, cfg.get("bound_params")), out / "curves.csv")
    return _records_exit(records, out)


def cmd_coldstart(args) -> int:
    cfg = _load_config(args.config)
    spec = _experiment_spec(cfg, args)
    target_v = from_json(int, cfg.get("target_v", 0), "config", "target_v")
    records = run_cold_start(spec, target_v, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_records(records, out)
    rows = summarize(records)
    lines = ["p,method,mean_re,std_re,n"]
    for row in rows:
        lines.append(f"{row['p']},{row['method']},{row['mean_re']:.17e},"
                     f"{row['std_re']:.17e},{row['n']}")
    (out / "summary.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _records_exit(records, out)


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    _check_keys(cfg)
    kind = cfg.get("kind", "expfam")
    params = cfg.get("params")
    if params is None:
        raise ConfigError("bounds needs a 'params' object")
    doc = {"kind": kind, "value": theory_bound(kind, params)}
    text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def number_or_auto(text: str) -> float | str:
    return text if text == "auto" else float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heteromc",
        description="Joint low-rank completion of heterogeneous multi-source matrices",
    )
    verbose_help = "emit one JSON line per solver iteration"
    parser.add_argument("--verbose", action="store_true", help=verbose_help)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int)

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument("--lambda", dest="lam", type=number_or_auto,
                              help="regularization weight or 'auto'")
    solver_flags.add_argument("--nu", type=float)
    solver_flags.add_argument("--epsilon", type=float)

    gen = sub.add_parser("generate", parents=[common],
                         help="write a synthetic observation set")
    gen.add_argument("--p", type=float, help="uniform sampling probability")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    fit = sub.add_parser("fit", parents=[common, solver_flags],
                         help="fit the penalized estimator to observations")
    fit.add_argument("--obs")
    fit.add_argument("--layout")
    fit.add_argument("--out", required=True)
    # same flag after the subcommand; SUPPRESS keeps the subparser from
    # resetting a --verbose given before it
    fit.add_argument("--verbose", action="store_true", default=argparse.SUPPRESS,
                     help=verbose_help)
    fit.set_defaults(func=cmd_fit)

    exp = sub.add_parser("experiment", parents=[common, solver_flags],
                         help="run the synthetic p sweep")
    exp.add_argument("--p", type=float, help="replace the config p grid")
    exp.add_argument("--out", required=True)
    exp.add_argument("--jobs", type=int, default=1)
    exp.set_defaults(func=cmd_experiment)

    cold = sub.add_parser("coldstart", parents=[common, solver_flags],
                          help="run the cold-start comparison")
    cold.add_argument("--p", type=float)
    cold.add_argument("--out", required=True)
    cold.add_argument("--jobs", type=int, default=1)
    cold.set_defaults(func=cmd_coldstart)

    bounds = sub.add_parser("bounds", parents=[common],
                            help="evaluate a reference rate bound")
    bounds.add_argument("--out")
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the data and numerical errors are ValueErrors, so they go first
    try:
        return args.func(args)
    except (NumericalError, np.linalg.LinAlgError, DomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (hio.DataFormatError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (KeyError, TypeError, ValueError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"config error: {detail}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
