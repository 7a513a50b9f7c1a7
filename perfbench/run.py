"""heteromc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload fit-m --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1

``--trace 0`` prints the end-to-end metrics, measured with only the solver
entry point wrapped.  ``--trace 1`` runs the workload once untraced, then
with every layer traced, and prints the per-layer metrics, the tracing
overhead and whether both runs reached bit-identical results.  ``--workload
all`` runs the three workloads one after another, each in its own process so
that peak RSS belongs to one workload, and prints one table.  The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: the thread count changes which workload is
# faster, so runs are only comparable at one count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# Set-up-only passes per run, besides each full repetition: at least this
# many, and enough to spend a second, so that a set-up of a few
# milliseconds still gets a steady median.
SETUP_PASSES, SETUP_SECONDS = 3, 1.0
WORKLOAD_NAMES = ("fit-m", "sparse-cli", "desk-sweep")

END_TO_END = {  # name -> unit
    "setup_s": "s", "solve_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "rel_error": "1", "fit_s.p50": "s", "fit_s.p90": "s",
}
# per-layer metric -> (span name, field); "s" is time busy, "self_s" the
# part of it not spent in traced children.
SPAN_METRICS = {
    "lowrank.power_method.s": ("lowrank.power_method", "s"),
    "lowrank.power_method.calls": ("lowrank.power_method", "calls"),
    "lowrank.power_method.self_s": ("lowrank.power_method", "self_s"),
    "lowrank.qr_orthonormalize.s": ("lowrank.qr_orthonormalize", "s"),
    "lowrank.qr_orthonormalize.calls": ("lowrank.qr_orthonormalize", "calls"),
    "lowrank.approx_svt.s": ("lowrank.approx_svt", "s"),
    "lowrank.approx_svt.self_s": ("lowrank.approx_svt", "self_s"),
    "lowrank.rank1_svd.s": ("lowrank.rank1_svd", "s"),
    "lowrank.to_matrix.s": ("lowrank.ThinFactors.to_matrix", "s"),
    "lowrank.to_matrix.calls": ("lowrank.ThinFactors.to_matrix", "calls"),
    "solvers.plais_impute.s": ("solvers.plais_impute", "s"),
    "solvers.plais_impute.calls": ("solvers.plais_impute", "calls"),
    "solvers.plais_impute.self_s": ("solvers.plais_impute", "self_s"),
    "objectives.neg_log_likelihood.s": ("objectives.neg_log_likelihood", "s"),
    "objectives.neg_log_likelihood.calls": ("objectives.neg_log_likelihood", "calls"),
    "objectives.grad_neg_log_likelihood.s": ("objectives.grad_neg_log_likelihood", "s"),
    "objectives.grad_neg_log_likelihood.calls": ("objectives.grad_neg_log_likelihood", "calls"),
    "objectives.loss_terms.s": ("objectives.loss_terms", "s"),
    "objectives.loss_terms.calls": ("objectives.loss_terms", "calls"),
    "families.g_value.s": ("families.g_value", "s"),
    "families.g_value.calls": ("families.g_value", "calls"),
    "families.g_prime.s": ("families.g_prime", "s"),
    "families.g_prime.calls": ("families.g_prime", "calls"),
    "data.ObservationSet.cols.calls": ("data.ObservationSet.cols", "calls"),
    "data.ObservationSet.source_slice.calls": ("data.ObservationSet.source_slice", "calls"),
    "data.ObservationSet.dense_y.s": ("data.ObservationSet.dense_y", "s"),
    "data.ObservationSet.dense_y.calls": ("data.ObservationSet.dense_y", "calls"),
    "data.ObservationSet.subset.s": ("data.ObservationSet.subset", "s"),
    "data.ObservationSet.subset.calls": ("data.ObservationSet.subset", "calls"),
    "data.ObservationSet.restrict_source.calls": ("data.ObservationSet.restrict_source", "calls"),
    "data.generate_synthetic.s": ("data.generate_synthetic", "s"),
    "data.mask_sample.s": ("data.mask_sample", "s"),
    "io.save_observations.s": ("io.save_observations", "s"),
    "io.load_observations.s": ("io.load_observations", "s"),
    "io.save_factors.s": ("io.save_factors", "s"),
    "bench.run_experiment.s": ("bench.run_experiment", "s"),
    "cli.fit.s": ("cli.cmd_fit", "s"),
}
PER_LAYER_UNITS = {
    "lowrank.power_method.converged_frac": "1", "solvers.warm_width.max": "count",
    "solvers.iter_ms.p50": "ms", "solvers.iter_ms.p90": "ms",
    "solvers.iterations": "count", "solvers.restarts": "count",
    "solvers.final_rank": "count", "solvers.tolerance_frac": "1",
    "io.load_observations.rows_per_s": "1/s", "io.obs_csv.bytes": "bytes",
    "bench.fits": "count", "bench.fit_errors": "count", "cli.exit_code": "count",
    "trace.overhead_s": "s", "trace.spans": "count",
}
for _name, (_span, _field) in SPAN_METRICS.items():
    PER_LAYER_UNITS[_name] = "count" if _field == "calls" else "s"


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def environment(seed: int) -> dict:
    """Where and how the numbers were taken."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "seed": seed,
    }


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


class Run:
    """One workload measured for a time budget; see :func:`measure`."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        from workloads import WORKLOADS
        self.fn = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir

    def setup_pass(self, tracer) -> float:
        """Run the workload up to its first solver call; return that time."""
        from tracing import SetupDone
        tracer.stop_at_solver = True
        start = time.perf_counter()
        try:
            self.fn(self.seed, self.workdir, tracer.solves)
        except SetupDone as done:
            return done.args[0] - start
        finally:
            tracer.stop_at_solver = False
        raise RuntimeError("workload finished without calling the solver")

    def rep(self, tracer) -> dict:
        """One full repetition: the workload's result plus the solver record."""
        tracer.reset()
        start = time.perf_counter()
        rep = self.fn(self.seed, self.workdir, tracer.solves)
        wall = time.perf_counter() - start
        solves = tracer.solves
        results = [s.result for s in solves if s.result is not None]
        by_tolerance = sum(r.terminated_by == "tolerance" for r in results)
        return {
            "wall_s": wall,
            "setup_s": solves[0].start - start if solves else float("nan"),
            "solve_s": sum(s.seconds for s in solves),
            "rel_error": rep.rel_error,
            "fit_seconds": rep.fit_seconds,
            "attempted": rep.fits,
            "failed": rep.failed_fits,
            "checks": rep.checks,
            "counters": rep.counters,
            "iterations": sum(len(r.objective_history) - 1 for r in results),
            "restarts": sum(len(r.restarts) for r in results),
            "final_rank": sum(r.factors.rank for r in results),
            "warm_width": max((max(r.input_rank_history, default=0) for r in results), default=0),
            "tolerance_frac": by_tolerance / len(solves) if solves else 0.0,
        }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure ``workload`` for ``seconds``; return the result line's fields."""
    from tracing import Tracer
    workroot = ROOT / ".perfbench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=workroot))
    try:
        run = Run(workload, seed, workdir)
        start = time.perf_counter()
        if trace:
            return _traced(run, start, seconds)
        with Tracer(full=False) as tracer:
            setups = []
            while len(setups) < SETUP_PASSES or time.perf_counter() - start < SETUP_SECONDS:
                setups.append(run.setup_pass(tracer))
            reps = _repeat(run, tracer, start, seconds)
        setups += [r["setup_s"] for r in reps]
        fits = [t for r in reps for t in r["fit_seconds"]]
        values = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(r["solve_s"] for r in reps),
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rel_error": statistics.median(r["rel_error"] for r in reps),
            "fit_s.p50": _percentile(fits, 50),
            "fit_s.p90": _percentile(fits, 90),
        }
        extra = {"reps": len(reps), "setup_samples": len(setups), "fit_samples": len(fits)}
        return _result(reps, values, END_TO_END, _checks(reps), extra)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _repeat(run: Run, tracer, start: float, seconds: float, after=None) -> list[dict]:
    """Full repetitions, at least one, until the next would end past the budget.

    ``after(rep)`` runs after each repetition, before the tracer is reset.
    """
    reps = []
    while True:
        reps.append(run.rep(tracer))
        if after is not None:
            after(reps[-1])
        typical = statistics.median(r["wall_s"] for r in reps)
        if time.perf_counter() - start + typical > seconds:
            return reps


def _traced(run: Run, start: float, seconds: float) -> dict:
    from tracing import Tracer
    with Tracer(full=False) as plain_tracer:
        plain = run.rep(plain_tracer)
    layer_values = []
    with Tracer(full=True) as tracer:
        reps = _repeat(run, tracer, start, seconds,
                       lambda rep: layer_values.append(_layer_values(tracer, rep, plain)))
    values = {k: statistics.median(v[k] for v in layer_values) for k in PER_LAYER_UNITS}
    checks = _checks(reps)
    for key in ("rel_error", "iterations", "final_rank"):
        same = all(r[key] == plain[key] for r in reps)
        checks.append((f"traced {key} equals untraced ({plain[key]!r})", same))
    return _result(reps, values, PER_LAYER_UNITS, checks,
                   {"reps": len(reps), "untraced_wall_s": plain["wall_s"]})


def _layer_values(tracer, rep: dict, plain: dict) -> dict:
    totals = tracer.span_totals()
    out = {name: totals.get(span, {}).get(field, 0) for name, (span, field) in SPAN_METRICS.items()}
    converged = tracer.power_converged
    rows = tracer.counters.get("io.load_observations.rows", 0)
    load_s = out["io.load_observations.s"]
    iter_ms = [1e3 * t for t in tracer.iter_seconds]
    out.update({
        "lowrank.power_method.converged_frac": sum(converged) / len(converged) if converged else 0.0,
        "solvers.warm_width.max": rep["warm_width"],
        "solvers.iter_ms.p50": _percentile(iter_ms, 50),
        "solvers.iter_ms.p90": _percentile(iter_ms, 90),
        "solvers.iterations": rep["iterations"],
        "solvers.restarts": rep["restarts"],
        "solvers.final_rank": rep["final_rank"],
        "solvers.tolerance_frac": rep["tolerance_frac"],
        "io.load_observations.rows_per_s": rows / load_s if load_s else 0.0,
        "io.obs_csv.bytes": rep["counters"].get("io.obs_csv.bytes", 0),
        "bench.fits": tracer.counters.get("bench.fits", 0),
        "bench.fit_errors": tracer.counters.get("bench.fit_errors", 0),
        "cli.exit_code": tracer.counters.get("cli.exit_code", 0),
        "trace.overhead_s": rep["wall_s"] - plain["wall_s"],
        "trace.spans": len(tracer.span_name),
    })
    return out


def _checks(reps: list[dict]) -> list[tuple[str, bool]]:
    """The last repetition's checks, plus any that failed in an earlier one."""
    return reps[-1]["checks"] + [c for r in reps[:-1] for c in r["checks"] if not c[1]]


def _result(reps, values, units, checks, extra) -> dict:
    return {
        "correct": all(bool(ok) for _, ok in checks),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "checks": checks,
        "extra": extra,
    }


def print_report(workload: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    extra = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in result["extra"].items())
    print(f"== {workload}: {extra}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'fit_fail_frac':<44} {failed / attempted if attempted else 0.0:>14.6g} "
          f"1  ({failed} of {attempted} fits)")
    for text, ok in result["checks"]:
        print(f"  check {'PASS' if ok else 'FAIL'}  {text}")


def _run_all(args) -> dict:
    """Each workload in a child process; metrics prefixed by workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] &= result["correct"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import heteromc  # noqa: F401
    except ImportError as exc:
        print(f"cannot import heteromc from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps({"env": environment(args.seed)}))
        print(json.dumps(_run_all(args)))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, result)
    print(json.dumps({"env": environment(args.seed)}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
