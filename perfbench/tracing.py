"""Outside-in tracing of heteromc's layers, installed from the benchmark.

A :class:`Tracer` replaces functions of the ``heteromc`` modules by thin
wrappers while it is active and puts the originals back when it exits.  A
wrapper is bound into every module namespace that holds the original
object, under whatever name, because ``solvers`` and ``objectives`` import
their helpers by name and would otherwise keep calling the unwrapped ones.

Two depths share one code path:

* ``full=False`` (end-to-end runs) wraps only the solver entry point, to
  time solves and to know when set-up ended.  Nothing else is touched.
* ``full=True`` (traced runs) wraps every public function of every layer
  plus a few hot methods, and records one span per call: name, parent span,
  start and end.  Self time is a span's duration minus that of its direct
  children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import defaultdict
from dataclasses import dataclass

import heteromc

LAYERS = ("families", "data", "objectives", "lowrank", "solvers", "bench", "io", "cli")
SOLVER_ENTRY = "solvers.plais_impute"
# Methods and properties traced besides the module-level functions.
METHODS = {
    "data": {"ObservationSet": ("cols", "source_slice", "dense_y", "subset",
                                "restrict_source")},
    "lowrank": {"ThinFactors": ("to_matrix",)},
}


class SetupDone(Exception):
    """Raised at the first solver call when only the set-up is wanted.

    Its argument is the clock reading at that call.
    """


@dataclass
class Solve:
    """One call of the solver entry point."""

    start: float
    seconds: float
    result: object | None  # the FitResult, or None when the call raised


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores on ``__exit__``."""

    def __init__(self, full: bool):
        self.full = full
        self.stop_at_solver = False
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans, solves and counters (patches stay)."""
        self.span_name: list[str] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.solves: list[Solve] = []
        self.iter_seconds: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.power_converged: list[bool] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(name)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(math.nan)
            self._stack.append(idx)
            self.span_start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.span_end[idx] = time.perf_counter()
                self._stack.pop()
        return wrapper

    def _solver_entry(self, fn):
        inner = self._span(SOLVER_ENTRY, fn) if self.full else fn
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def entry(*args, **kwargs):
            start = time.perf_counter()
            if self.stop_at_solver:
                raise SetupDone(start)
            if self.full:
                bound = signature.bind(*args, **kwargs)
                bound.arguments["iter_callback"] = self._iteration_clock(
                    start, bound.arguments.get("iter_callback"))
                args, kwargs = bound.args, bound.kwargs
            try:
                out = inner(*args, **kwargs)
            except Exception:
                self.solves.append(Solve(start, time.perf_counter() - start, None))
                raise
            self.solves.append(Solve(start, time.perf_counter() - start, out))
            return out
        return entry

    def _iteration_clock(self, start: float, user_callback):
        last = [start]

        def callback(*args):
            now = time.perf_counter()
            self.iter_seconds.append(now - last[0])
            last[0] = now
            if user_callback is not None:
                user_callback(*args)
        return callback

    def _with_hook(self, name: str, fn, hook):
        inner = self._span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            hook(out)
            return out
        return wrapper

    def _hooked(self, name: str, fn):
        """Wrapper for ``name``, with a result hook where a metric needs one."""
        if name == SOLVER_ENTRY:
            return self._solver_entry(fn)
        if name == "lowrank.power_method":
            return self._with_hook(name, fn, lambda out: self.power_converged.append(bool(out[1])))
        if name == "objectives.solver_loss_terms":
            return self._loss_terms(fn)
        if name == "io.load_observations":
            return self._with_hook(name, fn, lambda out: self._count("io.load_observations.rows", out.n))
        if name == "bench.run_experiment":
            def count(records):
                self._count("bench.fits", len(records))
                self._count("bench.fit_errors", sum(r.error is not None for r in records))
            return self._with_hook(name, fn, count)
        if name == "cli.main":
            return self._with_hook(name, fn, lambda code: self._count("cli.exit_code", abs(code)))
        return self._span(name, fn)

    def _loss_terms(self, fn):
        inner = self._span("objectives.solver_loss_terms", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value, grad = inner(*args, **kwargs)
            return (self._span("objectives.loss_terms", value),
                    self._span("objectives.loss_terms", grad))
        return wrapper

    def _count(self, key: str, amount: float) -> None:
        self.counters[key] += amount

    # -- installation -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module(f"heteromc.{layer}") for layer in LAYERS]
        namespaces = modules + [heteromc]
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if not self.full and name != SOLVER_ENTRY:
                    continue
                wrapper = self._hooked(name, obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._patch(ns, key, wrapper)
            if not self.full:
                continue
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    name = f"{layer}.{cls_name}.{attr}"
                    original = vars(cls)[attr]
                    if isinstance(original, property):
                        wrapped = property(self._span(name, original.fget))
                    else:
                        wrapped = self._span(name, original)
                    self._patch(cls, attr, wrapped)
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading the record -------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, busy seconds ``s`` and ``self_s``."""
        durations = [end - start for start, end in zip(self.span_start, self.span_end)]
        child = [0.0] * len(durations)
        for parent, duration in zip(self.span_parent, durations):
            if parent >= 0:
                child[parent] += duration
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for name, duration, inside in zip(self.span_name, durations, child):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - inside
        return dict(out)
