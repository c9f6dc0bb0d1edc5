"""Timestamps and spans taken from outside the program, around calls into it.

A ``Recorder`` replaces public sparsepoly functions at their module
attributes with thin wrappers for the length of one study.  Every loaded
``sparsepoly`` module that holds the function (the defining module, modules
that imported it by name, the package namespace) gets the same wrapper, so a
call is seen whichever way the program reaches it.  Nothing under ``src/`` is
edited.

Two kinds of wrapper exist:

* boundary hooks, installed on every run: ``basis.sample_measure`` called
  with one of the workload's sample counts marks the start of a trial (each
  trial draws its points exactly once, the oversampled reference fit draws a
  different count), and the return of ``experiments.run_sweep`` marks the end
  of the last trial.  These are the "one call per trial" timestamps that
  trial times come from; no other layer is wrapped on an untraced run.
* layer spans, installed on traced runs only: name, start, end, parent span,
  trial id and a few counts read from the return value.  Spans stay in memory
  and are written out when the benchmark ends.

A layer whose function no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

SETUP = -1  # trial id of spans before the first trial
AFTER = -2  # trial id of spans after the last trial

WOMP_STOP_REASONS = ("max_iterations", "zero_delta", "in_support_reselect", "residual_floor")


def _lasso_counts(result) -> dict:
    return {
        "iterations": int(getattr(result, "n_iterations", 0)),
        "capped": int(not getattr(result, "converged", True)),
    }


def _womp_counts(trace) -> dict:
    records = getattr(trace, "records", ())
    trace_bytes = sum(
        value.nbytes
        for record in records
        for value in vars(record).values()
        if isinstance(value, np.ndarray)
    )
    return {
        "iterations": len(records),
        "stop": str(getattr(trace, "stop_reason", "other")),
        "trace_bytes": trace_bytes,
    }


def _array_bytes(array) -> dict:
    return {"bytes": int(getattr(array, "nbytes", 0))}


# (layer name, defining module, function name, reader of the return value)
LAYERS = (
    ("index_sets.hyperbolic_cross", "sparsepoly.index_sets", "hyperbolic_cross", None),
    ("basis.weights", "sparsepoly.basis", "weights", None),
    ("basis.sample_measure", "sparsepoly.basis", "sample_measure", None),
    ("basis.evaluate_design", "sparsepoly.basis", "evaluate_design", _array_bytes),
    ("assembly.build_system", "sparsepoly.assembly", "build_system", None),
    ("assembly.normalize_columns", "sparsepoly.assembly", "normalize_columns", None),
    ("assembly.denormalize_solution", "sparsepoly.assembly", "denormalize_solution", None),
    ("womp.womp_solve", "sparsepoly.womp", "womp_solve", _womp_counts),
    ("lasso.default_alpha_grid", "sparsepoly.lasso", "default_alpha_grid", None),
    ("lasso.lasso_solve", "sparsepoly.lasso", "lasso_solve", _lasso_counts),
    ("experiments.reference_coefficients", "sparsepoly.experiments", "reference_coefficients", None),
    ("experiments.relative_error", "sparsepoly.experiments", "relative_error", None),
    ("experiments.run_sweep", "sparsepoly.experiments", "run_sweep", None),
    ("cli.write_outputs", "sparsepoly.experiments", "write_outputs", None),
)
BOUNDARY_LAYERS = ("basis.sample_measure", "experiments.run_sweep")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: int
    counts: dict | None = None


@dataclass
class Recorder:
    """Clock and (optionally) span store for one study."""

    trial_sample_counts: frozenset
    traced: bool
    study_start: float = 0.0
    study_end: float = 0.0
    trial_starts: list = field(default_factory=list)
    trials_end: float | None = None
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    @property
    def trial(self) -> int:
        if self.trials_end is not None:
            return AFTER
        return len(self.trial_starts) - 1 if self.trial_starts else SETUP

    # -- clock ---------------------------------------------------------
    def begin(self) -> None:
        self.study_start = time.perf_counter()

    def finish(self) -> None:
        self.study_end = time.perf_counter()
        if self.trials_end is None:
            self.trials_end = self.study_end

    def mark_trial(self) -> None:
        self.trial_starts.append(time.perf_counter())

    def mark_trials_end(self) -> None:
        if self.trials_end is None:
            self.trials_end = time.perf_counter()

    @property
    def study_seconds(self) -> float:
        return self.study_end - self.study_start

    @property
    def setup_seconds(self) -> float:
        first = self.trial_starts[0] if self.trial_starts else self.study_end
        return first - self.study_start

    @property
    def trial_seconds(self) -> list[float]:
        bounds = self.trial_starts + [self.trials_end]
        return [b - a for a, b in zip(bounds, bounds[1:])]

    # -- wrappers ------------------------------------------------------
    def wrap(self, name: str, function, reader=None):
        """A callable that runs `function` inside a span called `name`."""
        spans, stack = self.spans, self._stack
        marks_trial = name == "basis.sample_measure"
        ends_trials = name == "experiments.run_sweep"
        traced = self.traced

        def wrapper(*args, **kwargs):
            if marks_trial:
                count = kwargs.get("m", args[2] if len(args) > 2 else None)
                if count in self.trial_sample_counts:
                    self.mark_trial()
            if not traced:
                result = function(*args, **kwargs)
                if ends_trials:
                    self.mark_trials_end()
                return result
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, stack[-1] if stack else None, self.trial)
            spans.append(span)
            stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if ends_trials:
                self.mark_trials_end()
            if reader is not None:
                span.counts = reader(result)
            return result

        return wrapper

    def install(self) -> None:
        for name, module_name, attribute, reader in LAYERS:
            if not self.traced and name not in BOUNDARY_LAYERS:
                continue
            try:
                original = getattr(importlib.import_module(module_name), attribute)
            except (ImportError, AttributeError):
                continue  # layer gone: it reports zero calls
            wrapper = self.wrap(name, original, reader)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("sparsepoly"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis ------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [s.end - s.start for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.end - span.start
        return own

    def trial_self_seconds(self) -> list[float]:
        """Trial time not covered by any layer span that the trial caused.

        A span belongs to trial t at top level when it started in trial t and
        its parent did not (the parent, if any, is the study-level sweep).
        """
        remaining = list(self.trial_seconds)
        for span in self.spans:
            if span.trial < 0:
                continue
            parent = self.spans[span.parent] if span.parent is not None else None
            if parent is None or parent.trial != span.trial:
                remaining[span.trial] -= span.end - span.start
        return remaining

    def layer_table(self) -> dict:
        """Per-layer numbers for this study, keyed by metric name."""
        own = self.self_times()
        by_name: dict[str, list[int]] = {name: [] for name, *_ in LAYERS}
        by_name["workload.target"] = []
        for index, span in enumerate(self.spans):
            by_name[span.name].append(index)

        def total(name):
            return sum(self.spans[i].end - self.spans[i].start for i in by_name[name])

        def self_total(name):
            return sum(own[i] for i in by_name[name])

        def p50(name):
            durations = [self.spans[i].end - self.spans[i].start for i in by_name[name]]
            return statistics.median(durations) if durations else 0.0

        def counts(name, key):
            return [self.spans[i].counts[key] for i in by_name[name] if self.spans[i].counts]

        lasso_solves = len(by_name["lasso.lasso_solve"])
        lasso_iterations = sum(counts("lasso.lasso_solve", "iterations"))
        lasso_capped = sum(counts("lasso.lasso_solve", "capped"))
        womp_iterations = sum(counts("womp.womp_solve", "iterations"))
        stops = counts("womp.womp_solve", "stop")

        sweep_per_trial = [0.0] * len(self.trial_starts)
        for name in ("lasso.default_alpha_grid", "lasso.lasso_solve"):
            for i in by_name[name]:
                span = self.spans[i]
                if span.trial >= 0:
                    sweep_per_trial[span.trial] += span.end - span.start
        sweeps = [s for s in sweep_per_trial if s > 0]

        reference_bytes = 0
        for i in by_name["basis.evaluate_design"]:
            if self._has_ancestor(i, "experiments.reference_coefficients"):
                reference_bytes += self.spans[i].counts["bytes"]

        table = {
            "lasso.lasso_solve.s": total("lasso.lasso_solve"),
            "lasso.lasso_solve.p50_s": p50("lasso.lasso_solve"),
            "lasso.solves": lasso_solves,
            "lasso.iterations": lasso_iterations,
            "lasso.s_per_iteration": total("lasso.lasso_solve") / lasso_iterations
            if lasso_iterations
            else 0.0,
            "lasso.capped": lasso_capped,
            "lasso.capped_frac": lasso_capped / lasso_solves if lasso_solves else 0.0,
            "lasso.sweep.p50_s": statistics.median(sweeps) if sweeps else 0.0,
            "lasso.default_alpha_grid.s": total("lasso.default_alpha_grid"),
            "womp.womp_solve.s": total("womp.womp_solve"),
            "womp.womp_solve.p50_s": p50("womp.womp_solve"),
            "womp.solves": len(by_name["womp.womp_solve"]),
            "womp.iterations": womp_iterations,
            "womp.s_per_iteration": total("womp.womp_solve") / womp_iterations
            if womp_iterations
            else 0.0,
        }
        for reason in WOMP_STOP_REASONS:
            table[f"womp.stop.{reason}"] = stops.count(reason)
        table["womp.stop.other"] = sum(1 for s in stops if s not in WOMP_STOP_REASONS)
        table.update(
            {
                "womp.trace_mb_computed": max(counts("womp.womp_solve", "trace_bytes"), default=0)
                / 1e6,
                "basis.evaluate_design.s": total("basis.evaluate_design"),
                "basis.evaluate_design.calls": len(by_name["basis.evaluate_design"]),
                "basis.sample_measure.s": total("basis.sample_measure"),
                "basis.weights.s": total("basis.weights"),
                "index_sets.hyperbolic_cross.s": total("index_sets.hyperbolic_cross"),
                "assembly.build_system.self_s": self_total("assembly.build_system"),
                "assembly.normalize_columns.s": total("assembly.normalize_columns"),
                "assembly.denormalize_solution.s": total("assembly.denormalize_solution"),
                "assembly.denormalize_solution.calls": len(by_name["assembly.denormalize_solution"]),
                "experiments.reference_coefficients.self_s": self_total(
                    "experiments.reference_coefficients"
                ),
                "experiments.reference_matrix_mb_computed": reference_bytes / 1e6,
                "experiments.relative_error.s": total("experiments.relative_error"),
                "experiments.relative_error.calls": len(by_name["experiments.relative_error"]),
                "experiments.trial.self_s": sum(self.trial_self_seconds()),
                "workload.target.s": total("workload.target"),
                "cli.write_outputs.s": total("cli.write_outputs"),
            }
        )
        return table

    def trial_accounting(self) -> dict:
        """Self time per layer inside trials; with the trial's own self time
        these sum to the total trial time."""
        own = self.self_times()
        split: dict[str, float] = {}
        for index, span in enumerate(self.spans):
            if span.trial >= 0:
                split[span.name] = split.get(span.name, 0.0) + own[index]
        split["experiments.trial (self)"] = sum(self.trial_self_seconds())
        return split

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write_spans(self, path, study: int) -> None:
        new = not path.exists()
        with open(path, "a") as fh:
            if new:
                fh.write("study,span,name,start,end,parent,trial\n")
            for index, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{study},{index},{s.name},{s.start:.9f},{s.end:.9f},{parent},{s.trial}\n")
