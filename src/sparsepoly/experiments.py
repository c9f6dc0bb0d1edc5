"""Multi-trial experiment harness: error curves, support sizes, runtimes.

The protocol, per sample count m and per trial: draw m fresh points from the
orthogonality measure, assemble and column-normalize the sensing system, run
the greedy solves of all regularization values in lockstep, in one
`womp_path` call (each lambda's trace is its selection order plus one block
of all its iterates), and one weighted-LASSO sweep over a
log-spaced alpha grid, solved exactly by one homotopy path from the
zero-solution threshold down to the smallest alpha (`lasso.lasso_path`).
The report aggregates, over trials, each greedy configuration's stop reasons
and iterations run, and for each alpha how often the path reached it within
the breakpoint cap, the breakpoints walked, the largest KKT residual (one
`verification.lasso_kkt_residual` call certifies a trial's whole block) and
the mean seconds into the path at which it reached the alpha.  Relative
errors are measured
coefficient-wise against a single shared reference fit obtained by least
squares (through the normal equations) on an oversampled draw; since the
basis is orthonormal for the sampling measure, the coefficient-space l2
distance equals the function-space L2 error of the truncated expansions.
One `coefficients_at` call expands the K iterates of a trace into a K x N
block, the LASSO path returns one G x N block for the alpha grid, and one
`relative_error` call scores each block.

`run_sweep` first refuses (`check_scale`, on the counted basis size) a
config whose reference fit would not fit in physical memory, and otherwise
returns the data report.json holds, as one dict.  One table,
`OUTPUT_WRITERS`, names a run's five files and the writer of each, and
every writer reads that same dict, as does the CLI summary; the resolved
config file is rendered from the dict's `config` echo.

Everything is a pure function of the config (seed included): the reference
uses the stream SeedSequence([seed, 0]) and trial t at sample count m uses
SeedSequence([seed, 1, m, t]), so earlier trials are stable when the trial
count grows.  Wall-clock timings cover the solver calls only.  One
`womp_path` call runs a trial's lambdas in lockstep, and a lambda's WOMP
timing is its `SolveTrace.seconds`: the time from that call's start until
the lambda stopped, which includes the other lambdas' work up to then.  A
LASSO timing is the alpha grid plus the `lasso_path` call.  Assembly,
scoring and the KKT certificate are excluded from every decoder timing;
normalization is timed separately.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import basis
from .assembly import (
    TargetFunction,
    at_least,
    build_system,
    denormalize_solution,
    normalize_columns,
)
from .index_sets import MultiIndexSet, hyperbolic_cross, hyperbolic_cross_size
from .lasso import default_alpha_grid, lasso_path
from .verification import lasso_kkt_residual
from .womp import SUPPORT_EPSILON, womp_path

DEFAULT_SEED = 1729

DEFAULT_LAMBDAS = (0.0, 1e-5, 10.0**-4.5, 1e-4, 10.0**-3.5, 1e-3)


# the smallest value each numeric config field, or each entry of a list
# field, may take
_LOWER_BOUNDS = {
    "d": 1, "s": 1, "m": 1, "lambdas": 0, "iterations": 1, "trials": 1,
    "reference_oversampling": 1, "seed": 0, "lasso_grid_size": 1, "lasso_max_iterations": 1,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The study's settings; each field name is its config key."""

    basis: str = "legendre"
    d: int = 10
    s: int = 10
    m: tuple[int, ...] = (80,)
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    iterations: int = 25
    trials: int = 25
    reference_oversampling: int = 20
    seed: int = DEFAULT_SEED
    include_lasso: bool = True
    lasso_grid_size: int = 10
    # breakpoint cap of the LASSO homotopy path
    lasso_max_iterations: int = 1500

    def __post_init__(self):
        if self.basis not in basis.BASIS_KINDS:
            raise ValueError(f"basis must be one of {basis.BASIS_KINDS}")
        if not isinstance(self.include_lasso, bool):
            raise ValueError(f"include_lasso must be True or False, got {self.include_lasso!r}")
        defaults = {field.name: field.default for field in fields(self)}
        for name, bound in _LOWER_BOUNDS.items():
            value, default = getattr(self, name), defaults[name]
            if isinstance(default, tuple):
                # a list field: distinct entries of its default's element type
                kind, value = type(default[0]), tuple(value)
                if not value or len(set(value)) < len(value) or not all(
                    at_least(v, bound, kind is int) for v in value
                ):
                    noun = "integers" if kind is int else "finite values"
                    raise ValueError(
                        f"{name} must be one or more distinct {noun} >= {bound}, got {list(value)}"
                    )
                object.__setattr__(self, name, tuple(map(kind, value)))
            elif at_least(value, bound):
                object.__setattr__(self, name, int(value))
            else:
                raise ValueError(f"{name} must be an integer >= {bound}, got {value}")


def target_log_sum(d: int) -> TargetFunction:
    """The log-of-shifted-sum target ln(d + 1 + sum_k t_k) on (-1, 1)^d.

    The argument stays above 1 on the open cube, so the function is finite
    and analytic there.
    """
    if d < 1:
        raise ValueError("d must be >= 1")

    def evaluator(points: np.ndarray) -> np.ndarray:
        return np.log(d + 1.0 + points.sum(axis=-1))

    return TargetFunction(evaluator, description=f"ln({d + 1} + sum of {d} coordinates)")


def reference_coefficients(
    target: TargetFunction,
    kind: str,
    index_set: MultiIndexSet,
    oversampling: int,
    seed,
) -> np.ndarray:
    """Oversampled least-squares fit standing in for the true coefficients."""
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    n_samples = oversampling * len(index_set)
    points = basis.sample_measure(kind, index_set.dimension, n_samples, seed)
    system = build_system(points, target, kind, index_set)
    # Normal equations A^T A x = A^T y by Cholesky.  The oversampled system is
    # well conditioned (cond(A) is about 1.6 at the study's size), so squaring
    # the condition number is harmless: the fit agrees with an SVD
    # least-squares solve to about 1e-14 relative.  A pivot below sqrt(eps)
    # times the largest would leave fewer than half the digits: treat it as
    # rank deficiency, as an exactly dependent column makes Cholesky fail or
    # leave a pivot at rounding level.  (numpy has no triangular solver, so
    # the two solves with the factor go through np.linalg.solve.)
    try:
        factor = np.linalg.cholesky(system.matrix.T @ system.matrix)
        pivots = np.diag(factor) ** 2
        if pivots.min() <= np.sqrt(np.finfo(np.float64).eps) * pivots.max():
            raise np.linalg.LinAlgError(
                f"smallest Cholesky pivot {pivots.min():.3e} is negligible "
                f"next to the largest {pivots.max():.3e}"
            )
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"oversampled reference system is rank-deficient: {exc}") from exc
    return np.linalg.solve(factor.T, np.linalg.solve(factor, system.matrix.T @ system.rhs))


def relative_error(x_hat: np.ndarray, x_ref: np.ndarray):
    """l2 distance of each row of x_hat to the reference, relative to the
    reference norm: an array for a 2-D x_hat, a float for a 1-D one."""
    x_ref = np.asarray(x_ref, dtype=np.float64)
    ref_norm = float(np.linalg.norm(x_ref))
    if ref_norm == 0.0:
        raise ValueError("reference coefficients have zero norm")
    diff = np.asarray(x_hat) - x_ref
    return np.sqrt(np.vecdot(diff, diff)) / ref_norm


def _json_value(value):
    """value as strict JSON data: arrays become lists, and each non-finite
    float None (null), since JSON has no NaN or Infinity."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {key: _json_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _run_trial(
    config: ExperimentConfig,
    target: TargetFunction,
    index_set: MultiIndexSet,
    w: np.ndarray,
    x_ref: np.ndarray,
    m: int,
    trial: int,
) -> dict:
    """One trial's results: the womp_* entries hold one row per lambda, the
    lasso_* entries one value per grid alpha."""
    seed = np.random.SeedSequence([config.seed, 1, m, trial])
    points = basis.sample_measure(config.basis, config.d, m, seed)
    raw = build_system(points, target, config.basis, index_set)
    t0 = time.perf_counter()
    system = normalize_columns(raw)
    result = {"normalize_seconds": time.perf_counter() - t0}

    ks = np.arange(1, config.iterations + 1)
    womp = {"errors": [], "supports": [], "seconds": [], "stop_reasons": [], "iterations": []}
    for trace in womp_path(system, w, config.lambdas, config.iterations):
        womp["seconds"].append(trace.seconds)
        iterates = denormalize_solution(system, trace.coefficients_at(ks))
        womp["errors"].append(relative_error(iterates, x_ref))
        womp["supports"].append(trace.support_size_at(ks))
        womp["stop_reasons"].append(trace.stop_reason)
        womp["iterations"].append(len(trace))
    result.update({f"womp_{key}": value for key, value in womp.items()})

    if config.include_lasso:
        t0 = time.perf_counter()
        alphas = default_alpha_grid(system, w, config.lasso_grid_size)
        path = lasso_path(system, w, alphas, config.lasso_max_iterations)
        result["lasso_seconds"] = time.perf_counter() - t0
        coefficients = denormalize_solution(system, path.coefficients)
        result["lasso_errors"] = relative_error(coefficients, x_ref)
        result["lasso_supports"] = np.count_nonzero(np.abs(coefficients) > SUPPORT_EPSILON, axis=1)
        result["lasso_alphas"] = alphas
        result["lasso_converged"] = path.converged
        result["lasso_iterations"] = path.n_iterations
        result["lasso_path_seconds"] = path.seconds
        result["lasso_kkt"] = lasso_kkt_residual(system, w, alphas, path.coefficients)
    return result


class ScaleError(ValueError):
    """A config beyond what this machine can run."""


def physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_scale(config: ExperimentConfig) -> None:
    """Raise ScaleError when the dense matrix of the oversampled reference
    fit (reference_oversampling * N rows, N columns) exceeds physical memory.
    N is counted, not enumerated, so an oversized config allocates nothing."""
    n = hyperbolic_cross_size(config.d, config.s)
    rows = config.reference_oversampling * n
    memory = physical_memory_bytes()
    if memory is not None and rows * n * 8 > memory:
        raise ScaleError(
            f"the reference fit needs {rows} x {n} doubles = {rows * n * 8 / 1e6:.1f} MB, "
            f"more than the {memory / 1e6:.1f} MB of physical memory"
        )


def run_sweep(config: ExperimentConfig) -> dict:
    """Execute the full multi-trial study of the log-of-shifted-sum target.

    Returns the data report.json holds, keys in the file's order, with numpy
    arrays where the file has lists: one `womp` entry per (m, lambda), one
    `lasso` entry per m, and `normalize_seconds` keyed by str(m).  Raises
    ScaleError, before it allocates anything, for a config `check_scale`
    refuses.
    """
    check_scale(config)
    target = target_log_sum(config.d)
    index_set = hyperbolic_cross(config.d, config.s)
    w = basis.weights(config.basis, index_set)
    x_ref = reference_coefficients(
        target,
        config.basis,
        index_set,
        config.reference_oversampling,
        np.random.SeedSequence([config.seed, 0]),
    )
    report = {
        "config": asdict(config),
        "seed_scheme": (
            "reference: SeedSequence([seed, 0]); "
            "trial t at sample count m: SeedSequence([seed, 1, m, t])"
        ),
        "n_basis_functions": len(index_set),
        "reference_norm": float(np.linalg.norm(x_ref)),
        "womp": [],
        "lasso": [],
        "normalize_seconds": {},
    }

    for m in config.m:
        trials = [
            _run_trial(config, target, index_set, w, x_ref, m, trial)
            for trial in range(config.trials)
        ]
        # axis 0 of every entry runs over the trials
        r = {key: np.array([t[key] for t in trials]) for key in trials[0]}
        report["normalize_seconds"][str(m)] = float(r["normalize_seconds"].mean())
        mean_errors = r["womp_errors"].mean(axis=0)
        std_errors = r["womp_errors"].std(axis=0)
        mean_supports = r["womp_supports"].mean(axis=0)
        for i, lam in enumerate(config.lambdas):
            # over trials: how many solves ended for each stop reason, and
            # the mean number of iterations run
            stop_reasons = Counter(map(str, r["womp_stop_reasons"][:, i]))
            report["womp"].append({
                "m": m,
                "lambda": lam,
                "mean_errors": mean_errors[i],
                "std_errors": std_errors[i],
                "mean_supports": mean_supports[i],
                "mean_seconds": float(r["womp_seconds"][:, i].mean()),
                "stop_reasons": dict(sorted(stop_reasons.items())),
                "mean_iterations": float(r["womp_iterations"][:, i].mean()),
            })
        if config.include_lasso:
            mean_errors = r["lasso_errors"].mean(axis=0)
            best = int(np.argmin(mean_errors))
            # per alpha, over trials: paths that reached it within the
            # breakpoint cap, breakpoints walked to reach it, the largest KKT
            # residual, and the seconds into the path at which it was reached
            report["lasso"].append({
                "m": m,
                "mean_alphas": r["lasso_alphas"].mean(axis=0),
                "mean_errors": mean_errors,
                "std_errors": r["lasso_errors"].std(axis=0),
                "mean_supports": r["lasso_supports"].mean(axis=0),
                "converged_counts": r["lasso_converged"].sum(axis=0),
                "mean_iterations": r["lasso_iterations"].mean(axis=0),
                "max_iterations_run": r["lasso_iterations"].max(axis=0),
                "max_kkt_residual": r["lasso_kkt"].max(axis=0),
                "best_position": best,
                "best_mean_error": float(mean_errors[best]),
                "mean_sweep_seconds": float(r["lasso_seconds"].mean()),
                "mean_path_seconds": r["lasso_path_seconds"].mean(axis=0),
            })
    return report


def _fmt(value) -> str:
    return repr(float(value))


def _curve_rows(report: dict):
    """(decoder, lambda, m, k, mean error, std error, mean support) per curve
    point: k = 1..K for each greedy curve, then one k = 0 best-alpha row per
    LASSO sweep."""
    for c in report["womp"]:
        rows = zip(c["mean_errors"], c["std_errors"], c["mean_supports"])
        for k, (mean, std, support) in enumerate(rows, start=1):
            yield "womp", c["lambda"], c["m"], k, mean, std, support
    for s in report["lasso"]:
        b = s["best_position"]
        mean, std, support = s["best_mean_error"], s["std_errors"][b], s["mean_supports"][b]
        yield "wlasso", s["mean_alphas"][b], s["m"], 0, mean, std, support


def write_errors_csv(report: dict, path) -> None:
    """Per-iteration mean/std error rows; one best-alpha row per LASSO sweep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "lambda", "m", "k", "mean_error", "std_error"])
        for decoder, lam, m, k, mean, std, _ in _curve_rows(report):
            writer.writerow([decoder, _fmt(lam), m, k, _fmt(mean), _fmt(std)])


def write_support_csv(report: dict, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "lambda", "m", "k", "mean_support"])
        for decoder, lam, m, k, _, _, support in _curve_rows(report):
            writer.writerow([decoder, _fmt(lam), m, k, _fmt(support)])


def write_runtimes_csv(report: dict, path) -> None:
    """Mean decoder wall-clock per configuration (normalization listed too)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "lambda", "m", "mean_seconds"])
        for c in report["womp"]:
            writer.writerow(["womp", _fmt(c["lambda"]), c["m"], _fmt(c["mean_seconds"])])
        for s in report["lasso"]:
            writer.writerow(["wlasso_sweep", "", s["m"], _fmt(s["mean_sweep_seconds"])])
        for m, seconds in report["normalize_seconds"].items():
            writer.writerow(["normalize", "", m, _fmt(seconds)])


def write_report_json(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(_json_value(report), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(_render_value, value))
    return str(value).lower() if isinstance(value, bool) else str(value)


def render_config(values: dict) -> str:
    """One key=value line per config field, from a field -> value mapping
    such as asdict(config); cli.parse_config_text reads it back."""
    return "".join(f"{key}={_render_value(value)}\n" for key, value in values.items())


def write_config_resolved(report: dict, path) -> None:
    Path(path).write_text(render_config(report["config"]))


# output file -> writer, in the order write_outputs writes them
OUTPUT_WRITERS = {
    "errors.csv": write_errors_csv,
    "support.csv": write_support_csv,
    "runtimes.csv": write_runtimes_csv,
    "report.json": write_report_json,
    "config_resolved.cfg": write_config_resolved,
}


def write_outputs(report: dict, out_dir) -> None:
    """Write every file of OUTPUT_WRITERS into out_dir."""
    for name, writer in OUTPUT_WRITERS.items():
        writer(report, Path(out_dir) / name)
