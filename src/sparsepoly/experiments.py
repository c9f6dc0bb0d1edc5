"""Multi-trial experiment harness: error curves, support sizes, runtimes.

The protocol, per sample count m and per trial: draw m fresh points from the
orthogonality measure, assemble and column-normalize the sensing system, run
one greedy solve per regularization value (keeping the full iteration trace)
and one weighted-LASSO sweep over a log-spaced alpha grid, solved exactly by
one homotopy path from the zero-solution threshold down to the smallest alpha
(`lasso.lasso_path`).  The report aggregates, over trials, each greedy
configuration's stop reasons and iterations run, and for each alpha how often
the path reached it within the breakpoint cap, the breakpoints walked, and the
largest KKT residual (`verification.lasso_kkt_residual`, computed outside the
timed sweep).  Relative errors are measured coefficient-wise against a single
shared reference fit obtained by least squares (through the normal equations)
on an oversampled draw; since the basis is orthonormal for the sampling
measure, the coefficient-space l2 distance equals the function-space L2 error
of the truncated expansions; one `relative_error` call scores a whole trace
(K iterates) or a whole alpha grid.

Everything is a pure function of the config (base seed included): the
reference uses the stream SeedSequence([base_seed, 0]) and trial t at sample
count m uses SeedSequence([base_seed, 1, m, t]), so earlier trials are stable
when the trial count grows.  Wall-clock timings cover the decoder calls only
(assembly excluded; normalization timed separately).
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import basis
from .assembly import (
    TargetFunction,
    build_system,
    denormalize_solution,
    normalize_columns,
)
from .index_sets import MultiIndexSet, hyperbolic_cross
from .lasso import default_alpha_grid, lasso_path
from .verification import lasso_kkt_residual
from .womp import SUPPORT_EPSILON, WompConfig, womp_solve

DEFAULT_SEED = 1729

DEFAULT_LAMBDAS = (0.0, 1e-5, 10.0**-4.5, 1e-4, 10.0**-3.5, 1e-3)


@dataclass(frozen=True)
class ExperimentConfig:
    basis_kind: str = "legendre"
    dimension: int = 10
    cross_order: int = 10
    sample_counts: tuple[int, ...] = (80,)
    lambdas: tuple[float, ...] = DEFAULT_LAMBDAS
    iterations: int = 25
    trials: int = 25
    reference_oversampling: int = 20
    base_seed: int = DEFAULT_SEED
    include_lasso: bool = True
    lasso_grid_size: int = 10
    # breakpoint cap of the LASSO homotopy path
    lasso_max_iterations: int = 1500

    def __post_init__(self):
        object.__setattr__(self, "sample_counts", tuple(int(m) for m in self.sample_counts))
        object.__setattr__(self, "lambdas", tuple(float(v) for v in self.lambdas))
        if self.basis_kind not in basis.BASIS_KINDS:
            raise ValueError(f"basis_kind must be one of {basis.BASIS_KINDS}")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.cross_order < 1:
            raise ValueError("cross_order must be >= 1")
        if not self.sample_counts or any(m < 1 for m in self.sample_counts):
            raise ValueError("sample_counts must be a non-empty list of integers >= 1")
        if not self.lambdas:
            raise ValueError("lambdas must be a non-empty list")
        if any(v < 0 for v in self.lambdas):
            raise ValueError("lambdas must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.reference_oversampling < 1:
            raise ValueError("reference_oversampling must be >= 1")
        if self.lasso_grid_size < 1:
            raise ValueError("lasso_grid_size must be >= 1")
        if self.lasso_max_iterations < 1:
            raise ValueError("lasso_max_iterations must be >= 1")


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


def expansion_target(
    kind: str,
    index_set: MultiIndexSet,
    coefficients: np.ndarray,
    description: str = "",
) -> TargetFunction:
    """A target that is exactly a finite combination of basis polynomials."""
    coefficients = np.asarray(coefficients, dtype=np.float64).copy()

    def evaluator(points: np.ndarray) -> np.ndarray:
        return basis.evaluate_expansion(kind, index_set, coefficients, points)

    label = description or f"{kind} expansion, {np.count_nonzero(coefficients)} active terms"
    return TargetFunction(evaluator, description=label)


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


@dataclass
class WompCurve:
    """Aggregated K-point curve for one (m, lambda) greedy configuration."""

    m: int
    lam: float
    mean_errors: np.ndarray = field(repr=False)
    std_errors: np.ndarray = field(repr=False)
    mean_supports: np.ndarray = field(repr=False)
    mean_seconds: float = 0.0
    # over trials: how many solves ended for each stop reason, and the mean
    # number of iterations run
    stop_reasons: dict[str, int] = field(default_factory=dict)
    mean_iterations: float = 0.0


@dataclass
class LassoSweep:
    """Aggregated alpha-grid results for one sample count."""

    m: int
    mean_alphas: np.ndarray = field(repr=False)
    mean_errors: np.ndarray = field(repr=False)
    std_errors: np.ndarray = field(repr=False)
    mean_supports: np.ndarray = field(repr=False)
    # per alpha, over trials: paths that reached it within the breakpoint
    # cap, breakpoints walked to reach it, and the largest KKT residual
    converged_counts: np.ndarray = field(repr=False)
    mean_iterations: np.ndarray = field(repr=False)
    max_iterations_run: np.ndarray = field(repr=False)
    max_kkt_residual: np.ndarray = field(repr=False)
    best_position: int = 0
    best_mean_error: float = float("nan")
    mean_sweep_seconds: float = 0.0


def _json_entry(aggregate) -> dict:
    """A WompCurve or LassoSweep as a JSON object: arrays become lists, and
    `lam` is written as "lambda"."""
    return {
        "lambda" if key == "lam" else key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in asdict(aggregate).items()
    }


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    n_basis_functions: int
    reference_norm: float
    womp_curves: list[WompCurve]
    lasso_sweeps: list[LassoSweep]
    mean_normalize_seconds: dict[int, float]

    def womp_curve(self, m: int, lam: float) -> WompCurve:
        for curve in self.womp_curves:
            if curve.m == m and curve.lam == lam:
                return curve
        raise KeyError(f"no curve for m={m}, lambda={lam}")

    def lasso_sweep(self, m: int) -> LassoSweep:
        for sweep in self.lasso_sweeps:
            if sweep.m == m:
                return sweep
        raise KeyError(f"no lasso sweep for m={m}")

    def to_json_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "seed_scheme": (
                "reference: SeedSequence([base_seed, 0]); "
                "trial t at sample count m: SeedSequence([base_seed, 1, m, t])"
            ),
            "n_basis_functions": self.n_basis_functions,
            "reference_norm": self.reference_norm,
            "womp": [_json_entry(c) for c in self.womp_curves],
            "lasso": [_json_entry(s) for s in self.lasso_sweeps],
            "normalize_seconds": {str(m): t for m, t in self.mean_normalize_seconds.items()},
        }


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
    seed = np.random.SeedSequence([config.base_seed, 1, m, trial])
    points = basis.sample_measure(config.basis_kind, config.dimension, m, seed)
    raw = build_system(points, target, config.basis_kind, index_set)
    t0 = time.perf_counter()
    system = normalize_columns(raw)
    result = {"normalize_seconds": time.perf_counter() - t0}

    ks = range(1, config.iterations + 1)
    womp = {"errors": [], "supports": [], "seconds": [], "stop_reasons": [], "iterations": []}
    for lam in config.lambdas:
        t0 = time.perf_counter()
        trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=config.iterations))
        womp["seconds"].append(time.perf_counter() - t0)
        iterates = [trace.coefficients_at(k) for k in ks]
        womp["errors"].append(relative_error(denormalize_solution(system, iterates), x_ref))
        womp["supports"].append([trace.support_size_at(k) for k in ks])
        womp["stop_reasons"].append(trace.stop_reason)
        womp["iterations"].append(len(trace))
    result.update({f"womp_{key}": value for key, value in womp.items()})

    if config.include_lasso:
        t0 = time.perf_counter()
        alphas = default_alpha_grid(system, w, config.lasso_grid_size)
        results = lasso_path(system, w, alphas, config.lasso_max_iterations)
        coefficients = denormalize_solution(system, [r.coefficients for r in results])
        result["lasso_errors"] = relative_error(coefficients, x_ref)
        result["lasso_supports"] = np.count_nonzero(np.abs(coefficients) > SUPPORT_EPSILON, axis=1)
        result["lasso_seconds"] = time.perf_counter() - t0
        result["lasso_alphas"] = alphas
        result["lasso_converged"] = [r.converged for r in results]
        result["lasso_iterations"] = [r.n_iterations for r in results]
        result["lasso_kkt"] = [
            lasso_kkt_residual(system, w, a, r.coefficients) for a, r in zip(alphas, results)
        ]
    return result


def run_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Execute the full multi-trial study of the log-of-shifted-sum target."""
    target = target_log_sum(config.dimension)
    index_set = hyperbolic_cross(config.dimension, config.cross_order)
    w = basis.weights(config.basis_kind, index_set)
    x_ref = reference_coefficients(
        target,
        config.basis_kind,
        index_set,
        config.reference_oversampling,
        np.random.SeedSequence([config.base_seed, 0]),
    )

    womp_curves: list[WompCurve] = []
    lasso_sweeps: list[LassoSweep] = []
    normalize_seconds: dict[int, float] = {}

    for m in config.sample_counts:
        trials = [
            _run_trial(config, target, index_set, w, x_ref, m, trial)
            for trial in range(config.trials)
        ]
        # axis 0 of every entry runs over the trials
        r = {key: np.array([t[key] for t in trials]) for key in trials[0]}
        normalize_seconds[m] = float(r["normalize_seconds"].mean())
        mean_errors = r["womp_errors"].mean(axis=0)
        std_errors = r["womp_errors"].std(axis=0)
        mean_supports = r["womp_supports"].mean(axis=0)
        for i, lam in enumerate(config.lambdas):
            stop_reasons = Counter(map(str, r["womp_stop_reasons"][:, i]))
            womp_curves.append(
                WompCurve(
                    m=m,
                    lam=lam,
                    mean_errors=mean_errors[i],
                    std_errors=std_errors[i],
                    mean_supports=mean_supports[i],
                    mean_seconds=float(r["womp_seconds"][:, i].mean()),
                    stop_reasons=dict(sorted(stop_reasons.items())),
                    mean_iterations=float(r["womp_iterations"][:, i].mean()),
                )
            )
        if config.include_lasso:
            mean_errors = r["lasso_errors"].mean(axis=0)
            best = int(np.argmin(mean_errors))
            lasso_sweeps.append(
                LassoSweep(
                    m=m,
                    mean_alphas=r["lasso_alphas"].mean(axis=0),
                    mean_errors=mean_errors,
                    std_errors=r["lasso_errors"].std(axis=0),
                    mean_supports=r["lasso_supports"].mean(axis=0),
                    converged_counts=r["lasso_converged"].sum(axis=0),
                    mean_iterations=r["lasso_iterations"].mean(axis=0),
                    max_iterations_run=r["lasso_iterations"].max(axis=0),
                    max_kkt_residual=r["lasso_kkt"].max(axis=0),
                    best_position=best,
                    best_mean_error=float(mean_errors[best]),
                    mean_sweep_seconds=float(r["lasso_seconds"].mean()),
                )
            )

    return ExperimentReport(
        config=config,
        n_basis_functions=len(index_set),
        reference_norm=float(np.linalg.norm(x_ref)),
        womp_curves=womp_curves,
        lasso_sweeps=lasso_sweeps,
        mean_normalize_seconds=normalize_seconds,
    )


def _fmt(value) -> str:
    return repr(float(value))


def _curve_rows(report: ExperimentReport):
    """(decoder, lambda, m, k, mean error, std error, mean support) per curve
    point: k = 1..K for each greedy curve, then one k = 0 best-alpha row per
    LASSO sweep."""
    for c in report.womp_curves:
        for i, mean in enumerate(c.mean_errors):
            yield "womp", c.lam, c.m, i + 1, mean, c.std_errors[i], c.mean_supports[i]
    for s in report.lasso_sweeps:
        b = s.best_position
        support = s.mean_supports[b]
        yield "wlasso", s.mean_alphas[b], s.m, 0, s.best_mean_error, s.std_errors[b], support


def write_errors_csv(report: ExperimentReport, path) -> None:
    """Per-iteration mean/std error rows; one best-alpha row per LASSO sweep."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "lambda", "m", "k", "mean_error", "std_error"])
        for decoder, lam, m, k, mean, std, _ in _curve_rows(report):
            writer.writerow([decoder, _fmt(lam), m, k, _fmt(mean), _fmt(std)])


def write_support_csv(report: ExperimentReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "lambda", "m", "k", "mean_support"])
        for decoder, lam, m, k, _, _, support in _curve_rows(report):
            writer.writerow([decoder, _fmt(lam), m, k, _fmt(support)])


def write_runtimes_csv(report: ExperimentReport, path) -> None:
    """Mean decoder wall-clock per configuration (normalization listed too)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "lambda", "m", "mean_seconds"])
        for curve in report.womp_curves:
            writer.writerow(["womp", _fmt(curve.lam), curve.m, _fmt(curve.mean_seconds)])
        for sweep in report.lasso_sweeps:
            writer.writerow(["wlasso_sweep", "", sweep.m, _fmt(sweep.mean_sweep_seconds)])
        for m, seconds in report.mean_normalize_seconds.items():
            writer.writerow(["normalize", "", m, _fmt(seconds)])


def write_report_json(report: ExperimentReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


def write_outputs(report: ExperimentReport, out_dir) -> list[Path]:
    """Write errors.csv, support.csv, runtimes.csv, and report.json."""
    out_dir = Path(out_dir)
    written = []
    for name, writer in [
        ("errors.csv", write_errors_csv),
        ("support.csv", write_support_csv),
        ("runtimes.csv", write_runtimes_csv),
        ("report.json", write_report_json),
    ]:
        path = out_dir / name
        writer(report, path)
        written.append(path)
    return written
