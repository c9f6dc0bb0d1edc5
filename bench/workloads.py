"""The benchmark's three workloads: why each exists and what it leaves idle.

Every workload runs *studies*.  A study is one call into the program with
inputs generated from the workload seed; a run repeats the same study, so
the repeats must produce byte-identical data and their timings are samples
of the same work.  A trial is one fresh sample draw and everything the study
does with it; it is the unit that `attempted` and `failed` count.

paper_study
    ``sparsepoly run`` on ``configs/full_study_legendre.cfg`` (N=571,
    m in {60, 80}, six lambdas, K=25, a 10-point alpha grid, cap 1500).  This
    is the ROADMAP's end-to-end definition; about 95% of a trial is the LASSO
    sweep, so a LASSO change must show here.  WOMP is about 2% of a trial.
    The trial count is lowered from 25 to 10 per m so that two byte-compared
    repeats fit into one run; the per-trial work is the config's.
    Idle: nothing.
paper_greedy
    ``sparsepoly run`` on ``configs/full_study_chebyshev.cfg`` with
    ``include_lasso=false`` (25 trials per m, as committed).  Small-k WOMP is
    about 75% of trial time and Python overhead dominates it; assembly and
    scoring make up the rest, and the reference fit is about half of the
    study.  Covers the second basis and its arcsine measure.
    Idle: ``lasso`` (a LASSO change should show no change here).
large_greedy
    The library path of the README quickstart at d=16, s=20 (N=12,645),
    m=300, K=160, Legendre, the paper's lambda grid.  ``run_sweep`` cannot
    serve this size: its reference fit would need 20 N^2 doubles (25.6 GB).
    The target is instead a known compressible expansion on the first 1,000
    graded indices, c_j ~ g_j (j+1)^-1.5 with random signs g_j = +-1 drawn
    from the seed (normal g_j made womp_err vary 0.016-0.038 across seeds),
    evaluated by the benchmark's own code on its active terms only, so that
    the assembly span measures the program and not this function; errors are
    scored against c exactly.  Exercises large-k, BLAS-bound WOMP refits with
    a dense trace of about 16 MB per lambda, ``basis.evaluate_design`` at
    300 x 12,645 and ``index_sets`` at N=12,645.
    Idle: ``lasso`` and the reference fit.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Lambda grid of configs/full_study_*.cfg and of the paper's study.
PAPER_LAMBDAS = (0.0, 1e-5, 10.0**-4.5, 1e-4, 10.0**-3.5, 1e-3)
# Criterion 6(a): the best of these lambdas is at least as good as OMP.
TUNED_LAMBDAS = (10.0**-4.5, 1e-4, 10.0**-3.5)
# Criterion 8: best weighted OMP and best weighted LASSO within this factor.
L1_PARITY_FACTOR = 3.0
# Basis size of both full-study configs (d=10, s=10).
PAPER_N = 571


@dataclass
class StudyOutcome:
    """What one study returned, as seen from outside the program."""

    ok: bool
    attempted: int
    failed: int
    data: bytes  # byte-compared across repeats
    womp_err: float = math.nan
    lasso_err: float | None = None
    checks: list = field(default_factory=list)  # (name, passed, detail)


def _isclose(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


class CliWorkload:
    """Drives ``sparsepoly run`` in-process on a generated config."""

    def __init__(self, config_name, overrides, expected, sample_counts, lasso, tail):
        self.config_name = config_name
        self.overrides = overrides
        self.expected = expected
        self.trial_sample_counts = frozenset(sample_counts)
        self.lasso = lasso
        self.tail_percentile = tail

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        text = (root / "configs" / self.config_name).read_text()
        lines = [f"{key}={value}" for key, value in self.overrides.items()]
        self.config_path = work / "study.cfg"
        self.config_path.write_text(
            f"# generated from configs/{self.config_name}\n{text}\n"
            + "\n".join(lines + [f"seed={seed}"])
            + "\n"
        )

    def run_study(self, recorder, out_dir: Path) -> StudyOutcome:
        from sparsepoly import cli

        argv = ["run", "--config", str(self.config_path), "--out", str(out_dir), "--force"]
        with open(out_dir.with_suffix(".log"), "w") as log, redirect_stdout(log), redirect_stderr(log):
            with recorder:
                recorder.begin()
                code = cli.main(argv)
                recorder.finish()
        attempted = len(recorder.trial_starts)
        if code != 0:
            return StudyOutcome(False, max(attempted, 1), 1, b"",
                                checks=[("sparsepoly run exit code", False, f"exit {code}")])
        return self._read_outputs(out_dir, attempted)

    def _read_outputs(self, out_dir: Path, attempted: int) -> StudyOutcome:
        errors_bytes = (out_dir / "errors.csv").read_bytes()
        support_bytes = (out_dir / "support.csv").read_bytes()
        with open(out_dir / "errors.csv") as fh:
            rows = list(csv.DictReader(fh))
        with open(out_dir / "support.csv") as fh:
            support_rows = list(csv.DictReader(fh))
        resolved = dict(
            line.split("=", 1)
            for line in (out_dir / "config_resolved.cfg").read_text().splitlines()
            if "=" in line
        )
        report = json.loads((out_dir / "report.json").read_text())
        checks = []

        wrong = {k: resolved.get(k) for k, v in self.expected.items() if resolved.get(k) != v}
        checks.append(("resolved config is the workload's", not wrong, f"differs: {wrong}" if wrong else "ok"))
        n = report.get("n_basis_functions")
        checks.append((f"N = {PAPER_N}", n == PAPER_N, f"N = {n}"))

        values = [float(r["mean_error"]) for r in rows] + [float(r["std_error"]) for r in rows]
        values += [float(r["mean_support"]) for r in support_rows]
        finite = bool(values) and all(math.isfinite(v) for v in values)
        checks.append(("every error and support is finite", finite, f"{len(values)} values"))

        m = max(self.trial_sample_counts)
        K = int(self.expected["iterations"])
        at_k = {
            float(r["lambda"]): float(r["mean_error"])
            for r in rows
            if r["decoder"] == "womp" and int(r["m"]) == m and int(r["k"]) == K
        }
        if len(at_k) != len(PAPER_LAMBDAS):
            checks.append(("one womp curve per lambda", False, f"lambdas at k=K: {sorted(at_k)}"))
            return StudyOutcome(False, attempted, attempted, errors_bytes + support_bytes, checks=checks)
        womp_err = min(e for lam, e in at_k.items() if lam > 0)
        omp_err = at_k[0.0]
        tuned = min(e for lam, e in at_k.items() if any(_isclose(lam, t) for t in TUNED_LAMBDAS))
        checks.append(("criterion 6(a): best tuned lambda <= OMP", tuned <= omp_err,
                       f"{tuned:.4e} <= {omp_err:.4e}"))

        lasso_err = None
        if self.lasso:
            lasso_rows = [r for r in rows if r["decoder"] == "wlasso" and int(r["m"]) == m]
            if lasso_rows:
                lasso_err = float(lasso_rows[0]["mean_error"])
                ratio = max(womp_err, lasso_err) / min(womp_err, lasso_err)
                checks.append(("criterion 8: WOMP and LASSO within x3", ratio <= L1_PARITY_FACTOR,
                               f"womp {womp_err:.4e} vs lasso {lasso_err:.4e} (x{ratio:.2f})"))
            else:
                checks.append(("criterion 8: WOMP and LASSO within x3", False, "no wlasso row"))

        failed = 0 if finite else attempted
        ok = all(passed for _, passed, _ in checks)
        return StudyOutcome(ok, attempted, failed, errors_bytes + support_bytes,
                            womp_err, lasso_err, checks)


def _legendre_expansion(indices: np.ndarray, coefficients: np.ndarray):
    """Evaluator of sum_j c_j phi_j for the given active multi-indices.

    The workload's own code (three-term recurrence, orthonormal for the
    uniform probability measure), independent of sparsepoly.basis.
    """
    degree = int(indices.max())
    scale = np.sqrt(2.0 * np.arange(degree + 1) + 1.0)

    def evaluate(points: np.ndarray) -> np.ndarray:
        table = np.empty(points.shape + (degree + 1,))
        table[..., 0] = 1.0
        table[..., 1] = points
        for n in range(1, degree):
            table[..., n + 1] = ((2 * n + 1) * points * table[..., n] - n * table[..., n - 1]) / (n + 1)
        table *= scale
        products = np.ones((points.shape[0], indices.shape[0]))
        for k in range(indices.shape[1]):
            products *= table[:, k, indices[:, k]]
        return products @ coefficients

    return evaluate


class LargeGreedy:
    """Library path at d=16, s=20 (N=12,645), m=300, K=160."""

    kind = "legendre"
    d, s, m, K = 16, 20, 300, 160
    n_basis = 12645
    active_terms = 1000
    trials_per_study = 5
    tail_percentile = 50
    trial_sample_counts = frozenset({300})
    # Correctness bound on womp_err.  Measured over seeds 1-10: 0.031-0.034.
    womp_err_limit = 0.05

    def prepare(self, root: Path, work: Path, seed: int) -> None:
        self.seed = seed

    def run_study(self, recorder, out_dir: Path) -> StudyOutcome:
        import sparsepoly as sp

        lambdas, K, T = PAPER_LAMBDAS, self.K, self.trials_per_study
        errors = np.full((len(lambdas), T, K), np.nan)
        supports = np.full((len(lambdas), T, K), np.nan)
        failed = 0
        checks = []
        with recorder:
            recorder.begin()
            index_set = sp.hyperbolic_cross(self.d, self.s)
            w = sp.weights(self.kind, index_set)
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 2]))
            signs = rng.choice((-1.0, 1.0), size=self.active_terms)
            c_active = signs * (np.arange(self.active_terms) + 1.0) ** -1.5
            c_active /= np.linalg.norm(c_active)
            c = np.zeros(len(index_set))
            c[: self.active_terms] = c_active
            evaluate = _legendre_expansion(index_set.indices[: self.active_terms], c_active)
            if recorder.traced:
                evaluate = recorder.wrap("workload.target", evaluate)
            target = sp.TargetFunction(evaluate, description="benchmark compressible expansion")
            for t in range(T):
                try:
                    self._trial(sp, t, target, index_set, w, c, errors[:, t], supports[:, t])
                except Exception as exc:  # a failed trial is counted, not fatal
                    failed += 1
                    checks.append((f"trial {t} raised", False, repr(exc)))
                    continue
                if not np.all(np.isfinite(errors[:, t])):
                    failed += 1
            recorder.mark_trials_end()
            recorder.finish()

        n = len(index_set)
        checks.append((f"N = {self.n_basis}", n == self.n_basis, f"N = {n}"))
        finite = bool(np.all(np.isfinite(errors)))
        checks.append(("every error is finite", finite, f"{errors.size} values"))
        mean_at_k = np.nanmean(errors[:, :, K - 1], axis=1)
        womp_err = float(min(mean_at_k[i] for i, lam in enumerate(lambdas) if lam > 0))
        checks.append((f"womp_err <= {self.womp_err_limit}", womp_err <= self.womp_err_limit,
                       f"{womp_err:.4e}"))
        ok = failed == 0 and all(passed for _, passed, _ in checks)
        return StudyOutcome(ok, T, failed, errors.tobytes() + supports.tobytes(), womp_err, None, checks)

    def _trial(self, sp, t, target, index_set, w, c, errors, supports) -> None:
        """One trial of the quickstart protocol; its arrays are freed on return,
        so the next trial's assembly does not overlap this trial's system."""
        seed = np.random.SeedSequence([self.seed, 1, self.m, t])
        points = sp.sample_measure(self.kind, self.d, self.m, seed)
        system = sp.normalize_columns(sp.build_system(points, target, self.kind, index_set))
        for i, lam in enumerate(PAPER_LAMBDAS):
            trace = sp.womp_solve(system, w, sp.WompConfig(lam=lam, max_iterations=self.K))
            for k in range(1, self.K + 1):
                x = sp.denormalize_solution(system, trace.coefficients_at(k))
                errors[i, k - 1] = sp.relative_error(x, c)
                supports[i, k - 1] = trace.support_size_at(k)


# Resolved-config values shared by both full-study configs.
_FULL_STUDY_EXPECTED = {
    "basis": "legendre", "d": "10", "s": "10", "m": "60,80", "iterations": "25",
    "reference_oversampling": "20", "lasso_grid_size": "10", "lasso_max_iterations": "1500",
}

WORKLOADS = {
    "paper_study": lambda: CliWorkload(
        "full_study_legendre.cfg", {"trials": 10},
        {**_FULL_STUDY_EXPECTED, "trials": "10", "include_lasso": "true"},
        sample_counts=(60, 80), lasso=True, tail=75,
    ),
    "paper_greedy": lambda: CliWorkload(
        "full_study_chebyshev.cfg", {"include_lasso": "false"},
        {**_FULL_STUDY_EXPECTED, "basis": "chebyshev", "trials": "25", "include_lasso": "false"},
        sample_counts=(60, 80), lasso=False, tail=95,
    ),
    "large_greedy": LargeGreedy,
}
