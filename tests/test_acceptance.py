"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The full-configuration sweeps (d=10, s=10, N=571, m=80, K=25, 25 trials,
both bases) are shared module-scoped fixtures.  On a shared 2-vCPU Xeon
machine the whole module takes 9-11 s: criterion 1's grid oracle 6-7.5 s,
the shared sweeps 2-2.5 s.
"""

import csv

import numpy as np
import pytest

from sparsepoly import basis
from sparsepoly.assembly import build_system, denormalize_solution, normalize_columns
from sparsepoly.cli import main
from sparsepoly.experiments import DEFAULT_LAMBDAS, ExperimentConfig, run_sweep
from sparsepoly.index_sets import MultiIndexSet, hyperbolic_cross
from sparsepoly.verification import (
    brute_force_hyperbolic_cross,
    collect_womp_states,
    expansion_target,
    g_lambda,
    grid_min_g_lambda,
    grid_sup_norm,
    random_test_system,
    textbook_omp,
)
from sparsepoly.womp import delta_scores, womp_path

BASE_SEED = 515
TUNED_LAMBDAS = (10.0**-4.5, 1e-4, 10.0**-3.5)


def check(label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {label}" + (f" :: {detail}" if detail else ""))
    assert passed, f"{label}: {detail}"


@pytest.fixture(scope="module")
def full_reports():
    return {
        kind: run_sweep(
            ExperimentConfig(
                basis=kind,
                m=(80,),
                lambdas=DEFAULT_LAMBDAS,
                iterations=25,
                trials=25,
                seed=BASE_SEED,
            )
        )
        for kind in basis.BASIS_KINDS
    }


@pytest.fixture(scope="module")
def long_omp_reports():
    return {
        kind: run_sweep(
            ExperimentConfig(
                basis=kind,
                m=(80,),
                lambdas=(0.0,),
                iterations=160,
                trials=25,
                include_lasso=False,
                seed=BASE_SEED,
            )
        )
        for kind in basis.BASIS_KINDS
    }


def test_criterion_1_greedy_decrease_identity_oracle():
    """Greedy-score identity vs two-stage grid minimization, 100 instances."""
    tolerance = 1e-6
    deviations = []
    for instance in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 1, instance]))
        system = random_test_system(15, 30, rng)
        w = rng.uniform(1.0, 2.0, 30)
        for lam in (0.0, 1e-4, 1e-2):
            states = collect_womp_states(system, w, lam, iterations=4)
            # the mid-run and final least-squares states of the actual run
            picked = [states[min(2, len(states) - 1)], states[-1]]
            if instance == 0:
                picked.append(states[0])
            for x, support in picked:
                minima = grid_min_g_lambda(system, w, lam, x)
                correlations = system.matrix.T @ (system.rhs - system.matrix @ x)
                scores = delta_scores(support, x[support], correlations, w, lam)
                predicted = g_lambda(x, system, w, lam) - scores
                deviations.extend(np.abs(minima - predicted))
    worst = np.max(deviations)  # NaN propagates and fails the check
    check(
        "criterion 1: one-coordinate decrease identity (grid oracle)",
        worst <= tolerance,
        f"max |grid_min - (G - delta)| = {worst:.3e} (tol {tolerance:.0e})",
    )


def test_criterion_2_omp_reduction():
    """lam=0, w=1 matches an independently written classical OMP."""
    mismatches = 0
    gaps = [0.0]
    for instance in range(50):
        rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 2, instance]))
        system = random_test_system(20, 40, rng)
        trace = womp_path(system, np.ones(40), [0.0], 8)[0]
        ref_sequence, ref_x = textbook_omp(system.matrix, system.rhs, 8)
        if trace.selected.tolist() != ref_sequence:
            mismatches += 1
            continue
        gaps.append(np.max(np.abs(trace.final_coefficients - ref_x)))
    worst_coef = np.max(gaps)  # NaN propagates and fails the check
    check(
        "criterion 2: classical-OMP reduction (50 instances)",
        mismatches == 0 and worst_coef <= 1e-10,
        f"{mismatches} sequence mismatches, max coefficient gap {worst_coef:.3e}",
    )


def test_criterion_3_hyperbolic_cross_cardinality():
    n_full = len(hyperbolic_cross(10, 10))
    agree = all(
        set(hyperbolic_cross(d, s).as_tuples()) == brute_force_hyperbolic_cross(d, s)
        for d in range(1, 5)
        for s in range(1, 9)
    )
    check(
        "criterion 3: hyperbolic-cross cardinality",
        n_full == 571 and agree,
        f"|cross(10,10)| = {n_full}, box-scan agreement for d<=4, s<=8: {agree}",
    )


def test_criterion_4_weight_closed_forms():
    rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 4]))
    deviations = []
    for _ in range(200):
        d = int(rng.integers(1, 4))
        index = rng.integers(0, 7, size=d)
        for kind in basis.BASIS_KINDS:
            closed = basis.weights(kind, MultiIndexSet(d, [index]))[0]
            deviations.append(abs(grid_sup_norm(kind, index) - closed) / closed)
    worst = np.max(deviations)  # NaN propagates and fails the check
    check(
        "criterion 4: closed-form weights vs grid maximization (200 indices)",
        worst <= 1e-6,
        f"max relative deviation {worst:.3e}",
    )


def test_criterion_5_exact_sparse_recovery():
    index_set = hyperbolic_cross(10, 10)
    n = len(index_set)
    successes = 0
    for trial in range(25):
        rng = np.random.default_rng(np.random.SeedSequence([BASE_SEED, 5, trial]))
        support = rng.choice(n, 5, replace=False)
        coefficients = np.zeros(n)
        coefficients[support] = rng.uniform(1.0, 2.0, 5) * rng.choice([-1.0, 1.0], 5)
        target = expansion_target("legendre", index_set, coefficients)
        points = basis.sample_measure(
            "legendre", 10, 80, np.random.SeedSequence([BASE_SEED, 5, trial, 1])
        )
        system = normalize_columns(build_system(points, target, "legendre", index_set))
        trace = womp_path(system, np.ones(n), [0.0], 5)[0]
        recovered = denormalize_solution(system, trace.final_coefficients)
        if set(trace.selected.tolist()) == set(support.tolist()):
            if np.max(np.abs(recovered - coefficients)) <= 1e-8:
                successes += 1
    check(
        "criterion 5: exact 5-term recovery in <=5 iterations (25 trials)",
        successes >= 23,
        f"{successes}/25 trials recovered (>= 90% required)",
    )


def test_criterion_6_error_curve_reproduction(full_reports, long_omp_reports):
    details = []
    ok = True
    for kind in basis.BASIS_KINDS:
        report = full_reports[kind]
        # the configuration yields six 25-point curves plus one lasso sweep
        assert len(report["womp"]) == 6
        assert all(c["mean_errors"].shape == (25,) for c in report["womp"])
        assert len(report["lasso"]) == 1
        curves = {c["lambda"]: c for c in report["womp"] if c["m"] == 80}
        omp_final = curves[0.0]["mean_errors"][-1]
        best_weighted = min(curves[lam]["mean_errors"][-1] for lam in TUNED_LAMBDAS)
        part_a = best_weighted <= omp_final
        details.append(f"{kind}: (a) {best_weighted:.3e} <= {omp_final:.3e}")

        part_b = True
        for lam in TUNED_LAMBDAS:
            errors = curves[lam]["mean_errors"]
            diffs = np.diff(errors)
            changing = np.nonzero(diffs != 0.0)[0]
            stall = changing[-1] + 1 if changing.size else 0
            if stall and float(diffs[:stall].max()) > 1e-9:
                part_b = False
        details.append(f"(b) monotone-to-stall {part_b}")

        (long_curve,) = [
            c for c in long_omp_reports[kind]["womp"] if (c["m"], c["lambda"]) == (80, 0.0)
        ]
        long_errors = long_curve["mean_errors"]
        part_c = long_errors[159] > float(long_errors[:80].min())
        details.append(
            f"(c) {long_errors[159]:.3e} > min {float(long_errors[:80].min()):.3e}"
        )
        ok = ok and part_a and part_b and part_c
    check("criterion 6: error-curve reproduction, both bases", ok, "; ".join(details))


def test_criterion_7_support_size_ordering(full_reports):
    details = []
    ok = True
    for kind in basis.BASIS_KINDS:
        curves = {c["lambda"]: c for c in full_reports[kind]["womp"] if c["m"] == 80}
        supports = [curves[lam]["mean_supports"][-1] for lam in sorted(DEFAULT_LAMBDAS)]
        non_increasing = all(b <= a + 1e-9 for a, b in zip(supports, supports[1:]))
        bounded = all(
            curves[lam]["mean_supports"][-1] <= 25.0
            for lam in DEFAULT_LAMBDAS
            if lam > 0
        )
        ok = ok and non_increasing and bounded
        details.append(f"{kind}: supports {np.round(supports, 1).tolist()}")
    check("criterion 7: support size non-increasing in lambda", ok, "; ".join(details))


def test_criterion_8_l1_parity(full_reports):
    details = []
    ok = True
    for kind in basis.BASIS_KINDS:
        report = full_reports[kind]
        curves = {c["lambda"]: c for c in report["womp"] if c["m"] == 80}
        best_weighted = min(
            curves[lam]["mean_errors"][-1]
            for lam in DEFAULT_LAMBDAS
            if lam > 0
        )
        (best_lasso,) = [s["best_mean_error"] for s in report["lasso"] if s["m"] == 80]
        ratio = max(best_weighted, best_lasso) / min(best_weighted, best_lasso)
        ok = ok and ratio <= 3.0
        details.append(
            f"{kind}: womp {best_weighted:.3e} vs lasso {best_lasso:.3e} (x{ratio:.2f})"
        )
    check("criterion 8: weighted-l1 parity within factor 3", ok, "; ".join(details))


def test_criterion_9_runtime_ordering(full_reports, tmp_path):
    details = []
    ok = True
    for kind in basis.BASIS_KINDS:
        report = full_reports[kind]
        curves = {c["lambda"]: c for c in report["womp"] if c["m"] == 80}
        womp_worst = max(curves[lam]["mean_seconds"] for lam in DEFAULT_LAMBDAS)
        (sweep_seconds,) = [s["mean_sweep_seconds"] for s in report["lasso"] if s["m"] == 80]
        ok = ok and womp_worst < sweep_seconds
        details.append(f"{kind}: womp {womp_worst*1e3:.1f}ms < sweep {sweep_seconds*1e3:.0f}ms")

    # runtimes.csv reports both decoders
    from sparsepoly.experiments import write_runtimes_csv

    path = tmp_path / "runtimes.csv"
    write_runtimes_csv(full_reports["legendre"], path)
    with open(path) as fh:
        decoders = {row[0] for row in csv.reader(fh)}
    ok = ok and {"womp", "wlasso_sweep"} <= decoders
    check("criterion 9: greedy faster than full lasso sweep", ok, "; ".join(details))


def test_criterion_10_run_determinism(tmp_path):
    config_path = tmp_path / "study.cfg"
    config_path.write_text(
        "basis=legendre\nd=4\ns=5\nm=30\nlambdas=0,1e-4\niterations=6\n"
        "trials=3\nreference_oversampling=5\nseed=909\nlasso_grid_size=4\n"
        "lasso_max_iterations=500\n"
    )
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out_dir in dirs:
        code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
        assert code == 0

    identical = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("errors.csv", "support.csv", "config_resolved.cfg")
    )

    # runtimes.csv carries wall-clock values; its row structure must agree
    def structure(path):
        with open(path) as fh:
            return [row[:3] for row in csv.reader(fh)]

    same_structure = structure(dirs[0] / "runtimes.csv") == structure(dirs[1] / "runtimes.csv")
    check(
        "criterion 10: byte-identical data outputs for identical config+seed",
        identical and same_structure,
        f"errors/support byte-identical: {identical}; runtimes structure equal: {same_structure}",
    )
