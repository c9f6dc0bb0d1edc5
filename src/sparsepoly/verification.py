"""Built-in oracle checks, runnable via the CLI `verify` subcommand.

Each oracle takes a route independent of the code path it validates:

* the one-coordinate objective decrease claimed by the greedy score is
  re-derived by brute-force grid minimization over the update magnitude;
* the lam = 0, unit-weight solver is compared against a plainly written
  classical matching-pursuit implementation;
* hyperbolic-cross membership is re-enumerated by scanning the full degree
  box;
* univariate orthonormality is re-checked by Gaussian quadrature, and
  closed-form sup-norm weights by dense grid maximization;
* weighted-LASSO path solutions are certified by their KKT residual, computed
  from the optimality conditions of the unscaled problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import basis
from .assembly import LinearSystem, normalize_columns
from .lasso import lasso_path
from .womp import WompConfig, compute_delta, g_lambda, womp_solve

DELTA_CHECK_LAMBDAS = (0.0, 1e-4, 1e-2)

# largest KKT residual (relative to the zero-solution threshold) accepted for
# an exact weighted-LASSO solution
LASSO_KKT_TOLERANCE = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def brute_force_hyperbolic_cross(d: int, s: int) -> set[tuple[int, ...]]:
    """Reference cross by scanning the full box of entries 0..s-1."""
    out = set()
    for j in itertools.product(range(s), repeat=d):
        prod = 1
        for jk in j:
            prod *= jk + 1
        if prod <= s:
            out.add(j)
    return out


def quadrature_gram(kind: str, max_degree: int, n_nodes: int = 64) -> np.ndarray:
    """Gram matrix of the univariate basis under its probability measure.

    Gauss-Legendre rule (weights halved) for the uniform measure,
    Gauss-Chebyshev rule (equal weights 1/n) for the arcsine measure; both
    are exact for the polynomial integrands at these degrees.
    """
    if kind == basis.LEGENDRE:
        nodes, wts = np.polynomial.legendre.leggauss(n_nodes)
        wts = wts / 2.0
    else:
        i = np.arange(1, n_nodes + 1)
        nodes = np.cos((2 * i - 1) * np.pi / (2 * n_nodes))
        wts = np.full(n_nodes, 1.0 / n_nodes)
    table = basis.eval_1d_table(kind, max_degree, nodes)
    return table.T @ (wts[:, None] * table)


def grid_sup_norm(kind: str, index, points_per_axis: int = 2001) -> float:
    """Max of |phi_j| over the tensor grid with the given per-axis resolution.

    The tensor polynomial factorizes, so the maximum over the product grid
    is the product of per-axis maxima of |phi_{j_k}|; this computes exactly
    that without materializing the grid.
    """
    grid = np.linspace(-1.0, 1.0, points_per_axis)
    value = 1.0
    for jk in np.asarray(index, dtype=np.int64):
        value *= float(np.max(np.abs(basis.eval_1d(kind, int(jk), grid))))
    return value


def textbook_omp(matrix: np.ndarray, y: np.ndarray, n_iterations: int):
    """Classical orthogonal matching pursuit, written from the definition.

    Selects the column most correlated with the residual, then refits by
    least squares on the selected columns.  Returns the selection sequence
    and the final coefficient vector.
    """
    n = matrix.shape[1]
    selected: list[int] = []
    x = np.zeros(n)
    residual = y.copy()
    for _ in range(n_iterations):
        j = int(np.argmax(np.abs(matrix.T @ residual)))
        if j not in selected:
            selected.append(j)
        columns = sorted(selected)
        coef, *_ = np.linalg.lstsq(matrix[:, columns], y, rcond=None)
        x = np.zeros(n)
        x[columns] = coef
        residual = y - matrix[:, columns] @ coef
    return selected, x


def grid_min_g_lambda(
    system: LinearSystem,
    w: np.ndarray,
    lam: float,
    x: np.ndarray,
    eps: float = 1e-12,
    grid_points: int = 2001,
    span: float = 3.0,
) -> np.ndarray:
    """min_t G_lam(x + t e_j) for every j, by two-stage grid search.

    Stage one scans a uniform grid over [-span*||y||, span*||y||]; stage two
    rescans one coarse cell around the best candidate.  The jump points
    t = 0 and t = -x_j of the support term are always included as
    candidates.  The objective is evaluated directly from its definition
    (explicit residuals, thresholded support sum).
    """
    matrix, y = system.matrix, system.rhs
    x = np.asarray(x, dtype=np.float64)
    n = matrix.shape[1]
    w2 = np.asarray(w, dtype=np.float64) ** 2
    residual = y - matrix @ x
    active = np.abs(x) > eps
    support_sum = float(np.sum(w2[active]))
    # weighted-l0 of x with coordinate j's own contribution removed
    base = support_sum - w2 * active

    def evaluate(ts: np.ndarray) -> np.ndarray:
        # ts has shape (n, T): candidate updates per coordinate
        shifted = residual[:, None, None] - matrix[:, :, None] * ts[None, :, :]
        fit = np.sum(shifted**2, axis=0)
        updated = x[:, None] + ts
        return fit + lam * (base[:, None] + w2[:, None] * (np.abs(updated) > eps))

    half_width = span * float(np.linalg.norm(y))
    if half_width == 0.0:
        half_width = 1.0
    coarse = np.linspace(-half_width, half_width, grid_points)
    specials = np.stack([np.zeros(n), -x], axis=1)

    ts1 = np.concatenate([np.broadcast_to(coarse, (n, grid_points)), specials], axis=1)
    values1 = evaluate(ts1)
    best1 = ts1[np.arange(n), np.argmin(values1, axis=1)]

    cell = coarse[1] - coarse[0]
    fine = np.linspace(-cell, cell, grid_points)
    ts2 = np.concatenate([best1[:, None] + fine[None, :], specials], axis=1)
    values2 = evaluate(ts2)
    return np.minimum(np.min(values1, axis=1), np.min(values2, axis=1))


def random_test_system(m: int, n: int, rng: np.random.Generator) -> LinearSystem:
    """Random dense system with normalized Gaussian columns and a noisy
    sparse-signal right-hand side."""
    matrix = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=max(2, n // 8), replace=False)
    x_true[support] = rng.uniform(1.0, 2.0, size=support.size) * rng.choice(
        [-1.0, 1.0], size=support.size
    )
    y = matrix @ x_true + 0.05 * rng.standard_normal(m)
    raw = LinearSystem(
        matrix=matrix, rhs=y, column_norms=np.ones(n), normalized=False
    )
    return normalize_columns(raw)


def lasso_kkt_residual(system: LinearSystem, w: np.ndarray, alpha: float, z: np.ndarray) -> float:
    """Worst violation of the weighted-LASSO optimality conditions at z.

    For min ||A z - y||^2 + alpha sum_j w_j |z_j| and g = 2 A^T (y - A z),
    z is optimal iff g_j = alpha w_j sign(z_j) wherever z_j != 0 and
    |g_j| <= alpha w_j elsewhere.  Returns max_j v_j / (w_j alpha_max), with
    v_j the violation of coordinate j's condition and alpha_max =
    2 max_j |(A^T y)_j| / w_j the threshold above which z = 0 is optimal.
    """
    matrix, y = system.matrix, system.rhs
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    g = 2.0 * matrix.T @ (y - matrix @ z)
    violation = np.where(
        z != 0,
        np.abs(g - alpha * w * np.sign(z)),
        np.maximum(np.abs(g) - alpha * w, 0.0),
    )
    alpha_max = 2.0 * float(np.max(np.abs(matrix.T @ y) / w))
    return float(np.max(violation / w)) / (alpha_max if alpha_max > 0 else 1.0)


def collect_womp_states(system: LinearSystem, w: np.ndarray, lam: float, iterations: int):
    """(coefficients, support) states from a solver run, initial state included.

    Every state satisfies the restricted least-squares optimality the greedy
    score formula assumes.
    """
    trace = womp_solve(system, w, WompConfig(lam=lam, max_iterations=iterations))
    states = [(np.zeros(system.n_columns), ())]
    states += [(rec.coefficients, rec.support) for rec in trace.records]
    return states


def max_delta_identity_deviation(
    system: LinearSystem,
    w: np.ndarray,
    lam: float,
    states,
    eps: float = 1e-12,
) -> float:
    """Worst |grid_min - (G - delta)| over the given states and all coordinates."""
    worst = 0.0
    for x, support in states:
        grid_minima = grid_min_g_lambda(system, w, lam, x, eps=eps)
        g_value = g_lambda(x, system, w, lam, eps)
        for j in range(system.n_columns):
            predicted = g_value - compute_delta(x, support, j, system, w, lam, eps)
            worst = max(worst, abs(float(grid_minima[j]) - predicted))
    return worst


def check_delta_identity(
    seed: int,
    n_instances: int = 5,
    m: int = 15,
    n: int = 30,
    iterations: int = 4,
    tol: float = 1e-6,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for instance in range(n_instances):
        system = random_test_system(m, n, rng)
        w = rng.uniform(1.0, 2.0, size=n)
        for lam in DELTA_CHECK_LAMBDAS:
            states = collect_womp_states(system, w, lam, iterations)
            deviation = max_delta_identity_deviation(system, w, lam, states)
            worst = max(worst, deviation)
            if deviation > tol:
                return CheckResult(
                    name="greedy_delta_identity",
                    passed=False,
                    detail=(
                        f"deviation {deviation:.3e} > {tol:.1e} at instance "
                        f"{instance} (seed {seed}), lambda={lam}"
                    ),
                )
    return CheckResult(
        name="greedy_delta_identity",
        passed=True,
        detail=f"max deviation {worst:.3e} over {n_instances} instances",
    )


def check_omp_reduction(
    seed: int,
    n_instances: int = 10,
    m: int = 20,
    n: int = 40,
    iterations: int = 6,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    for instance in range(n_instances):
        system = random_test_system(m, n, rng)
        trace = womp_solve(
            system, np.ones(n), WompConfig(lam=0.0, max_iterations=iterations)
        )
        sequence = [rec.selected_index for rec in trace.records]
        ref_sequence, ref_x = textbook_omp(system.matrix, system.rhs, iterations)
        if sequence != ref_sequence:
            return CheckResult(
                name="omp_reduction",
                passed=False,
                detail=f"index sequences differ at instance {instance} (seed {seed})",
            )
        if not np.allclose(trace.final_coefficients, ref_x, atol=1e-10, rtol=0.0):
            return CheckResult(
                name="omp_reduction",
                passed=False,
                detail=f"coefficients differ at instance {instance} (seed {seed})",
            )
    return CheckResult(
        name="omp_reduction",
        passed=True,
        detail=f"{n_instances} instances match the classical implementation",
    )


def check_cross_counts() -> CheckResult:
    from .index_sets import hyperbolic_cross

    for d in range(1, 5):
        for s in range(1, 9):
            ours = set(hyperbolic_cross(d, s).as_tuples())
            reference = brute_force_hyperbolic_cross(d, s)
            if ours != reference:
                return CheckResult(
                    name="hyperbolic_cross_counts",
                    passed=False,
                    detail=f"mismatch against box scan at d={d}, s={s}",
                )
    n_full = len(hyperbolic_cross(10, 10))
    if n_full != 571:
        return CheckResult(
            name="hyperbolic_cross_counts",
            passed=False,
            detail=f"cross(10, 10) has {n_full} elements, expected 571",
        )
    return CheckResult(
        name="hyperbolic_cross_counts",
        passed=True,
        detail="box-scan agreement for d<=4, s<=8; |cross(10,10)| = 571",
    )


def check_orthonormality(max_degree: int = 12, tol: float = 1e-10) -> CheckResult:
    worst = 0.0
    for kind in basis.BASIS_KINDS:
        gram = quadrature_gram(kind, max_degree)
        worst = max(worst, float(np.max(np.abs(gram - np.eye(max_degree + 1)))))
    if worst > tol:
        return CheckResult(
            name="orthonormality_quadrature",
            passed=False,
            detail=f"Gram deviation {worst:.3e} > {tol:.1e}",
        )
    return CheckResult(
        name="orthonormality_quadrature",
        passed=True,
        detail=f"Gram deviation {worst:.3e} for degrees <= {max_degree}, both bases",
    )


def check_weight_closed_forms(seed: int, n_indices: int = 50, tol: float = 1e-6) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_indices):
        d = int(rng.integers(1, 4))
        index = rng.integers(0, 7, size=d)
        for kind in basis.BASIS_KINDS:
            closed = basis.weight(kind, index)
            gridded = grid_sup_norm(kind, index)
            worst = max(worst, abs(gridded - closed) / closed)
    if worst > tol:
        return CheckResult(
            name="weight_closed_forms",
            passed=False,
            detail=f"relative deviation {worst:.3e} > {tol:.1e} (seed {seed})",
        )
    return CheckResult(
        name="weight_closed_forms",
        passed=True,
        detail=f"max relative deviation {worst:.3e} over {n_indices} indices",
    )


def check_lasso_kkt(
    seed: int,
    n_instances: int = 5,
    m: int = 20,
    n: int = 50,
    grid_size: int = 12,
    tol: float = LASSO_KKT_TOLERANCE,
) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for instance in range(n_instances):
        system = random_test_system(m, n, rng)
        w = rng.uniform(1.0, 2.0, size=n)
        alpha_max = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
        alphas = np.geomspace(1e-8 * alpha_max, alpha_max, grid_size)
        results = lasso_path(system, w, alphas, max_iterations=10 * n)
        for alpha, result in zip(alphas, results):
            residual = lasso_kkt_residual(system, w, alpha, result.coefficients)
            worst = max(worst, residual)
            if not result.converged or residual > tol:
                return CheckResult(
                    name="weighted_lasso_kkt",
                    passed=False,
                    detail=(
                        f"KKT residual {residual:.3e} (tolerance {tol:.1e}, reached "
                        f"{result.converged}) at instance {instance} (seed {seed}), "
                        f"alpha={alpha:.3e}"
                    ),
                )
    return CheckResult(
        name="weighted_lasso_kkt",
        passed=True,
        detail=f"max KKT residual {worst:.3e} over {n_instances} paths of {grid_size} alphas",
    )


def run_checks(seed: int = 0) -> list[CheckResult]:
    """The oracle suite behind `verify`."""
    return [
        check_delta_identity(seed),
        check_omp_reduction(seed + 1),
        check_cross_counts(),
        check_orthonormality(),
        check_weight_closed_forms(seed + 2),
        check_lasso_kkt(seed + 3),
    ]
