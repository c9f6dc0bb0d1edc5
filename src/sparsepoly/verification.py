"""Built-in oracle checks, runnable via the CLI `verify` subcommand.

Each oracle takes a route independent of the code path it validates:

* the one-coordinate objective decrease claimed by the greedy score is
  re-derived by brute-force grid minimization over the update magnitude;
* the lam = 0, unit-weight solver is compared against a plainly written
  classical matching-pursuit implementation;
* hyperbolic-cross membership, and the counted size the scale guard uses,
  are re-enumerated by scanning the full degree box;
* the design columns (`basis.evaluate_design`) are re-checked for
  orthonormality by tensor Gaussian quadrature, and the closed-form sup-norm
  weights (`basis.weights`) by dense grid maximization;
* weighted-LASSO path solutions are certified by their KKT residual, computed
  from the optimality conditions of the unscaled problem.

The module also holds what the oracles and the tests evaluate or build but no
solver runs: the greedy objective G_lam (`g_lambda`, with `weighted_l0`), the
SVD refit `restricted_least_squares`, the random test systems, and exact
expansion targets (`expansion_target`).  The solvers live in `womp` and `lasso`.
Each check calls the study's own function through its module (for instance
`womp.delta_scores`, which the greedy loop of `womp_path` looks up too), so a
change to it shows in `verify`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import basis, womp
from .assembly import LinearSystem, Target, normalize_columns
from .index_sets import MultiIndexSet, hyperbolic_cross, hyperbolic_cross_size
from .lasso import lasso_path
from .womp import SUPPORT_EPSILON, womp_path

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


def quadrature_gram(kind: str, index_set: MultiIndexSet) -> np.ndarray:
    """Gram matrix of the `basis.evaluate_design` columns under the product
    probability measure, by a tensor product of 64-node rules.

    Gauss-Legendre (weights halved) for the uniform measure, Gauss-Chebyshev
    (equal weights 1/64) for the arcsine measure; both are exact up to degree
    127 per axis, so for products of two polynomials of degree <= 63.
    """
    if kind == basis.LEGENDRE:
        nodes, wts = np.polynomial.legendre.leggauss(64)
        wts = wts / 2.0
    else:
        i = np.arange(1, 65)
        nodes = np.cos((2 * i - 1) * np.pi / 128)
        wts = np.full(64, 1.0 / 64)
    d = index_set.dimension
    points = np.stack(np.meshgrid(*[nodes] * d, indexing="ij"), axis=-1).reshape(-1, d)
    point_wts = np.prod(np.meshgrid(*[wts] * d, indexing="ij"), axis=0).ravel()
    design = basis.evaluate_design(kind, index_set, points)
    return design.T @ (point_wts[:, None] * design)


def grid_sup_norm(kind: str, index) -> float:
    """Max of |phi_j| over the tensor grid of 2001 points per axis.

    The tensor polynomial factorizes, so the maximum over the product grid
    is the product of per-axis maxima of |phi_{j_k}|; this computes exactly
    that without materializing the grid.
    """
    grid = np.linspace(-1.0, 1.0, 2001)
    value = 1.0
    for jk in np.asarray(index, dtype=np.int64):
        value *= float(np.max(np.abs(basis.eval_1d_table(kind, int(jk), grid)[jk])))
    return value


def restricted_least_squares(system: LinearSystem, support) -> np.ndarray:
    """Minimize ||A_S z - y|| over z supported on S; zero elsewhere.

    Returns the minimum-norm minimizer when A_S is rank-deficient at the
    machine-precision cutoff.  An empty support returns the zero vector.
    """
    support = sorted(int(j) for j in support)
    x = np.zeros(system.n_columns)
    if not support:
        return x
    solution, *_ = np.linalg.lstsq(system.matrix[:, support], system.rhs, rcond=None)
    x[support] = solution
    return x


def textbook_omp(matrix: np.ndarray, y: np.ndarray, n_iterations: int):
    """Classical orthogonal matching pursuit, written from the definition.

    Selects the column most correlated with the residual, then refits by
    least squares on the selected columns.  Returns the selection sequence
    and the final coefficient vector.
    """
    system = LinearSystem(matrix, y)
    selected: list[int] = []
    x = np.zeros(matrix.shape[1])
    residual = y.copy()
    for _ in range(n_iterations):
        j = int(np.argmax(np.abs(matrix.T @ residual)))
        if j not in selected:
            selected.append(j)
        x = restricted_least_squares(system, selected)
        residual = y - matrix @ x
    return selected, x


def weighted_l0(z: np.ndarray, w: np.ndarray) -> float:
    """Sum of w_j^2 over the numerical support {j : |z_j| > SUPPORT_EPSILON}."""
    z = np.asarray(z)
    w = np.asarray(w)
    mask = np.abs(z) > SUPPORT_EPSILON
    return float(np.sum(w[mask] ** 2))


def g_lambda(z: np.ndarray, system: LinearSystem, w: np.ndarray, lam: float) -> float:
    """Objective value ||y - A z||^2 + lam * weighted_l0(z)."""
    residual = system.rhs - system.matrix @ np.asarray(z, dtype=np.float64)
    value = float(residual @ residual)
    if lam > 0:
        value += lam * weighted_l0(z, w)
    return value


def grid_min_g_lambda(system: LinearSystem, w: np.ndarray, lam: float, x: np.ndarray) -> np.ndarray:
    """min_t G_lam(x + t e_j) for every j, by two-stage grid search.

    Stage one scans 2001 uniform points over [-3||y||, 3||y||]; stage two
    rescans one coarse cell on either side of the point with the smallest
    residual term at the same resolution.  The jump points t = 0 and t = -x_j
    of the support term are always included as candidates.  The objective is
    evaluated directly from its definition (explicit residuals, support sum
    thresholded at 1e-12).
    """
    matrix, y = system.matrix, system.rhs
    x = np.asarray(x, dtype=np.float64)
    n = matrix.shape[1]
    w2 = np.asarray(w, dtype=np.float64) ** 2
    residual = y - matrix @ x
    active = np.abs(x) > 1e-12
    support_sum = float(np.sum(w2[active]))
    # weighted-l0 of x with coordinate j's own contribution removed
    base = support_sum - w2 * active

    def evaluate(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # ts is (n, T), candidate updates per coordinate; returns (fit, objective)
        shifted = residual[:, None, None] - matrix[:, :, None] * ts[None, :, :]
        fit = np.sum(shifted**2, axis=0)
        updated = x[:, None] + ts
        return fit, fit + lam * (base[:, None] + w2[:, None] * (np.abs(updated) > 1e-12))

    half_width = 3.0 * float(np.linalg.norm(y))
    if half_width == 0.0:
        half_width = 1.0
    coarse = np.linspace(-half_width, half_width, 2001)
    specials = np.stack([np.zeros(n), -x], axis=1)

    ts1 = np.concatenate([np.broadcast_to(coarse, (n, coarse.size)), specials], axis=1)
    fit1, values1 = evaluate(ts1)
    # off the jump points the support term is constant, so rescan around the
    # grid point with the smallest residual term: a jump point that wins stage
    # one (t = 0 is on the grid) is exact already and would hide a smaller
    # decrease off it
    best1 = coarse[np.argmin(fit1[:, : coarse.size], axis=1)]

    cell = coarse[1] - coarse[0]
    fine = np.linspace(-cell, cell, 2001)
    ts2 = np.concatenate([best1[:, None] + fine[None, :], specials], axis=1)
    _, values2 = evaluate(ts2)
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
    return normalize_columns(LinearSystem(matrix=matrix, rhs=y))


def expansion_target(kind: str, index_set: MultiIndexSet, coefficients: np.ndarray) -> Target:
    """A target that is exactly a finite combination of basis polynomials,
    sum_j c_j phi_j, evaluated through `basis.evaluate_design`."""
    coefficients = np.asarray(coefficients, dtype=np.float64).copy()
    if coefficients.shape != (len(index_set),):
        raise ValueError("coefficient length must match the index set")

    def expansion(points: np.ndarray) -> np.ndarray:
        return basis.evaluate_design(kind, index_set, points) @ coefficients

    return expansion


def lasso_kkt_residual(
    system: LinearSystem, w: np.ndarray, alphas, coefficients: np.ndarray
) -> np.ndarray:
    """Worst violation of the weighted-LASSO optimality conditions at each
    row of a (G, N) coefficient block, for the alpha of the same position.

    For min ||A z - y||^2 + alpha sum_j w_j |z_j| and g = 2 A^T (y - A z),
    z is optimal iff g_j = alpha w_j sign(z_j) wherever z_j != 0 and
    |g_j| <= alpha w_j elsewhere.  Returns, per row, max_j v_j / (w_j alpha_max),
    with v_j the violation of coordinate j's condition and alpha_max =
    2 max_j |(A^T y)_j| / w_j the threshold above which z = 0 is optimal.
    One pair of matrix products serves the whole block, and A^T y is formed
    once.
    """
    matrix, y = system.matrix, system.rhs
    w = np.asarray(w, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)[:, None]
    z = np.asarray(coefficients, dtype=np.float64)
    g = 2.0 * (matrix.T @ (y[:, None] - matrix @ z.T)).T
    violation = np.where(
        z != 0,
        np.abs(g - alphas * w * np.sign(z)),
        np.maximum(np.abs(g) - alphas * w, 0.0),
    )
    alpha_max = 2.0 * float(np.max(np.abs(matrix.T @ y) / w))
    return np.max(violation / w, axis=1) / (alpha_max if alpha_max > 0 else 1.0)


def collect_womp_states(system: LinearSystem, w: np.ndarray, lam: float, iterations: int):
    """(coefficients, support) states from a solver run, initial state included.

    Every state satisfies the restricted least-squares optimality the greedy
    score formula assumes.
    """
    trace = womp_path(system, w, [lam], iterations)[0]
    return [(trace.coefficients_at(k), trace.selected[:k]) for k in range(len(trace) + 1)]


def _delta_identity_cases(seed: int):
    rng = np.random.default_rng(seed)
    for instance in range(5):
        system = random_test_system(15, 30, rng)
        w = rng.uniform(1.0, 2.0, size=30)
        runs = [(lam, collect_womp_states(system, w, lam, 4)) for lam in DELTA_CHECK_LAMBDAS]
        for state in range(max(len(states) for _, states in runs)):
            # the lambdas' states after this step, scored as one block as womp_path scores them
            rows = [(lam, *states[state]) for lam, states in runs if state < len(states)]
            lams, xs, supports = (np.array(column) for column in zip(*rows))
            correlations = (system.rhs - xs @ system.matrix.T) @ system.matrix
            values = np.take_along_axis(xs, supports, axis=1)
            scores = womp.delta_scores(supports, values, correlations, w, lams)
            for (lam, x, _), row in zip(rows, scores):
                predicted = g_lambda(x, system, w, lam) - row
                deviation = np.max(np.abs(grid_min_g_lambda(system, w, lam, x) - predicted))
                yield float(deviation), (
                    f"instance {instance} (seed {seed}), lambda={lam}, state {state}"
                )


def _omp_cases(seed: int):
    rng = np.random.default_rng(seed)
    for instance in range(10):
        system = random_test_system(20, 40, rng)
        trace = womp_path(system, np.ones(40), [0.0], 6)[0]
        ref_sequence, ref_x = textbook_omp(system.matrix, system.rhs, 6)
        if trace.selected.tolist() != ref_sequence:
            yield np.inf, f"instance {instance} (seed {seed}): index sequences differ"
        else:
            gap = np.max(np.abs(trace.final_coefficients - ref_x))
            yield float(gap), f"instance {instance} (seed {seed}): coefficients"


def _cross_cases():
    for d in range(1, 5):
        for s in range(1, 9):
            box = brute_force_hyperbolic_cross(d, s)
            same = set(hyperbolic_cross(d, s).as_tuples()) == box
            yield (0.0 if same else np.inf), f"d={d}, s={s}: box scan"
            yield abs(hyperbolic_cross_size(d, s) - len(box)), f"d={d}, s={s}: count"
    yield abs(len(hyperbolic_cross(10, 10)) - 571), "|cross(10, 10)| against 571"


def _orthonormality_cases():
    # every univariate degree <= 12 and their products, N = 37
    index_set = hyperbolic_cross(2, 13)
    for kind in basis.BASIS_KINDS:
        gram = quadrature_gram(kind, index_set)
        yield float(np.max(np.abs(gram - np.eye(len(index_set))))), f"{kind} Gram"


def _weight_cases(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        d = int(rng.integers(1, 4))
        index = rng.integers(0, 7, size=d)
        for kind in basis.BASIS_KINDS:
            closed = basis.weights(kind, MultiIndexSet(d, [index]))[0]
            yield abs(grid_sup_norm(kind, index) - closed) / closed, (
                f"{kind} index {index.tolist()} (seed {seed})"
            )


def _lasso_kkt_cases(seed: int):
    rng = np.random.default_rng(seed)
    for instance in range(5):
        system = random_test_system(20, 50, rng)
        w = rng.uniform(1.0, 2.0, size=50)
        alpha_max = 2.0 * float(np.max(np.abs(system.matrix.T @ system.rhs) / w))
        alphas = np.geomspace(1e-8 * alpha_max, alpha_max, 12)
        path = lasso_path(system, w, alphas, max_iterations=500)
        residuals = lasso_kkt_residual(system, w, alphas, path.coefficients)
        for alpha, residual, converged in zip(alphas, residuals, path.converged):
            location = f"instance {instance} (seed {seed}), alpha={alpha:.3e}"
            if converged:
                yield float(residual), location
            else:
                yield np.inf, location + ": path did not reach it"


def _decide(name: str, cases, tolerance: float, covered: str) -> CheckResult:
    """FAIL at the first case whose deviation is not <= tolerance (NaN
    included); otherwise PASS with the worst deviation."""
    worst = 0.0
    for deviation, location in cases:
        if not deviation <= tolerance:
            return CheckResult(
                name, False, f"deviation {deviation:.3e} not <= {tolerance:.1e} at {location}"
            )
        worst = max(worst, deviation)
    return CheckResult(name, True, f"max deviation {worst:.3e} <= {tolerance:.1e} over {covered}")


def run_checks(seed: int) -> list[CheckResult]:
    """The oracle suite behind `verify`: one row (name, cases, tolerance, what
    a pass covered) per check, every row decided by the same rule, `_decide`."""
    table = [
        ("greedy_delta_identity", _delta_identity_cases(seed), 1e-6,
         "5 instances x 3 lambdas, each step's states scored as one block"),
        ("omp_reduction", _omp_cases(seed + 1), 1e-10,
         "10 instances against the classical implementation"),
        ("hyperbolic_cross_counts", _cross_cases(), 0.0,
         "box scans of sets and counts for d<=4, s<=8 and |cross(10,10)| = 571"),
        ("orthonormality_quadrature", _orthonormality_cases(), 1e-10,
         "design columns of hyperbolic_cross(2, 13), N=37, both bases"),
        ("weight_closed_forms", _weight_cases(seed + 2), 1e-6, "50 indices, both bases"),
        ("weighted_lasso_kkt", _lasso_kkt_cases(seed + 3), LASSO_KKT_TOLERANCE,
         "5 paths of 12 alphas"),
    ]
    return [_decide(*row) for row in table]
