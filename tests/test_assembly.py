import tracemalloc

import numpy as np
import pytest

from sparsepoly import basis
from sparsepoly.assembly import (
    LinearSystem,
    build_system,
    denormalize_solution,
    normalize_columns,
)
from sparsepoly.experiments import target_log_sum
from sparsepoly.index_sets import MultiIndexSet, hyperbolic_cross
from sparsepoly.verification import expansion_target

from test_basis import eval_tensor


def random_system(m, n, seed):
    rng = np.random.default_rng(seed)
    return LinearSystem(matrix=rng.standard_normal((m, n)), rhs=rng.standard_normal(m))


def test_constant_column_has_unit_norm():
    ms = MultiIndexSet(dimension=3, indices=np.zeros((1, 3), dtype=int))
    pts = basis.sample_measure("legendre", 3, 7, 0)
    system = build_system(pts, target_log_sum(3), "legendre", ms)
    assert system.matrix.shape == (7, 1)
    np.testing.assert_allclose(system.matrix[:, 0], 1 / np.sqrt(7), atol=1e-15)
    assert np.linalg.norm(system.matrix[:, 0]) == pytest.approx(1.0, abs=1e-14)
    assert system.column_norms is None


def test_basis_element_target_gives_unit_vector_system():
    ms = hyperbolic_cross(3, 4)
    j_star = 5
    coeffs = np.zeros(len(ms))
    coeffs[j_star] = 1.0
    target = expansion_target("legendre", ms, coeffs)
    pts = basis.sample_measure("legendre", 3, 20, 4)
    system = build_system(pts, target, "legendre", ms)
    residual = system.rhs - system.matrix @ coeffs
    assert np.linalg.norm(residual) <= 1e-12


def test_full_scale_shape():
    ms = hyperbolic_cross(10, 10)
    pts = basis.sample_measure("legendre", 10, 80, 1)
    system = build_system(pts, target_log_sum(10), "legendre", ms)
    assert system.matrix.shape == (80, 571)
    assert system.rhs.shape == (80,)


def test_build_rejects_non_finite_target():
    ms = hyperbolic_cross(2, 2)
    def bad(pts):
        return np.full(pts.shape[0], np.inf)

    pts = basis.sample_measure("legendre", 2, 5, 2)
    with pytest.raises(ValueError):
        build_system(pts, bad, "legendre", ms)


def test_build_rejects_dimension_mismatch():
    ms = hyperbolic_cross(3, 2)
    pts = basis.sample_measure("legendre", 2, 5, 2)
    with pytest.raises(ValueError, match=r"^points must be \(m, 3\), got \(5, 2\)$"):
        build_system(pts, target_log_sum(3), "legendre", ms)


@pytest.mark.parametrize("points", [np.zeros(3), np.float64(0.5)], ids=["1-D", "0-D"])
def test_build_rejects_points_that_are_not_a_matrix(points):
    ms = hyperbolic_cross(3, 2)
    with pytest.raises(ValueError, match=r"^points must be \(m, 3\)"):
        build_system(points, target_log_sum(3), "legendre", ms)


def test_build_rejects_zero_points():
    ms = hyperbolic_cross(3, 2)
    with pytest.raises(ValueError, match="^need at least one sample point$"):
        build_system(np.zeros((0, 3)), target_log_sum(3), "legendre", ms)


def test_normalize_unit_columns_unchanged():
    system = LinearSystem(matrix=np.eye(4)[:, :2], rhs=np.ones(4))
    normalized = normalize_columns(system)
    np.testing.assert_array_equal(normalized.matrix, np.eye(4)[:, :2])
    np.testing.assert_array_equal(normalized.column_norms, np.ones(2))


def test_normalize_single_column():
    c = 3.7
    system = LinearSystem(matrix=np.array([[c], [0.0], [0.0]]), rhs=np.zeros(3))
    normalized = normalize_columns(system)
    np.testing.assert_allclose(normalized.matrix[:, 0], [1.0, 0.0, 0.0], atol=0)
    assert normalized.column_norms[0] == pytest.approx(c, abs=0)


def test_normalize_random_system_columns():
    system = normalize_columns(random_system(20, 40, 3))
    norms = np.linalg.norm(system.matrix, axis=0)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)


def test_normalize_rejects_zero_column():
    # 1e200 is finite but its square is not: a refusal, not an overflow warning
    for bad_value in (0.0, np.nan, 1e200):
        system = random_system(6, 3, 1)
        system.matrix[:, 1] = bad_value
        before = system.matrix.copy()
        with pytest.raises(ValueError, match="^zero or non-finite column encountered"):
            normalize_columns(system)
        # refused before any column is divided
        np.testing.assert_array_equal(system.matrix, before)
        assert system.column_norms is None


def test_normalize_rescales_the_system_in_place():
    system = random_system(9, 14, 2)
    matrix = system.matrix
    normalized = normalize_columns(system)
    assert normalized is system
    assert normalized.matrix is matrix
    assert normalized.column_norms is not None
    np.testing.assert_allclose(np.linalg.norm(matrix, axis=0), 1.0, atol=1e-15)


@pytest.mark.parametrize(
    "shape, view",
    [
        ((1, 5), np.s_[:]),
        ((7, 3), np.s_[:]),
        ((60, 571), np.s_[:]),
        ((80, 571), np.s_[:]),
        ((300, 4000), np.s_[:]),
        ((40, 30), np.s_[::2]),
        ((20, 90), np.s_[:, ::3]),
    ],
    ids=["1x5", "7x3", "60x571", "80x571", "300x4000", "row-strided", "column-strided"],
)
def test_normalize_has_the_bits_of_one_whole_matrix_reduce(shape, view):
    # on a row-major matrix, or a strided view of one, einsum adds the squares
    # up in row order, so the norms and the quotients are those of the
    # whole-matrix expressions
    matrix = random_system(*shape, 5).matrix[view]
    raw = matrix.copy()
    expected_norms = np.sqrt(np.add.reduce(raw * raw, axis=0))
    system = normalize_columns(LinearSystem(matrix=matrix, rhs=np.zeros(len(matrix))))
    np.testing.assert_array_equal(system.column_norms, expected_norms)
    np.testing.assert_array_equal(system.matrix, raw / expected_norms)


def test_normalize_fortran_order_matrix_within_rounding():
    # einsum sums a Fortran-order matrix in another order: no bits are pinned
    raw = random_system(60, 571, 6).matrix
    system = normalize_columns(LinearSystem(matrix=np.asfortranarray(raw), rhs=np.zeros(60)))
    norms = np.linalg.norm(raw, axis=0)
    np.testing.assert_allclose(system.column_norms, norms, rtol=1e-15)
    np.testing.assert_allclose(system.matrix, raw / norms, rtol=1e-15)


def test_normalize_refuses_a_matrix_it_cannot_rescale_in_place():
    read_only = random_system(6, 4, 3)
    read_only.matrix.flags.writeable = False
    integers = LinearSystem(matrix=np.arange(1, 13).reshape(3, 4), rhs=np.ones(3))
    for system in (read_only, integers):
        with pytest.raises(ValueError, match="^normalize_columns rescales in place"):
            normalize_columns(system)
        assert system.column_norms is None


def test_normalize_holds_no_second_design():
    # 400 x 4,000 doubles is 12.8 MB; einsum sums the squares without a
    # matrix-sized temporary, so the traced peak stays far below one matrix
    m, n = 400, 4000
    system = random_system(m, n, 4)
    tracemalloc.start()
    try:
        normalize_columns(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * m * n * 8


def test_normalize_refuses_a_normalized_system():
    # a second call would record unit norms, and denormalize_solution would
    # then return normalized-frame coefficients, [1, 1] here
    system = normalize_columns(LinearSystem(matrix=np.diag([3.0, 2.0]), rhs=np.ones(2)))
    message = "^system is already normalized; normalize_columns takes the raw frame$"
    with pytest.raises(ValueError, match=message):
        normalize_columns(system)
    np.testing.assert_array_equal(denormalize_solution(system, np.ones(2)), [1 / 3, 1 / 2])


def test_denormalize_identity_when_norms_one():
    system = LinearSystem(matrix=np.eye(3), rhs=np.zeros(3), column_norms=np.ones(3))
    x = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(denormalize_solution(system, x), x)


def test_denormalize_zero_is_zero():
    system = normalize_columns(random_system(8, 5, 7))
    np.testing.assert_array_equal(denormalize_solution(system, np.zeros(5)), np.zeros(5))


def test_denormalize_requires_normalized_system():
    system = random_system(8, 5, 7)
    with pytest.raises(ValueError, match="^system is not normalized; nothing to denormalize$"):
        denormalize_solution(system, np.zeros(5))


def test_denormalization_algebraic_identity():
    rng = np.random.default_rng(11)
    for seed in range(5):
        raw = random_system(15, 30, seed)
        raw_matrix = raw.matrix.copy()
        normalized = normalize_columns(raw)
        x_hat = rng.standard_normal(30)
        lhs = raw_matrix @ denormalize_solution(normalized, x_hat)
        rhs = normalized.matrix @ x_hat
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_round_trip_scaling():
    rng = np.random.default_rng(17)
    raw = random_system(12, 25, 5)
    raw_matrix = raw.matrix.copy()
    normalized = normalize_columns(raw)
    for _ in range(5):
        x = rng.standard_normal(25)
        lhs = normalized.matrix @ (normalized.column_norms * x)
        rhs = raw_matrix @ x
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


def test_expected_squared_column_norms():
    # orthonormality of the basis under its sampling measure makes the
    # pre-normalization squared column norms average to 1
    ms = hyperbolic_cross(2, 3)
    target = target_log_sum(2)
    for kind in basis.BASIS_KINDS:
        totals = np.zeros(len(ms))
        n_draws = 500
        for draw in range(n_draws):
            pts = basis.sample_measure(kind, 2, 20, 1000 + draw)
            system = build_system(pts, target, kind, ms)
            totals += np.sum(system.matrix**2, axis=0)
        np.testing.assert_allclose(totals / n_draws, 1.0, atol=0.05)


def test_column_ordering_matches_index_set():
    ms = hyperbolic_cross(2, 4)
    pts = basis.sample_measure("legendre", 2, 9, 21)
    system = build_system(pts, target_log_sum(2), "legendre", ms)
    for col, index in [(1, ms.indices[1]), (4, ms.indices[4])]:
        expected = [eval_tensor("legendre", index, p) / np.sqrt(9) for p in pts]
        np.testing.assert_allclose(system.matrix[:, col], expected, atol=1e-13)
