import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis
from sparsepoly.cli import main
from sparsepoly.experiments import (
    ExperimentConfig,
    expansion_target,
    reference_coefficients,
    relative_error,
    run_sweep,
    target_log_sum,
    write_outputs,
)
from sparsepoly.index_sets import hyperbolic_cross
from sparsepoly.verification import LASSO_KKT_TOLERANCE
from sparsepoly.womp import (
    STOP_IN_SUPPORT_RESELECT,
    STOP_MAX_ITERATIONS,
    STOP_RESIDUAL_FLOOR,
    STOP_ZERO_DELTA,
)

TESTS = Path(__file__).parent

SMALL = dict(
    basis_kind="legendre",
    dimension=3,
    cross_order=4,
    sample_counts=(25,),
    lambdas=(0.0, 1e-4),
    iterations=4,
    trials=2,
    reference_oversampling=6,
    base_seed=99,
    lasso_grid_size=4,
    lasso_max_iterations=400,
)


# --- targets ----------------------------------------------------------------


def test_log_sum_at_center():
    f = target_log_sum(10)
    value = f(np.zeros((1, 10)))[0]
    assert value == pytest.approx(np.log(11.0), abs=1e-12)


def test_log_sum_boundary_limit():
    f = target_log_sum(10)
    corner = np.full((1, 10), -1.0 + 1e-13)
    assert f(corner)[0] == pytest.approx(0.0, abs=1e-11)


def test_log_sum_at_half():
    f = target_log_sum(10)
    value = f(np.full((1, 10), 0.5))[0]
    assert value == pytest.approx(np.log(16.0), abs=1e-12)


def test_log_sum_rejects_bad_dimension():
    with pytest.raises(ValueError):
        target_log_sum(0)


# --- reference fit ----------------------------------------------------------


def test_reference_recovers_exact_basis_element():
    ms = hyperbolic_cross(3, 4)
    coeffs = np.zeros(len(ms))
    coeffs[7] = 1.0
    target = expansion_target("legendre", ms, coeffs)
    ref = reference_coefficients(target, "legendre", ms, oversampling=5, seed=3)
    assert ref[7] == pytest.approx(1.0, abs=1e-8)
    others = np.delete(ref, 7)
    assert np.max(np.abs(others)) <= 1e-8


def test_reference_consistency_as_oversampling_doubles():
    # Monte Carlo least-squares consistency: the fit approaches a
    # high-oversampling truth as the sample budget doubles
    ms = hyperbolic_cross(3, 4)
    target = target_log_sum(3)
    truth = reference_coefficients(target, "legendre", ms, oversampling=400, seed=0)
    errors = []
    for oversampling in (5, 10, 20):
        distances = [
            np.linalg.norm(
                reference_coefficients(target, "legendre", ms, oversampling, seed)
                - truth
            )
            for seed in (11, 12, 13, 14)
        ]
        errors.append(np.mean(distances))
    assert errors[0] > errors[1] > errors[2]


@pytest.mark.parametrize("kind", basis.BASIS_KINDS)
@pytest.mark.parametrize("missing", [1, 9])
def test_rank_deficient_reference_raises(monkeypatch, kind, missing):
    # A draw of only N - missing distinct points, repeated to the requested
    # size, gives a design of rank below N whatever the oversampling.  With
    # this seed, one missing point leaves a Cholesky pivot at rounding level
    # and nine make the factorization fail outright.
    ms = hyperbolic_cross(3, 4)
    draw = basis.sample_measure

    def repeated_draw(basis_kind, d, n, seed):
        return np.resize(draw(basis_kind, d, len(ms) - missing, seed), (n, d))

    monkeypatch.setattr(basis, "sample_measure", repeated_draw)
    with pytest.raises(ValueError, match="rank-deficient"):
        reference_coefficients(target_log_sum(3), kind, ms, oversampling=6, seed=0)


def test_reference_rejects_bad_oversampling():
    ms = hyperbolic_cross(2, 2)
    with pytest.raises(ValueError):
        reference_coefficients(target_log_sum(2), "legendre", ms, 0, seed=1)


# --- error metric -----------------------------------------------------------


def test_relative_error_examples():
    x_ref = np.array([3.0, -4.0])
    assert relative_error(x_ref, x_ref) == 0.0
    assert relative_error(np.zeros(2), x_ref) == 1.0
    assert relative_error(2 * x_ref, x_ref) == pytest.approx(1.0, abs=1e-15)
    assert isinstance(relative_error(np.zeros(2), x_ref), float)
    # a 2-D input is scored row by row, each row exactly as on its own
    rows = np.random.default_rng(0).standard_normal((5, 2))
    errors = relative_error(np.vstack([rows, x_ref, np.zeros(2)]), x_ref)
    assert errors.shape == (7,)
    assert errors.tolist() == [relative_error(row, x_ref) for row in rows] + [0.0, 1.0]


def test_relative_error_zero_reference():
    with pytest.raises(ValueError):
        relative_error(np.ones(3), np.zeros(3))


def test_zero_iterate_error_is_one():
    # the k = 0 iterate of any run is the zero vector
    ms = hyperbolic_cross(3, 4)
    ref = reference_coefficients(target_log_sum(3), "legendre", ms, 5, seed=5)
    assert relative_error(np.zeros(len(ms)), ref) == 1.0


# --- config validation ------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(lambdas=())
    with pytest.raises(ValueError):
        ExperimentConfig(lambdas=(-1e-3,))
    with pytest.raises(ValueError):
        ExperimentConfig(sample_counts=())
    with pytest.raises(ValueError):
        ExperimentConfig(basis_kind="fourier")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(lasso_max_iterations=0)


# --- sweep ------------------------------------------------------------------


def test_minimal_sweep_shapes():
    config = ExperimentConfig(
        basis_kind="legendre",
        dimension=2,
        cross_order=3,
        sample_counts=(10,),
        lambdas=(0.0,),
        iterations=1,
        trials=1,
        reference_oversampling=4,
        base_seed=1,
        include_lasso=False,
    )
    report = run_sweep(config)
    assert len(report.womp_curves) == 1
    curve = report.womp_curves[0]
    assert curve.mean_errors.shape == (1,)
    assert curve.mean_supports.shape == (1,)
    assert report.lasso_sweeps == []
    assert report.n_basis_functions == 5


def test_sweep_is_deterministic():
    config = ExperimentConfig(**SMALL)
    a = run_sweep(config)
    b = run_sweep(config)
    for ca, cb in zip(a.womp_curves, b.womp_curves):
        np.testing.assert_array_equal(ca.mean_errors, cb.mean_errors)
        np.testing.assert_array_equal(ca.mean_supports, cb.mean_supports)
    for sa, sb in zip(a.lasso_sweeps, b.lasso_sweeps):
        np.testing.assert_array_equal(sa.mean_errors, sb.mean_errors)
        assert sa.best_position == sb.best_position


@settings(max_examples=4, deadline=None)
@given(
    kind=st.sampled_from(basis.BASIS_KINDS),
    d=st.integers(1, 3),
    m=st.integers(6, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_repeats_give_equal_curves(kind, d, m, seed):
    config = ExperimentConfig(
        basis_kind=kind,
        dimension=d,
        cross_order=4,
        sample_counts=(m,),
        lambdas=(0.0, 1e-4),
        iterations=3,
        trials=2,
        reference_oversampling=4,
        base_seed=seed,
        lasso_grid_size=3,
        lasso_max_iterations=100,
    )
    a = run_sweep(config)
    b = run_sweep(config)
    for ca, cb in zip(a.womp_curves, b.womp_curves, strict=True):
        np.testing.assert_array_equal(ca.mean_errors, cb.mean_errors)
        np.testing.assert_array_equal(ca.std_errors, cb.std_errors)
        np.testing.assert_array_equal(ca.mean_supports, cb.mean_supports)
    for sa, sb in zip(a.lasso_sweeps, b.lasso_sweeps, strict=True):
        np.testing.assert_array_equal(sa.mean_errors, sb.mean_errors)
        np.testing.assert_array_equal(sa.std_errors, sb.std_errors)
        np.testing.assert_array_equal(sa.converged_counts, sb.converged_counts)


def test_sweep_report_lookup_and_json():
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    curve = report.womp_curve(25, 1e-4)
    assert curve.lam == 1e-4
    with pytest.raises(KeyError):
        report.womp_curve(25, 0.123)
    sweep = report.lasso_sweep(25)
    assert sweep.mean_errors.shape == (4,)
    assert sweep.best_mean_error == sweep.mean_errors[sweep.best_position]

    payload = report.to_json_dict()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["n_basis_functions"] == report.n_basis_functions
    assert len(back["womp"]) == 2
    assert back["config"]["trials"] == 2
    # every grid alpha carries its worst KKT certificate over the trials
    assert len(back["lasso"][0]["max_kkt_residual"]) == 4
    assert max(back["lasso"][0]["max_kkt_residual"]) <= LASSO_KKT_TOLERANCE


def test_errors_decrease_from_one():
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    for curve in report.womp_curves:
        assert curve.mean_errors[0] < 1.0
        assert np.all(curve.mean_errors >= 0.0)


def test_csv_outputs(tmp_path):
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    written = write_outputs(report, tmp_path)
    names = {p.name for p in written}
    assert names == {"errors.csv", "support.csv", "runtimes.csv", "report.json"}

    with open(tmp_path / "errors.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["decoder", "lambda", "m", "k", "mean_error", "std_error"]
    womp_rows = [r for r in rows[1:] if r[0] == "womp"]
    lasso_rows = [r for r in rows[1:] if r[0] == "wlasso"]
    assert len(womp_rows) == 2 * config.iterations  # two lambdas, k = 1..K
    assert [int(r[3]) for r in womp_rows[: config.iterations]] == [1, 2, 3, 4]
    assert len(lasso_rows) == 1
    assert int(lasso_rows[0][3]) == 0

    with open(tmp_path / "runtimes.csv") as fh:
        rows = list(csv.reader(fh))
    decoders = {r[0] for r in rows[1:]}
    assert decoders == {"womp", "wlasso_sweep", "normalize"}


def test_csv_rows_per_sample_count(tmp_path):
    config = ExperimentConfig(
        basis_kind="legendre",
        dimension=2,
        cross_order=3,
        sample_counts=(8, 12),
        lambdas=(0.0, 1e-4, 1e-3),
        iterations=3,
        trials=1,
        reference_oversampling=4,
        base_seed=2,
        include_lasso=False,
    )
    report = run_sweep(config)
    write_outputs(report, tmp_path)
    with open(tmp_path / "errors.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    for m in (8, 12):
        m_rows = [r for r in rows if int(r[2]) == m]
        # one row per (lambda, k) pair
        assert len(m_rows) == 3 * 3
        for lam in ("0.0", "0.0001", "0.001"):
            ks = [int(r[3]) for r in m_rows if r[1] == lam]
            assert ks == [1, 2, 3]


def test_csv_determinism(tmp_path):
    config = ExperimentConfig(**SMALL)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    write_outputs(run_sweep(config), dir_a)
    write_outputs(run_sweep(config), dir_b)
    for name in ("errors.csv", "support.csv"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_quick_womp_rows_match_recorded(tmp_path):
    """configs/quick.cfg's errors.csv and support.csv, womp and wlasso rows
    alike, are pinned byte for byte in tests/data; changing them is a
    numerical change that must be named."""
    config = TESTS.parent / "configs" / "quick.cfg"
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    for name in ("errors", "support"):
        recorded = (TESTS / "data" / f"quick_{name}.csv").read_bytes()
        assert (tmp_path / f"{name}.csv").read_bytes() == recorded


def test_womp_stop_reasons_cover_every_trial():
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    reasons = {STOP_MAX_ITERATIONS, STOP_ZERO_DELTA, STOP_IN_SUPPORT_RESELECT, STOP_RESIDUAL_FLOOR}
    for curve, entry in zip(report.womp_curves, report.to_json_dict()["womp"], strict=True):
        assert set(curve.stop_reasons) <= reasons
        assert sum(curve.stop_reasons.values()) == config.trials
        assert 1.0 <= curve.mean_iterations <= config.iterations
        assert entry["stop_reasons"] == curve.stop_reasons
        assert entry["mean_iterations"] == curve.mean_iterations
