import csv
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsepoly import basis, experiments
from sparsepoly.assembly import build_system
from sparsepoly.cli import main, parse_config
from sparsepoly.experiments import (
    ExperimentConfig,
    _json_value,
    reference_coefficients,
    relative_error,
    run_sweep,
    target_log_sum,
    write_outputs,
)
from sparsepoly.index_sets import hyperbolic_cross
from sparsepoly.verification import LASSO_KKT_TOLERANCE, expansion_target
from sparsepoly.womp import STOP_REASONS

TESTS = Path(__file__).parent

SMALL = dict(
    basis="legendre",
    d=3,
    s=4,
    m=(25,),
    lambdas=(0.0, 1e-4),
    iterations=4,
    trials=2,
    reference_oversampling=6,
    seed=99,
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
    # Blocks that each hold the same N - missing distinct points, repeated to
    # the requested size, give a design of rank below N whatever the
    # oversampling.  Rounding decides whether the factorization fails
    # outright or leaves a pivot at rounding level; both are refused.
    ms = hyperbolic_cross(3, 4)
    draw = basis.sample_measure

    def repeated_draw(basis_kind, d, n, rng):
        return np.resize(draw(basis_kind, d, len(ms) - missing, 0), (n, d))

    monkeypatch.setattr(basis, "sample_measure", repeated_draw)
    with pytest.raises(ValueError, match="rank-deficient"):
        reference_coefficients(target_log_sum(3), kind, ms, oversampling=6, seed=0)


@pytest.mark.parametrize("kind", basis.BASIS_KINDS)
@pytest.mark.parametrize(("d", "s"), [(3, 4), (10, 10)])
def test_negligible_reference_pivot_raises(monkeypatch, kind, d, s):
    # A column scaled by 1e-9 leaves the Gram positive definite, but its
    # pivot is about 1e-18 of the largest, far below the sqrt(eps) cut,
    # whatever the rounding: the factorization succeeds and the pivot test
    # refuses it.
    ms = hyperbolic_cross(d, s)
    design = basis.evaluate_design

    def scaled_design(kind, index_set, points):
        block = design(kind, index_set, points)
        block[:, len(index_set) // 2] *= 1e-9
        return block

    monkeypatch.setattr(basis, "evaluate_design", scaled_design)
    with pytest.raises(ValueError, match="smallest Cholesky pivot .* is negligible"):
        reference_coefficients(target_log_sum(d), kind, ms, oversampling=2, seed=0)


def test_reference_rejects_bad_oversampling():
    ms = hyperbolic_cross(2, 2)
    for bad in (0, 2.5, np.nan):
        with pytest.raises(ValueError, match=f"^oversampling must be an integer >= 1, got {bad}$"):
            reference_coefficients(target_log_sum(2), "legendre", ms, bad, seed=1)


@pytest.mark.parametrize("kind", basis.BASIS_KINDS)
@pytest.mark.parametrize("oversampling", [1, 2, 6])
def test_chunked_reference_agrees_with_full_design_lstsq(kind, oversampling):
    # the normal equations of one N-row block, or summed over two or six,
    # give the SVD least-squares solution of the whole design of the same
    # draw, to rounding
    ms = hyperbolic_cross(3, 4)
    target = target_log_sum(3)
    fit = reference_coefficients(target, kind, ms, oversampling, seed=4)
    points = basis.sample_measure(kind, 3, oversampling * len(ms), 4)
    system = build_system(points, target, kind, ms)
    oracle = np.linalg.lstsq(system.matrix, system.rhs, rcond=None)[0]
    assert np.max(np.abs(fit - oracle)) <= 1e-12 * np.max(np.abs(oracle))


def test_reference_rejects_a_target_not_finite_in_a_later_block():
    # the NaN point lies in the third N-row block of the draw
    ms = hyperbolic_cross(3, 4)
    bad = basis.sample_measure("legendre", 3, 6 * len(ms), 2)[2 * len(ms) + 5]
    log_sum = target_log_sum(3)

    def target(p):
        return np.where((p == bad).all(axis=1), np.nan, log_sum(p))

    message = "target function is not finite at a sample point"
    with pytest.raises(ValueError, match=message):
        reference_coefficients(target, "legendre", ms, oversampling=6, seed=2)
    with pytest.raises(ValueError, match=message):
        build_system(bad[None, :], target, "legendre", ms)


@pytest.mark.parametrize("kind", basis.BASIS_KINDS)
def test_reference_draws_n_row_blocks_that_are_the_rows_of_one_draw(monkeypatch, kind):
    ms = hyperbolic_cross(3, 4)
    n, draw = len(ms), basis.sample_measure
    one_draw = draw(kind, 3, 6 * n, 0)
    blocks = []

    def recording_draw(basis_kind, d, rows, rng):
        blocks.append(draw(basis_kind, d, rows, rng))
        return blocks[-1]

    monkeypatch.setattr(basis, "sample_measure", recording_draw)
    x_ref = reference_coefficients(target_log_sum(3), kind, ms, oversampling=6, seed=0)
    assert [block.shape for block in blocks] == [(n, 3)] * 6
    assert np.concatenate(blocks).tobytes() == one_draw.tobytes()
    # the fit of the one draw's N-row blocks is the same, byte for byte
    served = iter(np.split(one_draw, 6))
    monkeypatch.setattr(basis, "sample_measure", lambda *args: next(served))
    fit = reference_coefficients(target_log_sum(3), kind, ms, oversampling=6, seed=0)
    assert fit.tobytes() == x_ref.tobytes()


def test_reference_fit_size_does_not_grow_with_oversampling():
    # the fit holds one N-row block of points at a time
    sizes = {
        experiments.reference_fit_size(ExperimentConfig(reference_oversampling=oversampling))
        for oversampling in (1, 20, 552)
    }
    assert len(sizes) == 1


@pytest.mark.parametrize("n", [1, 37, 128, 571])
def test_blocked_substitution_matches_two_solves_with_the_factor(n):
    # N = 128 ends on a block boundary; 37 and 571 end inside a block
    sample = np.random.default_rng(n).standard_normal((2 * n, n))
    factor = np.linalg.cholesky(sample.T @ sample)
    rhs = sample.T @ np.ones(2 * n)
    expected = np.linalg.solve(factor.T, np.linalg.solve(factor, rhs))
    x = experiments._cholesky_solve(factor, rhs)
    assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "d, s, oversampling", [(3, 4, 6), (10, 10, 20), (5, 40, 2)], ids=["N13", "N571", "N1672"]
)
def test_reference_fit_size_bounds_the_traced_peak(d, s, oversampling):
    config = ExperimentConfig(d=d, s=s, reference_oversampling=oversampling)
    ms = hyperbolic_cross(d, s)
    target = target_log_sum(d)
    # one untraced call first, so that the modules numpy imports on its
    # first draw are not counted
    reference_coefficients(target_log_sum(2), "legendre", hyperbolic_cross(2, 2), 2, seed=0)
    tracemalloc.start()
    try:
        reference_coefficients(target, "legendre", ms, oversampling, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert experiments.reference_fit_size(config)[0] >= peak


def test_reference_fit_never_holds_the_full_design():
    # At the full study's size the 11,420 x 571 design alone is 52.2 MB; the
    # fit holds three 2.6 MB N x N arrays, one block's points and its
    # design-call work.
    ms = hyperbolic_cross(10, 10)
    tracemalloc.start()
    try:
        reference_coefficients(target_log_sum(10), "legendre", ms, oversampling=20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


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
        ExperimentConfig(m=())
    with pytest.raises(ValueError):
        ExperimentConfig(basis="fourier")
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(lasso_max_iterations=0)
    # NaN fails every bound; a repeated m or lambda would key two curves alike
    for bad, match in (
        ({"lambdas": (0.0, float("nan"))}, r"lambdas .*nan"),
        # an infinite lambda is no regularization value: refused like NaN
        ({"lambdas": (0.0, float("inf"))}, r"^lambdas must be .*finite values >= 0, got \[0.0, inf\]"),
        ({"lambdas": (float("-inf"),)}, r"^lambdas .*\[-inf\]"),
        ({"m": (30, 30)}, r"^m must be .*\[30, 30\]"),
        ({"lambdas": (0.0, 0.0)}, r"lambdas .*\[0.0, 0.0\]"),
        ({"seed": -1}, "^seed must be an integer >= 0, got -1"),
        # a non-integral count is refused, not truncated or left to fail in range()
        ({"m": (80.5,)}, r"^m must be .*integers.*\[80.5\]"),
        ({"d": 2.5}, "^d must be an integer >= 1, got 2.5"),
        # a string would run LASSO yet read back as its text
        ({"include_lasso": "false"}, "^include_lasso must be True or False, got 'false'"),
    ):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**bad)


def test_config_stores_list_fields_as_tuples():
    # a list field is known by its default, so a list value is accepted too
    config = ExperimentConfig(m=[60, 80], lambdas=[0, 1e-4])
    assert config.m == (60, 80) and type(config.m[0]) is int
    assert config.lambdas == (0.0, 1e-4) and type(config.lambdas[0]) is float


# --- sweep ------------------------------------------------------------------


def test_minimal_sweep_shapes():
    config = ExperimentConfig(
        basis="legendre",
        d=2,
        s=3,
        m=(10,),
        lambdas=(0.0,),
        iterations=1,
        trials=1,
        reference_oversampling=4,
        seed=1,
        include_lasso=False,
    )
    report = run_sweep(config)
    assert len(report["womp"]) == 1
    curve = report["womp"][0]
    assert curve["mean_errors"].shape == (1,)
    assert curve["mean_supports"].shape == (1,)
    assert report["lasso"] == []
    assert report["n_basis_functions"] == 5


def test_sweep_is_deterministic():
    config = ExperimentConfig(**SMALL)
    a = run_sweep(config)
    b = run_sweep(config)
    for ca, cb in zip(a["womp"], b["womp"]):
        np.testing.assert_array_equal(ca["mean_errors"], cb["mean_errors"])
        np.testing.assert_array_equal(ca["mean_supports"], cb["mean_supports"])
    for sa, sb in zip(a["lasso"], b["lasso"]):
        np.testing.assert_array_equal(sa["mean_errors"], sb["mean_errors"])
        assert sa["best_position"] == sb["best_position"]


@settings(max_examples=4, deadline=None)
@given(
    kind=st.sampled_from(basis.BASIS_KINDS),
    d=st.integers(1, 3),
    m=st.integers(6, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_sweep_repeats_give_equal_curves(kind, d, m, seed):
    config = ExperimentConfig(
        basis=kind,
        d=d,
        s=4,
        m=(m,),
        lambdas=(0.0, 1e-4),
        iterations=3,
        trials=2,
        reference_oversampling=4,
        seed=seed,
        lasso_grid_size=3,
        lasso_max_iterations=100,
    )
    a = run_sweep(config)
    b = run_sweep(config)
    for ca, cb in zip(a["womp"], b["womp"], strict=True):
        np.testing.assert_array_equal(ca["mean_errors"], cb["mean_errors"])
        np.testing.assert_array_equal(ca["std_errors"], cb["std_errors"])
        np.testing.assert_array_equal(ca["mean_supports"], cb["mean_supports"])
    for sa, sb in zip(a["lasso"], b["lasso"], strict=True):
        np.testing.assert_array_equal(sa["mean_errors"], sb["mean_errors"])
        np.testing.assert_array_equal(sa["std_errors"], sb["std_errors"])
        np.testing.assert_array_equal(sa["converged_counts"], sb["converged_counts"])


def test_sweep_report_lookup_and_json():
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    (curve,) = [c for c in report["womp"] if (c["m"], c["lambda"]) == (25, 1e-4)]
    assert curve["lambda"] == 1e-4
    (sweep,) = [s for s in report["lasso"] if s["m"] == 25]
    assert sweep["mean_errors"].shape == (4,)
    assert sweep["best_mean_error"] == sweep["mean_errors"][sweep["best_position"]]

    payload = _json_value(report)
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["n_basis_functions"] == report["n_basis_functions"]
    assert len(back["womp"]) == 2
    assert back["config"]["trials"] == 2
    # every grid alpha carries its worst KKT certificate over the trials
    assert len(back["lasso"][0]["max_kkt_residual"]) == 4
    assert max(back["lasso"][0]["max_kkt_residual"]) <= LASSO_KKT_TOLERANCE
    # the path reaches the grid alphas largest first, no sooner than the
    # previous one, and within the timed sweep
    order = np.argsort(-sweep["mean_alphas"])
    seconds = sweep["mean_path_seconds"][order]
    assert seconds.shape == (4,) and np.all(np.diff(seconds) >= 0)
    assert 0 < seconds[-1] <= sweep["mean_sweep_seconds"]


def test_run_sweep_refuses_an_oversized_config_before_it_allocates(monkeypatch):
    # d=1, s=10^9: a 10^9-entry index set and a 1e9 x 1e9 reference Gram;
    # the guard counts N and refuses before anything of that size exists
    def allocation(*args):
        raise AssertionError("allocated before the scale guard refused")

    for name in ("hyperbolic_cross", "target_log_sum", "reference_coefficients"):
        monkeypatch.setattr(experiments, name, allocation)
    monkeypatch.setattr(experiments, "physical_memory_bytes", lambda: 8_000_000_000)
    message = (
        r"^the reference fit needs 32000000080000\.0 MB \(three 1000000000 x 1000000000 arrays, "
        r"one block's 1000000000 x 1 points and 8000000072000\.0 MB design call\), "
        r"more than the 8000\.0 MB of physical memory$"
    )
    with pytest.raises(experiments.ScaleError, match=message):
        run_sweep(ExperimentConfig(d=1, s=10**9))


def test_decoder_timings_exclude_scoring(monkeypatch):
    # with scoring slowed to 50 ms a call, no decoder timing reaches 50 ms
    score = experiments.relative_error

    def slow_score(*args):
        time.sleep(0.05)
        return score(*args)

    monkeypatch.setattr(experiments, "relative_error", slow_score)
    report = run_sweep(ExperimentConfig(**{**SMALL, "trials": 1}))
    seconds = [c["mean_seconds"] for c in report["womp"]]
    seconds += [s["mean_sweep_seconds"] for s in report["lasso"]]
    assert len(seconds) == 3
    assert max(seconds) < 0.05


def test_womp_timings_are_the_trace_seconds_of_one_path_call_per_trial(monkeypatch):
    # each lambda's mean_seconds averages its SolveTrace.seconds over the trials
    path = experiments.womp_path
    calls = []

    def stamped_path(system, w, lams, max_iterations):
        traces = path(system, w, lams, max_iterations)
        calls.append(len(lams))
        for i, trace in enumerate(traces):
            trace.seconds = 0.25 * (i + 1) * len(calls)
        return traces

    monkeypatch.setattr(experiments, "womp_path", stamped_path)
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    assert calls == [len(config.lambdas)] * config.trials
    # trials 1 and 2 stamp 0.25 (i + 1) and 0.5 (i + 1)
    assert [c["mean_seconds"] for c in report["womp"]] == [0.375 * (i + 1) for i in range(2)]


def test_errors_decrease_from_one():
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    for curve in report["womp"]:
        assert curve["mean_errors"][0] < 1.0
        assert np.all(curve["mean_errors"] >= 0.0)


def test_csv_outputs(tmp_path):
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    assert write_outputs(report, tmp_path) is None
    names = [p.name for p in sorted(tmp_path.iterdir())]
    assert names == sorted(
        ["errors.csv", "support.csv", "runtimes.csv", "report.json", "config_resolved.cfg"]
    )

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
        basis="legendre",
        d=2,
        s=3,
        m=(8, 12),
        lambdas=(0.0, 1e-4, 1e-3),
        iterations=3,
        trials=1,
        reference_oversampling=4,
        seed=2,
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
    for name in ("errors.csv", "support.csv", "config_resolved.cfg"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_library_and_cli_write_the_same_config_resolved(tmp_path, capsys):
    # one writer renders config_resolved.cfg for write_outputs and for `run`
    config = TESTS.parent / "configs" / "quick.cfg"
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    write_outputs(run_sweep(parse_config(config)), tmp_path)
    cli_bytes = (tmp_path / "cli" / "config_resolved.cfg").read_bytes()
    assert (tmp_path / "config_resolved.cfg").read_bytes() == cli_bytes


@pytest.mark.parametrize("kind", basis.BASIS_KINDS)
def test_quick_womp_rows_match_recorded(tmp_path, kind):
    """configs/quick.cfg's errors.csv and support.csv, womp and wlasso rows
    alike, are pinned byte for byte in tests/data for both bases; changing
    them is a numerical change that must be named.  Its config_resolved.cfg
    is pinned too: the benchmark reads its key names and order."""
    config = TESTS.parent / "configs" / "quick.cfg"
    assert main(["run", "--config", str(config), f"basis={kind}", "--out", str(tmp_path)]) == 0
    prefix = "quick_" if kind == "legendre" else f"quick_{kind}_"
    for name in ("errors.csv", "support.csv", "config_resolved.cfg"):
        recorded = (TESTS / "data" / f"{prefix}{name}").read_bytes()
        assert (tmp_path / name).read_bytes() == recorded


def test_womp_stop_reasons_cover_every_trial():
    config = ExperimentConfig(**SMALL)
    report = run_sweep(config)
    for curve, entry in zip(report["womp"], _json_value(report)["womp"], strict=True):
        assert set(curve["stop_reasons"]) <= set(STOP_REASONS)
        assert sum(curve["stop_reasons"].values()) == config.trials
        assert 1.0 <= curve["mean_iterations"] <= config.iterations
        assert entry["stop_reasons"] == curve["stop_reasons"]
        assert entry["mean_iterations"] == curve["mean_iterations"]
