import functools
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from sparsepoly import basis, cli, experiments, verification, womp
from sparsepoly.cli import (
    ConfigError,
    main,
    parse_config,
    parse_config_text,
)
from sparsepoly.experiments import ExperimentConfig, render_config, run_sweep

QUICK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "quick.cfg"

FULL_STUDY = QUICK_CONFIG.parent / "full_study_legendre.cfg"

SMALL_TEXT = """
basis=legendre
d=2
s=3
m=10
lambdas=0,1e-4
iterations=2
trials=1
reference_oversampling=4
seed=5
include_lasso=false
"""

CAPPED_TEXT = """
basis=legendre
d=4
s=5
m=30
lambdas=0,1e-4
iterations=6
trials=3
reference_oversampling=5
seed=909
lasso_grid_size=4
lasso_max_iterations=1
"""


def test_parse_full_study_configuration():
    # 10^x reads as the float 10.0 ** x, bit for bit
    lambdas = (0.0, 1e-5, 10.0**-4.5, 1e-4, 10.0**-3.5, 1e-3)
    assert parse_config(FULL_STUDY) == ExperimentConfig(
        d=10, s=10, m=(60, 80), lambdas=lambdas, iterations=25, trials=25, reference_oversampling=20
    )


def test_booleans_read_in_any_case():
    spellings = {"true": True, "True": True, "1": True, "YES": True,
                 "false": False, "FALSE": False, "0": False, "No": False}
    for token, value in spellings.items():
        assert parse_config_text(f"include_lasso={token}\n").include_lasso is value
    with pytest.raises(ConfigError, match="include_lasso"):
        parse_config_text("include_lasso=maybe\n")


def test_override_precedence():
    config = parse_config(FULL_STUDY, overrides=["trials=2"])
    assert config.trials == 2


def test_render_parse_round_trip():
    config = ExperimentConfig(
        basis="chebyshev",
        d=4,
        s=6,
        m=(18, 36),
        lambdas=(0.0, 10.0**-4.5, 2.5e-3),
        iterations=7,
        trials=3,
        reference_oversampling=5,
        seed=321,
        include_lasso=True,
        lasso_grid_size=6,
        lasso_max_iterations=700,
    )
    assert parse_config_text(render_config(asdict(config))) == config


def test_missing_config_file(tmp_path, capsys):
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/path.cfg")
    # a file that cannot be read is a config error too: one line, exit 2
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes("basis=legendre\n# r\xe9sum\xe9\n".encode("latin-1"))
    for path, reason in ((tmp_path, "Is a directory"), (not_utf8, "can't decode byte 0xe9")):
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config file {path}: ") and err.count("\n") == 1
        assert reason in err
        assert not out_dir.exists()


@pytest.mark.parametrize("path", sorted(QUICK_CONFIG.parent.glob("*.cfg")), ids=lambda p: p.name)
def test_committed_config_names_only_fields_and_round_trips(path):
    config = parse_config(path)
    keys = [line.split("#", 1)[0].split("=", 1)[0].strip() for line in path.read_text().splitlines()]
    assert set(filter(None, keys)) <= {field.name for field in fields(ExperimentConfig)}
    assert parse_config_text(render_config(asdict(config))) == config


def test_cmd_info(capsys):
    assert main(["info", "--config", str(FULL_STUDY)]) == 0
    out = capsys.readouterr().out
    assert "basis=legendre\n" in out and "derived: d=10 s=10 N=571\n" in out


def test_cmd_info_reports_reference_fit_size(capsys):
    assert main(["info", "--config", str(FULL_STUDY)]) == 0
    assert (
        "reference fit: 9.7 MB (three 571 x 571 arrays, one block's 571 x 10 points "
        "and 1.8 MB design call)\n"
    ) in capsys.readouterr().out
    assert main(["info", "--config", str(FULL_STUDY), "d=16", "s=20"]) == 0
    assert (
        "reference fit: 3883.9 MB (three 12645 x 12645 arrays, one block's 12645 x 16 points "
        "and 44.7 MB design call)\n"
    ) in capsys.readouterr().out


def test_run_refuses_reference_fit_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # quick.cfg's reference fit holds (3 * 23 * 23 + 23 * 4 + (5 + 7) * 4 * 23 + 2 * 65536)
    # doubles = 1,070,840 bytes
    monkeypatch.setattr(experiments, "physical_memory_bytes", lambda: 1_070_839)
    out_dir = tmp_path / "refused"
    assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert (
        "reference fit needs 1.1 MB (three 23 x 23 arrays, one block's 23 x 4 points "
        "and 1.1 MB design call)"
    ) in err
    assert "physical memory" in err
    assert not out_dir.exists()

    monkeypatch.setattr(experiments, "physical_memory_bytes", lambda: 1_070_840)
    assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(out_dir)]) == 0


def test_cmd_run_and_overwrite_guard(tmp_path, capsys):
    config_path = tmp_path / "small.cfg"
    config_path.write_text(SMALL_TEXT)
    out_dir = tmp_path / "results"

    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    for name in ("errors.csv", "support.csv", "runtimes.csv", "report.json", "config_resolved.cfg"):
        assert (out_dir / name).exists()
    resolved = (out_dir / "config_resolved.cfg").read_text()
    assert parse_config_text(resolved) == parse_config_text(SMALL_TEXT)

    # second run refuses to clobber: one error line, exit 2
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == (
        "error: refusing to overwrite errors.csv, support.csv, runtimes.csv, report.json, "
        f"config_resolved.cfg in {out_dir} (pass --force to allow)\n"
    )

    assert main(["run", "--config", str(config_path), "--out", str(out_dir), "--force"]) == 0


@pytest.mark.parametrize(
    "below", [(), ("results",), ("results", "deeper")], ids=["file", "below", "two-below"]
)
def test_run_refuses_an_out_path_at_or_below_a_file(tmp_path, capsys, monkeypatch, below):
    def sweep(config):
        raise AssertionError("run_sweep called")

    monkeypatch.setattr(cli, "run_sweep", sweep)
    blocker = tmp_path / "a_file"
    blocker.write_text("kept\n")
    out = blocker.joinpath(*below)
    assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: {blocker} is not a directory\n"
    assert blocker.read_text() == "kept\n"
    assert sorted(tmp_path.iterdir()) == [blocker]


def test_cmd_run_seed_flag_overrides(tmp_path):
    config_path = tmp_path / "small.cfg"
    config_path.write_text(SMALL_TEXT)
    out_dir = tmp_path / "seeded"
    assert main(
        ["run", "--config", str(config_path), "--out", str(out_dir), "--seed", "77"]
    ) == 0
    resolved = (out_dir / "config_resolved.cfg").read_text()
    assert "seed=77" in resolved


def test_lasso_cap_is_reported(tmp_path, capsys):
    config_path = tmp_path / "capped.cfg"
    config_path.write_text(CAPPED_TEXT)
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    for out_dir in dirs:
        assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
        flags = [line for line in capsys.readouterr().out.splitlines() if "-breakpoint cap" in line]
        # one line per grid alpha: the largest is reached by one trial's
        # first segment, the three smaller ones by none
        assert len(flags) == 4
        assert sum("3/3 paths hit the 1-breakpoint cap" in line for line in flags) == 3
        assert sum("2/3 paths hit the 1-breakpoint cap" in line for line in flags) == 1
    sweep = json.loads((dirs[0] / "report.json").read_text())["lasso"][0]
    assert sweep["converged_counts"] == [0, 0, 0, 1]
    assert sweep["max_iterations_run"] == [1, 1, 1, 1]
    assert all(kkt > 1e-3 for kkt in sweep["max_kkt_residual"])
    # the diagnostics leave criterion 10's byte-compared files deterministic
    for name in ("errors.csv", "support.csv", "config_resolved.cfg"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    # with room to converge there is nothing to flag
    roomy = ["run", "--config", str(config_path), "--out", str(tmp_path / "roomy"),
             "lasso_max_iterations=600"]
    assert main(roomy) == 0
    assert "breakpoint cap" not in capsys.readouterr().out
    roomy_sweep = json.loads((tmp_path / "roomy" / "report.json").read_text())["lasso"][0]
    assert roomy_sweep["converged_counts"] == [3, 3, 3, 3]
    assert all(kkt <= verification.LASSO_KKT_TOLERANCE for kkt in roomy_sweep["max_kkt_residual"])


def test_lasso_kkt_failure_is_reported(tmp_path, capsys, monkeypatch):
    # a certificate failure, NaN included, is flagged even when every path
    # reached its alpha
    config_path = tmp_path / "capped.cfg"
    config_path.write_text(CAPPED_TEXT)

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    for residual, shown, written in ((1e-6, "1.00e-06", 1e-6), (float("nan"), "nan", None)):
        monkeypatch.setattr(experiments, "lasso_kkt_residual",
                            lambda system, w, alphas, block: np.full(len(alphas), residual))
        out_dir = tmp_path / f"kkt_{shown}"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                     "lasso_max_iterations=600"]) == 0
        out = capsys.readouterr().out
        flags = [line for line in out.splitlines() if line.startswith("wlasso m=")]
        assert len(flags) == 4
        assert all(f"0/3 paths hit the 600-breakpoint cap, max KKT residual {shown}" in f
                   for f in flags)
        # report.json is strict JSON: a NaN is written as null
        report = json.loads((out_dir / "report.json").read_text(), parse_constant=reject)
        assert report["lasso"][0]["max_kkt_residual"] == [written] * 4


def test_womp_in_span_stops_are_reported(capsys):
    report = run_sweep(parse_config_text(SMALL_TEXT, ["trials=2"]))
    cli._print_summary(report)
    assert "in_span" not in capsys.readouterr().out
    # one of the two trials of m=10, lambda=1e-4 stopped on an in-span maximizer
    report["womp"][1]["stop_reasons"] = {womp.STOP_IN_SPAN: 1, womp.STOP_MAX_ITERATIONS: 1}
    cli._print_summary(report)
    flags = [line for line in capsys.readouterr().out.splitlines() if "in_span" in line]
    assert flags == ["womp m=10 lambda=0.0001: 1/2 solves stopped in_span"]


@pytest.mark.parametrize("include_lasso", [False, True])
def test_summary_compares_the_best_decoders_once_per_m(capsys, include_lasso):
    # one line per m: the best-lambda WOMP solve (smallest mean error at K)
    # and the LASSO path up to its best alpha, each with seconds and support
    overrides = ["m=10,12", "lasso_grid_size=3", f"include_lasso={str(include_lasso).lower()}"]
    report = run_sweep(parse_config_text(SMALL_TEXT, overrides))
    # rows (m=10, 0), (m=10, 1e-4), (m=12, 0), (m=12, 1e-4); m=12 ties, and the first wins
    for curve, error, seconds in zip(report["womp"], (0.5, 0.25, 0.25, 0.25), (1, 2, 3, 4)):
        curve["mean_errors"][-1] = error
        curve["mean_supports"][-1] = seconds + 0.5
        curve["mean_seconds"] = seconds * 1e-3
    for sweep in report["lasso"]:
        sweep["best_position"] = 1
        sweep["mean_alphas"] = np.array([1e-2, 1e-3, 1e-4])
        sweep["mean_path_seconds"] = np.array([1e-3, 5e-3, 9e-3]) * sweep["m"]
        sweep["mean_supports"] = np.array([1.0, 6.5, 9.0])
    cli._print_summary(report)
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("m=")]
    expected = [
        "m=10: best womp lambda=0.0001 2.000 ms, support 2.5",
        "m=12: best womp lambda=0 3.000 ms, support 3.5",
    ]
    if include_lasso:
        expected[0] += "; wlasso path to best alpha=0.001 50.000 ms, support 6.5"
        expected[1] += "; wlasso path to best alpha=0.001 60.000 ms, support 6.5"
    assert lines == expected


def test_report_json_reruns_equal_run_sweep(tmp_path, capsys):
    # reruns of one config and seed write the same report.json apart from
    # its timing values, and that data is what run_sweep returns
    timings = {"mean_seconds", "mean_sweep_seconds", "mean_path_seconds", "normalize_seconds"}

    def without_timings(value):
        if isinstance(value, dict):
            return {k: without_timings(v) for k, v in value.items() if k not in timings}
        if isinstance(value, list):
            return [without_timings(v) for v in value]
        return value

    reports = []
    for name in ("a", "b"):
        assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(tmp_path / name)]) == 0
        reports.append(json.loads((tmp_path / name / "report.json").read_text()))
    capsys.readouterr()
    expected = without_timings(experiments._json_value(run_sweep(parse_config(QUICK_CONFIG))))
    assert without_timings(reports[0]) == without_timings(reports[1]) == expected
    # the config echo uses the config keys, in config_resolved.cfg's order
    resolved = (tmp_path / "a" / "config_resolved.cfg").read_text().splitlines()
    assert list(reports[0]["config"]) == [line.split("=", 1)[0] for line in resolved]


def test_failed_run_leaves_no_outputs(tmp_path, capsys, monkeypatch):
    def unwritable(report, path):
        raise OSError("disk full")

    monkeypatch.setitem(experiments.OUTPUT_WRITERS, "report.json", unwritable)
    config_path = tmp_path / "small.cfg"
    config_path.write_text(SMALL_TEXT)
    out_dir = tmp_path / "failed"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 1
    assert "disk full" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []

    # nothing is left behind for a rerun without --force to refuse
    monkeypatch.undo()
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0


def test_cmd_run_bad_config_exits_nonzero(tmp_path, capsys):
    # one error line that starts with the cause and where it is, exit 2, no outputs
    config_path = tmp_path / "bad.cfg"
    for text, overrides, start in (
        ("lambdas=\n", [], f"{config_path}: lambdas must be one or more distinct finite"),
        ("basis=legendre\nwavelets=yes\n", [], f"{config_path}:2: unknown key 'wavelets'"),
        ("basis=legendre\nnot a setting\n", [], f"{config_path}:2: expected key=value, got "),
        ("trials=brazillion\n", [], f"{config_path}:1: invalid value for 'trials': "),
        ("basis=legendre\n", ["trials"], "override 'trials': expected key=value, got 'trials'"),
    ):
        config_path.write_text(text)
        out_dir = tmp_path / "o"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir), *overrides]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {start}") and err.count("\n") == 1, err
        assert not out_dir.exists()

    # LASSO settings are checked when the config is parsed, before any work
    for key in ("lasso_max_iterations", "lasso_rel_tolerance"):
        out_dir = tmp_path / key
        assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(out_dir), f"{key}=0"]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()
        assert main(["info", "--config", str(QUICK_CONFIG), f"{key}=0"]) == 2
        assert key in capsys.readouterr().err
    assert main(["info", "--config", str(QUICK_CONFIG), "lasso_rel_tolerance=1e-7"]) == 2
    assert "unknown key 'lasso_rel_tolerance'" in capsys.readouterr().err


def test_run_refuses_nan_lambda_and_negative_seed(tmp_path, capsys):
    # both are config errors: one error line, exit 2, no output directory
    # the message names the key as it was typed
    for extra, message in (
        # an infinite lambda (or one past the float range) would run a curve
        # that stops at once and write its lambda as null
        (["lambdas=0,inf"], "lambdas must be one or more distinct finite values >= 0, got [0.0, inf]"),
        (["lambdas=1e400"], "lambdas must be one or more distinct finite values >= 0, got [inf]"),
        (["lambdas=0,nan"], "lambdas must be one or more distinct finite values >= 0, got [0.0, nan]"),
        (["--seed", "-1"], "seed must be an integer >= 0, got -1"),
        (["m=30,30"], "m must be one or more distinct integers >= 1, got [30, 30]"),
    ):
        out_dir = tmp_path / message.split()[0]
        assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(out_dir), *extra]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {QUICK_CONFIG}: {message}\n"
        assert not out_dir.exists()


def test_power_of_ten_past_the_float_range_is_a_config_error(capsys):
    # 10.0 ** 400 raises OverflowError; it is reported like any bad value
    assert main(["info", "--config", str(QUICK_CONFIG), "lambdas=0,10^400"]) == 2
    assert capsys.readouterr().err == (
        "error: override 'lambdas=0,10^400': invalid value for 'lambdas': "
        "10^400 is too large for a float\n"
    )


def test_verify_refuses_negative_seed(capsys):
    assert main(["verify", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: verify --seed must be >= 0, got -1\n"


def test_cmd_verify_passes(capsys):
    assert main(["verify", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "[PASS] greedy_delta_identity",
        "[PASS] omp_reduction",
        "[PASS] hyperbolic_cross_counts",
        "[PASS] orthonormality_quadrature",
        "[PASS] weight_closed_forms",
        "[PASS] weighted_lasso_kkt",
    ]


def scale_weights(original, kind, index_set):
    return 1.01 * original(kind, index_set)


def scale_last_design_column(original, kind, index_set, points):
    design = original(kind, index_set, points)
    design[:, -1] *= 1.01
    return design


def score_without_lambda(original, support, values, correlations, w, lam):
    return original(support, values, correlations, w, 0.0)


def score_with_the_first_rows_lambda(original, support, values, correlations, w, lam):
    # the same scores as the original on one state; a block's later rows
    # are scored with the wrong lambda
    return original(support, values, correlations, w, np.ravel(lam)[0])


# corruption -> (the study function's module and name, a corruption of it,
# the one check that must catch it)
STUDY_MUTATIONS = {
    "weights": (basis, "weights", scale_weights, "weight_closed_forms"),
    "evaluate_design": (
        basis, "evaluate_design", scale_last_design_column, "orthonormality_quadrature"
    ),
    "delta_scores": (womp, "delta_scores", score_without_lambda, "greedy_delta_identity"),
    "delta_scores_block": (
        womp, "delta_scores", score_with_the_first_rows_lambda, "greedy_delta_identity"
    ),
}


@pytest.mark.parametrize("mutation", STUDY_MUTATIONS)
def test_a_corrupted_study_function_fails_exactly_its_check(monkeypatch, mutation):
    module, function, corrupt, check_name = STUDY_MUTATIONS[mutation]
    monkeypatch.setattr(module, function, functools.partial(corrupt, getattr(module, function)))
    results = verification.run_checks(seed=0)
    assert [r.passed for r in results] == [r.name != check_name for r in results]


# oracle -> (the check it serves, where that check's first case is)
NAN_ORACLES = {
    "grid_min_g_lambda": ("greedy_delta_identity", "instance 0 (seed 0), lambda=0.0, state 0"),
    "textbook_omp": ("omp_reduction", "instance 0 (seed 1): coefficients"),
    "quadrature_gram": ("orthonormality_quadrature", "legendre Gram"),
    "grid_sup_norm": ("weight_closed_forms", "(seed 2)"),
    "lasso_kkt_residual": ("weighted_lasso_kkt", "instance 0 (seed 3), alpha="),
}


@pytest.mark.parametrize("oracle", NAN_ORACLES)
def test_nan_from_an_oracle_fails_its_check(monkeypatch, oracle):
    check_name, location = NAN_ORACLES[oracle]
    original = getattr(verification, oracle)

    def poisoned(*args):
        value = original(*args)
        if oracle == "textbook_omp":  # (selection sequence, coefficients)
            return value[0], value[1] * np.nan
        return value * np.nan

    monkeypatch.setattr(verification, oracle, poisoned)
    results = verification.run_checks(seed=0)
    assert [r.passed for r in results] == [r.name != check_name for r in results]
    failed = next(r for r in results if r.name == check_name)
    assert failed.detail.startswith("deviation nan not <= ")
    assert location in failed.detail
