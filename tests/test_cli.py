import json
from pathlib import Path

import numpy as np
import pytest

from sparsepoly import cli, experiments, verification
from sparsepoly.cli import (
    ConfigError,
    main,
    parse_config,
    parse_config_text,
    render_config,
)
from sparsepoly.experiments import ExperimentConfig
from sparsepoly.womp import compute_delta

QUICK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "quick.cfg"

FULL_STUDY_TEXT = """
# full-scale study configuration
basis=legendre
d=10
s=10
m=60,80
lambdas=0,10^-5,10^-4.5,10^-4,10^-3.5,10^-3
iterations=25
trials=25
reference_oversampling=20
"""

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
    config = parse_config_text(FULL_STUDY_TEXT)
    assert config.basis_kind == "legendre"
    assert config.dimension == 10
    assert config.cross_order == 10
    assert config.sample_counts == (60, 80)
    assert config.iterations == 25
    assert config.trials == 25
    assert config.reference_oversampling == 20
    assert config.lambdas[0] == 0.0
    assert config.lambdas[2] == pytest.approx(10.0**-4.5, abs=0)
    assert config.lambdas[4] == pytest.approx(10.0**-3.5, abs=0)


def test_empty_lambdas_names_field():
    with pytest.raises(ConfigError, match="lambdas"):
        parse_config_text("basis=legendre\nd=2\ns=2\nm=5\nlambdas=\ntrials=1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("basis=legendre\nwavelets=yes\n")


def test_malformed_line_reports_position():
    with pytest.raises(ConfigError, match=":2"):
        parse_config_text("basis=legendre\nnot a setting\n")


def test_invalid_value_names_key():
    with pytest.raises(ConfigError, match="trials"):
        parse_config_text("trials=brazillion\n")


def test_override_precedence():
    config = parse_config_text(FULL_STUDY_TEXT, overrides=["trials=2"])
    assert config.trials == 2


def test_override_must_be_key_value():
    with pytest.raises(ConfigError):
        parse_config_text(FULL_STUDY_TEXT, overrides=["trials"])


def test_render_parse_round_trip():
    config = ExperimentConfig(
        basis_kind="chebyshev",
        dimension=4,
        cross_order=6,
        sample_counts=(18, 36),
        lambdas=(0.0, 10.0**-4.5, 2.5e-3),
        iterations=7,
        trials=3,
        reference_oversampling=5,
        base_seed=321,
        include_lasso=True,
        lasso_grid_size=6,
        lasso_max_iterations=700,
    )
    assert parse_config_text(render_config(config)) == config


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/path.cfg")


def test_cmd_info(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(FULL_STUDY_TEXT)
    assert main(["info", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "N=571" in out
    assert "basis=legendre" in out


def test_cmd_info_reports_reference_fit_size(tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(FULL_STUDY_TEXT)
    assert main(["info", "--config", str(path)]) == 0
    assert "reference fit: 11420 x 571 doubles = 52.2 MB\n" in capsys.readouterr().out
    assert main(["info", "--config", str(path), "d=16", "s=20"]) == 0
    assert "reference fit: 252900 x 12645 doubles = 25583.4 MB\n" in capsys.readouterr().out


def test_run_refuses_reference_fit_beyond_physical_memory(tmp_path, capsys, monkeypatch):
    # quick.cfg's reference fit is 115 x 23 doubles = 21,160 bytes
    monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 21_159)
    out_dir = tmp_path / "refused"
    assert main(["run", "--config", str(QUICK_CONFIG), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "reference fit needs 115 x 23 doubles" in err
    assert "physical memory" in err
    assert not out_dir.exists()

    monkeypatch.setattr(cli, "physical_memory_bytes", lambda: 21_160)
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

    # second run refuses to clobber
    code = main(["run", "--config", str(config_path), "--out", str(out_dir)])
    assert code != 0
    err = capsys.readouterr().err
    assert "force" in err

    assert main(["run", "--config", str(config_path), "--out", str(out_dir), "--force"]) == 0


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
    for residual, shown in ((1e-6, "1.00e-06"), (float("nan"), "nan")):
        monkeypatch.setattr(experiments, "lasso_kkt_residual", lambda *args: residual)
        out_dir = tmp_path / f"kkt_{shown}"
        assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                     "lasso_max_iterations=600"]) == 0
        out = capsys.readouterr().out
        flags = [line for line in out.splitlines() if line.startswith("wlasso m=")]
        assert len(flags) == 4
        assert all(f"0/3 paths hit the 600-breakpoint cap, max KKT residual {shown}" in f
                   for f in flags)


def test_failed_run_leaves_no_outputs(tmp_path, capsys, monkeypatch):
    def unwritable(report, path):
        raise OSError("disk full")

    monkeypatch.setattr(experiments, "write_report_json", unwritable)
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
    config_path = tmp_path / "bad.cfg"
    config_path.write_text("basis=legendre\nlambdas=\n")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
    assert "lambdas" in capsys.readouterr().err

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


def test_corrupted_delta_is_detected(monkeypatch):
    def corrupted(x, support, j, system, w, lam):
        return -compute_delta(x, support, j, system, w, lam)

    monkeypatch.setattr(verification, "compute_delta", corrupted)
    results = verification.run_checks(seed=0)
    by_name = {r.name: r for r in results}
    assert not by_name["greedy_delta_identity"].passed
    assert by_name["omp_reduction"].passed


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
