import dataclasses
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import sparsepoly
from sparsepoly import (
    assembly, basis, cli, experiments, index_sets, lasso, verification, womp,
)

ROOT = Path(__file__).resolve().parent.parent

# Public names the benchmark harness in bench/ uses; deleting one must fail here.
BENCHMARK_NAMES = (
    "hyperbolic_cross",
    "weights",
    "TargetFunction",
    "sample_measure",
    "build_system",
    "normalize_columns",
    "denormalize_solution",
    "womp_solve",
    "WompConfig",
    "relative_error",
    "lasso_path",
    "default_alpha_grid",
)

# Everything the package exports: the benchmark's names plus the study's entry points.
PUBLIC_NAMES = {
    *BENCHMARK_NAMES, "ExperimentConfig", "run_sweep", "target_log_sum", "womp_path",
}


def test_python_m_runs_the_cli_from_source():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "sparsepoly", "info", "--config", str(ROOT / "configs" / "quick.cfg")],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "derived: d=4 s=5 N=23" in result.stdout.splitlines()


def test_library_surface_used_by_the_benchmark():
    missing = [name for name in BENCHMARK_NAMES if not hasattr(sparsepoly, name)]
    assert missing == []

    config = sparsepoly.WompConfig(lam=1e-4, max_iterations=3)
    assert (config.lam, config.max_iterations) == (1e-4, 3)
    index_set = sparsepoly.hyperbolic_cross(2, 3)
    points = sparsepoly.sample_measure("legendre", 2, 8, 0)
    target = sparsepoly.TargetFunction(lambda t: np.cos(t.sum(axis=-1)))
    system = sparsepoly.normalize_columns(
        sparsepoly.build_system(points, target, "legendre", index_set)
    )
    trace = sparsepoly.womp_solve(system, sparsepoly.weights("legendre", index_set), config)
    assert len(trace) and trace.stop_reason
    # the benchmark expands and sizes one iterate at a time, with a Python int k
    n = len(trace)
    for k in range(n + 3):
        assert trace.coefficients_at(k).shape == (len(index_set),)
        assert trace.support_size_at(k) == min(k, n)
    np.testing.assert_array_equal(trace.coefficients_at(0), np.zeros(len(index_set)))
    np.testing.assert_array_equal(trace.coefficients_at(n + 2), trace.coefficients_at(n))
    np.testing.assert_array_equal(trace.coefficients_at(n), trace.final_coefficients)


def test_package_exports_only_the_benchmark_and_study_names():
    public = {
        name
        for name, value in vars(sparsepoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC_NAMES


def test_solver_and_library_modules_define_no_objective_or_test_builder():
    # these live beside the oracles in verification.py, or in tests/test_lasso.py
    moved = (
        "g_lambda", "weighted_l0", "lasso_objective", "weighted_l1_norm", "expansion_target",
        "restricted_least_squares",
    )
    for module in (womp, lasso, experiments, basis):
        assert [name for name in moved if hasattr(module, name)] == [], module.__name__


def test_deleted_names_stay_deleted():
    deleted = (
        # run_sweep returns the dict report.json holds; no dataclass mirrors it
        "WompCurve", "LassoSweep", "ExperimentReport", "womp_curve", "lasso_sweep",
        "_json_entry", "to_json_dict",
        # second entry points that only the oracles called; `verify` runs the
        # study's delta_scores, weights, eval_1d_table and evaluate_design
        "compute_delta", "weight", "eval_1d", "evaluate_expansion",
        # a one-point tensor evaluation no study code called (now a helper in
        # tests/test_basis.py), and the CLI's second list of the output files
        "eval_tensor", "OUTPUT_NAMES",
        # the scale guard counts N in run_sweep; no CLI helper enumerates the
        # cross for it
        "reference_fit_shape",
    )
    modules = (assembly, basis, cli, experiments, index_sets, lasso, verification, womp)
    for module in modules:
        assert [name for name in deleted if hasattr(module, name)] == [], module.__name__


def test_linear_system_records_its_frame_once():
    # the column norms are None in the raw frame; no flag can contradict them
    names = [field.name for field in dataclasses.fields(assembly.LinearSystem)]
    assert names == ["matrix", "rhs", "column_norms"]


def readme_names(*after: str) -> list[str]:
    """The `quoted` names of the README sentence that follows each of `after` in turn."""
    text = (ROOT / "README.md").read_text()
    for marker in after:
        text = text.split(marker, 1)[1]
    return re.findall(r"`([^`]+)`", re.split(r"\.\s", text, maxsplit=1)[0])


def test_readme_config_keys_are_the_config_fields():
    fields = dataclasses.fields(experiments.ExperimentConfig)
    assert readme_names("## Config format", "Keys:") == [field.name for field in fields]


def test_readme_output_files_are_the_writer_table():
    written = readme_names("`run` executes the configured sweep and writes")
    assert written == list(experiments.OUTPUT_WRITERS)


def test_readme_stop_reasons_are_the_solver_constants():
    assert tuple(readme_names("The stop reasons are")) == womp.STOP_REASONS


def test_readme_quickstart_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    quickstart = readme.split("## Library quickstart", 1)[1]
    code = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md quickstart", "exec"), {})
    stop_reason, support_size = capsys.readouterr().out.split()
    assert stop_reason in womp.STOP_REASONS
    assert 1 <= int(support_size) <= 25
