import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sparsepoly

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
    assert trace.records and trace.stop_reason
    assert trace.coefficients_at(1).shape == (len(index_set),)
    assert trace.support_size_at(1) == 1
