"""The inputs that both solvers refuse, as one table run on each solver.

`womp_path` and `lasso_path` take the same four inputs (a normalized
system, weights, a grid of lambdas or alphas, and an iteration cap) and
check them in one place, `assembly.check_solver_inputs`.  Each row changes
one input of a good call and gives the whole message; `{solver}` stands for
the solver's name.
"""

import numpy as np
import pytest

from sparsepoly.assembly import LinearSystem
from sparsepoly.lasso import lasso_path
from sparsepoly.verification import random_test_system
from sparsepoly.womp import WompConfig, womp_path, womp_solve

SOLVERS = [womp_path, lasso_path]
WEIGHTS = "weights must be strictly positive and finite: w[4] = {}"
CAP = "max_iterations must be an integer >= 1, got {}"
SHAPE = "{{solver}} needs a 1-D grid of one or more values, got shape {}"
VALUE = "{{solver}} grid must be finite and >= 0: grid[{}] = {}"


def weights_with(value):
    w = np.ones(20)
    w[4] = value
    return w


CASES = {
    "unnormalized": (
        "system",
        LinearSystem(np.ones((10, 20)), np.ones(10)),
        "{solver} requires unit-norm columns; apply normalize_columns first",
    ),
    "w-shape-19": ("w", np.ones(19), "weights must have shape (20,)"),
    "w-shape-20x1": ("w", np.ones((20, 1)), "weights must have shape (20,)"),
    **{f"w-{v}": ("w", weights_with(v), WEIGHTS.format(v)) for v in (0.0, -1.0, np.nan, np.inf)},
    # a fractional cap would never stop the LASSO walk, which stops on `breakpoints == cap`
    **{f"cap-{v}": ("max_iterations", v, CAP.format(v)) for v in (2.5, np.nan, 0)},
    "grid-empty": ("grid", [], SHAPE.format((0,))),
    "grid-row": ("grid", [[1e-3, 1e-4]], SHAPE.format((1, 2))),
    "grid-column": ("grid", [[1e-3], [1e-4]], SHAPE.format((2, 1))),
    "grid-scalar": ("grid", 1e-3, SHAPE.format(())),
    **{f"grid-{v}": ("grid", [v], VALUE.format(0, v)) for v in (-1e-4, -1.0, np.inf, np.nan)},
    # the first bad entry is named, wherever it is in the list
    **{
        f"grid-middle-{v}": ("grid", [1e-3, v, 1e-4, v], VALUE.format(1, v))
        for v in (-1e-4, np.inf, np.nan)
    },
}


@pytest.mark.parametrize("solver", SOLVERS, ids=lambda solver: solver.__name__)
@pytest.mark.parametrize("name", CASES)
def test_both_solvers_refuse(solver, name):
    argument, value, message = CASES[name]
    inputs = {
        "system": random_test_system(10, 20, np.random.default_rng(0)),
        "w": np.ones(20),
        "grid": [1e-3],
        "max_iterations": 5,
        argument: value,
    }
    with pytest.raises(ValueError) as refusal:
        solver(*inputs.values())
    assert str(refusal.value) == message.format(solver=solver.__name__)


def test_the_one_lambda_adapter_names_womp_path():
    system = LinearSystem(np.ones((10, 20)), np.ones(10))
    with pytest.raises(ValueError, match="^womp_path requires unit-norm columns"):
        womp_solve(system, np.ones(20), WompConfig())


def test_lasso_path_alone_refuses_a_zero_grid_value():
    # 0 is finite and >= 0, a lambda womp_path takes, but the homotopy does not take alpha = 0
    system = random_test_system(10, 20, np.random.default_rng(0))
    assert len(womp_path(system, np.ones(20), [1e-3, 0.0], 5)) == 2
    for grid, i in (([0.0], 0), ([1e-3, 0.0, 1e-4], 1)):
        with pytest.raises(ValueError, match=rf"^lasso_path grid must be > 0: grid\[{i}\] = 0.0$"):
            lasso_path(system, np.ones(20), grid, 5)
