"""The mutation table of tier-1: which tests catch which one-line defect.

Each row of MUTANTS is a one-line change to src/sparsepoly: the file, the
exact old text, the new text and what the change breaks.  For one mutant at a
time the script copies the checkout (without .git and bench_out/) to a
temporary directory, applies the mutant there, runs tier-1 in full and records
which tests fail; it then prints the kill matrix, by mutant and by test.  In
the by-test part a test is marked "covered" when another single test kills
every mutant it kills: the candidates for the next fold of tier-1.  A mutant
survives when no test fails, or when only the tests/data goldens do (they are
byte-exact on one BLAS kernel only); the script exits 1 when a mutant not
marked equivalent survives.  A mutant whose old text is absent is reported as
not applicable, so the same table runs on an older checkout (--root).
pytest does not collect this file, and it needs only Python and pytest.

    python tests/mutants.py                # every mutant, one at a time
    python tests/mutants.py -j 2 NAME ...  # the named mutants, two at a time
    python tests/mutants.py --root DIR     # the table against another checkout
    python tests/mutants.py --check        # each old text occurs once, each mutant compiles

Tier-1 runs with --hypothesis-seed=0, so a rerun gives the same matrix.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

# the tier-1 tests that compare with tests/data; a kill by them alone does not count
GOLDENS = "tests/test_experiments.py::test_quick_womp_rows_match_recorded"
# a mutant whose tier-1 run takes longer counts as killed
TIMEOUT_SECONDS = 900


class Mutant(NamedTuple):
    name: str
    file: str  # under src/sparsepoly
    old: str
    new: str
    breaks: str
    equivalent: str | None = None  # why no test can tell it from the original


M = Mutant
MUTANTS = [
    # --- the greedy solver: its stop rules, tolerances and tie-breaks
    M("womp-cap", "womp.py", "k + 1 == max_iterations", "k + 2 == max_iterations",
      "a solve stops max_iterations a step before its cap"),
    M("womp-cap-first", "womp.py", "np.where(floored, STOP_RESIDUAL_FLOOR",
      "np.where(floored & (not last), STOP_RESIDUAL_FLOOR",
      "a solve at the floor on its last allowed step is named max_iterations"),
    M("womp-zero-delta", "womp.py", "j] <= 0.0", "j] < 0.0", "a zero best score selects a column"),
    M("womp-reselect", "womp.py", ".any(axis=1)", ".any(axis=1) & False",
      "a maximizer already in the support is selected again"),
    M("womp-residual-floor", "womp.py", "RESIDUAL_FLOOR = 1e-14", "RESIDUAL_FLOOR = 0.0",
      "a solve refits past an exact fit"),
    M("womp-span-tolerance", "womp.py", "SPAN_TOLERANCE = 1e-3", "SPAN_TOLERANCE = 1e-4",
      "a column whose orthogonal part is in (1e-4, 1e-3] is appended"),
    M("womp-stop-order", "womp.py",
      "zero, STOP_ZERO_DELTA, np.where(reselect, STOP_IN_SUPPORT_RESELECT",
      "reselect, STOP_IN_SUPPORT_RESELECT, np.where(zero, STOP_ZERO_DELTA",
      "a zero best score in the support is named in_support_reselect"),
    M("womp-tie-break", "womp.py", "scores.argmax(axis=1)",
      "scores.shape[1] - 1 - scores[:, ::-1].argmax(axis=1)", "ties select the largest index"),
    M("womp-reorthogonalize", "womp.py", "h2 = np.matvec(basis, v)",
      "h2 = 0.0 * np.matvec(basis, v)", "Gram-Schmidt without its second pass"),
    M("womp-score-in-support", "womp.py", "w2[support] - values", "w2[support] + values",
      "the removal score of a supported index"),
    M("womp-support-epsilon", "womp.py", "SUPPORT_EPSILON = 1e-12", "SUPPORT_EPSILON = 0.0",
      "a coefficient at rounding level counts as support"),
    M("trace-negative-k", "womp.py", "np.maximum(k, 0)", "k", "coefficients_at(-1) reads the end"),
    # --- the homotopy: its cap, inverse check, correction, joins and drops
    M("lasso-cap", "lasso.py", "breakpoints == max_iterations", "breakpoints == max_iterations + 1",
      "the path walks one breakpoint past its cap"),
    M("lasso-correction", "lasso.py", "d += inverse[:k, :k] @ residual", "pass",
      "the direction from the updated inverse is not corrected"),
    M("lasso-never-refactor", "lasso.py", "<= INVERSE_CHECK_TOLERANCE", "<= np.inf",
      "a failed inverse check is never refactored"),
    M("lasso-check-tolerance", "lasso.py", "INVERSE_CHECK_TOLERANCE = 1e-9",
      "INVERSE_CHECK_TOLERANCE = 1e-3", "an inverse 1e6 times worse is only corrected"),
    M("lasso-rejoin", "lasso.py", "if dropped >= 0", "if dropped >= n",
      "a dropped index rejoins at once through the bound it left"),
    M("lasso-nan-join", "lasso.py", "ratios[~(ratios > 0)]", "ratios[ratios <= 0]",
      "a 0/0 join ratio counts as a join"),
    M("lasso-tie-break", "lasso.py", "int(ratios.argmin())",
      "int(ratios.size - 1 - ratios.ravel()[::-1].argmin())", "ties join the largest index"),
    M("lasso-full-rank", "lasso.py", "ratios.item(join) if k < m", "ratios.item(join) if k <= m",
      "an index joins once m are active"),
    M("lasso-zero-alpha", "lasso.py", "alphas.min() == 0.0", "alphas.min() < 0.0",
      "lasso_path takes alpha = 0"),
    M("alpha-grid-zero", "lasso.py", "ratio == 0.0", "ratio < 0.0",
      "default_alpha_grid takes a zero threshold"),
    M("alpha-grid-no-columns", "lasso.py", 'raise ValueError("default_alpha_grid',
      'print("default_alpha_grid', "default_alpha_grid takes a system with N = 0"),
    # --- basis evaluation, sampling and the hyperbolic cross
    M("legendre-recurrence", "basis.py", "t * out[n] - n * out[n - 1]",
      "t * out[n] + n * out[n - 1]", "Legendre polynomials of degree >= 2 from a wrong recurrence"),
    M("legendre-scale", "basis.py", "np.sqrt(2.0 * np.arange(max_degree + 1) + 1.0)",
      "np.arange(max_degree + 1) + 1.0", "Legendre polynomials scaled by n + 1, not sqrt(2n + 1)"),
    M("chebyshev-recurrence", "basis.py", "2.0 * t * out[n] - out[n - 1]",
      "2.0 * t * out[n] + out[n - 1]",
      "Chebyshev polynomials of degree >= 2 from a wrong recurrence"),
    M("chebyshev-scale", "basis.py", "scale[0] = 1.0", "scale[0] = np.sqrt(2.0)",
      "the Chebyshev constant scaled like the other degrees"),
    M("design-keys", "basis.py", "idx.ravel()[at] * d + cols", "idx.ravel()[at] * d",
      "every design factor read at coordinate 0"),
    M("sample-redraw", "basis.py", "while zero.any():", "while False:",
      "a u = 0 draw is kept, a point on the boundary"),
    M("sample-arcsine", "basis.py", "np.cos(np.pi * u)", "2.0 * u - 1.0",
      "Chebyshev points drawn uniformly, not from the arcsine measure"),
    M("cross-quotient", "index_sets.py", "counts = s // prods", "counts = (s + 1) // prods",
      "the cross of order s + 1 is enumerated"),
    M("cross-stable-sort", "index_sets.py", 'np.argsort(degrees, kind="stable")',
      'np.argsort(degrees, kind="quicksort")', "members of one degree lose lexicographic order"),
    # --- CLI parsing and the output writers
    M("cli-power", "cli.py", "10.0 ** float(token[3:])", "10.0 * float(token[3:])",
      "10^x reads as 10 x"),
    M("cli-bool-case", "cli.py", "token = token.strip().lower()", "token = token.strip()",
      "True and FALSE are refused"),
    M("cli-comment", "cli.py", 'line.split("#", 1)[0].strip()', "line.strip()",
      "a # comment is read as a setting"),
    M("writer-fmt", "experiments.py", "repr(float(value))", 'format(float(value), ".12g")',
      "CSV values lose digits past the 12th"),
    M("writer-row-order", "experiments.py", "support in _curve_rows(report):",
      "support in reversed([*_curve_rows(report)]):", "support.csv rows in reverse order"),
    # --- refusal rules
    M("solver-unnormalized", "assembly.py", 'raise ValueError(f"{solver} requires',
      'print(f"{solver} requires', "a solver takes an unnormalized system"),
    M("solver-no-columns", "assembly.py", 'raise ValueError(f"{solver} needs a system',
      'print(f"{solver} needs a system', "a solver takes a system with N = 0"),
    M("solver-weight-shape", "assembly.py", "w.shape != (system.n_columns,)",
      "w.size != system.n_columns", "an (N, 1) weight array is taken"),
    M("solver-infinite-weight", "assembly.py", "(w > 0.0) & (w < np.inf)", "w > 0.0",
      "an infinite weight is taken"),
    M("solver-grid-shape", "assembly.py", "grid.ndim != 1 or ", "", "a 0-D or 2-D grid is taken"),
    M("solver-grid-values", "assembly.py", "(grid >= 0.0) & (grid < np.inf)", "grid >= 0.0",
      "an infinite grid value is taken"),
    M("solver-cap", "assembly.py", "at_least(max_iterations, 1)",
      "at_least(max_iterations, 1, False)", "a fractional cap is taken"),
    M("at-least-inf", "assembly.py", "value < math.inf", "value <= math.inf",
      "an infinite count or lambda passes the bound check"),
    M("normalize-twice", "assembly.py", 'raise ValueError("system is already',
      'print("system is already', "a normalized system is rescaled again"),
    M("normalize-dtype", "assembly.py", "writeable and matrix.dtype == np.float64", "writeable",
      "an integer matrix is rescaled in place"),
    M("normalize-zero-column", "assembly.py", "(norms > 0.0) & ", "", "a zero column is taken"),
    M("build-no-points", "assembly.py", "if m < 1:", "if m < 0:", "a system of 0 points is built"),
    M("target-shape", "assembly.py", "values.shape != (m,)", "values.size != m",
      "a target returning an (m, 1) array is taken"),
    M("target-finite", "assembly.py", "np.all(np.isfinite(values))", "not np.any(np.isnan(values))",
      "an infinite target value is taken"),
    M("denormalize", "assembly.py", ") / system.column_norms", ") * system.column_norms",
      "solutions map back through M, not M^-1"),
    M("index-set-dimension", "index_sets.py", "dimension < 1 or", "dimension < 0 or",
      "an index set of dimension 0 is taken"),
    M("index-set-fractional", "index_sets.py",
      'raise ValueError("multi-index entries must be integers")', "pass",
      "fractional entries are truncated"),
    M("index-set-negative", "index_sets.py", "idx < 0", "idx < -1", "an entry of -1 is taken"),
    M("index-set-duplicates", "index_sets.py", "len(set(rows.tolist())) < len(rows)",
      "len(set(rows.tolist())) < len(rows) - 1", "one repeated row is taken"),
    M("index-set-high-bytes", "index_sets.py", "np.min_scalar_type(idx.max(initial=0))", "np.uint8",
      "rows that differ only in high bytes count as repeats"),
    M("config-basis", "experiments.py", "self.basis not in basis.BASIS_KINDS", "self.basis in ()",
      "an unknown basis is taken"),
    M("config-bool", "experiments.py", "isinstance(self.include_lasso, bool)", "True",
      "include_lasso='false' runs LASSO"),
    M("config-distinct", "experiments.py", "len(set(value)) < len(value) or ", "",
      "a repeated m or lambda is taken"),
    M("config-bounds", "experiments.py", '"lambdas": 0,', '"lambdas": -1,',
      "a negative lambda is taken"),
    M("scale-guard", "experiments.py", "nbytes > memory", "nbytes > 2 * memory",
      "a fit of up to twice the memory runs"),
    M("reference-oversampling", "experiments.py", "at_least(oversampling, 1)",
      "at_least(oversampling, 1, False)", "a fractional oversampling is truncated"),
    # --- the reference fit and the scoring path
    M("reference-pivot", "experiments.py", "np.sqrt(np.finfo(np.float64).eps) * pivots.max()",
      "0.0", "a fit with a negligible pivot is kept"),
    M("score-raw-frame", "experiments.py",
      "denormalize_solution(system, trace.coefficients_at(ks))", "trace.coefficients_at(ks)",
      "WOMP iterates are scored in the normalized frame"),
    M("score-lasso-support", "experiments.py", "coefficients) > SUPPORT_EPSILON",
      "coefficients) > 1e-3", "LASSO support counts drop small entries"),
    M("relative-error", "experiments.py", "np.sqrt(np.vecdot(diff, diff)) / ref_norm",
      "np.vecdot(diff, diff) / ref_norm", "errors are squared distances"),
    # --- the oracles of `verify`
    M("oracle-grid-rescan", "verification.py",
      "np.minimum(np.min(values1, axis=1), np.min(values2, axis=1))", "np.min(values1, axis=1)",
      "the grid minimum skips its fine rescan"),
    M("oracle-textbook-omp", "verification.py", "np.argmax(np.abs(matrix.T @ residual))",
      "np.argmax(matrix.T @ residual)", "classical OMP ignores negative correlations"),
    M("oracle-box-scan", "verification.py", "if prod <= s:", "if prod < s:",
      "the box scan drops the cross's boundary"),
    M("oracle-quadrature", "verification.py", "np.pi / 128", "np.pi / 127",
      "Chebyshev quadrature at the wrong nodes"),
    M("oracle-sup-norm", "verification.py", "np.linspace(-1.0, 1.0, 2001)",
      "np.linspace(-0.9, 0.9, 2001)", "sup norms taken off the corners"),
    M("oracle-kkt", "verification.py", "np.abs(g) - alphas * w", "np.abs(g) - 2.0 * alphas * w",
      "off-support violations are halved"),
    M("oracle-kkt-tolerance", "verification.py", "LASSO_KKT_TOLERANCE = 1e-12",
      "LASSO_KKT_TOLERANCE = 1e-6", "KKT residuals up to 1e-6 are accepted"),
    M("oracle-nan", "verification.py", "not deviation <= tolerance", "deviation > tolerance",
      "a NaN deviation passes its check"),
]


def copy_checkout(root: Path, into: Path) -> Path:
    tree = into / "tree"
    shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
        ".git", "bench_out", ".hypothesis", ".pytest_cache", "__pycache__", "*.egg-info"))
    return tree


def tier1_failures(tree: Path) -> set[str]:
    """The ids of the tests tier-1 fails (or errors on) in `tree`."""
    env = dict(os.environ, PYTHONPATH="src")
    command = [sys.executable, "-m", "pytest", "-q", "-rfE", "--tb=no", "-p", "no:cacheprovider",
               "--continue-on-collection-errors", "--hypothesis-seed=0"]
    try:
        result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                                timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        return {f"<timeout after {TIMEOUT_SECONDS} s>"}
    failed = {line.split()[1] for line in result.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    if result.returncode not in (0, 1) and not failed:
        failed.add(f"<pytest exit {result.returncode}>")
    return failed


def run(root: Path, mutant: Mutant | None) -> tuple[set[str] | None, float]:
    """Tier-1's failures with `mutant` applied to a copy of `root` (None:
    unmutated), or None when its old text is absent; and the seconds taken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = copy_checkout(root, Path(scratch))
        if mutant is not None:
            path = tree / "src" / "sparsepoly" / mutant.file
            text = path.read_text()
            if mutant.old not in text:
                return None, 0.0
            path.write_text(text.replace(mutant.old, mutant.new, 1))
        return tier1_failures(tree), time.perf_counter() - start


def function_of(test_id: str) -> str:
    """tests/test_x.py::test_y[case] -> test_x::test_y"""
    return test_id.removeprefix("tests/").replace(".py", "").split("[")[0]


def check(root: Path) -> int:
    """Each old text occurs exactly once in its file, and each mutant compiles."""
    problems = 0
    for mutant in MUTANTS:
        text = (root / "src" / "sparsepoly" / mutant.file).read_text()
        count = text.count(mutant.old)
        if count != 1:
            problems += 1
            print(f"{mutant.name}: old text occurs {count} times in {mutant.file}: {mutant.old!r}")
            continue
        try:
            compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")
        except SyntaxError as error:
            problems += 1
            print(f"{mutant.name}: the mutated {mutant.file} does not compile: {error}")
    print(f"{len(MUTANTS)} mutants, {problems} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--check", action="store_true", help="only check the table's texts")
    parser.add_argument("-j", "--jobs", type=int, default=1, help="mutants run at once")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.root)
    unknown = set(args.names) - {mutant.name for mutant in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [mutant for mutant in MUTANTS if not args.names or mutant.name in args.names]

    start = time.perf_counter()
    baseline, seconds = run(args.root, None)
    print(f"unmutated: {len(baseline)} failures in {seconds:.0f} s", *sorted(baseline), sep="\n  ")
    survivors, killed_by = 0, defaultdict(list)
    print("\nmutant: result (seconds) -- what it breaks; the tests that fail")
    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        # map yields in table order, each result once it and those before it are done
        results = pool.map(lambda mutant: run(args.root, mutant), chosen)
        for mutant, (failures, seconds) in zip(chosen, results):
            if failures is None:
                print(f"{mutant.name}: not applicable", flush=True)
                continue
            kills = [test for test in failures - baseline if not test.startswith(GOLDENS)]
            tests = sorted({function_of(test) for test in kills})
            for test in tests:
                killed_by[test].append(mutant.name)
            if kills:
                result = f"killed by {len(kills)}"
            elif mutant.equivalent:
                result = f"equivalent: {mutant.equivalent}"
            else:
                survivors += 1
                result = "SURVIVED" + (" (byte goldens only)" if failures - baseline else "")
            print(f"{mutant.name}: {result} ({seconds:.0f} s) -- {mutant.breaks}",
                  *tests, sep="\n    ", flush=True)
    print("\ntest: mutants it kills [covered by another test that kills them all]")
    covered = 0
    for test in sorted(killed_by):
        kills = set(killed_by[test])
        # prefer a test that kills more; of equal sets, each covers the other
        covers = sorted((-len(killed_by[other]), other) for other in killed_by
                        if other != test and kills <= set(killed_by[other]))
        mark = f" [covered by {covers[0][1]}]" if covers else ""
        covered += bool(covers)
        print(f"{test}: {', '.join(killed_by[test])}{mark}")
    print(f"{covered} of the {len(killed_by)} tests that kill a mutant are covered")
    print(f"\n{len(chosen)} mutants, {survivors} survived, {time.perf_counter() - start:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
