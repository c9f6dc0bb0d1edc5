"""Command-line entry point: config parsing, experiment runs, self-checks.

Config files are flat ``key=value`` lines (``#`` starts a comment); lists use
commas.  Floats accept ``10^x`` shorthand, so a regularization grid like
``lambdas=0,10^-5,10^-4.5,10^-4`` reads the way it is usually written.
Command-line overrides use the same syntax and win over file values.

All randomness flows from one seed (config key ``seed`` or the ``--seed``
flag); omitting both selects the fixed default, so runs are reproducible by
default.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    ExperimentReport,
    run_sweep,
    write_outputs,
)
from .index_sets import hyperbolic_cross
from . import verification


class ConfigError(Exception):
    pass


def _parse_float(token: str) -> float:
    token = token.strip()
    if token.startswith("10^"):
        return 10.0 ** float(token[3:])
    return float(token)


def _parse_bool(token: str) -> bool:
    token = token.strip().lower()
    if token in ("true", "1", "yes"):
        return True
    if token in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {token!r}")


def _parse_int_list(token: str) -> tuple[int, ...]:
    return tuple(int(part) for part in token.split(",") if part.strip())


def _parse_float_list(token: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in token.split(",") if part.strip())


def _render_bool(value: bool) -> str:
    return "true" if value else "false"


def _render_list(values) -> str:
    return ",".join(repr(v) for v in values)


# config key -> (ExperimentConfig field, value parser, value renderer), in
# the order render_config writes them
CONFIG_KEYS = {
    "basis": ("basis_kind", str.strip, str),
    "d": ("dimension", int, str),
    "s": ("cross_order", int, str),
    "m": ("sample_counts", _parse_int_list, _render_list),
    "lambdas": ("lambdas", _parse_float_list, _render_list),
    "iterations": ("iterations", int, str),
    "trials": ("trials", int, str),
    "reference_oversampling": ("reference_oversampling", int, str),
    "seed": ("base_seed", int, str),
    "include_lasso": ("include_lasso", _parse_bool, _render_bool),
    "lasso_grid_size": ("lasso_grid_size", int, str),
    "lasso_max_iterations": ("lasso_max_iterations", int, str),
}


def _apply_setting(values: dict, key: str, raw: str, where: str) -> None:
    if key not in CONFIG_KEYS:
        raise ConfigError(f"{where}: unknown key {key!r}")
    field, parser, _ = CONFIG_KEYS[key]
    try:
        values[field] = parser(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value for {key!r}: {exc}") from exc


def parse_config_text(
    text: str,
    overrides=(),
    source: str = "<config>",
) -> ExperimentConfig:
    """Parse config text plus key=value overrides into a validated config."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, raw = line.split("=", 1)
        _apply_setting(values, key.strip(), raw, f"{source}:{lineno}")
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override {override!r}: expected key=value")
        key, raw = override.split("=", 1)
        _apply_setting(values, key.strip(), raw, f"override {override!r}")
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config(path, overrides=()) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), overrides, source=str(path))


def render_config(config: ExperimentConfig) -> str:
    """Key=value rendering; parse_config_text(render_config(c)) == c."""
    return "".join(
        f"{key}={render(getattr(config, field))}\n"
        for key, (field, _, render) in CONFIG_KEYS.items()
    )


OUTPUT_NAMES = ("errors.csv", "support.csv", "runtimes.csv", "report.json", "config_resolved.cfg")


def _print_summary(report: ExperimentReport) -> None:
    K = report.config.iterations
    print(f"N = {report.n_basis_functions} basis functions, "
          f"{report.config.trials} trials, K = {K}")
    print(f"{'decoder':<14}{'lambda':>14}{'m':>6}{'mean err @K':>14}{'support':>10}{'seconds':>10}")
    for curve in report.womp_curves:
        print(
            f"{'womp':<14}{curve.lam:>14.6g}{curve.m:>6}"
            f"{curve.mean_errors[-1]:>14.4e}{curve.mean_supports[-1]:>10.1f}"
            f"{curve.mean_seconds:>10.4f}"
        )
    for sweep in report.lasso_sweeps:
        print(
            f"{'wlasso(best)':<14}{sweep.mean_alphas[sweep.best_position]:>14.6g}{sweep.m:>6}"
            f"{sweep.best_mean_error:>14.4e}{sweep.mean_supports[sweep.best_position]:>10.1f}"
            f"{sweep.mean_sweep_seconds:>10.4f}"
        )
    trials = report.config.trials
    for sweep in report.lasso_sweeps:
        for alpha, converged, kkt in zip(
            sweep.mean_alphas, sweep.converged_counts, sweep.max_kkt_residual
        ):
            if converged < trials or not kkt <= verification.LASSO_KKT_TOLERANCE:
                print(
                    f"wlasso m={sweep.m} alpha={alpha:.6g}: {trials - converged}/{trials} "
                    f"paths hit the {report.config.lasso_max_iterations}-breakpoint cap, "
                    f"max KKT residual {kkt:.2e}"
                )


def reference_fit_shape(config: ExperimentConfig) -> tuple[int, int]:
    """Rows and columns of the dense matrix of the oversampled reference fit."""
    n = len(hyperbolic_cross(config.dimension, config.cross_order))
    return config.reference_oversampling * n, n


def physical_memory_bytes() -> int | None:
    """Installed physical memory, or None where os.sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def cmd_run(args) -> int:
    try:
        config = parse_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)

    rows, n = reference_fit_shape(config)
    memory = physical_memory_bytes()
    if memory is not None and rows * n * 8 > memory:
        print(
            f"error: the reference fit needs {rows} x {n} doubles = {rows * n * 8 / 1e6:.1f} MB, "
            f"more than the {memory / 1e6:.1f} MB of physical memory",
            file=sys.stderr,
        )
        return 2

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    existing = [name for name in OUTPUT_NAMES if (out_dir / name).exists()]
    if existing and not args.force:
        print(
            f"error: refusing to overwrite {', '.join(existing)} in {out_dir} "
            "(pass --force to allow)",
            file=sys.stderr,
        )
        return 2

    try:
        report = run_sweep(config)
        write_outputs(report, out_dir)
        (out_dir / "config_resolved.cfg").write_text(render_config(config))
    except Exception as exc:
        for name in OUTPUT_NAMES:
            (out_dir / name).unlink(missing_ok=True)
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    _print_summary(report)
    print(f"wrote {', '.join(OUTPUT_NAMES)} to {out_dir}")
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    results = verification.run_checks(seed=seed)
    all_passed = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name}: {result.detail}")
        all_passed &= result.passed
    return 0 if all_passed else 1


def cmd_info(args) -> int:
    try:
        config = parse_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_config(config), end="")
    rows, n = reference_fit_shape(config)
    print(f"derived: d={config.dimension} s={config.cross_order} N={n}")
    print(f"reference fit: {rows} x {n} doubles = {rows * n * 8 / 1e6:.1f} MB")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparsepoly",
        description="Sparse polynomial approximation from random samples via weighted greedy pursuit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute an experiment sweep")
    run_parser.add_argument("--config", required=True)
    run_parser.add_argument("--out", required=True)
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--force", action="store_true")
    run_parser.add_argument("overrides", nargs="*", metavar="key=value")
    run_parser.set_defaults(func=cmd_run)

    verify_parser = sub.add_parser("verify", help="run the built-in oracle checks")
    verify_parser.add_argument("--seed", type=int, default=None)
    verify_parser.set_defaults(func=cmd_verify)

    info_parser = sub.add_parser("info", help="print the resolved config and derived sizes")
    info_parser.add_argument("--config", required=True)
    info_parser.add_argument("overrides", nargs="*", metavar="key=value")
    info_parser.set_defaults(func=cmd_info)

    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())
