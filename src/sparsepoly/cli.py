"""Command-line entry point: config parsing, experiment runs, self-checks.

Config files are flat ``key=value`` lines (``#`` starts a comment); lists use
commas.  Floats accept ``10^x`` shorthand, so a regularization grid like
``lambdas=0,10^-5,10^-4.5,10^-4`` reads the way it is usually written.
Command-line overrides use the same syntax and win over file values.  The
keys are the field names of ``ExperimentConfig``, and each value is read as
the type of its field's default.

``run`` writes no file itself: ``experiments.write_outputs`` writes every
file of ``experiments.OUTPUT_WRITERS``, and the overwrite check, the cleanup
after a failed run and the closing ``wrote`` line walk that same table.

All randomness flows from one seed (config key ``seed``; ``run --seed N`` is
the override ``seed=N`` given last); omitting it selects the fixed default,
so runs are reproducible by default.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .experiments import (
    DEFAULT_SEED,
    OUTPUT_WRITERS,
    ExperimentConfig,
    ScaleError,
    reference_fit_size,
    render_config,
    run_sweep,
    write_outputs,
)
from .index_sets import hyperbolic_cross_size
from . import verification, womp


class ConfigError(Exception):
    pass


def _parse_float(token: str) -> float:
    token = token.strip()
    if token.startswith("10^"):
        try:
            return 10.0 ** float(token[3:])
        except OverflowError:
            raise ValueError(f"{token} is too large for a float") from None
    return float(token)


def _parse_bool(token: str) -> bool:
    token = token.strip().lower()
    if token in ("true", "1", "yes"):
        return True
    if token in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {token!r}")


def _parse_value(default, token: str):
    """token read as the type of a config field's default: a tuple is a comma
    list of its element's type, a bool true/false, a float takes 10^x."""
    if isinstance(default, tuple):
        return tuple(_parse_value(default[0], part) for part in token.split(",") if part.strip())
    if isinstance(default, bool):
        return _parse_bool(token)
    if isinstance(default, float):
        return _parse_float(token)
    return type(default)(token.strip())


def parse_config_text(
    text: str,
    overrides=(),
    source: str = "<config>",
) -> ExperimentConfig:
    """Parse config text plus key=value overrides into a validated config."""
    defaults = {field.name: field.default for field in fields(ExperimentConfig)}
    settings = [
        (f"{source}:{lineno}", line.split("#", 1)[0].strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
    ]
    settings = [(where, line) for where, line in settings if line]
    settings += [(f"override {o!r}", o) for o in overrides]
    values: dict = {}
    for where, setting in settings:
        if "=" not in setting:
            raise ConfigError(f"{where}: expected key=value, got {setting!r}")
        key, raw = setting.split("=", 1)
        key = key.strip()
        if key not in defaults:
            raise ConfigError(f"{where}: unknown key {key!r}")
        try:
            values[key] = _parse_value(defaults[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: invalid value for {key!r}: {exc}") from exc
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config(path, overrides=()) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, overrides, source=str(path))


def _print_summary(report: dict) -> None:
    config = report["config"]
    print(f"N = {report['n_basis_functions']} basis functions, "
          f"{config['trials']} trials, K = {config['iterations']}")
    print(f"{'decoder':<14}{'lambda':>14}{'m':>6}{'mean err @K':>14}{'support':>10}{'seconds':>10}")
    for curve in report["womp"]:
        print(
            f"{'womp':<14}{curve['lambda']:>14.6g}{curve['m']:>6}"
            f"{curve['mean_errors'][-1]:>14.4e}{curve['mean_supports'][-1]:>10.1f}"
            f"{curve['mean_seconds']:>10.4f}"
        )
    for sweep in report["lasso"]:
        best = sweep["best_position"]
        print(
            f"{'wlasso(best)':<14}{sweep['mean_alphas'][best]:>14.6g}{sweep['m']:>6}"
            f"{sweep['best_mean_error']:>14.4e}{sweep['mean_supports'][best]:>10.1f}"
            f"{sweep['mean_sweep_seconds']:>10.4f}"
        )
    # per m, the best-lambda WOMP solve (smallest mean error at K) against
    # the LASSO path up to its best alpha, each with its support
    sweeps = {sweep["m"]: sweep for sweep in report["lasso"]}
    for m in config["m"]:
        best = min((c for c in report["womp"] if c["m"] == m), key=lambda c: c["mean_errors"][-1])
        line = (
            f"m={m}: best womp lambda={best['lambda']:.6g} {best['mean_seconds'] * 1e3:.3f} ms, "
            f"support {best['mean_supports'][-1]:.1f}"
        )
        if m in sweeps:
            sweep = sweeps[m]
            b = sweep["best_position"]
            line += (
                f"; wlasso path to best alpha={sweep['mean_alphas'][b]:.6g} "
                f"{sweep['mean_path_seconds'][b] * 1e3:.3f} ms, "
                f"support {sweep['mean_supports'][b]:.1f}"
            )
        print(line)
    trials = config["trials"]
    for curve in report["womp"]:
        if womp.STOP_IN_SPAN in curve["stop_reasons"]:
            print(f"womp m={curve['m']} lambda={curve['lambda']:.6g}: "
                  f"{curve['stop_reasons'][womp.STOP_IN_SPAN]}/{trials} solves stopped in_span")
    for sweep in report["lasso"]:
        for alpha, converged, kkt in zip(
            sweep["mean_alphas"], sweep["converged_counts"], sweep["max_kkt_residual"]
        ):
            if converged < trials or not kkt <= verification.LASSO_KKT_TOLERANCE:
                print(
                    f"wlasso m={sweep['m']} alpha={alpha:.6g}: {trials - converged}/{trials} "
                    f"paths hit the {config['lasso_max_iterations']}-breakpoint cap, "
                    f"max KKT residual {kkt:.2e}"
                )


def cmd_run(args) -> int:
    overrides = args.overrides + ([f"seed={args.seed}"] if args.seed is not None else [])
    config = parse_config(args.config, overrides)
    out_dir = Path(args.out)
    ancestor = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"--out {out_dir}: {ancestor} is not a directory")
    existing = [name for name in OUTPUT_WRITERS if (out_dir / name).exists()]
    if existing and not args.force:
        raise ConfigError(
            f"refusing to overwrite {', '.join(existing)} in {out_dir} (pass --force to allow)"
        )

    try:
        report = run_sweep(config)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_outputs(report, out_dir)
    except ScaleError as exc:  # refused before the output directory exists
        raise ConfigError(str(exc)) from None
    except Exception as exc:
        for name in OUTPUT_WRITERS:
            (out_dir / name).unlink(missing_ok=True)
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    _print_summary(report)
    print(f"wrote {', '.join(OUTPUT_WRITERS)} to {out_dir}")
    return 0


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    if not seed >= 0:
        raise ConfigError(f"verify --seed must be >= 0, got {seed}")
    results = verification.run_checks(seed=seed)
    for result in results:
        print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.detail}")
    return 0 if all(result.passed for result in results) else 1


def cmd_info(args) -> int:
    config = parse_config(args.config, args.overrides)
    print(render_config(asdict(config)), end="")
    print(f"derived: d={config.d} s={config.s} N={hyperbolic_cross_size(config.d, config.s)}")
    print(f"reference fit: {reference_fit_size(config)[1]}")
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
    try:
        return args.func(args)
    except ConfigError as exc:  # raised before a command writes anything
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
