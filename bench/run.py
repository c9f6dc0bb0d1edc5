#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload paper_study --seed 1 --seconds 30 --trace 0

Runs from the root of a sparsepoly source checkout and imports the package
from its ``src/``.  The workload's study is repeated until ``--seconds`` is
used up (at least the workload's minimum), outputs are checked, and every
metric that BENCHMARK.json declares for the mode is printed by name with its
unit.  ``--trace 0`` gives the end-to-end metrics, measured with only the
trial-boundary hooks installed; ``--trace 1`` alternates untraced and traced
studies and gives the per-layer metrics.  The last line of standard output is
one JSON object; the full result, with the environment block, is saved under
``bench_out/``.  Exits 1 when a correctness check fails and 2 when there is
no source tree to benchmark.
"""

import os
import sys

from environment import THREAD_VARIABLES

# One BLAS/OpenMP thread, set before numpy is first imported.
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# A run stops starting studies once this much time has passed, whatever its
# minimum, so that it ends well inside three minutes.
HARD_STOP_SECONDS = 120.0
MIN_STUDIES = 2


def tail_sample_need(percentile: float) -> int:
    """Trials needed so that at least ten lie beyond the percentile."""
    return math.ceil(10 / (1 - percentile / 100))


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(percentile / 100 * len(ordered)) - 1, 0)]


def run_studies(workload, work: Path, seconds: float, traced: bool):
    """Repeat the study; with tracing, odd-numbered studies are traced."""
    from tracing import Recorder

    need = tail_sample_need(workload.tail_percentile)
    studies = []
    begin = time.perf_counter()
    while True:
        gc.collect()  # the previous study's garbage is not collected inside this one
        index = len(studies)
        recorder = Recorder(workload.trial_sample_counts, traced=traced and index % 2 == 1)
        outcome = workload.run_study(recorder, work / f"study{index}")
        studies.append((recorder, outcome))
        if not outcome.ok:
            break
        plain = [r for r, _ in studies if not r.traced]
        if traced:
            enough = len(plain) >= 1 and len(studies) > len(plain)
        else:
            samples = sum(len(r.trial_seconds) for r in plain)
            enough = len(studies) >= MIN_STUDIES and samples >= need
        elapsed = time.perf_counter() - begin
        typical = statistics.median(r.study_seconds for r, _ in studies)
        if elapsed + typical > HARD_STOP_SECONDS or (enough and elapsed + typical > seconds):
            break
    return studies


def gather_checks(studies) -> list:
    """A check passes when it passes in every study; repeats must agree."""
    merged: dict = {}
    for _, outcome in studies:
        for name, passed, detail in outcome.checks:
            if name not in merged or (merged[name][0] and not passed):
                merged[name] = (passed, detail)
    checks = [(name, passed, detail) for name, (passed, detail) in merged.items()]
    first = studies[0][1].data
    same = all(outcome.data == first for _, outcome in studies)
    checks.append((
        "outputs byte-identical across repeats",
        same and len(studies) >= 2,
        f"{len(studies)} studies, {len(first)} bytes",
    ))
    return checks


def end_to_end(workload, studies) -> tuple[dict, str]:
    plain = [r for r, _ in studies if not r.traced]
    trials = [t for r in plain for t in r.trial_seconds]
    p = workload.tail_percentile
    values = {
        "study_s": statistics.median(r.study_seconds for r in plain),
        "setup_s": statistics.median(r.setup_seconds for r in plain),
        "trial_p50_s": statistics.median(statistics.median(r.trial_seconds) for r in plain),
        "trial_tail_s": nearest_rank(trials, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "womp_err": statistics.median(o.womp_err for _, o in studies),
    }
    note = f"trial_tail_s is p{p} of {len(trials)} trials from {len(plain)} studies"
    return values, note


def per_layer(studies) -> tuple[dict, dict]:
    traced = [r for r, _ in studies if r.traced]
    plain = [r for r, _ in studies if not r.traced]
    tables = [r.layer_table() for r in traced]
    values = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    lasso = [o.lasso_err for _, o in studies if o.lasso_err is not None]
    values["lasso.best_err"] = statistics.median(lasso) if lasso else 0.0
    values["trace.overhead_frac"] = (
        statistics.median(r.study_seconds for r in traced)
        / statistics.median(r.study_seconds for r in plain)
        - 1.0
    )
    return values, traced[0].trial_accounting()


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "sparsepoly" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no sparsepoly source tree (src/sparsepoly, configs/) in {ROOT}", file=sys.stderr)
        return 2
    if not spec_path.is_file():
        print(f"error: {spec_path} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import sparsepoly

    if not Path(sparsepoly.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported sparsepoly from {sparsepoly.__file__}, not {src}", file=sys.stderr)
        return 2
    from environment import environment

    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / "bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    workload.prepare(ROOT, work, args.seed)
    studies = run_studies(workload, work, args.seconds, traced=bool(args.trace))

    checks = gather_checks(studies)
    attempted = sum(o.attempted for _, o in studies)
    failed = sum(o.failed for _, o in studies)
    correct = failed == 0 and all(passed for _, passed, _ in checks)

    notes = []
    accounting = {}
    if args.trace and correct:
        values, accounting = per_layer(studies)
        for index, (recorder, _) in enumerate(studies):
            if recorder.traced:
                recorder.write_spans(work / "spans.csv", index)
    elif not args.trace and correct:
        values, note = end_to_end(workload, studies)
        notes.append(note)
    else:
        values = {}
    metrics = {
        m["name"]: {"value": float(values[m["name"]] if correct else 0.0), "unit": m["unit"]}
        for m in declared
    }

    traced_count = sum(1 for r, _ in studies if r.traced)
    print(f"{args.workload} seed {args.seed}: {len(studies)} studies "
          f"({traced_count} traced), {attempted} trials attempted, {failed} failed")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    if accounting:
        total = sum(accounting.values())
        print(f"  trial time of one traced study, {total:.4f} s, by layer self time:")
        for name, seconds in sorted(accounting.items(), key=lambda item: -item[1]):
            print(f"    {name:<42} {seconds:>10.4f} s {100 * seconds / total:6.1f}%")
    for name, passed, detail in checks:
        print(f"  [{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "command": ["python3", "bench/run.py", "--workload", args.workload, "--seed",
                    str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
        "environment": environment(ROOT),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "trial_accounting_s": accounting,
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks],
        "studies": [
            {
                "traced": r.traced,
                "study_s": r.study_seconds,
                "setup_s": r.setup_seconds,
                "trial_s": r.trial_seconds,
            }
            for r, _ in studies
        ],
    }
    (work / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    print(f"  saved {work.relative_to(ROOT)}/result.json")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
