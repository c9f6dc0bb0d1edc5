#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one BENCH_*.json entry.

    python3 bench/collect.py --seeds 1-10 --out bench/trajectory/BENCH_00_baseline.json

Each (workload, seed) pair runs ``bench/run.py`` in a fresh process, one
after another, untraced; then one traced run per workload gives the
per-layer table.  For every end-to-end metric the entry records the values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the quartile distance as a share of the median, next to the bound
that BENCHMARK.json fixes.  A spread at or above a third of its bound is
flagged as not steady.  Every run measures BENCHMARK.json's ``run_seconds``,
and the traced run of each workload uses the first seed.  Exits 1 when a run
fails or is not correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_SECONDS = 200


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_SECONDS)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    saved = ROOT / "bench_out" / f"{workload}-seed{seed}-trace{trace}" / "result.json"
    return {"line": json.loads(lines[-1]), "saved": json.loads(saved.read_text()),
            "exit": proc.returncode}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write the BENCH entry here")
    parser.add_argument("--label", default="baseline")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]

    entry = {
        "label": args.label,
        "command": ["python3", "bench/collect.py"] + sys.argv[1:],
        "run_seconds": seconds,
        "seeds": seeds,
        "environment": None,
        "workloads": {},
    }
    ok = True
    for workload in names:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, seconds, 0)
            runs.append(run)
            entry["environment"] = entry["environment"] or run["saved"]["environment"]
            line = run["line"]
            print(f"{workload} seed {seed}: correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                  flush=True)
        record = {
            "correct_runs": sum(r["line"]["correct"] for r in runs),
            "attempted": sum(r["line"]["attempted"] for r in runs),
            "failed": sum(r["line"]["failed"] for r in runs),
            "notes": runs[0]["saved"]["notes"],
            "end_to_end": {},
        }
        ok &= record["correct_runs"] == len(runs) and record["failed"] == 0
        for metric in spec["end_to_end"]:
            name = metric["name"]
            summary = spread([r["line"]["metrics"][name]["value"] for r in runs])
            summary.update(unit=metric["unit"], bound=metric["bound"])
            summary["steady"] = summary["spread"] < metric["bound"] / 3
            record["end_to_end"][name] = summary
            print(f"  {workload} {name}: median {summary['median']:.6g} {metric['unit']}, "
                  f"spread {summary['spread']:.4f} (bound {metric['bound']}, "
                  f"{'steady' if summary['steady'] else 'NOT STEADY'})", flush=True)
        traced = run_once(workload, seeds[0], seconds, 1)
        ok &= traced["line"]["correct"]
        record["per_layer"] = {
            "seed": seeds[0],
            "metrics": traced["line"]["metrics"],
            "trial_accounting_s": traced["saved"]["trial_accounting_s"],
        }
        print(f"  {workload} traced seed {seeds[0]}: correct={traced['line']['correct']}",
              flush=True)
        entry["workloads"][workload] = record

    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
