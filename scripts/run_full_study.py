#!/usr/bin/env python3
"""Run the full 25-trial study for both bases and both sample budgets.

Writes one result directory per basis under --out (default results/):

    results/legendre/{errors,support,runtimes}.csv, report.json, config_resolved.cfg
    results/chebyshev/...

Takes about 3 s on a 2-vCPU machine with OpenBLAS pinned to one thread.
"""

import argparse
import sys
from pathlib import Path

from sparsepoly.cli import main as cli_main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()

    for kind in ("legendre", "chebyshev"):
        config = CONFIG_DIR / f"full_study_{kind}.cfg"
        out_dir = Path(args.out) / kind
        argv = ["run", "--config", str(config), "--out", str(out_dir)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.force:
            argv.append("--force")
        print(f"=== {kind} -> {out_dir} ===")
        code = cli_main(argv)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
