"""configs/quick.cfg's pinned outputs in tests/data, and the rule that compares a run with them.

On the OpenBLAS kernel the outputs were recorded under (the core and version
in tests/data/quick_blas_kernel.txt), errors.csv, support.csv and
config_resolved.cfg must match byte for byte.  Another kernel rounds the BLAS
sums differently, so there config_resolved.cfg, every decoder, m, k, WOMP
lambda and mean_support must still match exactly, and each mean_error,
std_error and LASSO alpha to within RELATIVE_SPREAD.  pytest does not collect
this file; test_experiments.py applies the rule, and CI applies it to the
installed console script's outputs:

    python tests/goldens.py OUT_DIR [BASIS]   # exit 1 unless OUT_DIR holds quick.cfg's outputs
"""

from __future__ import annotations

import csv
import ctypes
import glob
import os
import sys
from pathlib import Path

import numpy as np

DATA = Path(__file__).resolve().parent / "data"
NAMES = ("errors.csv", "support.csv", "config_resolved.cfg")
# the SkylakeX, Haswell, Sandybridge and Nehalem kernels of OpenBLAS 0.3.31
# spread each value by at most 9.3e-12 relative at quick size
RELATIVE_SPREAD = 1.6e-11


def blas_kernel() -> str:
    """The OpenBLAS core and version numpy runs on, read through ctypes (CI's
    `BLAS kernel` step prints it); "unknown" where the library or its getter
    is absent."""
    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas*")
    )
    library, found = ctypes.CDLL(libs[0]) if libs else None, []
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_config64_"):
        get = getattr(library, name, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
        found.append(get().decode() if get is not None else "unknown")
    core, config = found
    # the config string starts "OpenBLAS <version>"
    return f"{core}, {' '.join(config.split()[:2])}"


def _near(value: str, pinned: str) -> bool:
    a, b = float(value), float(pinned)
    return abs(a - b) <= RELATIVE_SPREAD * max(abs(a), abs(b))


def _row_mismatches(name: str, text: str, pinned: str) -> list[str]:
    rows, expected = list(csv.reader(text.splitlines())), list(csv.reader(pinned.splitlines()))
    if len(rows) != len(expected) or rows[0] != expected[0]:
        return [f"{name}: other rows or columns than the pinned file"]
    problems = []
    for line, (row, want) in enumerate(zip(rows[1:], expected[1:]), start=2):
        if len(row) != len(want):
            problems.append(f"{name} line {line}: {len(row)} fields, pinned {len(want)}")
            continue
        for column, value, pinned_value in zip(expected[0], row, want):
            near = column in ("mean_error", "std_error") or (column, want[0]) == ("lambda", "wlasso")
            if value != pinned_value and not (near and _near(value, pinned_value)):
                problems.append(f"{name} line {line} {column}: {value}, pinned {pinned_value}")
    return problems


def mismatches(out_dir: Path, kind: str) -> list[str]:
    """How the quick.cfg outputs in `out_dir`, run in basis `kind`, differ from
    tests/data under the kernel rule; empty when they match."""
    prefix = "quick_" if kind == "legendre" else f"quick_{kind}_"
    running, recorded = blas_kernel(), (DATA / "quick_blas_kernel.txt").read_text().strip()
    # the same core and version; a build suffix ("0.3.31.188.0") is that version
    exact = running == recorded or running.startswith(recorded + ".")
    problems = []
    for name in NAMES:
        data, pinned = (Path(out_dir) / name).read_bytes(), (DATA / f"{prefix}{name}").read_bytes()
        if data == pinned:
            continue
        if exact or name == "config_resolved.cfg":
            problems.append(f"{name} differs from tests/data/{prefix}{name} byte for byte")
        else:
            problems += _row_mismatches(name, data.decode(), pinned.decode())
    if problems:
        rule = "byte for byte" if exact else f"to {RELATIVE_SPREAD:.1e} relative"
        problems.append(f"recorded under {recorded}; running under {running}, compared {rule}")
    return problems


if __name__ == "__main__":
    out, kind = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else "legendre"
    found = mismatches(Path(out), kind)
    print(*found or [f"{out} holds quick.cfg's {kind} outputs"], sep="\n")
    sys.exit(1 if found else 0)
