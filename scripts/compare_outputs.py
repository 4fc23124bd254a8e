#!/usr/bin/env python3
"""Report how far each output of scripts/reference_outputs.sh moved between two trees.

    python3 scripts/compare_outputs.py BASE CHANGE

BASE and CHANGE are two directories written by scripts/reference_outputs.sh.
Each file name in either is reported on its own line, in name order, as one of:
- "identical": the same bytes;
- for a CSV with the same header and row count in both, the numeric columns
  that moved, each with its largest relative difference |a - b| / max(|a|, |b|),
  the data row (from 1) where it is largest and that row's first cell;
- for a .txt, the lines that differ, base (-) then change (+);
- otherwise why the two cannot be compared cell by cell, or in which one the
  file is missing.
The last line counts the files of each kind.  The report never fails: it exits 0
whatever moved, and 2 only when BASE or CHANGE is not a directory.
"""

from __future__ import annotations

import difflib
import sys
from pathlib import Path

import numpy as np


def _floats(cells: list[str]) -> np.ndarray | None:
    try:
        return np.array([float(cell) for cell in cells])
    except ValueError:
        return None


def compare_csv(base: str, change: str) -> list[str]:
    """The moved columns of two CSVs with one header and row count, or why they differ."""
    base_rows = [line.split(",") for line in base.splitlines()]
    change_rows = [line.split(",") for line in change.splitlines()]
    width = len(base_rows[0]) if base_rows else 0
    if (base_rows[:1] != change_rows[:1] or len(base_rows) != len(change_rows)
            or any(len(row) != width for row in base_rows + change_rows)):
        return [f"header or row count differs, or a row is ragged "
                f"({len(base_rows)} and {len(change_rows)} lines)"]
    report = []
    for i, name in enumerate(base_rows[0]):
        old = [row[i] for row in base_rows[1:]]
        new = [row[i] for row in change_rows[1:]]
        if old == new:
            continue
        a, b = _floats(old), _floats(new)
        if a is None or b is None:
            moved = sum(x != y for x, y in zip(old, new))
            report.append(f"{name}: {moved} of {len(old)} cells differ (not numbers)")
            continue
        scale = np.maximum(np.abs(a), np.abs(b))
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(a == b, 0.0, np.abs(a - b) / scale)
        row = int(np.nanargmax(rel)) if not np.isnan(rel).all() else 0
        report.append(f"{name}: max rel diff {rel[row]:.2e} at row {row + 1} "
                      f"({base_rows[0][0]} = {base_rows[row + 1][0]}), "
                      f"{sum(x != y for x, y in zip(old, new))} of {len(old)} cells moved")
    return report


def compare_txt(base: str, change: str) -> list[str]:
    return [line for line in difflib.unified_diff(base.splitlines(), change.splitlines(),
                                                  lineterm="", n=0)
            if line[:1] in "-+" and line[:3] not in ("---", "+++")]


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print(f"usage: {Path(__file__).name} BASE CHANGE (two reference_outputs.sh directories)",
              file=sys.stderr)
        return 2
    base_dir, change_dir = map(Path, argv)
    names = sorted({p.name for d in (base_dir, change_dir) for p in d.iterdir() if p.is_file()})
    counts = {"identical": 0, "moved": 0, "missing": 0}
    for name in names:
        base, change = base_dir / name, change_dir / name
        if not (base.is_file() and change.is_file()):
            counts["missing"] += 1
            print(f"{name}: only in {base_dir if base.is_file() else change_dir}")
            continue
        old, new = base.read_bytes(), change.read_bytes()
        if old == new:
            counts["identical"] += 1
            print(f"{name}: identical")
            continue
        counts["moved"] += 1
        old_text, new_text = old.decode(), new.decode()
        if name.endswith(".csv"):
            lines = compare_csv(old_text, new_text)
        elif name.endswith(".txt"):
            lines = compare_txt(old_text, new_text)
        else:
            lines = ["differs (not a .csv or .txt)"]
        print(f"{name}: moved")
        for line in lines or ["the bytes differ, but no cell or line does"]:
            print(f"    {line}")
    print(f"{len(names)} files: {counts['identical']} identical, {counts['moved']} moved, "
          f"{counts['missing']} in one directory only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
