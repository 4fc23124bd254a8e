"""Record the closed-form reference values that the correctness gate pins.

    python3 bench/record_reference.py

Runs each workload once and writes bench/reference.json: the l column and the
closed-form column of every MC CSV row, and of every REFERENCE_STEP-th row of
the two 10,001-point tables.  The values do not depend on the seed.  Run it
only when the closed forms are meant to change; the gate compares every later
run against this file at 1e-10 relative.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from gate import REFERENCE_PATH
from provenance import git_sha
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_STEP = 10


def _pin(csv_path: Path, col: int, step: int) -> dict:
    rows = [line.split(",") for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]]
    return {"step": step, "l": [r[0] for r in rows[::step]],
            "values": [float(r[col]) for r in rows[::step]]}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from coexsim import cli
    work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench_ref-"))
    reference = {"recorded_at": git_sha(ROOT)}
    try:
        for name, workload in WORKLOADS.items():
            config = work / f"{name}.yaml"
            config.write_text(workload.config_text(0), encoding="utf-8")
            for label, argv in workload.calls(config, work):
                if cli.main(argv) != 0:
                    raise SystemExit(f"{name}: {label} failed")
            if name.startswith("mc_"):
                reference[name] = _pin(work / "mc.csv", 3, 1)
            else:
                reference[name] = {t: _pin(work / f"{t}.csv", 1, REFERENCE_STEP)
                                   for t in ("table_s2i", "table_i2s")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
