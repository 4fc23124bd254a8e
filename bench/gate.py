"""Correctness gate: decides whether one workload run failed.

A run fails if any of these holds:
  * a CLI call exits nonzero (or raises);
  * `verify` does not print PASS for all 8 checks;
  * an MC CSV breaks the schema `l,power_mc,std_err,power_closed,power_psd` or
    does not have 51 rows, or the estimator did not measure exactly 10^4 trials;
  * power_mc is more than 0.5 dB from power_closed on integer |l| <= 20 within
    60 dB of the peak (acceptance criterion 2's bound);
  * a closed-form column differs by more than 1e-10 relative from the values
    in reference.json (recorded once by record_reference.py);
  * the outputs are not byte-identical to the first run of the same seed.

Monte-Carlo columns are not pinned across commits: last-ulp changes there
are allowed.  Everything here is a pure function of the run's outputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import MC_SYMBOLS

MC_HEADER = "l,power_mc,std_err,power_closed,power_psd"
TABLE_HEADER = "l,power_linear,power_db"
MC_ROWS = 51
TABLE_ROWS = 10_001
VERIFY_CHECKS = 8
MC_DB_BOUND = 0.5
MC_L_MAX = 20
MC_DYNAMIC_DB = 60.0
CLOSED_RTOL = 1e-10

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class RunOutput:
    """What one workload run produced: per-call exit codes and stdout, output files, trials."""

    exit_codes: dict[str, int | str] = field(default_factory=dict)  # str: what it raised
    stdout: dict[str, str] = field(default_factory=dict)
    stderr: dict[str, str] = field(default_factory=dict)   # shown on failure, not compared
    files: dict[str, bytes] = field(default_factory=dict)
    trials: int | None = None


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _parse_csv(data: bytes, header: str, n_rows: int, what: str) -> tuple[list[list[str]], list[str]]:
    """Rows of a numeric CSV with the given header, or a list of problems."""
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        return [], [f"{what}: not UTF-8"]
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != header:
        return [], [f"{what}: header {lines[0] if lines else ''!r} != {header!r}"]
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{what}: {len(rows)} rows, expected {n_rows}")
    for i, row in enumerate(rows):
        if len(row) != width:
            problems.append(f"{what}: row {i + 1} has {len(row)} fields, expected {width}")
            break
        try:
            values = [float(x) for x in row]
        except ValueError:
            problems.append(f"{what}: row {i + 1} is not numeric: {row}")
            break
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{what}: row {i + 1} is not finite: {row}")
            break
    return rows, problems


def _pinned(rows, col: int, ref: dict, what: str) -> list[str]:
    """Compare column `col` and the l column of every `ref["step"]`-th row with the reference."""
    picked = rows[::ref["step"]]
    if len(picked) != len(ref["l"]):
        return [f"{what}: {len(picked)} pinned rows, reference has {len(ref['l'])}"]
    for row, l_ref, v_ref in zip(picked, ref["l"], ref["values"]):
        if row[0] != l_ref:
            return [f"{what}: l={row[0]} where the reference has l={l_ref}"]
        dev = _rel(float(row[col]), v_ref)
        if dev > CLOSED_RTOL:
            return [f"{what}: closed form at l={l_ref} off by {dev:.1e} relative"]
    return []


def check_mc_csv(data: bytes, ref: dict) -> list[str]:
    rows, problems = _parse_csv(data, MC_HEADER, MC_ROWS, "mc.csv")
    if problems:
        return problems
    problems = _pinned(rows, 3, ref, "mc.csv power_closed")
    if problems:
        return problems
    peak_db = max(10 * math.log10(float(r[3])) for r in rows)
    for row in rows:
        l, p_mc, p_closed = float(row[0]), float(row[1]), float(row[3])
        if l != round(l) or abs(l) > MC_L_MAX or 10 * math.log10(p_closed) < peak_db - MC_DYNAMIC_DB:
            continue
        if p_mc <= 0:
            problems.append(f"mc.csv: power_mc {p_mc} at l={row[0]} is not positive")
            continue
        dev_db = abs(10 * math.log10(p_mc / p_closed))
        if dev_db > MC_DB_BOUND:
            problems.append(f"mc.csv: power_mc {dev_db:.3f} dB from closed form at l={row[0]}")
    return problems


def check_verify(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    failed = [line for line in lines if line.startswith("FAIL ")]
    problems = [f"verify: {line}" for line in failed]
    if passed != VERIFY_CHECKS:
        problems.append(f"verify: {passed} checks passed, expected {VERIFY_CHECKS}")
    if not lines or lines[-1] != "all checks passed":
        problems.append("verify: no 'all checks passed' line")
    return problems


def check_table_csv(data: bytes, ref: dict, what: str) -> list[str]:
    rows, problems = _parse_csv(data, TABLE_HEADER, TABLE_ROWS, what)
    return problems or _pinned(rows, 1, ref, what)


def check_run(workload: str, run: RunOutput, reference: dict,
              first: RunOutput | None = None) -> list[str]:
    """Every reason this run failed; empty when it passed."""
    problems = [f"{label} exited {code}" + (f": {run.stderr[label].strip()}"
                                            if run.stderr.get(label, "").strip() else "")
                for label, code in run.exit_codes.items() if code != 0]
    if problems:
        return problems
    ref = reference[workload]
    if workload in ("mc_s2i", "mc_i2s"):
        if "mc.csv" not in run.files:
            return ["mc.csv was not written"]
        problems += check_mc_csv(run.files["mc.csv"], ref)
        if run.trials != MC_SYMBOLS:
            problems.append(f"montecarlo.trials = {run.trials}, expected {MC_SYMBOLS}")
    else:
        problems += check_verify(run.stdout.get("verify", ""))
        for name in ("table_s2i", "table_i2s"):
            if f"{name}.csv" not in run.files:
                problems.append(f"{name}.csv was not written")
            else:
                problems += check_table_csv(run.files[f"{name}.csv"], ref[name], f"{name}.csv")
    if first is not None and (run.files != first.files or run.stdout != first.stdout):
        problems.append("outputs are not byte-identical to the first run of this seed")
    return problems
