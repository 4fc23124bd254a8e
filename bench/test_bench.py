"""Tests of the benchmark itself: the correctness gate and the span arithmetic.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = gate.load_reference()


def _mc_csv(workload: str, scale_mc: float = 1.01) -> bytes:
    ref = REFERENCE[workload]
    lines = [gate.MC_HEADER]
    for l, p in zip(ref["l"], ref["values"]):
        lines.append(f"{l},{p * scale_mc!r},{p * 0.01!r},{p!r},{p * 0.9!r}")
    return ("\n".join(lines) + "\n").encode()


def _table_csv(ref: dict) -> bytes:
    step = ref["step"]
    lines = [gate.TABLE_HEADER]
    for i in range(gate.TABLE_ROWS):
        if i % step == 0:
            l, p = ref["l"][i // step], ref["values"][i // step]
        else:
            l, p = f"{i}", 1e-3
        lines.append(f"{l},{p!r},-30.000000")
    return ("\n".join(lines) + "\n").encode()


def _mc_run(**changes) -> gate.RunOutput:
    run = gate.RunOutput(exit_codes={"simulate": 0}, stdout={"simulate": ""},
                         files={"mc.csv": _mc_csv("mc_s2i")}, trials=gate.MC_SYMBOLS)
    for key, value in changes.items():
        setattr(run, key, value)
    return run


VERIFY_OK = "\n".join([f"PASS  check-{i}  detail" for i in range(8)] + ["all checks passed"]) + "\n"


def _validate_run() -> gate.RunOutput:
    ref = REFERENCE["validate"]
    return gate.RunOutput(
        exit_codes={"verify": 0, "table_s2i": 0, "table_i2s": 0}, stdout={"verify": VERIFY_OK},
        files={"table_s2i.csv": _table_csv(ref["table_s2i"]),
               "table_i2s.csv": _table_csv(ref["table_i2s"])})


class TestGate:
    def test_clean_runs_pass(self):
        assert gate.check_run("mc_s2i", _mc_run(), REFERENCE) == []
        assert gate.check_run("mc_s2i", _mc_run(), REFERENCE, first=_mc_run()) == []
        assert gate.check_run("validate", _validate_run(), REFERENCE) == []

    def test_corrupted_closed_form_column_fails(self):
        text = _mc_csv("mc_s2i").decode().split("\n")
        fields = text[5].split(",")
        fields[3] = repr(float(fields[3]) * (1 + 1e-8))
        text[5] = ",".join(fields)
        problems = gate.check_run("mc_s2i", _mc_run(files={"mc.csv": "\n".join(text).encode()}),
                                  REFERENCE)
        assert any("closed form" in p for p in problems)

    def test_wrong_trial_count_fails(self):
        problems = gate.check_run("mc_s2i", _mc_run(trials=gate.MC_SYMBOLS - 1), REFERENCE)
        assert problems == [f"montecarlo.trials = {gate.MC_SYMBOLS - 1}, expected {gate.MC_SYMBOLS}"]

    def test_nonzero_exit_fails(self):
        assert gate.check_run("mc_s2i", _mc_run(exit_codes={"simulate": 2}), REFERENCE) \
            == ["simulate exited 2"]
        run = _validate_run()
        run.exit_codes["table_i2s"] = "raised ValueError: boom"
        assert gate.check_run("validate", run, REFERENCE) == ["table_i2s exited raised ValueError: boom"]

    @pytest.mark.parametrize("mutate, expect", [
        (lambda t: t.replace("power_psd", "psd", 1), "header"),
        (lambda t: t.rsplit("\n", 2)[0] + "\n", "50 rows"),
        (lambda t: t.replace("\n-23,", "\n-23;", 1), "fields"),
        (lambda t: t.replace("\n-23,", "\n-23.5,", 1), "l=-23.5"),
    ])
    def test_schema_breaks_fail(self, mutate, expect):
        data = mutate(_mc_csv("mc_i2s").decode()).encode()
        problems = gate.check_run("mc_i2s", _mc_run(files={"mc.csv": data}), REFERENCE)
        assert any(expect in p for p in problems), problems

    def test_mc_far_from_closed_form_fails(self):
        problems = gate.check_run("mc_s2i", _mc_run(files={"mc.csv": _mc_csv("mc_s2i", 1.2)}),
                                  REFERENCE)
        assert any("dB from closed form" in p for p in problems)

    def test_rerun_not_byte_identical_fails(self):
        other = _mc_run(files={"mc.csv": _mc_csv("mc_s2i", 1.02)})
        problems = gate.check_run("mc_s2i", other, REFERENCE, first=_mc_run())
        assert problems == ["outputs are not byte-identical to the first run of this seed"]

    def test_verify_failure_fails(self):
        run = _validate_run()
        run.stdout["verify"] = VERIFY_OK.replace("PASS  check-3", "FAIL  check-3").replace(
            "all checks passed", "CHECKS FAILED")
        problems = gate.check_run("validate", run, REFERENCE)
        assert "verify: 7 checks passed, expected 8" in problems

    def test_corrupted_table_fails(self):
        run = _validate_run()
        ref = REFERENCE["validate"]["table_i2s"]
        bad = dict(ref, values=[v * 1.001 for v in ref["values"]])
        run.files["table_i2s.csv"] = _table_csv(bad)
        assert any("table_i2s.csv" in p for p in gate.check_run("validate", run, REFERENCE))


class TickingClock:
    """Each reading is one second after the previous one."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_synthetic_tree():
    #  root [0, 10]
    #    a [1, 4]  (child c [2, 3])
    #    b [3, 6]  overlaps a: the union [1, 6] counts once for root
    #    x [7, 9]  (nested x [7.5, 8]: not counted twice in x.s)
    tree = [
        [0, "root", 0.0, 10.0, -1],
        [0, "a", 1.0, 4.0, 0],
        [0, "c", 2.0, 3.0, 1],
        [0, "b", 3.0, 6.0, 0],
        [0, "x", 7.0, 9.0, 0],
        [0, "x", 7.5, 8.0, 4],
    ]
    agg = spans.aggregate(tree, {"a.calls": 1})
    assert agg["root.self_s"] == pytest.approx(10 - 5 - 2)
    assert agg["a.self_s"] == pytest.approx(2.0)
    assert agg["b.self_s"] == pytest.approx(3.0)
    assert agg["x.s"] == pytest.approx(2.0)
    assert agg["x.self_s"] == pytest.approx(1.5 + 0.5)
    assert agg["a.calls"] == 1


def test_run_spans_reindexes_parents():
    tree = [[0, "r", 0, 1, -1], [1, "r", 2, 5, -1], [1, "c", 3, 4, 1]]
    assert spans.run_spans(tree, 1) == [[1, "r", 2, 5, -1], [1, "c", 3, 4, 0]]


def test_absent_boundary_is_recorded_and_absorbed(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "lower.py").write_text("def inner(x):\n    return x + 1\n")
    (pkg / "upper.py").write_text(
        "from .lower import inner\n\ndef outer(x):\n    return inner(x) * 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.upper as upper

    tracer = spans.Tracer(package="fakepkg", clock=TickingClock())
    tracer.install([("upper", "outer", "upper.outer", {"upper.points": spans._points(0, "x")}),
                    ("upper", "inner_renamed", "lower.inner", {}),
                    ("gone_module", "f", "gone.f", {})])
    assert tracer.absent == {"upper.inner_renamed", "gone_module.f"}
    tracer.begin_run()
    assert upper.outer(3) == 8
    tracer.uninstall()
    assert upper.outer.__module__ == "fakepkg.upper" and not hasattr(upper.outer, "__wrapped__")
    agg = spans.aggregate(tracer.spans, tracer.counts[0])
    assert agg["upper.outer.calls"] == 1 and agg["upper.points"] == 1
    # the missing lower boundary leaves its time in the caller's self time
    assert agg["upper.outer.self_s"] == agg["upper.outer.s"] == 1.0


def test_configs_reach_the_program_only_through_the_seed(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    from coexsim.cli import load_config
    for workload in WORKLOADS.values():
        a, b = workload.config_text(7).splitlines(), workload.config_text(8).splitlines()
        changed = [x for x, y in zip(a, b) if x != y]
        assert len(a) == len(b) and [x.split()[0] for x in changed] == ["#", "seed:"]
    path = tmp_path / "mc_i2s.yaml"
    path.write_text(WORKLOADS["mc_i2s"].config_text(-1))
    cfg = load_config(str(path))
    assert cfg.seed == (1 << 63) - 1 and cfg.incumbent_set == {0} and len(cfg.secondary_set) == 51


def test_fails_without_program_sources(tmp_path):
    """Only BENCHMARK.json and bench/: nonzero exit and no result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run([sys.executable, *command[1:], "--workload", "mc_s2i", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
