"""scripts/compare_outputs.py: the report on two reference-output directories."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def write(directory, files):
    directory.mkdir()
    for name, text in files.items():
        (directory / name).write_text(text)
    return str(directory)


def test_report(tmp_path, capsys):
    table = "l,power_linear,power_db\n-1,2.0e-01,-6.989700\n0,1.0e+00,0.000000\n"
    base = write(tmp_path / "base", {
        "same.csv": table, "moved.csv": table, "ragged.csv": table,
        "verify.txt": "PASS  a  1e-15\nPASS  b  2\n", "base_only.txt": "x\n"})
    change = write(tmp_path / "change", {
        "same.csv": table, "moved.csv": table.replace("2.0e-01", "2.0000000000000006e-01"),
        "ragged.csv": table + "1,2\n", "verify.txt": "PASS  a  3e-15\nPASS  b  2\n"})
    assert compare_outputs.main([base, change]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "base_only.txt: only in " + base,
        "moved.csv: moved",
        "    power_linear: max rel diff 2.78e-16 at row 1 (l = -1), 1 of 2 cells moved",
        "ragged.csv: moved",
        "    header or row count differs, or a row is ragged (3 and 4 lines)",
        "same.csv: identical",
        "verify.txt: moved",
        "    -PASS  a  1e-15",
        "    +PASS  a  3e-15",
        "5 files: 1 identical, 3 moved, 1 in one directory only",
    ]


@pytest.mark.parametrize("args", [[], ["a"], ["missing", "other"]])
def test_usage(args, capsys):
    assert compare_outputs.main(args) == 2
    assert capsys.readouterr().err.startswith("usage: ")
