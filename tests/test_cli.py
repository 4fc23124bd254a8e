"""CLI: config ingestion, CSV emission, verification report, exit codes."""

import argparse
import ast
import errno
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import coexsim.cli as cli
import coexsim.csvtext as csvtext
import coexsim.montecarlo as mc
import coexsim.txrx as txrx
from coexsim.checks import run_all_checks
from coexsim.cli import ConfigError, load_config, main
from coexsim.closedform import build_table, power_db
from coexsim.filterbank import PrototypeFilter, phydyas_k4
from coexsim.oracle import _window_taus, quadrature_I
from coexsim.psdmodel import psd_interference
from coexsim.txrx import DIRECTIONS, MAX_SET_ENTRIES, CoexConfig, lookup_direction

GOOD_CONFIG = """\
M: 512
cp_ratio: 1/8
incumbent_set: {range: [-5, 5]}
secondary_set: [0]
var_qam: 1.0
var_pam: 0.5
delta_f: 0.0
seed: 42
"""

MULTI_INTERFERER = GOOD_CONFIG.replace("secondary_set: [0]", "secondary_set: [0, 1]")
BAD_CP_VALUE = GOOD_CONFIG.replace("cp_ratio: 1/8", "cp_ratio: one-eighth")
# odd M: OQAM half-period slots would not fall on whole samples
ODD_M_OQAM_VICTIM = "M: 9\ncp_ratio: 0\nincumbent_set: [0]\nsecondary_set: {range: [-2, 2]}\n"
# integer keys given as non-integral numbers must not be truncated
FRACTIONAL_M = GOOD_CONFIG.replace("M: 512", "M: 512.7")
FRACTIONAL_SEED = GOOD_CONFIG.replace("seed: 42", "seed: 1.5")
FRACTIONAL_RANGE = GOOD_CONFIG.replace("range: [-5, 5]", "range: [-5.5, 5]")
FRACTIONAL_LIST = GOOD_CONFIG.replace("secondary_set: [0]", "secondary_set: [0.5]")
# rejected before the set is built: as a set it would exhaust memory
WIDE_RANGE = GOOD_CONFIG.replace("range: [-5, 5]", f"range: [0, {10 ** 12}]")
NEGATIVE_SEED = GOOD_CONFIG.replace("seed: 42", "seed: -3")
NAN_VAR_PAM = GOOD_CONFIG.replace("var_pam: 0.5", "var_pam: .nan")
INF_VAR_PAM = GOOD_CONFIG.replace("var_pam: 0.5", "var_pam: .inf")
# a YAML integer too large for a float
HUGE_VAR_QAM = GOOD_CONFIG.replace("var_qam: 1.0", f"var_qam: {10 ** 400}")
# no victim subcarrier to measure
NO_INCUMBENT = GOOD_CONFIG.replace("incumbent_set: {range: [-5, 5]}", "incumbent_set: []")
NO_SECONDARY = "M: 512\ncp_ratio: 1/8\nincumbent_set: [0]\nsecondary_set: []\n"
# one CP-OFDM interferer into OQAM victims
I2S_CONFIG = "M: 512\ncp_ratio: 1/8\nincumbent_set: [0]\nsecondary_set: {range: [-3, 3]}\n"
# 10^18 grid points
HUGE_GRID = ["--lmin", "0", "--lmax", "1e9", "--lstep", "1e-9"]


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(GOOD_CONFIG)
    return str(path)


class TestConfigLoading:
    def test_round_trip(self, config_file):
        cfg = load_config(config_file)
        assert cfg.M == 512
        assert cfg.incumbent_set == frozenset(range(-5, 6))
        assert cfg.secondary_set == frozenset({0})
        assert cfg.seed == 42

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(GOOD_CONFIG + "cp_ration: 1/4\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("value", ["3", "phydyas_k4",
                                       "{overlap_K: 4, coeffs: [1, 0.97, 0.7, 0.2]}"])
    def test_filt_is_no_file_key(self, tmp_path, capsys, value):
        # the filter is set from Python only: a file's value is refused as a bad filt
        path = tmp_path / "filt.yaml"
        path.write_text(GOOD_CONFIG + f"filt: {value}\n")
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: filt: expected a filterbank.PrototypeFilter")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.yaml")

    def test_explicit_list_sets(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("M: 64\nincumbent_set: [0, 1, 2]\nsecondary_set: [0]\n")
        assert load_config(str(path)).incumbent_set == frozenset({0, 1, 2})

    def test_integral_floats_load_as_integers(self, tmp_path):
        path = tmp_path / "floats.yaml"
        path.write_text("M: 512.0\nseed: 42.0\nincumbent_set: {range: [-5.0, 5.0]}\n"
                        "secondary_set: [0.0]\n")
        cfg = load_config(str(path))
        assert (cfg.M, cfg.seed) == (512, 42) and type(cfg.M) is type(cfg.seed) is int
        assert cfg.incumbent_set == frozenset(range(-5, 6))
        assert cfg.secondary_set == frozenset({0})

    def test_range_at_most_m_wide(self, tmp_path):
        path = tmp_path / "band.yaml"
        path.write_text("M: 64\nincumbent_set: {range: [-32, 31]}\n")
        assert load_config(str(path)).incumbent_set == frozenset(range(-32, 32))
        path.write_text("M: 64\nincumbent_set: {range: [-32, 32]}\n")
        with pytest.raises(ConfigError, match=r"^incumbent_set: range \[-32, 32\] is wider"):
            load_config(str(path))

    def test_reversed_range_rejected(self, tmp_path, capsys):
        # a reversed range names no subcarrier; one of width 1 names one
        path = tmp_path / "reversed.yaml"
        path.write_text("M: 64\nincumbent_set: {range: [3, 3]}\n")
        assert load_config(str(path)).incumbent_set == frozenset({3})
        path.write_text("M: 64\nincumbent_set: {range: [5, 3]}\n")
        with pytest.raises(ConfigError, match=r"^incumbent_set: range \[5, 3\] is reversed$"):
            load_config(str(path))
        out = tmp_path / "t.csv"
        assert main(["table", "--config", str(path), "--direction", "s2i", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: incumbent_set: range [5, 3] is reversed\n"
        assert not out.exists()

    def test_invalid_m_is_reported_before_a_range_width(self, tmp_path, capsys):
        # a range is measured against M only once M itself is valid
        path = tmp_path / "bad_m.yaml"
        path.write_text("M: -4\nincumbent_set: {range: [0, 0]}\n")
        assert main(["verify", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "error: M must be >= 8\n"

    def test_python_range_reads_as_the_file_does(self, tmp_path):
        path = tmp_path / "band.yaml"
        path.write_text("incumbent_set: {range: [-25, 25]}\n")
        cfg = CoexConfig(incumbent_set={"range": [-25, 25]})
        assert cfg == load_config(str(path)) == CoexConfig()
        assert cfg.incumbent_set == frozenset(range(-25, 26))

    def test_python_range_is_measured_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"^incumbent_set: range \[0, 1000000000000\] is "
                                                  r"wider than M = 512 subcarriers$"):
                CoexConfig(incumbent_set={"range": [0, 10 ** 12]})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # no set, nor a list of its members, was built

    @pytest.mark.parametrize("incumbent, M, bad", [
        (range(10 ** 6), 512, 256), ([0, -9, 3], 16, -9), ({"range": [200, 300]}, 512, 300),
        ({"range": [-300, -200]}, 512, -300)],
        ids=["python-range", "list", "range-high", "range-low"])
    def test_set_is_refused_at_an_entry_out_of_bounds(self, incumbent, M, bad):
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"^incumbent_set: entries must lie in "
                                                  rf"\[{-M // 2}, {M // 2 - 1}\], got {bad}$"):
                CoexConfig(M=M, incumbent_set=incumbent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # range(10 ** 6) was read up to its entry 256, not built

    def test_set_entry_cap_stops_a_huge_range_before_it_is_built(self, tmp_path, capsys):
        # M = 10^30 lets a range of 10^12 subcarriers pass the width bound: the entry cap stops it
        path = tmp_path / "huge.yaml"
        path.write_text(f"M: {10 ** 30}\nincumbent_set: {{range: [0, {10 ** 12}]}}\n")
        tracemalloc.start()
        try:
            rc = main(["verify", "--config", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == (f"error: incumbent_set: range [0, {10 ** 12}] holds "
                                           f"over {MAX_SET_ENTRIES} entries\n")
        assert peak < 2 ** 20

    @pytest.mark.parametrize("entries", [
        {"range": [-2, 2]}, [0, 1, 2, 3, 0], itertools.repeat(0)], ids=["range", "list", "endless"])
    def test_set_entry_cap_holds_for_ranges_and_lists(self, monkeypatch, entries):
        monkeypatch.setattr(txrx, "MAX_SET_ENTRIES", 4)
        with pytest.raises(ConfigError, match=r"^incumbent_set: .* 4 entries$"):
            CoexConfig(incumbent_set=entries)
        assert CoexConfig(incumbent_set=[0, 1, 2, 0]).incumbent_set == frozenset({0, 1, 2})
        assert CoexConfig(incumbent_set={"range": [-2, 1]}).incumbent_set == frozenset(range(-2, 2))

    @pytest.mark.parametrize("incumbent, secondary", [
        ({"range": [5, 3]}, {"range": [0, 10 ** 12]}),
        ([1000], {"range": [0, 10 ** 12]}),
        ("abc", {"range": [5, 3]}),
        ({"range": [0, 10 ** 12]}, [0.5]),
    ], ids=["reversed-wide", "outside-wide", "string-reversed", "wide-fractional"])
    def test_first_bad_set_is_named(self, tmp_path, incumbent, secondary):
        # the fields are read in order, so with both sets bad the incumbent's error is reported
        path = tmp_path / "sets.yaml"
        path.write_text(yaml.safe_dump({"incumbent_set": incumbent, "secondary_set": secondary}))
        for read in (lambda: CoexConfig(incumbent_set=incumbent, secondary_set=secondary),
                     lambda: load_config(str(path))):
            with pytest.raises(ConfigError, match=r"^incumbent_set"):
                read()

    def test_replace_on_a_config_loaded_from_a_range(self, config_file):
        cfg = load_config(config_file)
        moved = replace(cfg, cp_ratio="7/16")
        assert moved.cp_ratio == Fraction(7, 16)
        assert moved.incumbent_set == cfg.incumbent_set == frozenset(range(-5, 6))
        assert replace(moved, cp_ratio=Fraction(1, 8)) == cfg

    @pytest.mark.parametrize("value", ["5", "abc", "2.5", "null", "true"])
    def test_scalar_set_rejected(self, tmp_path, value):
        # a file's scalar and a Python caller's scalar or string get the same message
        path = tmp_path / "scalar.yaml"
        path.write_text(f"incumbent_set: {value}\n")
        for read in (lambda: load_config(str(path)),
                     lambda: CoexConfig(incumbent_set=yaml.safe_load(value))):
            with pytest.raises(ConfigError,
                               match=r"^incumbent_set: expected a list or \{range: \[lo, hi\]\}$"):
                read()

    @pytest.mark.parametrize("line, read", [
        ("secondary_set: [on]", True), ("var_qam: yes", True), ("delta_f: off", False),
        ("seed: yes", True), ("M: true", True), ("incumbent_set: {range: [no, 3]}", False)])
    def test_yaml_booleans_exit_2(self, tmp_path, capsys, line, read):
        # YAML 1.1 booleans: the first four ran simulate with exit 0 on subcarrier 1, var 1.0,
        # shift 0.0 and seed 1
        path = tmp_path / "flags.yaml"
        path.write_text(line + "\n")
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--config", str(path), "--direction", "s2i", "--symbols", "10",
                   "--out", str(out)])
        assert rc == 2 and not out.exists()
        field = line.split(":")[0]
        assert capsys.readouterr().err == f"error: {field}: expected a number, got {read}\n"

    def test_cli_imports_no_private_name(self):
        tree = ast.parse(Path(cli.__file__).read_text())
        private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   for alias in node.names if alias.name.startswith("_")]
        assert private == []


class TestWriterSpan:
    """cli calls the writer through its own global _write_csv, which a benchmark wraps."""

    def test_cli_writer_is_the_csvtext_writer(self):
        assert cli._write_csv is csvtext.write_csv

    @pytest.mark.parametrize("args", [
        ["table", "--direction", "s2i", "--lmin", "0", "--lmax", "2"],
        ["psd", "--lmin", "0", "--lmax", "2"],
        ["simulate", "--direction", "s2i", "--symbols", "10"]], ids=["table", "psd", "simulate"])
    def test_each_command_writes_through_it_once(self, config_file, tmp_path, monkeypatch, args):
        calls = []

        def spy(*a, **kw):
            calls.append(a[1])
            return csvtext.write_csv(*a, **kw)
        monkeypatch.setattr(cli, "_write_csv", spy)
        out = tmp_path / "out.csv"
        assert main([*args, "--config", config_file, "--out", str(out)]) == 0
        assert len(calls) == 1
        assert out.read_text().splitlines()[0] == ",".join(calls[0])


class TestTableCommand:
    def test_grid_and_symmetry(self, config_file, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["table", "--config", config_file, "--direction", "s2i",
                   "--lmin", "-50", "--lmax", "50", "--lstep", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "l,power_linear,power_db"
        assert len(lines) == 102
        db = {float(r.split(",")[0]): r.split(",")[2] for r in lines[1:]}
        for l in range(1, 51):
            assert db[l] == db[-l]

    def test_bad_step_exits_2(self, config_file, tmp_path):
        rc = main(["table", "--config", config_file, "--direction", "s2i",
                   "--lstep", "0", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_missing_config_exits_2(self, tmp_path):
        rc = main(["table", "--config", str(tmp_path / "none.yaml"), "--direction", "s2i",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_o2o_direction_rejected(self, config_file, tmp_path, capsys):
        rc = main(["table", "--config", config_file, "--direction", "o2o",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: no closed form or oracle for the offset direction 'o2o'\n"

    def test_both_directions_emit_fig5_pair(self, config_file, tmp_path):
        for direction in ("s2i", "i2s"):
            out = tmp_path / f"{direction}.csv"
            rc = main(["table", "--config", config_file, "--direction", direction,
                       "--lmin", "-20", "--lmax", "20", "--lstep", "0.5", "--out", str(out)])
            assert rc == 0
            assert len(out.read_text().splitlines()) == 82

    def test_grid_size_bound(self):
        # 10^6 points is the largest grid; one more is a usage error
        grid = cli._l_grid(Namespace(lmin=0.0, lmax=999_999.0, lstep=1.0))
        assert len(grid) == 10 ** 6
        with pytest.raises(ConfigError):
            cli._l_grid(Namespace(lmin=0.0, lmax=1e6, lstep=1.0))

    # 0.3 / 0.1 is 2.9999999999999996 in floating point: the last point stays
    @pytest.mark.parametrize("lmax, lstep, expected", [
        ("1", "0.6", [0.0, 0.6]),
        ("0.3", "0.1", [0.0, 0.1, 0.2, 0.3]),
    ])
    def test_grid_stops_at_lmax(self, config_file, tmp_path, lmax, lstep, expected):
        out = tmp_path / "t.csv"
        rc = main(["table", "--config", config_file, "--direction", "s2i",
                   "--lmin", "0", "--lmax", lmax, "--lstep", lstep, "--out", str(out)])
        assert rc == 0
        ls = [float(r.split(",")[0]) for r in out.read_text().splitlines()[1:]]
        assert ls == pytest.approx(expected, abs=1e-12)


def test_csv_bytes_match_per_scalar_formatting(tmp_path):
    # the writer formats columns of Python floats; rows of numpy scalars, formatted one at
    # a time, gave these bytes before, awkward values included
    l = np.array([-0.0, 0.1 * 3, -50 + 0.01 * 4999, 1 / 3, 1e-300, 123456.789012345678])
    power = np.array([0.0, -0.0, 1e-300, 5e-324, 1.0, np.nextafter(1.0, 2.0)])
    with np.errstate(divide="ignore"):
        db = np.append(power_db(power[:5]), 10 * np.log10(0.0))
    path = tmp_path / "awkward.csv"
    with open(path, "wb") as fh:
        csvtext.write_csv(fh, ["l", "power_linear", "power_db"], [l, power, db],
                          [csvtext.L, csvtext.LIN, csvtext.DB])
    old = "".join(f"{a:.10g},{b:.17e},{c:.6f}\n" for a, b, c in zip(l, power, db))
    assert path.read_bytes() == ("l,power_linear,power_db\n" + old).encode()
    lines = path.read_text().splitlines()
    assert lines[1] == "-0,0.00000000000000000e+00,-150.000000"
    assert lines[2] == "0.3,-0.00000000000000000e+00,-150.000000"
    assert lines[3].startswith("-0.01,")   # .10g rounds off the grid's float error
    assert lines[5] == "1e-300,1.00000000000000000e+00,0.000000"
    assert lines[6].endswith(",-inf")


def rowwise_write_csv(path, header, columns, formats):
    """Reference for _write_csv's bytes: one %-template per row, from per-column float lists."""
    line = ",".join(f"%{spec}" for spec in formats) + "\n"
    values = [np.asarray(column).tolist() for column in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(line.__mod__, zip(*values)))


# one row, and a second chunk that ends one row short, full, and a one-row third chunk
@pytest.mark.parametrize("rows", [1, 2 * csvtext._CSV_CHUNK - 1, 2 * csvtext._CSV_CHUNK,
                                  2 * csvtext._CSV_CHUNK + 1])
def test_chunked_csv_bytes_match_rowwise_reference(tmp_path, rows):
    rng = np.random.default_rng(rows)
    l = -50 + 0.01 * np.arange(rows)
    l[rows // 2] = -0.0
    power = 10.0 ** rng.uniform(-300, 3, rows)
    power[-1] = -0.0
    with np.errstate(divide="ignore"):
        db = power_db(power)
    args = (["l", "power_linear", "power_db"], [l, power, db],
            [csvtext.L, csvtext.LIN, csvtext.DB])
    with open(tmp_path / "chunked.csv", "wb") as fh:
        csvtext.write_csv(fh, *args)
    rowwise_write_csv(str(tmp_path / "rowwise.csv"), *args)
    written = (tmp_path / "chunked.csv").read_bytes()
    assert written == (tmp_path / "rowwise.csv").read_bytes()
    assert written.count(b"\n") == rows + 1 and b",-0.00000000000000000e+00," in written


def percent_e17(values):
    """The reference for csvtext._lin_text: Python's % with .17e, one value at a time."""
    return [("%.17e" % v).encode() for v in np.asarray(values, dtype=float).tolist()]


class TestRenderLin:
    REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
    TABLE_L = -50 + 0.01 * np.arange(10_001)  # the validate tables' grid

    @pytest.mark.parametrize("cp", ["0", "1/8", "7/16"])
    @pytest.mark.parametrize("direction", ["s2i", "i2s"])
    def test_reference_tables(self, direction, cp):
        config = replace(load_config(str(self.REFERENCE)), cp_ratio=cp)
        values = build_table(direction, self.TABLE_L, config)
        assert csvtext._cells(csvtext._lin_text(values)) == percent_e17(values)

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(31)
        anything = rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64)
        # positive doubles between 2^-330 and 2^333, about 1e-99 to 1e100: the rendered range
        exponent = rng.integers(1023 - 330, 1023 + 333, 50_000, dtype=np.uint64)
        in_range = (exponent << np.uint64(52)) | rng.integers(0, 2 ** 52, 50_000, dtype=np.uint64)
        values = np.concatenate([anything, in_range]).view(np.float64)
        assert csvtext._cells(csvtext._lin_text(values)) == percent_e17(values)

    def test_powers_of_ten_and_their_neighbours(self):
        # the largest double below each power of ten is the only value that could round up to
        # it, a carry into the exponent
        powers = np.array([float(f"1e{k}") for k in range(-99, 101)])
        values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert csvtext._cells(csvtext._lin_text(values)) == percent_e17(values)

    def test_exact_ties(self):
        # q / 2^18 in [1, 2) for odd q is exactly halfway between two 18-digit decimals
        values = np.arange((1 << 18) + 1, (1 << 18) + 20_000, 2) / 2.0 ** 18
        assert "%.17e" % values[0] == "1.00000381469726562e+00"  # 1.000003814697265625, to even
        assert csvtext._cells(csvtext._lin_text(values)) == percent_e17(values)

    def test_values_outside_the_rendered_range(self):
        values = np.array([0.0, -0.0, -1.0, -2.5e-7, 5e-324, 2.2e-309, np.inf, -np.inf, np.nan,
                           1e-100, 9.99e-100, 1e-99, 1e100, 1e300, 1.7976931348623157e308, 0.1])
        rendered = csvtext._cells(csvtext._lin_text(values))
        assert rendered == percent_e17(values)
        assert rendered[:3] == [b"0.00000000000000000e+00", b"-0.00000000000000000e+00",
                                b"-1.00000000000000000e+00"]
        assert rendered[9:13] == [b"1.00000000000000002e-100", b"9.99000000000000083e-100",
                                  b"1.00000000000000002e-99", b"1.00000000000000002e+100"]

    def test_reference_tables_never_fall_back(self, monkeypatch):
        # the fallback keeps the bytes either way: only this shows the fast path carries the
        # validate tables (s2i and i2s over l = -50 .. 50, step 0.01, at cp 1/8)
        seen, percent = [], csvtext._percent

        def spy(values, spec):
            if spec == csvtext.LIN:  # not the other columns' calls, as l = 0's in the tables
                seen.extend(values.tolist())
            return percent(values, spec)
        monkeypatch.setattr(csvtext, "_percent", spy)
        # 0.5 is an exact 18-digit decimal: a scaled value on an integer goes to the fallback
        values = np.array([0.1, 0.0, 0.5, 0.3])
        assert csvtext._cells(csvtext._lin_text(values)) == percent_e17(values)
        assert seen == [0.0, 0.5]
        seen.clear()
        for direction in ("s2i", "i2s"):
            rc = main(["table", "--config", str(self.REFERENCE), "--direction", direction,
                       "--lmin", "-50", "--lmax", "50", "--lstep", "0.01",
                       "--out", os.devnull])
            assert rc == 0
        assert seen == []


class TestRenderFixedPoint:
    """_l_text (%.10g) and _db_text (%.6f): the bytes of Python's %, value by value."""

    @staticmethod
    def percent(values, spec):
        return [(f"%{spec}" % v).encode() for v in np.asarray(values, dtype=float).tolist()]

    @pytest.mark.parametrize("spec, exponents",
                             [(csvtext.L, (-17, 34)), (csvtext.DB, (-30, 15))], ids=["l", "db"])
    def test_random_values(self, spec, exponents):
        # any bit pattern, and both signs around the range each renderer computes
        rng = np.random.default_rng(47)
        exponent = rng.integers(1023 + exponents[0], 1023 + exponents[1], 20_000, dtype=np.uint64)
        bits = np.concatenate([rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64),
                               (exponent << np.uint64(52))
                               | rng.integers(0, 2 ** 52, 20_000, dtype=np.uint64)
                               | rng.integers(0, 2, 20_000, dtype=np.uint64) << np.uint64(63)])
        values = bits.view(np.float64)
        assert csvtext._cells(csvtext._TEXT[spec](values)) == self.percent(values, spec)

    def test_exact_ties_round_to_even(self):
        # q / 2^(10-X), q odd, is halfway between two 10-digit decimals; q / 2^7 between
        # two 6-decimal ones
        ties = np.concatenate([np.arange(1025, 10240, 2) / 2.0 ** 10,
                               np.arange(1, 40_000, 2) / 2.0 ** 13])
        assert "%.10g" % ties[0] == "1.000976562"  # 1.0009765625, to even
        assert csvtext._cells(csvtext._l_text(-ties)) == self.percent(-ties, csvtext.L)
        ties = np.arange(1, 1 << 16, 2) / 2.0 ** 7
        assert "%.6f" % ties[0] == "0.007812"  # 0.0078125, to even
        assert csvtext._cells(csvtext._db_text(-ties)) == self.percent(-ties, csvtext.DB)

    def test_edges(self):
        values = np.array([0.0, -0.0, 1e-4, -9.99999999995e-5, 9.999999999e-5, 123456.789012345678,
                           9999999999.4, 9999999999.5, 1e10, 0.1 * 3, 1e-300, 5e-324, 1.0, -7.5,
                           9999.9999994, 9999.9999995, 1e4, -1e-9, 1e300, np.inf, -np.inf, np.nan])
        for spec in (csvtext.L, csvtext.DB):
            assert csvtext._cells(csvtext._TEXT[spec](values)) == self.percent(values, spec)

    def test_reference_tables_fall_back_only_at_zero(self, monkeypatch):
        # the validate tables' only cell that goes through % is l = 0 ("0"); l = -0.01 and
        # 0.01 are 0.00999999999999801 in doubles, whose 10 digits carry into 0.01
        seen = []

        def spy(values, spec):
            seen.extend((spec, v) for v in values.tolist())
            return self.percent(values, spec)
        monkeypatch.setattr(csvtext, "_percent", spy)
        for direction in ("s2i", "i2s"):
            rc = main(["table", "--config", str(TestRenderLin.REFERENCE), "--direction",
                       direction, "--lmin", "-50", "--lmax", "50", "--lstep", "0.01",
                       "--out", os.devnull])
            assert rc == 0
        assert seen == [(csvtext.L, 0.0)] * 2


class TestYamlLoader:
    CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))

    def test_there_are_configs(self):
        assert len(self.CONFIGS) >= 2

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_configs_load_equal_under_both_loaders(self, monkeypatch, path):
        fast = load_config(str(path))
        monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
        assert load_config(str(path)) == fast

    @pytest.mark.parametrize("loader", ["fast", "pure"])
    def test_malformed_yaml_exits_2(self, tmp_path, capsys, monkeypatch, loader):
        if loader == "pure":
            monkeypatch.setattr(cli, "_YAML_LOADER", yaml.SafeLoader)
        path = tmp_path / "broken.yaml"
        path.write_text("M: [512\ncp_ratio: 1/8\n")
        rc = main(["table", "--config", str(path), "--direction", "s2i",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: malformed config {path}")


class TestSimulateCommand:
    def test_columns_and_determinism(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            rc = main(["simulate", "--config", config_file, "--direction", "s2i",
                       "--symbols", "200", "--out", str(out)])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "l,power_mc,std_err,power_closed,power_psd"
        assert len(lines) == 12

    def test_mc_tracks_closed_column(self, config_file, tmp_path):
        out = tmp_path / "s.csv"
        main(["simulate", "--config", config_file, "--direction", "s2i",
              "--symbols", "1200", "--out", str(out)])
        psd_miss = 0.0
        for row in out.read_text().splitlines()[1:]:
            l, p_mc, _, p_closed, p_psd = row.split(",")
            assert abs(10 * np.log10(float(p_mc) / float(p_closed))) < 0.5
            if abs(float(l)) >= 2:
                psd_miss = max(psd_miss, abs(10 * np.log10(float(p_psd) / float(p_mc))))
        # toward the CP-OFDM victim the PSD column visibly departs from the MC
        assert psd_miss > 10.0

    def test_seed_override_changes_output(self, config_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--config", config_file, "--direction", "o2o",
              "--symbols", "64", "--out", str(a)])
        main(["simulate", "--config", config_file, "--direction", "o2o",
              "--symbols", "64", "--seed", "7", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_delta_f_override_shifts_l(self, config_file, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--config", config_file, "--direction", "s2i",
                   "--symbols", "10", "--delta-f", "0.3", "--out", str(out)])
        assert rc == 0
        l_values = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
        assert np.allclose(l_values, np.arange(-5, 6) + 0.3, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("direction, estimator, config_text", [
        ("s2i", "estimate_oqam_to_ofdm", GOOD_CONFIG),
        ("i2s", "estimate_ofdm_to_oqam", I2S_CONFIG),
    ], ids=["s2i", "i2s"])
    def test_estimator_is_read_from_the_module_at_call_time(self, tmp_path, monkeypatch,
                                                            direction, estimator, config_text):
        # a wrapper installed on the module's estimator must see the run and its trial count
        path = tmp_path / "scenario.yaml"
        path.write_text(config_text)
        original, trials = getattr(cli, estimator), []

        def spy(*args, **kwargs):
            est = original(*args, **kwargs)
            trials.append(est.trials)
            return est

        monkeypatch.setattr(cli, estimator, spy)
        rc = main(["simulate", "--config", str(path), "--direction", direction,
                   "--symbols", "300", "--out", str(tmp_path / "x.csv")])
        assert rc == 0
        assert trials == [300]


    @pytest.mark.parametrize("config_text, symbols, error", [
        (GOOD_CONFIG, "0", "n_symbols must be >= 1"),
        (MULTI_INTERFERER, "10", "estimator needs exactly one secondary (interferer) subcarrier"),
        (GOOD_CONFIG.replace("M: 512", f"M: {10 ** 30}"), "10", "M = 10"),
    ], ids=["zero-symbols", "two-interferers", "burst-cap"])
    def test_estimator_input_is_refused_before_the_overlay(self, tmp_path, capsys, monkeypatch,
                                                           config_text, symbols, error):
        # a victim set M wide makes the overlay a table of M points: it is built only for a
        # run the estimator accepts
        path = tmp_path / "scenario.yaml"
        path.write_text(config_text)
        calls = []
        monkeypatch.setattr(cli, "build_table", lambda *args: calls.append(args))
        rc = main(["simulate", "--config", str(path), "--direction", "s2i", "--symbols", symbols,
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2 and calls == []
        assert capsys.readouterr().err.startswith(f"error: {error}")


# s2i at cp 0 and 10 windows: a burst is counted as 10 M samples plus an OQAM pulse span (K M)
# and a slot step (M/2) either side, 19 M in all; the smallest even M over the cap
ABOVE_CAP_M = 2 * (mc._MAX_BURST_SAMPLES // 38 + 1)


class TestBurstCap:
    @pytest.mark.parametrize("M", [10 ** 30, ABOVE_CAP_M, 512], ids=["1e30", "above-cap", "512"])
    def test_simulate_measures_a_burst_before_building_it(self, tmp_path, capsys, M):
        assert 19 * (ABOVE_CAP_M - 2) <= mc._MAX_BURST_SAMPLES < 19 * ABOVE_CAP_M
        path = tmp_path / "scenario.yaml"
        path.write_text(f"M: {M}\ncp_ratio: 0\nincumbent_set: {{range: [-5, 5]}}\nsecondary_set: [0]\n")
        out = tmp_path / "s.csv"
        tracemalloc.start()
        try:
            rc = main(["simulate", "--config", str(path), "--direction", "s2i", "--symbols", "10",
                       "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if M == 512:
            assert rc == 0 and out.exists()
            return
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == (f"error: M = {M}: a burst spans {19 * M} > "
                                           f"{mc._MAX_BURST_SAMPLES} samples\n")
        assert peak < 2 ** 20  # nothing M long was built


class TestOffsetCycleCap:
    @pytest.mark.parametrize("args", [["table", "--direction", "i2s"], ["verify"]],
                             ids=["i2s-table", "verify"])
    def test_long_i2s_cycle_exits_2(self, tmp_path, capsys, args):
        # cp = 1/2^20: a cycle of 2^20 + 1 slots, refused before it is enumerated
        path = tmp_path / "scenario.yaml"
        path.write_text("M: 1048576\n")
        out = tmp_path / "t.csv"
        rc = main([*args, "--config", str(path), "--cp-ratio", "1/1048576",
                   *(["--out", str(out)] if args[0] == "table" else [])])
        assert rc == 2 and not out.exists()
        assert capsys.readouterr() == ("", "error: cp_ratio = 1/1048576: i2s offset cycle of "
                                           "1048577 slots, over 4096\n")

    def test_simulate_refuses_the_cycle_before_the_monte_carlo_run(self, tmp_path, capsys,
                                                                    monkeypatch):
        # the overlay is built first, on the estimate's l values, so the estimator never runs
        path = tmp_path / "scenario.yaml"
        path.write_text("M: 4096\nincumbent_set: [0]\nsecondary_set: {range: [-25, 25]}\n")
        original, calls = cli.estimate_ofdm_to_oqam, []

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "estimate_ofdm_to_oqam", spy)
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--config", str(path), "--direction", "i2s", "--symbols", "10000",
                   "--cp-ratio", "1/4096", "--out", str(out)])
        assert rc == 2 and not out.exists() and calls == []
        assert capsys.readouterr() == ("", "error: cp_ratio = 1/4096: i2s offset cycle of "
                                           "4097 slots, over 4096\n")


class TestDirectionTable:
    NAMES = {d.name for d in DIRECTIONS}

    def test_cli_choices_are_the_table(self, config_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["simulate", "--config", config_file, "--direction", "sideways",
                  "--out", str(tmp_path / "x.csv")])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and all(d.name in err for d in DIRECTIONS)

    def test_one_unknown_direction_error(self):
        filt, cfg = phydyas_k4(), CoexConfig()
        calls = [lambda: lookup_direction("sideways"),
                 lambda: build_table("sideways", [0.0], cfg),
                 lambda: quadrature_I("sideways", 0.0, filt),
                 lambda: _window_taus("sideways", 0, 0, filt),
                 lambda: psd_interference("sideways", 0.0, cfg)]
        for call in calls:
            with pytest.raises(ValueError, match=r"^unknown direction 'sideways', expected one of"):
                call()

    def test_offset_direction_has_no_closed_form_or_oracle(self):
        filt = phydyas_k4()
        for call in (lambda: build_table("o2o", [0.0], CoexConfig()),
                     lambda: quadrature_I("o2o", 0.0, filt),
                     lambda: _window_taus("o2o", 0, 0, filt)):
            with pytest.raises(ValueError, match="offset direction 'o2o'"):
                call()

    def test_names_are_compared_only_in_the_lookup(self):
        # no module dispatches on a direction name by hand: no comparison with a name and
        # no dict keyed by one outside txrx.lookup_direction
        src = Path(cli.__file__).parent
        for path in sorted(src.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                elif isinstance(node, ast.Dict):
                    operands = [key for key in node.keys if key is not None]
                else:
                    continue
                names = {n.value for op in operands for n in ast.walk(op)
                         if isinstance(n, ast.Constant) and n.value in self.NAMES}
                assert not names, f"{path.name}:{node.lineno} compares {sorted(names)}"


class TestVerifyCommand:
    def test_passes_on_reference_filter(self, config_file, capsys):
        rc = main(["verify", "--config", config_file])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 8

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["verify", "--config", str(tmp_path / "none.yaml")])
        assert rc == 2


class TestErrorMapping:
    @pytest.mark.parametrize("config_text, args", [
        (GOOD_CONFIG, ["table", "--direction", "s2i", "--cp-ratio", "one-eighth"]),
        (GOOD_CONFIG, ["table", "--direction", "s2i", "--cp-ratio", "1/0"]),
        (BAD_CP_VALUE, ["table", "--direction", "s2i"]),
        (GOOD_CONFIG, ["simulate", "--direction", "s2i", "--symbols", "10", "--delta-f", "0.7"]),
        (GOOD_CONFIG, ["simulate", "--direction", "s2i", "--symbols", "0"]),
        (MULTI_INTERFERER, ["simulate", "--direction", "s2i", "--symbols", "10"]),
        (ODD_M_OQAM_VICTIM, ["simulate", "--direction", "i2s", "--symbols", "10"]),
        (GOOD_CONFIG, ["table", "--direction", "s2i", "--lmin", "nan"]),
        (GOOD_CONFIG, ["table", "--direction", "s2i", "--lstep", "nan"]),
        (GOOD_CONFIG, ["table", "--direction", "s2i", "--lmax", "inf"]),
        (GOOD_CONFIG, ["psd", "--lmin", "nan"]),
        (GOOD_CONFIG, ["psd", "--lstep", "nan"]),
        (GOOD_CONFIG, ["psd", "--lmax", "inf"]),
        (FRACTIONAL_M, ["table", "--direction", "s2i"]),
        (FRACTIONAL_SEED, ["table", "--direction", "s2i"]),
        (FRACTIONAL_RANGE, ["table", "--direction", "s2i"]),
        (FRACTIONAL_LIST, ["table", "--direction", "s2i"]),
        (GOOD_CONFIG, ["simulate", "--direction", "s2i", "--symbols", "10", "--seed", "-1"]),
        (NEGATIVE_SEED, ["simulate", "--direction", "s2i", "--symbols", "10"]),
        (NAN_VAR_PAM, ["table", "--direction", "s2i"]),
        (INF_VAR_PAM, ["table", "--direction", "s2i"]),
        (HUGE_VAR_QAM, ["table", "--direction", "s2i"]),
        (NO_INCUMBENT, ["simulate", "--direction", "s2i", "--symbols", "10"]),
        (NO_INCUMBENT, ["simulate", "--direction", "o2o", "--symbols", "10"]),
        (NO_SECONDARY, ["simulate", "--direction", "i2s", "--symbols", "10"]),
        (GOOD_CONFIG, ["table", "--direction", "s2i", *HUGE_GRID]),
        (GOOD_CONFIG, ["table", "--direction", "i2s", "--lmin=-1e308", "--lmax=1e308"]),
        (GOOD_CONFIG, ["psd", *HUGE_GRID]),
        (WIDE_RANGE, ["table", "--direction", "s2i"]),
    ], ids=["cp-flag", "cp-flag-zero-denominator", "cp-config", "delta-f", "zero-symbols",
            "two-interferers", "odd-m-oqam-victim", "table-lmin-nan", "table-lstep-nan",
            "table-lmax-inf", "psd-lmin-nan", "psd-lstep-nan", "psd-lmax-inf",
            "fractional-m", "fractional-seed", "fractional-range", "fractional-list",
            "seed-flag-negative", "seed-config-negative", "var-pam-nan", "var-pam-inf",
            "var-qam-overflow",
            "s2i-no-victim", "o2o-no-victim", "i2s-no-victim", "table-huge-grid",
            "table-overflowing-grid", "psd-huge-grid", "wide-range"])
    def test_user_input_errors_exit_2(self, tmp_path, capsys, config_text, args):
        path = tmp_path / "scenario.yaml"
        path.write_text(config_text)
        rc = main([*args, "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2 and not (tmp_path / "x.csv").exists()
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("seed", [2 ** 128 - 1, 2 ** 128])
    def test_seed_is_a_128_bit_key(self, config_file, tmp_path, capsys, seed):
        # a seed of 2^128 or more would alias seed mod 2^128 in the Monte-Carlo key
        out = tmp_path / "s.csv"
        rc = main(["simulate", "--config", config_file, "--direction", "s2i", "--symbols", "10",
                   "--seed", str(seed), "--out", str(out)])
        if seed < 2 ** 128:
            assert rc == 0 and out.exists()
            return
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: seed: {seed} is not below 2^128\n"

    @pytest.mark.parametrize("cause", ["missing-directory", "directory"])
    @pytest.mark.parametrize("args", [["table", "--direction", "s2i"], ["psd"],
                                      ["simulate", "--direction", "s2i", "--symbols", "10"]],
                             ids=["table", "psd", "simulate"])
    def test_unwritable_out_exits_2(self, config_file, tmp_path, capsys, monkeypatch, args,
                                    cause):
        # reported as a usage error, and found before the Monte-Carlo run
        if cause == "directory":
            out, reason = tmp_path, os.strerror(errno.EISDIR)
        else:
            out, reason = tmp_path / "missing" / "x.csv", os.strerror(errno.ENOENT)
        estimate, calls = mc._estimate, []

        def spy(*args):
            calls.append(args)
            return estimate(*args)

        monkeypatch.setattr(mc, "_estimate", spy)
        rc = main([*args, "--config", config_file, "--out", str(out)])
        assert rc == 2 and calls == []
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("args", [["table", "--direction", "s2i", "--out", "x.csv"],
                                      ["verify"], ["psd", "--out", "x.csv"],
                                      ["simulate", "--direction", "s2i", "--out", "x.csv"]],
                             ids=["table", "verify", "psd", "simulate"])
    def test_no_flag_keeps_the_loaded_config(self, config_file, args):
        # nothing to override: the config is not replaced, so its sets are not read again
        parsed = cli._build_parser().parse_args([*args, "--config", config_file])
        config = load_config(config_file)
        assert cli._apply_overrides(config, parsed) is config
        moved = cli._apply_overrides(config, cli._build_parser().parse_args(
            [*args, "--config", config_file, "--cp-ratio", "7/16"]))
        assert moved == replace(config, cp_ratio=Fraction(7, 16))
        with pytest.raises(ConfigError, match=r"^cp_ratio: "):
            cli._apply_overrides(config, cli._build_parser().parse_args(
                [*args, "--config", config_file, "--cp-ratio", "1/0"]))

    def test_cp_ratio_flag_is_read_by_the_config(self, config_file, capsys):
        # the flag's value passes the field's reader, so its error names the field
        assert main(["verify", "--config", config_file, "--cp-ratio", "1/0"]) == 2
        assert capsys.readouterr().err == "error: cp_ratio: Fraction(1, 0)\n"

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--delta-f", "0.1"]],
                             ids=["seed", "delta-f"])
    @pytest.mark.parametrize("args", [["table", "--direction", "s2i", "--out", "x.csv"],
                                      ["verify"], ["psd", "--out", "x.csv"]],
                             ids=["table", "verify", "psd"])
    def test_seed_and_delta_f_are_simulate_only(self, config_file, capsys, args, flag):
        with pytest.raises(SystemExit) as exit_info:
            main([*args, "--config", config_file, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_usage_error(self, config_file, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(cli, "build_table", broken)
        with pytest.raises(ValueError, match="internal failure"):
            main(["table", "--config", config_file, "--direction", "s2i",
                  "--out", str(tmp_path / "x.csv")])


class TestVerifySuiteNegative:
    def test_corrupted_coefficient_fails_checks(self):
        bad = PrototypeFilter(overlap_K=4, coeffs=(1.0, 0.9, 1 / np.sqrt(2), 0.235147))
        results = {r.name: r.passed for r in run_all_checks(bad, Fraction(1, 8))}
        assert not results["parseval-power-conservation"]
        assert not results["filter-normalization"]
        # closed form and oracle share the corrupted coefficients, so their
        # equivalence still holds; the energy checks are what catch the damage
        assert not results["filter-unit-energy"]


class TestPsdCommand:
    def test_psd_csv(self, config_file, tmp_path):
        out = tmp_path / "psd.csv"
        rc = main(["psd", "--config", config_file, "--lmin", "-2", "--lmax", "2",
                   "--lstep", "0.5", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f_norm,psd_cpofdm,psd_oqam,psd_cpofdm_db,psd_oqam_db"
        assert len(lines) == 10


def run_fresh(code: str, cwd=None, args=()) -> subprocess.CompletedProcess:
    """Run Python code in a fresh interpreter that imports coexsim from this tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": src})


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency: the runtime must not import it
    code = ("import sys, coexsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_fresh(code).stdout.strip() == "[]"


class TestParserBuiltOnce:
    CALLS = [["table", "--direction", "s2i", "--lmin", "-3", "--lmax", "3", "--out", "a.csv"],
             ["verify"],
             ["table", "--direction", "i2s", "--lmin", "-3", "--lmax", "3", "--out", "b.csv"]]
    USAGE_ERROR = ["table", "--out", "c.csv"]   # no --direction

    @pytest.fixture
    def built(self, monkeypatch):
        """Counts parser builds from here on (each adds the subcommands once); the cache
        starts and ends empty."""
        builds = []
        add_subparsers = argparse.ArgumentParser.add_subparsers

        def spy(parser, **kwargs):
            builds.append(parser.prog)
            return add_subparsers(parser, **kwargs)

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
        yield builds
        cli._build_parser.cache_clear()

    def test_one_build_per_process(self, built, config_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = ["--config", config_file]
        runs = []
        for args in self.CALLS:
            runs.append((main([*args, *cfg]), *capsys.readouterr()))
        with pytest.raises(SystemExit) as exit_info:
            main([*self.USAGE_ERROR, *cfg])
        runs.append((exit_info.value.code, *capsys.readouterr()))
        assert built == ["coexsim"]
        outputs = {name: (tmp_path / name).read_bytes() for name in ("a.csv", "b.csv")}
        # the same calls, one fresh process each
        code = "import sys\nfrom coexsim.cli import main\nsys.exit(main(sys.argv[1:]))"
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        fresh = [run_fresh(code, fresh_dir, [*args, *cfg])
                 for args in [*self.CALLS, self.USAGE_ERROR]]
        assert runs == [(done.returncode, done.stdout, done.stderr) for done in fresh]
        assert [rc for rc, _, _ in runs] == [0, 0, 0, 2]
        assert outputs == {name: (fresh_dir / name).read_bytes() for name in outputs}


class TestImportFootprint:
    """No command loads numpy.random or numpy.polynomial: the Monte-Carlo draws are montecarlo's
    own Philox."""
    MODULES = ("numpy.random", "numpy.polynomial")
    LOADED = ("import json, sys\n{run}\n"
              "print(json.dumps([m for m in {modules!r} if m in sys.modules]))")
    SIMULATE = ["simulate", "--symbols", "10", "--out", "s.csv", "--direction"]

    @pytest.fixture(scope="class")
    def checked(self, tmp_path_factory):
        """The modules that a bare `import numpy` leaves unloaded: only those can be checked."""
        done = run_fresh(self.LOADED.format(run="import numpy", modules=self.MODULES),
                         tmp_path_factory.mktemp("bare"))
        preloaded = json.loads(done.stdout)
        return [m for m in self.MODULES if m not in preloaded]

    def loaded(self, args, config_file, cwd, before=""):
        run = (f"{before}\nfrom coexsim.cli import main\n"
               f"assert main({[*args, '--config', config_file]!r}) == 0")
        done = run_fresh(self.LOADED.format(run=run, modules=self.MODULES), cwd)
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    @pytest.mark.parametrize("args", [["verify"],
                                      ["table", "--direction", "i2s", "--out", "t.csv"],
                                      ["psd", "--out", "p.csv"],
                                      [*SIMULATE, "s2i"], [*SIMULATE, "i2s"], [*SIMULATE, "o2o"]],
                             ids=["verify", "table", "psd", "simulate-s2i", "simulate-i2s",
                                  "simulate-o2o"])
    def test_command_leaves_modules_unloaded(self, checked, config_file, tmp_path, args):
        if not checked:
            pytest.skip("a bare `import numpy` loads every module checked here")
        if "i2s" in args and args[0] == "simulate":
            config_file = tmp_path / "i2s.yaml"
            config_file.write_text(I2S_CONFIG)
        assert [m for m in self.loaded(args, str(config_file), tmp_path) if m in checked] == []

    def test_an_import_during_the_run_is_seen(self, checked, config_file, tmp_path):
        # the control: a symbol draw that imports numpy.random shows in the same probe
        if "numpy.random" not in checked:
            pytest.skip("a bare `import numpy` loads numpy.random")
        before = ("import coexsim.montecarlo as mc\n"
                  "draw = mc._draw_pam\n"
                  "def importing(*args):\n"
                  "    import numpy.random\n"
                  "    return draw(*args)\n"
                  "mc._draw_pam = importing")
        assert "numpy.random" in self.loaded([*self.SIMULATE, "s2i"], config_file, tmp_path,
                                             before)


def _either(valid, invalid):
    """Valid values fifteen times in sixteen, so that whole scenarios often run."""
    return st.sampled_from(range(16)).flatmap(lambda k: invalid if k == 0 else valid)


def _ratio(q):
    return st.tuples(st.integers(0, 64), q).map(lambda pq: f"{pq[0]}/{pq[1]}")


_JUNK = st.sampled_from(["junk", "", [1], {"a": 1}, None, True])
# one subcarrier often: each estimator takes exactly one interferer
_SUBCARRIERS = _either(
    st.one_of(st.integers(-4, 3).map(lambda n: [n]), st.lists(st.integers(-4, 3), max_size=3),
              st.tuples(st.integers(-4, 3), st.integers(0, 3)).map(
                  lambda r: {"range": [r[0], r[0] + r[1]]})),
    st.one_of(st.integers(-5, 5), st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=2),
              st.lists(st.floats(allow_nan=True), min_size=1, max_size=2),
              st.tuples(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12)).map(
                  lambda r: {"range": list(r)}),
              st.just({"range": [0]}), st.just({"span": [0, 1]}), _JUNK))
_VARIANCE = _either(st.floats(1e-3, 1e3),
                    st.one_of(st.sampled_from([0.0, -1.0, float("inf"), float("nan"), 10 ** 400]),
                              _JUNK))
_SCENARIO = st.tuples(st.fixed_dictionaries({
    "M": _either(st.sampled_from([8, 16, 64, 512]),
                 st.sampled_from([7, 10 ** 30, 512.5, -8, "512", float("nan")])),
    # p/q with q <= 64, most often a power of two, so that M cp is whole; longer offset cycles
    # are slow by design, not faulty
    "cp_ratio": _either(
        st.one_of(_ratio(st.sampled_from([1, 2, 4, 8, 16, 32, 64])),
                  st.sampled_from([0, 0.0, 0.125, 0.25, 1.5])),
        st.one_of(_ratio(st.integers(1, 64)), st.sampled_from([0.1, 0.3, -0.125]),
                  st.sampled_from(["one-eighth", "1/0", "-1/8", float("nan"), float("inf")]),
                  _JUNK)),
    "incumbent_set": _SUBCARRIERS,
    "secondary_set": _SUBCARRIERS,
    "var_qam": _VARIANCE,
    "var_pam": _VARIANCE,
    "delta_f": _either(st.floats(-0.49, 0.5),
                       st.one_of(st.sampled_from([0.5000001, -0.5, float("inf"), float("nan")]),
                                 _JUNK)),
    "seed": _either(st.integers(0, 2 ** 70),
                    st.one_of(st.sampled_from([-1, 1.5, float("inf"), float("nan"), 2 ** 128]),
                              _JUNK))}),
    _either(st.just({}), st.just({"unknown_key": 1}))).map(lambda kv: {**kv[0], **kv[1]})
_GRID = _either(
    st.tuples(st.integers(-40, 40), st.sampled_from([0.25, 0.5, 1.0, 3.0]), st.integers(0, 4)).map(
        lambda g: ["--lmin", str(g[0] / 2), "--lmax", str(g[0] / 2 + g[1] * g[2]),
                   "--lstep", str(g[1])]),
    st.sampled_from([["--lstep", "0"], ["--lstep", "-1"], ["--lmin", "3", "--lmax", "1"],
                     ["--lmin", "nan"], ["--lstep", "x"]]))
_DIRECTION = _either(st.sampled_from([d.name for d in DIRECTIONS]), st.just("sideways"))
_COMMAND = st.one_of(
    st.tuples(st.just(["table", "--direction"]), _DIRECTION.map(lambda d: [d]), _GRID),
    st.tuples(st.just(["simulate", "--direction"]), _DIRECTION.map(lambda d: [d]),
              st.integers(-1, 40).map(lambda n: ["--symbols", str(n)])),
    st.tuples(st.just(["verify"]), st.just([]), st.just([])),
    st.tuples(st.just(["psd"]), st.just([]), _GRID))


@settings(max_examples=200, deadline=None, database=None)
@given(scenario=_SCENARIO, command=_COMMAND)
def test_any_scenario_exits_0_1_or_2_in_bounded_time_and_memory(tmp_path_factory, scenario,
                                                                 command):
    # every command on generated scenario files: a result or a clear refusal, never a traceback
    work = tmp_path_factory.mktemp("scenario")
    path = work / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    out = [] if command[0] == ["verify"] else ["--out", str(work / "out.csv")]
    argv = [*itertools.chain(*command), "--config", str(path), *out]
    start = time.perf_counter()
    tracemalloc.start()
    try:
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse's usage error
            rc = e.code
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc in (0, 1, 2), argv
    assert time.perf_counter() - start < 5.0, argv
    assert peak < 64 * 2 ** 20, argv
