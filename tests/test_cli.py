"""CLI: config ingestion, CSV emission, verification report, exit codes."""

import ast
import os
import subprocess
import sys
from argparse import Namespace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

import coexsim.cli as cli
from coexsim.checks import run_all_checks
from coexsim.cli import ConfigError, load_config, main
from coexsim.closedform import build_table, power_db
from coexsim.filterbank import PrototypeFilter, phydyas_k4
from coexsim.oracle import contributing_shifts, quadrature_I
from coexsim.psdmodel import psd_interference
from coexsim.txrx import DIRECTIONS, CoexConfig, lookup_direction

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
NEGATIVE_SEED = GOOD_CONFIG.replace("seed: 42", "seed: -3")
NAN_VAR_PAM = GOOD_CONFIG.replace("var_pam: 0.5", "var_pam: .nan")
INF_VAR_PAM = GOOD_CONFIG.replace("var_pam: 0.5", "var_pam: .inf")
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
    cli._write_csv(str(path), ["l", "power_linear", "power_db"], [l, power, db],
                   [cli._L, cli._LIN, cli._DB])
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


@pytest.mark.parametrize("rows", [1, cli._CSV_CHUNK - 1, cli._CSV_CHUNK, cli._CSV_CHUNK + 1])
def test_chunked_csv_bytes_match_rowwise_reference(tmp_path, rows):
    rng = np.random.default_rng(rows)
    l = -50 + 0.01 * np.arange(rows)
    l[rows // 2] = -0.0
    power = 10.0 ** rng.uniform(-300, 3, rows)
    power[-1] = -0.0
    with np.errstate(divide="ignore"):
        db = power_db(power)
    args = (["l", "power_linear", "power_db"], [l, power, db], [cli._L, cli._LIN, cli._DB])
    cli._write_csv(str(tmp_path / "chunked.csv"), *args)
    rowwise_write_csv(str(tmp_path / "rowwise.csv"), *args)
    written = (tmp_path / "chunked.csv").read_bytes()
    assert written == (tmp_path / "rowwise.csv").read_bytes()
    assert written.count(b"\n") == rows + 1 and b",-0.00000000000000000e+00," in written


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
                 lambda: build_table("sideways", [0.0], cfg, filt),
                 lambda: quadrature_I("sideways", 0.0, filt),
                 lambda: contributing_shifts("sideways", 0, 0, filt),
                 lambda: psd_interference("sideways", 0.0, cfg, filt)]
        for call in calls:
            with pytest.raises(ValueError, match=r"^unknown direction 'sideways', expected one of"):
                call()

    def test_offset_direction_has_no_closed_form_or_oracle(self):
        filt = phydyas_k4()
        for call in (lambda: build_table("o2o", [0.0], CoexConfig(), filt),
                     lambda: quadrature_I("o2o", 0.0, filt),
                     lambda: contributing_shifts("o2o", 0, 0, filt)):
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
        (GOOD_CONFIG, ["table", "--direction", "s2i", "--delta-f", "0.7"]),
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
        (NO_INCUMBENT, ["simulate", "--direction", "s2i", "--symbols", "10"]),
        (NO_INCUMBENT, ["simulate", "--direction", "o2o", "--symbols", "10"]),
        (NO_SECONDARY, ["simulate", "--direction", "i2s", "--symbols", "10"]),
        (GOOD_CONFIG, ["table", "--direction", "s2i", *HUGE_GRID]),
        (GOOD_CONFIG, ["table", "--direction", "i2s", "--lmin=-1e308", "--lmax=1e308"]),
        (GOOD_CONFIG, ["psd", *HUGE_GRID]),
    ], ids=["cp-flag", "cp-flag-zero-denominator", "cp-config", "delta-f", "zero-symbols",
            "two-interferers", "odd-m-oqam-victim", "table-lmin-nan", "table-lstep-nan",
            "table-lmax-inf", "psd-lmin-nan", "psd-lstep-nan", "psd-lmax-inf",
            "fractional-m", "fractional-seed", "fractional-range", "fractional-list",
            "seed-flag-negative", "seed-config-negative", "var-pam-nan", "var-pam-inf",
            "s2i-no-victim", "o2o-no-victim", "i2s-no-victim", "table-huge-grid",
            "table-overflowing-grid", "psd-huge-grid"])
    def test_user_input_errors_exit_2(self, tmp_path, capsys, config_text, args):
        path = tmp_path / "scenario.yaml"
        path.write_text(config_text)
        rc = main([*args, "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

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


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency: the runtime must not import it
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, coexsim.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
