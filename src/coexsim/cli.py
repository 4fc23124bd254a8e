"""Batch front end: closed-form tables, simulations, verification, PSD curves.

Commands (exit codes: 0 success, 1 check failure, 2 usage/config error):

    coexsim table    --config cfg.yaml --direction s2i --lmin -50 --lmax 50 --lstep 1 --out t.csv
    coexsim simulate --config cfg.yaml --direction s2i --symbols 10000 --out s.csv
    coexsim verify   --config cfg.yaml
    coexsim psd      --config cfg.yaml --lmin -10 --lmax 10 --lstep 0.1 --out psd.csv

The config file is YAML with exactly the scenario keys (unknown keys are
rejected to catch typos in physics parameters):

    M: 512
    cp_ratio: 1/8            # rational string or number
    incumbent_set: {range: [-25, 25]}   # or an explicit list
    secondary_set: [0]
    var_qam: 1.0
    var_pam: 0.5
    delta_f: 0.0
    seed: 12345

Flags override config values.  All output is deterministic given
(config, seed): fixed column order, C-locale decimal points, LF line
endings; dB values carry 6 decimals, linear values full precision.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from fractions import Fraction
from math import floor, isfinite

import numpy as np
import yaml

from .checks import run_all_checks
from .closedform import build_table, power_db
from .filterbank import phydyas_k4
from .montecarlo import estimate_ofdm_to_ofdm, estimate_ofdm_to_oqam, estimate_oqam_to_ofdm
from .psdmodel import psd_interference, psd_ofdm_subcarrier, psd_oqam_subcarrier
from .txrx import DIRECTIONS, CoexConfig, ConfigError, lookup_direction

__all__ = ["main", "load_config", "ConfigError"]

_CONFIG_KEYS = tuple(f.name for f in fields(CoexConfig))
# libyaml's safe loader where PyYAML was built with it: the same values, about 5x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_MAX_L_POINTS = 10 ** 6  # an i2s table this size: 3.7-4.3 s, 87 MiB peak RSS on a 2-vCPU Xeon


def _integer(value) -> int:
    """int(value), except that a non-integral float is an error rather than truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


def _parse_subcarrier_set(value, name: str) -> frozenset:
    if isinstance(value, dict):
        if set(value) != {"range"} or len(value["range"]) != 2:
            raise ConfigError(f"{name}: expected {{range: [lo, hi]}} or a list of integers")
        lo, hi = value["range"]
        return frozenset(range(_integer(lo), _integer(hi) + 1))
    if isinstance(value, (list, tuple)):
        return frozenset(_integer(m) for m in value)
    raise ConfigError(f"{name}: expected a list or {{range: [lo, hi]}}")


def load_config(path: str) -> CoexConfig:
    """Read and validate a YAML scenario file; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    kw = {}
    for key in _CONFIG_KEYS:
        if key not in raw:
            continue
        value = raw[key]
        try:
            if key in ("incumbent_set", "secondary_set"):
                value = _parse_subcarrier_set(value, key)
            elif key == "cp_ratio":
                value = Fraction(str(value))
            elif key in ("M", "seed"):
                value = _integer(value)
            else:
                value = float(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{key}: {e}") from e
        kw[key] = value
    return CoexConfig(**kw)


def _apply_overrides(config: CoexConfig, args) -> CoexConfig:
    kw = {}
    if args.seed is not None:
        kw["seed"] = args.seed
    if args.delta_f is not None:
        kw["delta_f"] = args.delta_f
    if args.cp_ratio is not None:
        try:
            kw["cp_ratio"] = Fraction(args.cp_ratio)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"--cp-ratio: {e}") from e
    return replace(config, **kw)


def _l_grid(args) -> np.ndarray:
    if not all(isfinite(x) for x in (args.lmin, args.lmax, args.lstep)):
        raise ConfigError("--lmin, --lmax and --lstep must be finite")
    if args.lstep <= 0:
        raise ConfigError("--lstep must be positive")
    if args.lmax < args.lmin:
        raise ConfigError("--lmax must be >= --lmin")
    # the tolerance keeps a grid that divides exactly, like 0.3 / 0.1, at its last point
    steps = (args.lmax - args.lmin) / args.lstep + 1e-9
    if steps >= _MAX_L_POINTS:  # also a span that overflows to inf
        raise ConfigError(f"the l grid must have at most {_MAX_L_POINTS} points")
    return args.lmin + args.lstep * np.arange(floor(steps) + 1)


# column formats: l or f_norm, linear powers and PSDs, dB values
_L, _LIN, _DB = ".10g", ".17e", ".6f"
# rows formatted and written per call: bounds the formatted text on the largest grids
_CSV_CHUNK = 1 << 12


def _write_csv(path: str, header: list[str], columns, formats: list[str]) -> None:
    """The header, then row i of the columns, column c formatted by formats[c].

    The columns are stacked once as float64.  Rows go out _CSV_CHUNK at a
    time: each chunk is converted to Python floats (.tolist()), which format
    like the numpy scalars they came from but several times faster, and is
    formatted by one % on the row template repeated once per row, then
    written in one call.
    """
    line = ",".join(f"%{spec}" for spec in formats) + "\n"
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _CSV_CHUNK):
            rows = table[start:start + _CSV_CHUNK]
            fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def cmd_table(args, config: CoexConfig) -> int:
    grid = _l_grid(args)
    powers = build_table(args.direction, grid, config, phydyas_k4())
    _write_csv(args.out, ["l", "power_linear", "power_db"],
               [grid, powers, power_db(powers)], [_L, _LIN, _DB])
    return 0


def cmd_simulate(args, config: CoexConfig) -> int:
    filt = phydyas_k4()
    d = lookup_direction(args.direction)
    # each estimator is read from this module at call time, where a benchmark may wrap it
    if d.offset:
        est = estimate_ofdm_to_ofdm(config, args.symbols)
    elif d.victim == "ofdm":
        est = estimate_oqam_to_ofdm(config, args.symbols)
    else:
        est = estimate_ofdm_to_oqam(config, args.symbols)
    # closed-form overlay: the lattice direction into the same victim (OQAM interferer for o2o)
    overlay = next(c for c in DIRECTIONS if c.victim == d.victim and not c.offset)
    closed = build_table(overlay.name, est.l_values, config, filt)
    psd = psd_interference(args.direction, est.l_values, config, filt)
    _write_csv(args.out, ["l", "power_mc", "std_err", "power_closed", "power_psd"],
               [est.l_values, est.powers, est.std_errors, closed, psd],
               [_L, _LIN, _LIN, _LIN, _LIN])
    return 0


def cmd_verify(args, config: CoexConfig) -> int:
    results = run_all_checks(phydyas_k4(), config.cp_ratio)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
        ok &= r.passed
    print(f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


def cmd_psd(args, config: CoexConfig) -> int:
    grid = _l_grid(args)
    po = psd_ofdm_subcarrier(grid, config.cp_ratio)
    pq = psd_oqam_subcarrier(grid, phydyas_k4())
    _write_csv(args.out, ["f_norm", "psd_cpofdm", "psd_oqam", "psd_cpofdm_db", "psd_oqam_db"],
               [grid, po, pq, power_db(po), power_db(pq)], [_L, _LIN, _LIN, _DB, _DB])
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coexsim",
                                description="cross-interference tables, simulations and checks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid=False, direction=False, symbols=False):
        sp.add_argument("--config", required=True, help="YAML scenario file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--delta-f", dest="delta_f", type=float, default=None)
        sp.add_argument("--cp-ratio", dest="cp_ratio", default=None,
                        help="prefix ratio as P/Q or decimal")
        if grid:
            sp.add_argument("--lmin", type=float, default=-20.0)
            sp.add_argument("--lmax", type=float, default=20.0)
            sp.add_argument("--lstep", type=float, default=1.0)
            sp.add_argument("--out", required=True)
        if direction:
            sp.add_argument("--direction", choices=[d.name for d in DIRECTIONS], required=True)
        if symbols:
            sp.add_argument("--symbols", type=int, default=10000,
                            help="victim windows/slots to measure")

    sp = sub.add_parser("table", help="closed-form interference table -> CSV")
    common(sp, grid=True, direction=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("simulate", help="Monte-Carlo estimate with closed-form/PSD overlay -> CSV")
    common(sp, direction=True, symbols=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("verify", help="oracle/closed-form cross-validation report")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("psd", help="subcarrier PSD curves -> CSV")
    common(sp, grid=True)
    sp.set_defaults(func=cmd_psd)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args, _apply_overrides(load_config(args.config), args))
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
