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
    incumbent_set: {range: [-25, 25]}   # at most M wide; or an explicit list
    secondary_set: [0]
    var_qam: 1.0
    var_pam: 0.5
    delta_f: 0.0
    seed: 12345

CoexConfig reads and checks every value, the flags' and each {range} too,
and names the field of one it cannot read ("cp_ratio: ..."); this module
only reads the file.  --cp-ratio overrides the config on every command;
--seed and --delta-f exist on simulate alone, the one command that reads
them.  All output is deterministic given (config, seed): fixed column order,
C-locale decimal points, LF line endings; dB values carry 6 decimals, linear
values full precision.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields, replace
from math import floor, isfinite

import numpy as np
import yaml

from .checks import run_all_checks
from .closedform import build_table, power_db
from .csvtext import DB, L, LIN, write_csv as _write_csv
from .montecarlo import (estimate_ofdm_to_ofdm, estimate_ofdm_to_oqam, estimate_oqam_to_ofdm,
                         l_values)
from .psdmodel import psd_interference, psd_ofdm_subcarrier, psd_oqam_subcarrier
from .txrx import DIRECTIONS, CoexConfig, ConfigError, lookup_direction

__all__ = ["main", "load_config", "ConfigError"]

# libyaml's safe loader where PyYAML was built with it: the same values, about 5x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_MAX_L_POINTS = 10 ** 6  # an i2s table this size: 0.9-1.4 s, 64 MiB peak RSS on a 2-vCPU Xeon


def load_config(path: str) -> CoexConfig:
    """Read a YAML scenario file for CoexConfig to read and check; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"malformed config {path}: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping")
    unknown = set(raw) - {f.name for f in fields(CoexConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return CoexConfig(**raw)


def _apply_overrides(config: CoexConfig, args) -> CoexConfig:
    flags = ("seed", "delta_f", "cp_ratio")  # seed and delta_f exist on simulate alone
    given = {k: v for k in flags if (v := getattr(args, k, None)) is not None}
    return replace(config, **given) if given else config  # no flag: no set is read again


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


def _open_out(path: str):
    """path opened for writing; one that cannot be is a usage error, found before the run."""
    try:
        return open(path, "wb")
    except OSError as e:  # a missing directory, a directory, no permission
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e


# Each command opens --out after its own input checks, so that a refused input leaves no file,
# and before the work the file is for, so that an unwritable path costs no run.  table's
# checks end in the closed form (an offset direction, an i2s offset cycle over the cap), which
# is its work as well: it opens --out after it.

def cmd_table(args, config: CoexConfig) -> int:
    grid = _l_grid(args)
    powers = build_table(args.direction, grid, config)
    with _open_out(args.out) as fh:
        _write_csv(fh, ["l", "power_linear", "power_db"], [grid, powers, power_db(powers)],
                   [L, LIN, DB])
    return 0


def cmd_simulate(args, config: CoexConfig) -> int:
    d = lookup_direction(args.direction)
    # the estimate's checks and the overlay first, so either refuses before the Monte-Carlo run;
    # the overlay is the lattice closed form into the same victim (OQAM interferer for o2o)
    grid = l_values(config, args.direction, args.symbols)
    overlay = next(c for c in DIRECTIONS if c.victim == d.victim and not c.offset)
    closed = build_table(overlay.name, grid, config)
    psd = psd_interference(args.direction, grid, config)
    with _open_out(args.out) as fh:
        # each estimator is read from this module at call time, where a benchmark may wrap it
        if d.offset:
            est = estimate_ofdm_to_ofdm(config, args.symbols)
        elif d.victim == "ofdm":
            est = estimate_oqam_to_ofdm(config, args.symbols)
        else:
            est = estimate_ofdm_to_oqam(config, args.symbols)
        _write_csv(fh, ["l", "power_mc", "std_err", "power_closed", "power_psd"],
                   [est.l_values, est.powers, est.std_errors, closed, psd],
                   [L, LIN, LIN, LIN, LIN])
    return 0


def cmd_verify(args, config: CoexConfig) -> int:
    results = run_all_checks(config.filt, config.cp_ratio)
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
    with _open_out(args.out) as fh:
        po = psd_ofdm_subcarrier(grid, config.cp_ratio)
        pq = psd_oqam_subcarrier(grid, config.filt)
        _write_csv(fh, ["f_norm", "psd_cpofdm", "psd_oqam", "psd_cpofdm_db", "psd_oqam_db"],
                   [grid, po, pq, power_db(po), power_db(pq)], [L, LIN, LIN, DB, DB])
    return 0


@functools.cache  # built on a process's first main() call, not at import, then reused
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coexsim",
                                description="cross-interference tables, simulations and checks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, grid=False, direction=False):
        sp.add_argument("--config", required=True, help="YAML scenario file")
        sp.add_argument("--cp-ratio", dest="cp_ratio", default=None,
                        help="prefix ratio as P/Q or decimal")
        if grid:
            sp.add_argument("--lmin", type=float, default=-20.0)
            sp.add_argument("--lmax", type=float, default=20.0)
            sp.add_argument("--lstep", type=float, default=1.0)
            sp.add_argument("--out", required=True)
        if direction:
            sp.add_argument("--direction", choices=[d.name for d in DIRECTIONS], required=True)

    sp = sub.add_parser("table", help="closed-form interference table -> CSV")
    common(sp, grid=True, direction=True)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("simulate", help="Monte-Carlo estimate with closed-form/PSD overlay -> CSV")
    common(sp, direction=True)
    sp.add_argument("--symbols", type=int, default=10000, help="victim windows/slots to measure")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--delta-f", dest="delta_f", type=float, default=None)
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
