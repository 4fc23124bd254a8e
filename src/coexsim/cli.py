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
from fractions import Fraction
from math import floor, isfinite

import numpy as np
import yaml

from .checks import run_all_checks
from .closedform import build_table, power_db
from .montecarlo import (estimate_ofdm_to_ofdm, estimate_ofdm_to_oqam, estimate_oqam_to_ofdm,
                         l_values)
from .psdmodel import psd_interference, psd_ofdm_subcarrier, psd_oqam_subcarrier
from .txrx import DIRECTIONS, CoexConfig, ConfigError, lookup_direction

__all__ = ["main", "load_config", "ConfigError"]

# libyaml's safe loader where PyYAML was built with it: the same values, about 5x faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_MAX_L_POINTS = 10 ** 6  # an i2s table this size: 2.3-2.6 s, 87 MiB peak RSS on a 2-vCPU Xeon


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


# column formats: l or f_norm, linear powers and PSDs, dB values
_L, _LIN, _DB = ".10g", ".17e", ".6f"
# rows formatted and written per call: bounds the formatted text on the largest grids
_CSV_CHUNK = 1 << 12

# _render_lin's powers of ten 10^k, k = 17 - E for every exponent E it may try
_K_MIN, _K_MAX = 17 - 101, 17 + 101
_SPLIT = float((1 << 27) + 1)  # Dekker's splitter: a double as two 26-bit halves
_TIE_GAP = 2.0 ** -30  # a scaled value this close to an integer or a half goes to _percent_lin


@functools.cache
def _lin_tables() -> tuple[np.ndarray, ...]:
    """10^k for k in [_K_MIN, _K_MAX] as hi + lo doubles, then _render_lin's 4-byte words.

    hi is 10^k rounded to a double and lo the rounded rest, both from exact
    Fraction arithmetic, so hi + lo is 10^k within 2^-106 relative.  The
    words are the ASCII of "d.dd", "dddd" and "ddde" by value, and of the
    exponent "+dd" and a NUL by E + 99.
    """
    exact = [Fraction(10) ** k for k in range(_K_MIN, _K_MAX + 1)]
    hi = [float(q) for q in exact]
    lo = [float(q - Fraction(h)) for q, h in zip(exact, hi)]

    def words(texts):
        return np.frombuffer("".join(texts).encode(), np.uint32)
    # "0000" ... "9999" from digit arithmetic: 10^4 f-strings would take a few ms
    quad = np.arange(10 ** 4)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    tables = (np.array(hi), np.array(lo),
              words(f"{i // 100}.{i % 100:02d}" for i in range(1000)),
              quad.astype(np.uint8).view(np.uint32).ravel(),
              words(f"{i:03d}e" for i in range(1000)),
              words(f"{i:+03d}\0" for i in range(-99, 100)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _percent_lin(values: np.ndarray) -> list[bytes]:
    """Each value formatted by Python's % with _LIN: the reference _render_lin reproduces."""
    template = f"%{_LIN}".encode()
    return [template % v for v in values.tolist()]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x 10^(17 - e) as its floor (int64) and the fraction above it, within 1e-13 in all."""
    hi, lo = (table[17 - e - _K_MIN] for table in _lin_tables()[:2])
    p = x * hi
    (xh, xl), (hh, hl) = _split(x), _split(hi)
    # Dekker: x hi = p + err exactly; p is an integer, as every double above 2^53 is
    err = ((xh * hh - p) + xh * hl + xl * hh) + xl * hl
    t = err + x * lo
    whole = np.floor(t)
    return p.astype(np.int64) + whole.astype(np.int64), t - whole


def _render_lin(values: np.ndarray) -> list[bytes]:
    """_percent_lin(values), the same bytes, computed in numpy for the rows it can prove.

    Python's %.17e prints the 18-digit decimal nearest x, ties to even:
    N = round(x 10^(17-E)) with E = floor(log10 x), and a carry to
    1.00000000000000000e(E+1) when N reaches 10^18.  Here x 10^(17-E) is
    computed as p + t: hi + lo holds 10^(17-E) within 2^-106 relative,
    x hi = p + err exactly by Dekker's product, and t = err + x lo.  The
    error is under 1e-13 on a value below 10^19.  E is fixed by the floor of
    p + t, not by its rounding (np.log10 may be one off next to a power of
    ten), and floor and round are exact whenever p + t is at least _TIE_GAP
    (2^-30) from an integer and a half.  These rows go through _percent_lin
    instead: x <= 0, -0.0, nan, inf, subnormals, |E| >= 100 (three exponent
    digits), a scaled value within _TIE_GAP of an integer or a half, which
    takes in every exact 18-digit tie, and a carry.  No double in the
    rendered range carries: the only candidates are the largest doubles
    below 10^-99 ... 10^100, and none of them rounds up.
    """
    values = np.asarray(values, dtype=float)
    candidate = (values > 1e-99) & (values < 1e100)
    x = np.where(candidate, values, 1.0)  # the other rows are rendered from 1.0, then replaced
    e = np.floor(np.log10(x)).astype(np.int64)
    whole, frac = _scaled(x, e)
    off = np.flatnonzero((whole < 10 ** 17) | (whole >= 10 ** 18))
    if len(off):
        e[off] += np.where(whole[off] < 10 ** 17, -1, 1)
        whole[off], frac[off] = _scaled(x[off], e[off])
    n = whole + (frac > 0.5)
    proved = (candidate & (whole >= 10 ** 17) & (n < 10 ** 18) & (np.abs(e) < 100)
              & (frac > _TIE_GAP) & (frac < 1 - _TIE_GAP) & (np.abs(frac - 0.5) > _TIE_GAP))
    n[~proved], e[~proved] = 10 ** 17, 0  # in range for the word tables; replaced below
    # each row is six 4-byte words, "d.dd" "dddd" "dddd" "dddd" "ddde" "+dd\0", 24 bytes that
    # the bytes dtype reads back without the trailing NUL; the 18 digits split 3-4-4-4-3
    _, _, lead, quad, tail, exponent = _lin_tables()
    text = np.empty((len(values), 6), np.uint32)
    head, rest = np.divmod(n, 10 ** 15)
    text[:, 0] = lead[head]
    text[:, 1] = quad[rest // 10 ** 11]
    text[:, 2] = quad[rest // 10 ** 7 % 10 ** 4]
    text[:, 3] = quad[rest // 1000 % 10 ** 4]
    text[:, 4] = tail[rest % 1000]
    text[:, 5] = exponent[e + 99]
    rendered = text.view("S24").ravel().tolist()
    slow = np.flatnonzero(~proved)
    for i, cell in zip(slow.tolist(), _percent_lin(values[slow])):
        rendered[i] = cell
    return rendered


def _write_csv(path: str, header: list[str], columns, formats: list[str]) -> None:
    """The header, then row i of the columns, column c formatted by formats[c].

    The columns are stacked once as float64.  Rows go out _CSV_CHUNK at a
    time, as bytes: each chunk's _LIN cells, all columns in one call, come
    from _render_lin, which gives %.17e's exact bytes several times faster
    than %; the other cells are Python floats (.tolist()), which format like
    the numpy scalars they came from.  One % on the row template, repeated
    once per row, formats the chunk, and one call writes it.
    """
    line = ",".join("%s" if spec == _LIN else f"%{spec}" for spec in formats).encode() + b"\n"
    table = np.column_stack([np.asarray(column, dtype=float) for column in columns])
    width = len(formats)
    lin = [c for c, spec in enumerate(formats) if spec == _LIN]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(table), _CSV_CHUNK):
            rows = table[start:start + _CSV_CHUNK]
            cells = [None] * rows.size
            rendered = _render_lin(rows[:, lin].ravel())
            for j, c in enumerate(lin):
                cells[c::width] = rendered[j::len(lin)]
            del rendered
            for c in range(width):
                if c not in lin:
                    cells[c::width] = rows[:, c].tolist()
            fh.write(line * len(rows) % tuple(cells))


def cmd_table(args, config: CoexConfig) -> int:
    grid = _l_grid(args)
    powers = build_table(args.direction, grid, config)
    _write_csv(args.out, ["l", "power_linear", "power_db"],
               [grid, powers, power_db(powers)], [_L, _LIN, _DB])
    return 0


def cmd_simulate(args, config: CoexConfig) -> int:
    d = lookup_direction(args.direction)
    # the estimate's checks and the overlay first, so either refuses before the Monte-Carlo run;
    # the overlay is the lattice closed form into the same victim (OQAM interferer for o2o)
    grid = l_values(config, args.direction, args.symbols)
    overlay = next(c for c in DIRECTIONS if c.victim == d.victim and not c.offset)
    closed = build_table(overlay.name, grid, config)
    psd = psd_interference(args.direction, grid, config)
    # each estimator is read from this module at call time, where a benchmark may wrap it
    if d.offset:
        est = estimate_ofdm_to_ofdm(config, args.symbols)
    elif d.victim == "ofdm":
        est = estimate_oqam_to_ofdm(config, args.symbols)
    else:
        est = estimate_ofdm_to_oqam(config, args.symbols)
    _write_csv(args.out, ["l", "power_mc", "std_err", "power_closed", "power_psd"],
               [est.l_values, est.powers, est.std_errors, closed, psd],
               [_L, _LIN, _LIN, _LIN, _LIN])
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
    po = psd_ofdm_subcarrier(grid, config.cp_ratio)
    pq = psd_oqam_subcarrier(grid, config.filt)
    _write_csv(args.out, ["f_norm", "psd_cpofdm", "psd_oqam", "psd_cpofdm_db", "psd_oqam_db"],
               [grid, po, pq, power_db(po), power_db(pq)], [_L, _LIN, _LIN, _DB, _DB])
    return 0


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
