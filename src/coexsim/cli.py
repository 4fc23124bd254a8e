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


# column formats: l or f_norm, linear powers and PSDs, dB values
_L, _LIN, _DB = ".10g", ".17e", ".6f"
# rows formatted and written per call: bounds the formatted text on the largest grids
_CSV_CHUNK = 1 << 11

# _lin_text's powers of ten 10^k, k = 17 - E for every exponent E it may try
_K_MIN, _K_MAX = 17 - 101, 17 + 101
_SPLIT = float((1 << 27) + 1)  # Dekker's splitter: a double as two 26-bit halves
_TIE_GAP = 2.0 ** -30  # a scaled value this close to an integer or a half goes to _percent_lin
# 10^k for k = 0 .. 15, exact as doubles and as int64: the scales of _l_text and _db_text
_TENS = np.array([float(10 ** k) for k in range(16)])
_INT_TENS = np.array([10 ** k for k in range(16)], dtype=np.int64)
_MINUS, _POINT, _ZERO = (np.uint8(ord(c)) for c in "-.0")
_POWERS = np.array([1000, 100, 10, 1], dtype=np.int16)  # the place values of a 4-digit word


@functools.cache
def _lin_tables() -> tuple[np.ndarray, ...]:
    """10^k for k in [_K_MIN, _K_MAX] as hi + lo doubles, then the renderers' 4-byte words.

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
    quad = np.arange(10 ** 4, dtype=np.int16)[:, None] // _POWERS % 10 + _ZERO
    tables = (np.array(hi), np.array(lo),
              words(f"{i // 100}.{i % 100:02d}" for i in range(1000)),
              quad.astype(np.uint8).view(np.uint32).ravel(),
              words(f"{i:03d}e" for i in range(1000)),
              words(f"{i:+03d}\0" for i in range(-99, 100)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _percent(values: np.ndarray, spec: str) -> list[bytes]:
    """Each value formatted by Python's % with spec: the reference every renderer reproduces."""
    template = f"%{spec}".encode()
    return [template % v for v in values.tolist()]


def _percent_lin(values: np.ndarray) -> list[bytes]:
    """_percent with _LIN: the rows _lin_text cannot prove."""
    return _percent(values, _LIN)


def _fill(text: np.ndarray, rows: np.ndarray, cells: list[bytes]) -> np.ndarray:
    """text with each of rows replaced by its cell, NUL-padded; widened if a cell is longer."""
    width = max(map(len, cells), default=0)
    if width > text.shape[1]:
        text = np.pad(text, ((0, 0), (0, width - text.shape[1])))
    text[rows] = 0
    for i, cell in zip(rows.tolist(), cells):
        text[i, :len(cell)] = np.frombuffer(cell, np.uint8)
    return text


def _cells(text: np.ndarray) -> list[bytes]:
    """Each row of NUL-padded text as bytes, its NULs dropped."""
    keep = text != 0
    blob = text[keep].tobytes()
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    return [blob[i:j] for i, j in zip([0, *ends[:-1]], ends)]


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    high = _SPLIT * a
    low = high - a
    high -= low
    return high, a - high


def _product(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray]:
    """x y as p + err exactly, p = x y rounded: Dekker's product (numpy has no fma)."""
    p = x * y
    (xh, xl), (yh, yl) = _split(x), _split(y)
    err = xh * yh
    err -= p
    err += np.multiply(xh, yl, out=xh)
    err += xl * yh
    err += np.multiply(xl, yl, out=xl)
    return p, err


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x 10^(17 - e) as its floor (int64) and the fraction above it, within 1e-13 in all."""
    hi, lo = (table[17 - e - _K_MIN] for table in _lin_tables()[:2])
    # p is an integer, as every double above 2^53 is
    p, t = _product(x, hi)
    t += np.multiply(x, lo, out=lo)
    whole = np.floor(t)
    t -= whole
    return p.astype(np.int64) + whole.astype(np.int64), t


def _rounded(x: np.ndarray, scale) -> tuple[np.ndarray, np.ndarray]:
    """floor(x scale) and round(x scale), ties to even, both exact, as int64.

    scale is a power of ten from _TENS, exact as a double, and 0 <= x scale < 2^52, so
    x scale = p + err exactly, and the fraction above floor(p), (p - floor(p)) + err, is
    compared with 0 and 1/2 without being rounded: no margin and no fallback for ties.
    """
    p, err = _product(x, scale)
    whole = np.floor(p)
    p -= whole
    below = (p == 0) & (err < 0)  # x scale is just under the integer p
    whole -= below
    half = p == 0.5
    up = below | (p > 0.5) | (half & ((err > 0) | ((err == 0) & (whole % 2 == 1))))
    floor = whole.astype(np.int64)
    return floor, floor + up


def _lin_text(values: np.ndarray) -> np.ndarray:
    """%.17e of each value, as rows of NUL-padded text (_cells reads them back as bytes).

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
    del x
    candidate &= whole >= 10 ** 17
    whole += frac > 0.5
    candidate &= (whole < 10 ** 18) & (np.abs(e) < 100) & (frac > _TIE_GAP)
    frac -= 0.5
    np.abs(frac, out=frac)
    candidate &= (frac < 0.5 - _TIE_GAP) & (frac > _TIE_GAP)
    del frac
    slow = np.flatnonzero(~candidate)
    whole[slow], e[slow] = 10 ** 17, 0  # in range for the word tables; replaced below
    # each row is six 4-byte words, "d.dd" "dddd" "dddd" "dddd" "ddde" "+dd\0"; the 18 digits
    # split 3-4-4-4-3
    _, _, lead, quad, tail, exponent = _lin_tables()
    text = np.empty((len(values), 6), np.uint32)
    head, rest = np.divmod(whole, 10 ** 15)
    text[:, 0] = lead[head]
    text[:, 1] = quad[rest // 10 ** 11]
    text[:, 2] = quad[rest // 10 ** 7 % 10 ** 4]
    text[:, 3] = quad[rest // 1000 % 10 ** 4]
    text[:, 4] = tail[rest % 1000]
    text[:, 5] = exponent[e + 99]
    return _fill(text.view(np.uint8), slow, _percent_lin(values[slow]))


@functools.cache
def _words() -> np.ndarray:
    """"dddd" for 0 ... 9999 as 4-byte words, in four kinds of 10^4, kind k at k * 10^4 + value.

    Kind 0 has every digit; kind _LEAD none of the leading zeros, kind _TRAIL
    none of the trailing zeros (0 is four NULs in both), and kind _UNITS none
    of the leading zeros but the units digit.
    """
    value = np.arange(10 ** 4, dtype=np.int16)[:, None]
    digits = _lin_tables()[3].view(np.uint8).reshape(-1, 4)
    lead = value < _POWERS
    kinds = np.stack([digits, digits * ~lead, digits * (value % (10 * _POWERS) != 0),
                      digits * ~(lead & (_POWERS > 1))])
    words = kinds.view(np.uint32).ravel()
    words.flags.writeable = False
    return words


_LEAD, _TRAIL, _UNITS = (k * 10 ** 4 for k in (1, 2, 3))


def _l_text(values: np.ndarray) -> np.ndarray:
    """%.10g of each value, as rows of NUL-padded text (_cells reads them back as bytes).

    %.10g prints x in fixed notation when its exponent X after rounding to 10
    digits is in [-4, 9]: N = round(|x| 10^(9-X)) in [10^9, 10^10), ties to
    even, then the integer digits of N 10^(X-9) with no leading zero but the
    units, and its fraction digits with no trailing zero, and no point if none
    is left.  X starts at floor(log10 |x|) and is fixed by the exact floor of
    |x| 10^(9-X); 10^(9-X) is exact, so _rounded decides every tie, and a
    carry of N to 10^10 is 10^9 at X + 1.  0, -0.0, nan, inf and %g's
    exponent form go through %.
    """
    values = np.asarray(values, dtype=float)
    x = np.abs(values)
    candidate = (x >= 1e-5) & (x < 1e10)
    x[~candidate] = 1.0
    e = np.floor(np.log10(x)).astype(np.int64)
    whole, n = _rounded(x, _TENS[9 - e])
    off = np.flatnonzero((whole < 10 ** 9) | (whole >= 10 ** 10))
    if len(off):
        e[off] += np.where(whole[off] < 10 ** 9, -1, 1)
        np.clip(e, -6, 9, out=e)
        whole[off], n[off] = _rounded(x[off], _TENS[9 - e[off]])
    del x
    # a carry, N = 10^10, is 10^9 at X + 1
    carry = n == 10 ** 10
    n[carry] //= 10
    e += carry
    candidate &= (whole >= 10 ** 9) & (n < 10 ** 10) & (e >= -4) & (e <= 9)
    slow = np.flatnonzero(~candidate)
    n[slow], e[slow] = 10 ** 9, 0  # in range for the tables; replaced below
    # N 10^(X-9) = whole + n 10^-13: 10 integer digits (2-4-4) and 13 fraction digits (1-4-4-4)
    scale = _INT_TENS[9 - e]
    whole = n // scale
    n -= whole * scale
    n *= _INT_TENS[4 + e]
    words = _words()
    text = np.empty((len(values), 8), np.uint32)
    np.multiply(np.signbit(values), _MINUS, out=text[:, 0])
    high, whole = np.divmod(whole, 10 ** 8)
    mid, whole = np.divmod(whole, 10 ** 4)
    text[:, 1] = words[high + _LEAD]
    text[:, 2] = words[mid + _LEAD * (high == 0)]
    text[:, 3] = words[whole + _UNITS * (high + mid == 0)]
    first, n = np.divmod(n, 10 ** 12)
    high, n = np.divmod(n, 10 ** 8)
    mid, n = np.divmod(n, 10 ** 4)
    # ".d", the point and the first fraction digit, or nothing when the fraction is 0
    text[:, 4] = (first + high + mid + n != 0) * (_POINT + (first + _ZERO << 8))
    text[:, 5] = words[high + _TRAIL * (mid + n == 0)]
    text[:, 6] = words[mid + _TRAIL * (n == 0)]
    text[:, 7] = words[n + _TRAIL]
    return _fill(text.view(np.uint8), slow, _percent(values[slow], _L))


def _db_text(values: np.ndarray) -> np.ndarray:
    """%.6f of each value, as rows of NUL-padded text (_cells reads them back as bytes).

    N = round(|x| 10^6), ties to even, decided exactly by _rounded; the integer
    digits of N 10^-6 have no leading zero but the units.  nan, inf and
    |x| >= 10^4 go through %.
    """
    values = np.asarray(values, dtype=float)
    x = np.abs(values)
    candidate = x < 1e4
    x[~candidate] = 0.0
    _, n = _rounded(x, _TENS[6])
    del x
    candidate &= n < 10 ** 10
    slow = np.flatnonzero(~candidate)
    n[slow] = 0
    whole, n = np.divmod(n, 10 ** 6)
    high, n = np.divmod(n, 1000)
    words = _words()
    text = np.empty((len(values), 4), np.uint32)
    np.multiply(np.signbit(values), _MINUS, out=text[:, 0])
    text[:, 1] = words[whole + _UNITS]
    # "0ddd" for a value below 1000, with its first byte made "." or shifted out
    text[:, 2] = words[high] - (_ZERO - _POINT)
    text[:, 3] = words[n] >> 8
    return _fill(text.view(np.uint8), slow, _percent(values[slow], _DB))


_TEXT = {_L: _l_text, _LIN: _lin_text, _DB: _db_text}


def _open_out(path: str):
    """path opened for writing; one that cannot be is a usage error, found before the run."""
    try:
        return open(path, "wb")
    except OSError as e:  # a missing directory, a directory, no permission
        raise ConfigError(f"cannot write {path}: {e.strerror}") from e


def _write_csv(fh, header: list[str], columns, formats: list[str]) -> None:
    """The header, then row i of the columns, column c formatted by formats[c], into fh.

    Rows go out _CSV_CHUNK at a time: each column's cells come from its
    renderer in _TEXT as NUL-padded text, the bytes Python's % gives,
    computed in numpy.  The chunk's text, each cell followed by "," or the
    newline, is written with its NULs dropped.
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    ends = [ord(",")] * (len(formats) - 1) + [ord("\n")]
    fh.write((",".join(header) + "\n").encode())
    for start in range(0, len(columns[0]), _CSV_CHUNK):
        parts = []
        for column, spec, end in zip(columns, formats, ends):
            cells = _TEXT[spec](column[start:start + _CSV_CHUNK])
            parts += [cells, np.full((len(cells), 1), end, np.uint8)]
        text = bytearray(sum(part.size for part in parts))
        np.concatenate(parts, axis=1,
                       out=np.frombuffer(text, np.uint8).reshape(len(parts[0]), -1))
        del parts
        fh.write(text.translate(None, b"\0"))


# Each command opens --out after its own input checks, so that a refused input leaves no file,
# and before the work the file is for, so that an unwritable path costs no run.  table's
# checks end in the closed form (an offset direction, an i2s offset cycle over the cap), which
# is its work as well: it opens --out after it.

def cmd_table(args, config: CoexConfig) -> int:
    grid = _l_grid(args)
    powers = build_table(args.direction, grid, config)
    with _open_out(args.out) as fh:
        _write_csv(fh, ["l", "power_linear", "power_db"], [grid, powers, power_db(powers)],
                   [_L, _LIN, _DB])
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
    with _open_out(args.out) as fh:
        po = psd_ofdm_subcarrier(grid, config.cp_ratio)
        pq = psd_oqam_subcarrier(grid, config.filt)
        _write_csv(fh, ["f_norm", "psd_cpofdm", "psd_oqam", "psd_cpofdm_db", "psd_oqam_db"],
                   [grid, po, pq, power_db(po), power_db(pq)], [_L, _LIN, _LIN, _DB, _DB])
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
