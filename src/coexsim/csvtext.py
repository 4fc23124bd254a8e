"""CSV writer: columns of doubles as the bytes of Python's %, computed in numpy.

Column formats: L (%.10g, l and f_norm), LIN (%.17e, linear powers and PSDs)
and DB (%.6f, dB values).  scripts/fuzz_csv_format.py compares the three
renderers with % on 6.1 M doubles.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

__all__ = ["write_csv", "L", "LIN", "DB"]

L, LIN, DB = ".10g", ".17e", ".6f"
# rows formatted and written per call: bounds the formatted text on the largest grids
_CSV_CHUNK = 1 << 11

# the powers of ten 10^k in _tables, k = 17 - E for every exponent E _lin_text may try
_K_MIN, _K_MAX = 17 - 101, 17 + 101
_SPLIT = float((1 << 27) + 1)  # Dekker's splitter: a double as two 26-bit halves
_TIE_GAP = 2.0 ** -30  # a scaled value this close to an integer or a half goes to _percent
# 10^k for k = 0 .. 15 as int64: the place values of _l_text's digits
_INT_TENS = np.array([10 ** k for k in range(16)], dtype=np.int64)
_MINUS, _POINT, _ZERO = (np.uint8(ord(c)) for c in "-.0")
_POWERS = np.array([1000, 100, 10, 1], dtype=np.int16)  # the place values of a 4-digit word
_LEAD, _TRAIL, _UNITS = (k * 10 ** 4 for k in (1, 2, 3))  # the kinds of "dddd" in _tables


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """10^k for k in [_K_MIN, _K_MAX] as hi + lo doubles, then the renderers' 4-byte words.

    hi is 10^k rounded to a double and lo the rounded rest, from exact Fraction
    arithmetic: hi + lo is 10^k within 2^-106 relative, and lo is 0 for k = 0 .. 22.
    The words are the ASCII of "d.dd", "dddd" and "ddde" by value, and of the exponent
    "+dd" and a NUL by E + 99.  "dddd" comes in four kinds, kind k at k 10^4 + value:
    every digit, none of the leading zeros (_LEAD), none of the trailing zeros (_TRAIL;
    0 is four NULs in both), and none of the leading zeros but the units digit (_UNITS).
    """
    exact = [Fraction(10) ** k for k in range(_K_MIN, _K_MAX + 1)]
    hi = [float(q) for q in exact]
    lo = [float(q - Fraction(h)) for q, h in zip(exact, hi)]

    def words(texts):
        return np.frombuffer("".join(texts).encode(), np.uint32)
    # "0000" ... "9999" from digit arithmetic: 10^4 f-strings would take a few ms
    value = np.arange(10 ** 4, dtype=np.int16)[:, None]
    digits = (value // _POWERS % 10 + _ZERO).astype(np.uint8)
    lead = value < _POWERS
    kinds = np.stack([digits, digits * ~lead, digits * (value % (10 * _POWERS) != 0),
                      digits * ~(lead & (_POWERS > 1))])
    tables = (np.array(hi), np.array(lo),
              words(f"{i // 100}.{i % 100:02d}" for i in range(1000)),
              kinds.view(np.uint32).ravel(),
              words(f"{i:03d}e" for i in range(1000)),
              words(f"{i:+03d}\0" for i in range(-99, 100)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _percent(values: np.ndarray, spec: str) -> list[bytes]:
    """Each value formatted by Python's % with spec: the reference every renderer reproduces."""
    template = f"%{spec}".encode()
    return [template % v for v in values.tolist()]


def _fill(text: np.ndarray, rows: np.ndarray, values: np.ndarray, spec: str) -> np.ndarray:
    """text with each of rows replaced by _percent of its value, NUL-padded; widened if longer."""
    cells = _percent(values[rows], spec)
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


def _scaled(x: np.ndarray, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x 10^k as floor(p), p - floor(p) and err, where x 10^k = p + err within 2^-106 relative.

    p is x hi rounded; x hi = p + rest exactly by Dekker's product (numpy
    has no fma), and err = rest + x lo.  For k = 0 .. 22, where lo = 0, err
    is exact.  x 10^k must be finite.
    """
    i = k - _K_MIN
    hi, lo = (table[i] for table in _tables()[:2])
    p = x * hi
    (xh, xl), (yh, yl) = _split(x), _split(hi)
    err = xh * yh
    err -= p
    err += np.multiply(xh, yl, out=xh)
    err += xl * yh
    err += np.multiply(xl, yl, out=xl)
    err += np.multiply(x, lo, out=xh)
    whole = np.floor(p)
    return whole, p - whole, err


def _rounded(x: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """floor(p) and round(x 10^k), ties to even, exact, as int64.

    For k = 0 .. 22 and 0 <= x 10^k < 2^52, the fraction above floor(p),
    (p - floor(p)) + err, is compared with 1/2 without being rounded: no
    margin and no fallback for ties.  floor(p) is floor(x 10^k), or one more
    where x 10^k is just under the integer p, whose round is p either way.
    """
    whole, frac, err = _scaled(x, k)
    up = (frac > 0.5) | ((frac == 0.5) & ((err > 0) | ((err == 0) & (whole % 2 == 1))))
    floor = whole.astype(np.int64)
    return floor, floor + up


def _exponent(x: np.ndarray, digits: int, scaled) -> tuple[np.ndarray, tuple]:
    """E = floor(log10 x) and scaled(x, digits - E), whose first item is the floor, as int64.

    np.log10 may be one off next to a power of ten: a row whose floor is outside
    [10^digits, 10^(digits + 1)) is scaled again with E one lower or higher, and
    the caller checks the range again.
    """
    e = np.floor(np.log10(x)).astype(np.int64)
    result = scaled(x, digits - e)
    whole = result[0]
    off = np.flatnonzero((whole < 10 ** digits) | (whole >= 10 ** (digits + 1)))
    if len(off):
        e[off] += np.where(whole[off] < 10 ** digits, -1, 1)
        for item, fixed in zip(result, scaled(x[off], digits - e[off])):
            item[off] = fixed
    return e, result


def _floor_and_fraction(x: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """floor(x 10^k) as int64 and the fraction above it, within 1e-13 for x 10^k < 10^19."""
    whole, frac, err = _scaled(x, k)
    frac += err  # frac is 0 when p is above 2^53, where every double is an integer
    carry = np.floor(frac)
    frac -= carry
    return whole.astype(np.int64) + carry.astype(np.int64), frac


def _lin_text(values: np.ndarray) -> np.ndarray:
    """%.17e of each value, as rows of NUL-padded text (_cells reads them back as bytes).

    Python's %.17e prints the 18-digit decimal nearest x, ties to even:
    N = round(x 10^(17-E)) with E = floor(log10 x), and a carry to
    1.00000000000000000e(E+1) when N reaches 10^18.  x 10^(17-E) comes from
    _scaled within 1e-13, with E fixed by its floor, so floor and round are
    exact whenever it is at least _TIE_GAP (2^-30) from an integer and a half.
    These rows go through _percent instead: x <= 0, -0.0, nan, inf,
    subnormals, |E| >= 100 (three exponent digits), a scaled value within
    _TIE_GAP of an integer or a half, which takes in every exact 18-digit
    tie, and a carry.  No double in the rendered range carries: the only
    candidates are the largest doubles below 10^-99 ... 10^100, and none of
    them rounds up.
    """
    values = np.asarray(values, dtype=float)
    candidate = (values > 1e-99) & (values < 1e100)
    x = np.where(candidate, values, 1.0)  # the other rows are rendered from 1.0, then replaced
    e, (whole, frac) = _exponent(x, 17, _floor_and_fraction)
    candidate &= whole >= 10 ** 17
    whole += frac > 0.5
    candidate &= (whole < 10 ** 18) & (np.abs(e) < 100) & (frac > _TIE_GAP)
    frac -= 0.5
    np.abs(frac, out=frac)
    candidate &= (frac < 0.5 - _TIE_GAP) & (frac > _TIE_GAP)
    slow = np.flatnonzero(~candidate)
    whole[slow], e[slow] = 10 ** 17, 0  # in range for the word tables; replaced below
    # each row is six 4-byte words, "d.dd" "dddd" "dddd" "dddd" "ddde" "+dd\0"; the 18 digits
    # split 3-4-4-4-3
    _, _, lead, words, tail, exponent = _tables()
    text = np.empty((len(values), 6), np.uint32)
    head, rest = np.divmod(whole, 10 ** 15)
    text[:, 0] = lead[head]
    text[:, 1] = words[rest // 10 ** 11]
    text[:, 2] = words[rest // 10 ** 7 % 10 ** 4]
    text[:, 3] = words[rest // 1000 % 10 ** 4]
    text[:, 4] = tail[rest % 1000]
    text[:, 5] = exponent[e + 99]
    return _fill(text.view(np.uint8), slow, values, LIN)


def _l_text(values: np.ndarray) -> np.ndarray:
    """%.10g of each value, as rows of NUL-padded text (_cells reads them back as bytes).

    %.10g prints x in fixed notation when its exponent X after rounding to 10
    digits is in [-4, 9]: N = round(|x| 10^(9-X)) in [10^9, 10^10), ties to
    even, then the integer digits of N 10^(X-9) with no leading zero but the
    units, and its fraction digits with no trailing zero, and no point if none
    is left.  X starts at floor(log10 |x|) and _exponent fixes it by the floor
    of |x| 10^(9-X); _rounded decides every tie, and a carry of N to 10^10 is
    10^9 at X + 1.  A floor one too high, just under a power of ten, gives the
    N and X of the exact floor's carry.  0, -0.0, nan, inf and %g's exponent
    form go through %.
    """
    values = np.asarray(values, dtype=float)
    x = np.abs(values)
    candidate = (x >= 1e-5) & (x < 1e10)
    x[~candidate] = 1.0
    e, (whole, n) = _exponent(x, 9, _rounded)
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
    words = _tables()[3]
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
    return _fill(text.view(np.uint8), slow, values, L)


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
    _, n = _rounded(x, 6)
    candidate &= n < 10 ** 10
    slow = np.flatnonzero(~candidate)
    n[slow] = 0
    whole, n = np.divmod(n, 10 ** 6)
    high, n = np.divmod(n, 1000)
    words = _tables()[3]
    text = np.empty((len(values), 4), np.uint32)
    np.multiply(np.signbit(values), _MINUS, out=text[:, 0])
    text[:, 1] = words[whole + _UNITS]
    # "0ddd" for a value below 1000, with its first byte made "." or shifted out
    text[:, 2] = words[high] - (_ZERO - _POINT)
    text[:, 3] = words[n] >> 8
    return _fill(text.view(np.uint8), slow, values, DB)


_TEXT = {L: _l_text, LIN: _lin_text, DB: _db_text}


def write_csv(fh, header: list[str], columns, formats: list[str]) -> None:
    """The header, then row i of the columns, column c formatted by formats[c], into fh.

    formats are L, LIN and DB.  Rows go out _CSV_CHUNK at a time: each
    column's cells come from its renderer in _TEXT as NUL-padded text, the
    bytes Python's % gives, computed in numpy.  The chunk's text, each cell
    followed by "," or the newline, is written with its NULs dropped.
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
