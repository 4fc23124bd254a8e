"""Exact closed-form mean cross-interference powers per spectral distance.

Each contributing pulse shift's integral over the victim window is evaluated
analytically: inserting the pulse's coefficient expansion, the integral over
the support/window overlap [a, b] is, per coefficient index k,

    (G_|k|/K) exp(-j 2 pi k tau / K) (b-a) exp(j w (a+b)/2) sinc(w (b-a)/2),

with w = 2 pi (k/K + l).  Shifts with only partial window overlap therefore
get the exact narrowed-window value rather than a full-window sinc (the
truncated series is only valid on the pulse support; the full-window form
leaks the series' periodic image at the 1e-5 relative level, which the
quadrature oracle resolves).

Summed over k, the integral is exp(j pi l (a+b)) sum_k c_k e_k(l), with the
scalars c_k = (G_|k|/K) exp(j pi k (a + b - 2 tau)/K) and the real sincs
e_k(l) = (b-a) sinc(pi (k/K + l)(b-a)).  The ramp exp(j pi l (a+b)) has unit
modulus and multiplies every term, so it drops out of the power, and the
l-dependent part depends on the shift only through the exact length b - a
of its overlap.  The power summed over the shifts of one length is the
quadratic form e^T Re(C^H C) e, with C the shifts' rows of c: 2K - 1 real
sincs and one (2K-1) x (2K-1) form per distinct length, not complex
exponentials per shift.  At cp = 1/8 the 9 s2i shifts share 2 lengths and
the 40 i2s shifts of a full offset cycle share 9.

The forms do not depend on l: they are cached per (filter, prefix) and kept
read-only.  Each is kept as the rows of a triangular factor R, R^T R the form
(Givens rotations of the shifts' rows Re c and Im c), so that the power of
one length is a sum of squares of at most 2K - 1 row products.  They are
summed elementwise in a fixed order, so the bytes at one l do not depend on
the other points of the grid or on how it is split into calls.

Every overlap length is a multiple j delta of one base length delta, the gcd
of the exact lengths (1/2 for s2i, 1/8 at cp 1/8, 1/16 at 7/16, 1/512 at
511/512), so the sincs of one frequency x = k/K + l are sin(j theta)/(j theta)
with theta = pi x delta.  sin theta is one float sin per (k, l), of
theta / (2 pi) = x delta / 2 reduced exactly mod 1, so no large argument
reaches sin.  2 cos theta comes by angle addition, from one cos and one sin of
pi delta l per l, reduced the same way, and the constants cos and sin of
pi delta k/K.  The sine cannot come that way: an angle-added sine cancels as
x -> 0.  Then sin((j+1) theta) = 2 cos theta sin(j theta) - sin((j-1) theta),
restarted from two direct sines every _RESEED = 12 steps, their products
j x delta / 2 made exact by Dekker's split.  The recurrence's error grows like
j^2 times the rounding error near theta = 0 and pi (Gentleman, Comput. J. 12,
1969), and the restarts bound it.  Against sums whose sinc and phase
arguments are reduced exactly, the power is within 2.5e-14 relative on the
table grid l = -50 .. 50 step 0.01 (s2i, and i2s at cp 0, 1/8, 1/3, 7/16, 2
and 511/512), and within 2e-15 on the integer grid |l| <= 2^13.  At
theta = 0, and where x delta / 2 is subnormal, the sinc is its limit 1,
exactly.

Direction conventions (time in symbol periods, l possibly fractional):
  s2i (OQAM -> CP-OFDM):  interference per victim CP-OFDM symbol, canonical
                 window n_i = 0; shifts on the half-period lattice.
  i2s (CP-OFDM -> OQAM):  interference per victim complex symbol period (the
                 sum over the two staggered real slots), averaged over the
                 finite cycle of interferer-lattice offsets seen by successive
                 victim slots.  At cp_ratio = 0 this reduces exactly to the
                 s2i sum, so equal-energy systems interfere equally.

The contributing shifts of each victim frame are enumerated here from exact
rational bounds, independently of the quadrature oracle's geometry; a test
checks that the two enumerations agree, and that _slot_offsets' formula
gives the i2s offset cycle the oracle finds by walking its own shifts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd, hypot, lcm, sqrt

import numpy as np

from .filterbank import PrototypeFilter
from .txrx import MAX_OFFSET_CYCLE, ConfigError, lookup_direction, require_finite

__all__ = ["build_table", "DB_FLOOR", "power_db"]

# linear powers below this are clamped for dB display only
DB_FLOOR = 1e-15
# l points per evaluation block: bounds the temporaries on the largest grids
_BLOCK = 1 << 12
# R: the recurrence for sin(j theta) restarts from two direct sines every R steps
_RESEED = 12
_SPLIT = float((1 << 27) + 1)  # Dekker's splitter: a double as two 26-bit halves
_TINY = np.finfo(float).tiny  # the smallest normal double


def power_db(power) -> np.ndarray | float:
    return 10 * np.log10(np.maximum(power, DB_FLOOR))


def _lattice_taus(filt: PrototypeFilter, spacing: Fraction, offset: Fraction,
                  width: Fraction) -> tuple[Fraction, ...]:
    """Ascending tau in spacing*Z + offset whose support meets [0, width] in nonzero measure."""
    hw = Fraction(filt.overlap_K, 2)
    n_lo = floor((-hw - offset) / spacing) + 1
    n_hi = ceil((width + hw - offset) / spacing) - 1
    return tuple(offset + n * spacing for n in range(n_lo, n_hi + 1))


def _slot_offsets(cp: Fraction) -> list[Fraction]:
    """Interferer-lattice offsets (cp + n/2) mod (1+cp) of victim slots n over one cycle.

    At cp = p/q the offsets repeat after 2(p+q)/gcd(2, q) slots, at most MAX_OFFSET_CYCLE.
    """
    cycle = 2 * (cp.numerator + cp.denominator) // gcd(2, cp.denominator)
    if cycle > MAX_OFFSET_CYCLE:  # refused before any offset is built
        raise ConfigError(f"cp_ratio = {cp}: i2s offset cycle of {cycle} slots, "
                          f"over {MAX_OFFSET_CYCLE}")
    return [(cp + Fraction(n, 2)) % (1 + cp) for n in range(cycle)]


@lru_cache(maxsize=64)
def _forms(filt: PrototypeFilter, cp: Fraction | None) -> tuple[int, Fraction, tuple]:
    """Victim count, then _shift_forms of every shift that the victims see.

    cp None: s2i, the window [0, 1] on the half-period lattice.  A Fraction: i2s, the window
    [0, 1 + cp] on the CP-OFDM symbol lattice at each slot offset of the cycle, in turn.
    Shared by every call with the same (filter, cp), so each form is read-only.
    """
    width = Fraction(1) if cp is None else 1 + cp
    lattices = ([(Fraction(1, 2), Fraction(0))] if cp is None
                else [(width, offset) for offset in _slot_offsets(cp)])
    taus = (tau for spacing, offset in lattices
            for tau in _lattice_taus(filt, spacing, offset, width))
    return len(lattices), *_shift_forms(filt, taus, width)


def _shift_forms(filt: PrototypeFilter, taus, width: Fraction) -> tuple[Fraction, tuple]:
    """Base length delta and (j, rows) pairs of _power_sum for the shifts taus, ascending in j.

    Shift tau overlaps [0, width] on [a, b], and every length b - a is j delta, delta the
    gcd of the exact lengths.  The shift's form is Re(c^H c) = Re(c)^T Re(c) + Im(c)^T Im(c),
    with c_k = (G_|k|/K) exp(j pi k (a + b - 2 tau)/K), times (b - a)^2 = j^2 delta^2, of
    which j^2 goes into the sincs.  A shift mirrored about the window's center has the same
    length and Re c and the opposite Im c, so the shifts are counted per
    (length, |a + b - 2 tau|) and their rows weighted by the root of the count.  The rows of
    one length are kept as an upper-triangular factor R (_triangular): R^T R is the same
    form, in at most 2K - 1 rows, row i zero left of column i.
    """
    K = filt.overlap_K
    hw = Fraction(K, 2)
    counts: dict[tuple[Fraction, Fraction], int] = {}
    for tau in taus:
        a, b = max(Fraction(0), tau - hw), min(width, tau + hw)
        key = b - a, abs(a + b - 2 * tau)
        counts[key] = counts.get(key, 0) + 1
    scale = lcm(*(length.denominator for length, _ in counts))
    delta = Fraction(gcd(*(int(length * scale) for length, _ in counts)), scale)
    ks = np.arange(-K + 1, K)
    gains = np.array([filt.coeff(k) for k in ks]) * float(delta) / K
    rows: dict[int, list] = {}
    for (length, phase), count in counts.items():
        c = sqrt(count) * gains * np.exp(1j * np.pi * ks * float(phase / K))
        rows.setdefault(int(length / delta), []).extend((c.real, c.imag) if phase else (c.real,))
    forms = []
    for j in sorted(rows):
        r = _triangular(rows[j])
        r.flags.writeable = False
        forms.append((j, r))
    return delta, tuple(forms)


def _triangular(rows: list[np.ndarray]) -> np.ndarray:
    """Upper-triangular R with R^T R = sum of row^T row, one Givens rotation per entry zeroed.

    Each row is rotated into R in turn, column by column; R keeps its rows up to the last
    one a row reached, at most as many as the columns.  Plain arithmetic, not LAPACK's QR,
    whose first call alone adds about 0.7 MiB to a process's peak RSS.
    """
    size = len(rows[0])
    r = np.zeros((size, size))
    used = 0
    for row in rows:
        row = np.array(row, dtype=float)
        for i in range(size):
            if abs(row[i]) < _TINY:  # a subnormal has too few bits for an accurate rotation
                continue
            h = hypot(r[i, i], row[i])
            c, s = r[i, i] / h, row[i] / h
            r[i, i:], row[i:] = c * r[i, i:] + s * row[i:], c * row[i:] - s * r[i, i:]
            used = max(used, i + 1)
    return r[:used].copy()


def _sines(turns_k: np.ndarray, turns_l: np.ndarray, j: int, zero, out: np.ndarray,
           spare: np.ndarray, high: np.ndarray) -> None:
    """out = sin(j theta) / theta, and j where zero is set; theta / (2 pi) = turns_k + turns_l.

    j theta / (2 pi) is reduced exactly mod 1 before the float sin sees it: it is split into
    a 26-bit high part and the rest (Dekker), so that both products with j are exact.
    """
    scaled = np.add(turns_k, turns_l, out=out)
    if j == 1:
        np.rint(scaled, out=high)
        np.subtract(scaled, high, out=spare)
    else:
        np.multiply(scaled, _SPLIT, out=high)
        np.subtract(high, scaled, out=spare)
        high -= spare
        np.subtract(scaled, high, out=spare)
        high *= j
        spare *= j
        high -= np.rint(high, out=out)
        spare += high
        np.add(turns_k, turns_l, out=out)
    spare *= 2 * np.pi
    np.sin(spare, out=spare)
    out *= 2 * np.pi
    if zero is not None:
        out[zero] = 1.0
    np.divide(spare, out, out=out)
    if zero is not None:
        out[zero] = j


def _power_sum(K: int, l_grid: np.ndarray, delta: Fraction, forms) -> np.ndarray:
    """sum over the shifts of |integral over the window of g(u - tau) exp(j 2 pi l u) du|^2.

    delta and forms are _shift_forms': the shifts grouped by the length j delta of their
    overlap with the window, each group the rows r of a factor of its form, and the power
    sum_r (r . v_j)^2.  v_j holds sin(j theta) / theta = j sinc(j theta), theta = pi x delta,
    at the 2K - 1 frequencies x = k/K + l.
    """
    rows = 2 * K - 1
    half = float(delta) / 2
    # theta / (2 pi) = x delta / 2 is l delta / 2 + k delta / (2K), at any K and delta
    turns_k = np.arange(-K + 1, K)[:, None] * half / K
    # 2 cos and 2 sin of pi delta k / K, for 2 cos theta by angle addition
    cos_k, sin_k = 2 * np.cos(2 * np.pi * turns_k), 2 * np.sin(2 * np.pi * turns_k)
    out = np.empty(len(l_grid))
    size = rows * min(_BLOCK, len(l_grid))
    buffers = [np.empty(size) for _ in range(5)]
    for start in range(0, len(l_grid), _BLOCK):
        turns_l = l_grid[start:start + _BLOCK] * half
        cos2, prev, cur, y, t = (buf[:rows * len(turns_l)].reshape(rows, len(turns_l))
                                 for buf in buffers)
        # at theta = 0, and where theta is subnormal and short of bits, the limit
        zero = np.abs(np.add(turns_k, turns_l, out=t), out=t) < _TINY
        if not zero.any():
            zero = None
        _sines(turns_k, turns_l, 1, zero, cur, t, y)
        # pi delta l reduced exactly mod 2 pi, then 2 cos theta = 2 cos(pi delta l + pi delta k/K)
        phase = turns_l - np.rint(turns_l)
        phase *= 2 * np.pi
        np.multiply(cos_k, np.cos(phase), out=cos2)
        cos2 -= np.multiply(sin_k, np.sin(phase, out=phase), out=t)
        if zero is not None:
            cos2[zero] = 2.0
        acc = np.zeros(len(turns_l))
        j = 1
        for jf, r in forms:
            while j < jf:
                j += 1
                prev, cur = cur, prev
                if j % _RESEED < 2:
                    # two direct sines every _RESEED steps bound the recurrence's error growth
                    _sines(turns_k, turns_l, j, zero, cur, t, y)
                elif j == 2:
                    np.multiply(cos2, prev, out=cur)
                else:
                    # sin(j theta) = 2 cos theta sin((j - 1) theta) - sin((j - 2) theta)
                    np.multiply(cos2, prev, out=t)
                    np.subtract(t, cur, out=cur)
            # R v_j column by column, then its squares row by row: a fixed order of
            # operations for each l, so the bytes of one l do not depend on the points around it
            p, q = y[:len(r)], t[:len(r)]
            np.multiply(r[:, :1], cur[0], out=p)
            for k in range(1, rows):
                n = min(k + 1, len(r))
                p[:n] += np.multiply(r[:n, k:k + 1], cur[k], out=q[:n])
            p *= p
            for row in p:
                acc += row
        out[start:start + len(turns_l)] = acc
    return out


def _oqam_to_ofdm_grid(l_grid: np.ndarray, filt: PrototypeFilter, var_pam: float) -> np.ndarray:
    _, delta, forms = _forms(filt, None)
    return var_pam * _power_sum(filt.overlap_K, l_grid, delta, forms)


def _ofdm_to_oqam_grid(l_grid: np.ndarray, filt: PrototypeFilter, cp_ratio,
                       var_qam: float) -> np.ndarray:
    victims, delta, forms = _forms(filt, Fraction(cp_ratio))
    # the 1/2 real-part factor cancels against the two slots per complex symbol
    return var_qam * _power_sum(filt.overlap_K, l_grid, delta, forms) / victims


def build_table(direction: str, l_grid, config) -> np.ndarray | float:
    """Closed-form interference powers at spectral distances l_grid.

    direction names a lattice row of txrx.DIRECTIONS: "s2i" (one OQAM subcarrier
    into a CP-OFDM subcarrier at distance l) or "i2s" (one CP-OFDM subcarrier into
    an OQAM subcarrier, per victim complex symbol period); scenario parameters
    (prototype filter, cp_ratio, symbol variances) come from the config.  Powers are strictly
    positive, even in l and linear in the interferer's variance.  l_grid is a scalar or an array
    of finite, possibly fractional l; the result has its shape.
    """
    grid = require_finite("l_grid", l_grid)
    if grid.size == 0:
        raise ValueError("l_grid must be non-empty")
    if lookup_direction(direction, lattice=True).interferer == "oqam":
        powers = _oqam_to_ofdm_grid(grid.ravel(), config.filt, config.var_pam)
    else:
        powers = _ofdm_to_oqam_grid(grid.ravel(), config.filt, config.cp_ratio, config.var_qam)
    return powers.reshape(grid.shape)[()]
