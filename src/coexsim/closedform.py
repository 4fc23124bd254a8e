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
read-only.  The sincs are computed in three reused buffers, step for step as
np.sinc computes them, so the bytes are its own.

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
checks that the two enumerations agree.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, floor, gcd

import numpy as np

from .filterbank import PrototypeFilter
from .txrx import MAX_OFFSET_CYCLE, ConfigError, lookup_direction, require_finite

__all__ = ["build_table", "DB_FLOOR", "power_db"]

# linear powers below this are clamped for dB display only
DB_FLOOR = 1e-15
# l points per evaluation block: bounds the temporaries on the largest grids
_BLOCK = 1 << 12


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
def _forms(filt: PrototypeFilter, cp: Fraction | None) -> tuple[int, tuple]:
    """Victim count and (length, form) pairs of _power_sum, in first-seen order of the lengths.

    cp None: s2i, the window [0, 1] on the half-period lattice.  A Fraction: i2s, the window
    [0, 1 + cp] on the CP-OFDM symbol lattice at each slot offset of the cycle, in turn.
    Shared by every call with the same (filter, cp), so each form is read-only.
    """
    K = filt.overlap_K
    hw = Fraction(K, 2)
    width = Fraction(1) if cp is None else 1 + cp
    lattices = ([(Fraction(1, 2), Fraction(0))] if cp is None
                else [(width, offset) for offset in _slot_offsets(cp)])
    ks = np.arange(-K + 1, K)
    gains = np.array([filt.coeff(k) for k in ks]) / K
    forms: dict[Fraction, np.ndarray] = {}
    for spacing, offset in lattices:
        for tau in _lattice_taus(filt, spacing, offset, width):
            a, b = max(Fraction(0), tau - hw), min(width, tau + hw)
            c = gains * np.exp(1j * np.pi * ks * float((a + b - 2 * tau) / K))
            # the (b-a)^2 of e_k e_k' goes into the form, so the sincs below are unscaled
            forms[b - a] = forms.get(b - a, 0) + np.real(np.outer(c.conj(), c)) * float(b - a) ** 2
    for q in forms.values():
        q.flags.writeable = False
    return len(lattices), tuple((float(length), q) for length, q in forms.items())


def _power_sum(K: int, l_grid: np.ndarray, forms) -> np.ndarray:
    """sum over the shifts of |integral over the window of g(u - tau) exp(j 2 pi l u) du|^2.

    forms are _forms' pairs: the shifts grouped by the exact length b - a of their overlap
    [a, b] with the window, each group one quadratic form in the 2K - 1 real sincs of that length.
    """
    freqs = np.arange(-K + 1, K)[:, None] / K
    out = np.empty(len(l_grid))
    rows = 2 * K - 1
    size = rows * min(_BLOCK, len(l_grid))
    buffers = np.empty(size), np.empty(size), np.empty(size)
    for start in range(0, len(l_grid), _BLOCK):
        l = l_grid[start:start + _BLOCK]
        # contiguous, as np.sinc's own temporaries are: on a strided operand einsum
        # may sum in another order, with other bytes
        x, y, e = (buf[:rows * len(l)].reshape(rows, len(l)) for buf in buffers)
        np.add(freqs, l, out=x)
        acc = np.zeros(len(l))
        for length, q in forms:
            # np.sinc(x * length), step for step: y = pi x, exact zeros nudged so
            # that sin(y)/y is exactly 1 there, e = sin(y)/y
            np.multiply(x, length, out=y)
            y *= np.pi
            if not y.all():
                y[y == 0] = 1e-20
            np.divide(np.sin(y, out=e), y, out=e)
            # einsum, not BLAS: the bytes do not depend on the BLAS thread count
            acc += np.einsum("kl,kl->l", e, np.einsum("kj,jl->kl", q, e))
        out[start:start + _BLOCK] = acc
    return out


def _oqam_to_ofdm_grid(l_grid: np.ndarray, filt: PrototypeFilter, var_pam: float) -> np.ndarray:
    _, forms = _forms(filt, None)
    return var_pam * _power_sum(filt.overlap_K, l_grid, forms)


def _ofdm_to_oqam_grid(l_grid: np.ndarray, filt: PrototypeFilter, cp_ratio,
                       var_qam: float) -> np.ndarray:
    victims, forms = _forms(filt, Fraction(cp_ratio))
    # the 1/2 real-part factor cancels against the two slots per complex symbol
    return var_qam * _power_sum(filt.overlap_K, l_grid, forms) / victims


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
