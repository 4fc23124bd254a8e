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
from math import ceil, floor, gcd

import numpy as np

from .filterbank import PrototypeFilter, _usinc

__all__ = ["build_table", "DB_FLOOR"]

# linear powers below this are clamped for dB display only
DB_FLOOR = 1e-15


def power_db(power) -> np.ndarray | float:
    return 10 * np.log10(np.maximum(power, DB_FLOOR))


def _window_integral_grid(filt: PrototypeFilter, l_grid: np.ndarray, tau: float,
                          width: float) -> np.ndarray:
    """Exact integral over [0, width] of g(u - tau) exp(j 2 pi l u) du for every l.

    The pulse support must meet the window (see _lattice_taus).
    """
    hw = filt.support_halfwidth
    a, b = max(0.0, tau - hw), min(width, tau + hw)
    K = filt.overlap_K
    out = np.zeros_like(l_grid, dtype=complex)
    for k in range(-K + 1, K):
        w = 2 * np.pi * (k / K + l_grid)
        out += (filt.coeff(k) / K) * np.exp(-2j * np.pi * k * tau / K) * (b - a) \
            * np.exp(1j * w * (a + b) / 2) * _usinc(w * (b - a) / 2)
    return out


def _lattice_taus(filt: PrototypeFilter, spacing: Fraction, offset: Fraction,
                  width: Fraction) -> list[Fraction]:
    """Ascending tau in spacing*Z + offset whose pulse support meets [0, width].

    The overlap must have nonzero measure: -K/2 < tau < width + K/2.
    """
    hw = Fraction(filt.overlap_K, 2)
    n_lo = floor((-hw - offset) / spacing) + 1
    n_hi = ceil((width + hw - offset) / spacing) - 1
    return [offset + n * spacing for n in range(n_lo, n_hi + 1)]


def _lattice_power_sum(filt: PrototypeFilter, l_grid: np.ndarray, spacing: Fraction,
                       offset: Fraction, width: Fraction) -> np.ndarray:
    """sum over the contributing tau of |window integral|^2."""
    total = np.zeros_like(l_grid, dtype=float)
    for tau in _lattice_taus(filt, spacing, offset, width):
        total += np.abs(_window_integral_grid(filt, l_grid, float(tau), float(width))) ** 2
    return total


def _slot_offsets(cp: Fraction) -> list[Fraction]:
    """Interferer-lattice offsets (cp + n/2) mod (1+cp) of victim slots n over one cycle.

    At cp = p/q the offsets repeat after 2(p+q)/gcd(2, q) slots.
    """
    cycle = 2 * (cp.numerator + cp.denominator) // gcd(2, cp.denominator)
    return [(cp + Fraction(n, 2)) % (1 + cp) for n in range(cycle)]


def _oqam_to_ofdm_grid(l_grid: np.ndarray, filt: PrototypeFilter, var_pam: float) -> np.ndarray:
    return var_pam * _lattice_power_sum(filt, l_grid, Fraction(1, 2), Fraction(0), Fraction(1))


def _ofdm_to_oqam_grid(l_grid: np.ndarray, filt: PrototypeFilter, cp_ratio,
                       var_qam: float) -> np.ndarray:
    cp = Fraction(cp_ratio)
    width = 1 + cp
    offsets = _slot_offsets(cp)
    acc = np.zeros_like(np.asarray(l_grid, dtype=float))
    for off in offsets:
        acc += _lattice_power_sum(filt, l_grid, width, off, width)
    # the 1/2 real-part factor cancels against the two slots per complex symbol
    return var_qam * acc / len(offsets)


def build_table(direction: str, l_grid, config, filt: PrototypeFilter) -> np.ndarray:
    """Closed-form interference powers over a grid of spectral distances.

    direction is "s2i" (one OQAM subcarrier into a CP-OFDM subcarrier at
    distance l) or "i2s" (one CP-OFDM subcarrier into an OQAM subcarrier,
    per victim complex symbol period); scenario parameters (cp_ratio, symbol
    variances) come from the config.  Powers are strictly positive, even in
    l and linear in the interferer's variance; l may be fractional.
    """
    grid = np.asarray(l_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("l_grid must be non-empty")
    if direction == "s2i":
        return _oqam_to_ofdm_grid(grid, filt, config.var_pam)
    if direction == "i2s":
        return _ofdm_to_oqam_grid(grid, filt, config.cp_ratio, config.var_qam)
    raise ValueError(f"build_table computes closed forms only, not {direction!r}")
