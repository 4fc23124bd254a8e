"""Brute-force quadrature of the defining interference integrals.

Ground truth for the closed forms: every value here is obtained by direct
numerical integration of the pulse against the victim receive window, with
the contributing symbol shifts enumerated exactly (rational arithmetic) from
the pulse support and the absolute placement of victim and interferer
symbols (never from any fixed a-priori range).

Built and validated independently of the closedform module, which has its
own relative-frame shift enumeration; neither imports the other.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

import numpy as np

from .filterbank import PrototypeFilter, evaluate_g

__all__ = [
    "QuadratureError",
    "quadrature_I",
    "contributing_shifts",
    "victim_slot_offsets",
    "oracle_parseval_constant",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# panel doubling stops when two refinements agree to _RTOL or _ATOL; past _MAX_PANELS it fails
_RTOL, _ATOL, _MAX_PANELS = 1e-13, 1e-16, 8192


class QuadratureError(RuntimeError):
    """Raised when panel refinement fails to converge; results are never truncated silently."""


def _panel_sum(f, a: float, b: float, n_panels: int) -> complex:
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(x.ravel()).reshape(x.shape)
    return complex(np.sum(vals * _GL_WEIGHTS[None, :] * half[:, None]))


def _integrate(f, a: float, b: float) -> complex:
    """Composite Gauss-Legendre with panel doubling until two refinements agree.

    0 on an empty interval; raises QuadratureError instead of returning an
    unconverged value.
    """
    if b <= a:
        return 0.0 + 0.0j
    n = 2
    prev = _panel_sum(f, a, b, n)
    while n <= _MAX_PANELS:
        n *= 2
        cur = _panel_sum(f, a, b, n)
        if abs(cur - prev) <= max(_RTOL * abs(cur), _ATOL):
            return cur
        prev = cur
    raise QuadratureError(f"quadrature did not converge on [{a}, {b}] within {_MAX_PANELS} panels")


def _window_overlap(tau: float, width: float, halfwidth: float) -> tuple[float, float]:
    """Intersection of the pulse support [tau-hw, tau+hw] with the window [0, width]."""
    return max(0.0, tau - halfwidth), min(width, tau + halfwidth)


def _window_integral(filt: PrototypeFilter, l: float, tau: float, width: float) -> complex:
    """integral over [0, width] of g(u - tau) exp(j 2 pi l u) du, by quadrature.

    The integrand vanishes outside the pulse support, so integration runs
    over the support overlap only (the support edge is the one point where
    the integrand is not smooth).
    """
    a, b = _window_overlap(tau, width, filt.support_halfwidth)
    f = lambda u: evaluate_g(filt, u - tau) * np.exp(2j * np.pi * l * u)
    return _integrate(f, a, b)


def victim_slot_offsets(cp_ratio: Fraction) -> list[Fraction]:
    """Offsets of the interferer symbol lattice relative to successive victim slots.

    For victim half-symbol slot n the interferer lattice (spacing 1+cp) sits
    at offset (cp + n/2) mod (1+cp).  For rational cp the offsets cycle;
    the full cycle is returned (length 2(p+q)/gcd(2, q) at cp=p/q: 2 at
    cp=0, 9 at 1/8, 8 at 1/3).
    """
    cp = Fraction(cp_ratio)
    if cp < 0:
        raise ValueError("cp_ratio must be non-negative")
    period = 1 + cp
    seen: set[Fraction] = set()
    out: list[Fraction] = []
    n = 0
    while True:
        x = (cp + Fraction(n, 2)) % period
        if x in seen:
            return out
        seen.add(x)
        out.append(x)
        n += 1


def _int_interval(lo: Fraction, hi: Fraction) -> list[int]:
    """Integers strictly inside the open interval (lo, hi)."""
    return list(range(floor(lo) + 1, ceil(hi)))


def contributing_shifts(direction: str, n_victim: int, cp_ratio, filt: PrototypeFilter) -> set[int]:
    """Interferer symbol indices whose pulse/window support meets the victim window.

    direction "s2i": victim is the CP-OFDM useful window of symbol n_victim,
    interferer indices count OQAM half-symbol slots.  direction "i2s": victim
    is the OQAM receive-filter span of slot n_victim, interferer indices
    count CP-OFDM symbols (whole extent including the prefix).  Overlap must
    have nonzero measure.
    """
    cp = Fraction(cp_ratio)
    hw = Fraction(filt.overlap_K, 2)
    if direction == "s2i":
        w0 = n_victim * (1 + cp)
        w1 = w0 + 1
        # slot n: pulse on (n/2 - hw, n/2 + hw)
        return set(_int_interval(2 * (w0 - hw), 2 * (w1 + hw)))
    if direction == "i2s":
        v0 = Fraction(n_victim, 2) - hw
        v1 = Fraction(n_victim, 2) + hw
        # symbol n: occupies (n(1+cp) - cp, n(1+cp) + 1)
        lo = (v0 - 1) / (1 + cp)
        hi = (v1 + cp) / (1 + cp)
        return set(_int_interval(lo, hi))
    raise ValueError(f"unknown direction {direction!r}")


def _window_taus(direction: str, n_victim: int, cp: Fraction,
                 filt: PrototypeFilter) -> list[Fraction]:
    """Contributing pulse centers relative to the victim window start, ascending.

    s2i: OQAM slot centers against CP-OFDM window n_victim.  i2s: OQAM slot
    n_victim's center against the start of each CP-OFDM symbol's whole
    extent (prefix included), so ascending tau is descending symbol index.
    """
    shifts = contributing_shifts(direction, n_victim, cp, filt)
    if direction == "s2i":
        return sorted(Fraction(n, 2) - n_victim * (1 + cp) for n in shifts)
    return sorted(Fraction(n_victim, 2) + cp - n * (1 + cp) for n in shifts)


def quadrature_I(direction: str, l: float, filt: PrototypeFilter, cp_ratio=Fraction(0)) -> float:
    """Mean interference power at spectral distance l, by direct quadrature.

    Unit interferer symbol variance.  direction "s2i": per victim CP-OFDM
    symbol (canonical window n_i = 0).  direction "i2s": per victim complex
    symbol period, i.e. twice the mean, over the victim half-symbol slots of
    one offset cycle, of the per-slot power including the real-part factor
    1/2.
    """
    cp = Fraction(cp_ratio)
    l = float(l)
    if direction == "s2i":
        victims, width = [0], 1.0
    elif direction == "i2s":
        victims, width = range(len(victim_slot_offsets(cp))), float(1 + cp)
    else:
        raise ValueError(f"unknown direction {direction!r}")
    acc = 0.0
    for nv in victims:
        for tau in _window_taus(direction, nv, cp, filt):
            acc += abs(_window_integral(filt, l, float(tau), width)) ** 2
    # i2s: the per-slot real-part factor 1/2 cancels against the
    # per-complex-symbol convention's doubling of the slot mean
    return acc / len(victims)


def quadrature_window_energy(filt: PrototypeFilter, tau: float, width: float) -> float:
    """integral over [0, width] of g^2(u - tau) du, by quadrature."""
    a, b = _window_overlap(tau, width, filt.support_halfwidth)
    return float(np.real(_integrate(lambda u: evaluate_g(filt, u - tau) ** 2 + 0j, a, b)))


def oracle_parseval_constant(filt: PrototypeFilter) -> float:
    """sum over half-period shifts of integral_0^1 g^2(t - tau) dt.

    The total captured pulse energy per unit receive window; the l-sum of
    the unit-variance interference table must equal it exactly.
    """
    return sum(quadrature_window_energy(filt, float(tau), 1.0)
               for tau in _window_taus("s2i", 0, Fraction(0), filt))
