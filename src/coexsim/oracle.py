"""Brute-force quadrature of the defining interference integrals.

Ground truth for the closed forms: every value here is obtained by direct
numerical integration of the pulse against the victim receive window, with
the contributing pulse shifts enumerated once, by _window_taus, exactly
(rational arithmetic) from the pulse support and the absolute placement of
victim and interferer symbols (never from any fixed a-priori range).  Every
integral goes through _window_integrals, which refuses a non-finite tau or l.

Refinement is stacked: every (victim slot, shift tau, l) integral of one
call is a row, and all rows refine together by composite 24-point
Gauss-Legendre on equal panels, doubling the panel count.  Each row keeps
its own stopping test, scaled to its own integrand (two refinements agree
to _RTOL of the larger of |integral| and the integral of |g|, or to
_FLOOR = 64 eps times the row's width), and leaves the active set at its
first doubling that passes it (a per-row mask); a row still active past
the panel cap raises QuadratureError.  The width floor is the noise of
evaluating g: at cp = 511/512 an i2s row overlaps the window 1/512 wide at
the pulse's support edge, where g ~ 1e-7 is a difference of O(1) cosines,
and its refinements differ by ~1e-20, above _RTOL times its integral of
|g| (~3e-23).  At a given doubling every active row has the same panel
count, so the pulse is sampled once per distinct tau and broadcast over
its l.  Rows are summed in chunks of at most _CHUNK_NODES nodes, with
elementwise products and one sum per row (no BLAS), so neither the memory
nor a row's bytes depend on how many rows share its call.

Built and validated independently of the closedform module, which has its
own relative-frame shift enumeration; neither imports the other.  The
oracle samples the pulse (evaluate_g) at the quadrature nodes and never
uses its coefficient or sinc expansion.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

import numpy as np

from .filterbank import PrototypeFilter, evaluate_g
from .txrx import MAX_OFFSET_CYCLE, ConfigError, lookup_direction, require_finite

__all__ = [
    "QuadratureError",
    "quadrature_I",
    "quadrature_window_energy",
    "victim_slot_offsets",
    "oracle_parseval_constant",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
# doubling stops when two refinements agree to _RTOL of the larger of a row's |integral|
# and integral of |integrand|, or to _FLOOR times its width; past _MAX_PANELS it fails
_RTOL, _MAX_PANELS, _FLOOR = 1e-13, 8192, 64 * np.finfo(float).eps
# nodes per chunk of rows in one refinement step (one row if a row has more): each
# temporary stays near 1 MiB of complex values.  A 2^20 cap saved a fifth of the time
# of a 41-point l grid at cp = 7/16 and raised its peak memory by 25 MiB
_CHUNK_NODES = 1 << 16


class QuadratureError(RuntimeError):
    """Raised when panel refinement fails to converge; results are never truncated silently."""


def _panel_sums(pulse, tau, a, b, l, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite 24-point Gauss-Legendre sums on n_panels equal panels, one per row.

    Row i approximates the integral over [a_i, b_i] of pulse(u - tau_i)
    exp(j 2 pi l_i u) du, and, from the same pulse samples, the integral of
    |pulse(u - tau_i)|: the scale of the row's summation roundoff.  Rows
    sharing a tau share their nodes (a and b are functions of tau), so
    pulse is sampled once per distinct tau in a chunk and broadcast over
    its l.  Every row is reduced on its own along its own nodes, so its
    values do not depend on the other rows.
    """
    out = np.empty(len(tau), dtype=complex)
    mass = np.empty(len(tau))
    step = max(1, _CHUNK_NODES // (n_panels * _GL_NODES.size))
    for s in range(0, len(tau), step):
        rows = slice(s, s + step)
        taus, first, which = np.unique(tau[rows], return_index=True, return_inverse=True)
        edges = np.linspace(a[rows][first], b[rows][first], n_panels + 1, axis=1)
        mid = 0.5 * (edges[:, :-1] + edges[:, 1:])
        half = 0.5 * (edges[:, 1:] - edges[:, :-1])
        x = mid[:, :, None] + half[:, :, None] * _GL_NODES
        g = pulse(x - taus[:, None, None])
        abs_terms = np.abs(g) * _GL_WEIGHTS * half[:, :, None]
        mass[rows] = abs_terms.reshape(len(taus), -1).sum(axis=1)[which]
        vals = np.multiply((2j * np.pi * l[rows])[:, None, None], x[which])
        np.exp(vals, out=vals)
        vals *= g[which]
        vals *= _GL_WEIGHTS
        vals *= half[which][:, :, None]
        out[rows] = vals.reshape(len(which), -1).sum(axis=1)
    return out, mass


def _integrate(pulse, tau, a, b, l, label: str) -> np.ndarray:
    """Composite Gauss-Legendre with panel doubling until two refinements agree, per row.

    Row i is the integral over [a_i, b_i] of pulse(u - tau_i) exp(j 2 pi
    l_i u) du; all rows refine together, and a row leaves the active set
    at its first doubling that passes the stopping test: the change is at
    most _RTOL times the larger of |integral| and the integral of |pulse|,
    or _FLOOR times b - a.  The second term is the roundoff floor of an
    oscillating sum, which a fixed absolute floor would put out of reach at
    large |l|; the third, the noise of evaluating the pulse.  0 on an empty
    interval; raises QuadratureError, naming label and the failed row with
    the largest |l|, instead of returning an unconverged value.
    """
    tau, a, b, l = (np.asarray(v, dtype=float) for v in (tau, a, b, l))
    out = np.zeros(len(tau), dtype=complex)
    active = np.flatnonzero(b > a)
    n = 2
    prev, _ = _panel_sums(pulse, tau[active], a[active], b[active], l[active], n)
    while active.size and n < _MAX_PANELS:
        n *= 2
        cur, mass = _panel_sums(pulse, tau[active], a[active], b[active], l[active], n)
        tol = np.maximum(_RTOL * np.maximum(np.abs(cur), mass), _FLOOR * (b - a)[active])
        done = np.abs(cur - prev) <= tol
        out[active[done]] = cur[done]
        active, prev = active[~done], cur[~done]
    if active.size:
        i = active[np.argmax(np.abs(l[active]))]
        raise QuadratureError(
            f"{label} quadrature did not converge within {_MAX_PANELS} panels at l = {l[i]}, "
            f"tau = {tau[i]} on [{a[i]}, {b[i]}] ({active.size} of {len(tau)} integrals)")
    return out


def _window_integrals(pulse, halfwidth: float, taus, width: float, ls, label: str) -> np.ndarray:
    """integral over [0, width] of pulse(u - tau) exp(j 2 pi l u) du for every (tau, l): (taus, ls).

    The oracle's one route to _integrate.  pulse vanishes outside [-halfwidth,
    halfwidth], so integration runs over the overlap [max(0, tau - halfwidth),
    min(width, tau + halfwidth)] only (the support edge is the one point where
    the integrand is not smooth).  A non-finite tau or l is a ValueError, raised
    before any quadrature: it would make the overlap empty or never converge.
    """
    taus, ls = require_finite("tau", taus), require_finite("l", ls)
    a, b = np.maximum(0.0, taus - halfwidth), np.minimum(width, taus + halfwidth)
    tau_rows, a_rows, b_rows = (np.repeat(v, len(ls)) for v in (taus, a, b))
    vals = _integrate(pulse, tau_rows, a_rows, b_rows, np.tile(ls, len(taus)), label)
    return vals.reshape(len(taus), len(ls))


def victim_slot_offsets(cp_ratio: Fraction) -> list[Fraction]:
    """Offsets of the interferer symbol lattice relative to successive victim slots.

    For victim half-symbol slot n the interferer lattice (spacing 1+cp) sits
    at offset (cp + n/2) mod (1+cp).  For rational cp the offsets cycle;
    the full cycle is returned (length 2(p+q)/gcd(2, q) at cp=p/q: 2 at
    cp=0, 9 at 1/8, 8 at 1/3); a walk past MAX_OFFSET_CYCLE is a ConfigError.
    """
    cp = Fraction(cp_ratio)
    if cp < 0:
        raise ValueError("cp_ratio must be non-negative")
    period = 1 + cp
    # the offsets advance by 1/2 modulo the period, so the first to recur is slot 0's, cp
    out = [cp]
    while (x := (cp + Fraction(len(out), 2)) % period) != cp:
        if len(out) == MAX_OFFSET_CYCLE:
            raise ConfigError(f"cp_ratio = {cp}: i2s offset cycle of over {MAX_OFFSET_CYCLE} slots")
        out.append(x)
    return out


def _int_interval(lo: Fraction, hi: Fraction) -> list[int]:
    """Integers strictly inside the open interval (lo, hi)."""
    return list(range(floor(lo) + 1, ceil(hi)))


def _window_taus(direction: str, n_victim: int, cp: Fraction,
                 filt: PrototypeFilter) -> list[Fraction]:
    """Contributing pulse centers relative to the victim window start, ascending.

    A shift contributes when its pulse support meets the victim window in
    nonzero measure, bounded exactly from absolute placement.  s2i: OQAM
    half-symbol slot n (pulse on (n/2 - hw, n/2 + hw)) against the useful
    window of CP-OFDM symbol n_victim; tau ascends with n.  i2s: OQAM slot
    n_victim's receive-filter span against CP-OFDM symbol n (whole extent
    (n(1+cp) - cp, n(1+cp) + 1), prefix included), tau taken from that
    symbol's start, so ascending tau is descending n.
    """
    hw = Fraction(filt.overlap_K, 2)
    if lookup_direction(direction, lattice=True).victim == "ofdm":
        w0 = n_victim * (1 + cp)
        return [Fraction(n, 2) - w0 for n in _int_interval(2 * (w0 - hw), 2 * (w0 + 1 + hw))]
    center = Fraction(n_victim, 2)
    lo, hi = (center - hw - 1) / (1 + cp), (center + hw + cp) / (1 + cp)
    return [center + cp - n * (1 + cp) for n in reversed(_int_interval(lo, hi))]


def quadrature_I(direction: str, l, filt: PrototypeFilter, cp_ratio=Fraction(0)):
    """Mean interference power at spectral distance l, by direct quadrature.

    Unit interferer symbol variance.  direction "s2i": per victim CP-OFDM
    symbol (canonical window n_i = 0).  direction "i2s": per victim complex
    symbol period, i.e. twice the mean, over the victim half-symbol slots of
    one offset cycle, of the per-slot power including the real-part factor
    1/2.  l is a scalar or an array; the result has its shape, and each
    value does not depend on the other l it is computed with.
    """
    cp = Fraction(cp_ratio)
    ls = np.asarray(l, dtype=float)
    if lookup_direction(direction, lattice=True).victim == "ofdm":
        victims, width, label = [0], 1.0, direction
    else:
        victims, width = range(len(victim_slot_offsets(cp))), float(1 + cp)
        label = f"{direction} (cp = {cp})"
    taus = [float(tau) for nv in victims for tau in _window_taus(direction, nv, cp, filt)]
    vals = _window_integrals(lambda t: evaluate_g(filt, t), filt.support_halfwidth, taus, width,
                             ls.ravel(), label)
    # summed shift by shift in victim order (np.sum would sum a single l pairwise), so a
    # value does not depend on the other l of the call
    acc = np.zeros(ls.size)
    for power in np.abs(vals) ** 2:
        acc += power
    # i2s: the per-slot real-part factor 1/2 cancels against the
    # per-complex-symbol convention's doubling of the slot mean
    return (acc / len(victims)).reshape(ls.shape)[()]


def quadrature_window_energy(filt: PrototypeFilter, tau, width: float):
    """integral over [0, width] of g^2(u - tau) du, by quadrature; tau a scalar or an array."""
    taus = np.asarray(tau, dtype=float)
    vals = _window_integrals(lambda t: evaluate_g(filt, t) ** 2, filt.support_halfwidth,
                             taus.ravel(), width, [0.0], "window energy")
    return np.real(vals).reshape(taus.shape)[()]


def oracle_parseval_constant(filt: PrototypeFilter) -> float:
    """sum over half-period shifts of integral_0^1 g^2(t - tau) dt.

    The total captured pulse energy per unit receive window; the l-sum of
    the unit-variance interference table must equal it exactly.
    """
    taus = [float(tau) for tau in _window_taus("s2i", 0, Fraction(0), filt)]
    return float(sum(quadrature_window_energy(filt, taus, 1.0).tolist()))
