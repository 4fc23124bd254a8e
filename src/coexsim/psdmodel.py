"""Legacy PSD-based interference estimate, for side-by-side comparison.

Estimates interference by integrating the interfering signal's power
spectral density over the victim subcarrier band, ignoring the victim's
receive windowing entirely.  Each subcarrier PSD is normalized to unit
total power and scaled by the interferer's mean symbol power per period
(var_qam for the CP-OFDM interferer, 2*var_pam for the OQAM interferer
whose two staggered real streams share the period).

The OQAM PSD is |frequency response|^2 under i.i.d. symbols; the
half-symbol staggering does not change the wide-sense spectrum.

Band integrals use one fixed 24-point Gauss-Legendre rule per unit band, the
oracle's constant rule (no adaptivity: the band integrands are smooth).
Each PSD transforms a pulse autocorrelation lasting 2K = 8 periods (OQAM) or
2(1 + cp) periods (CP-OFDM), so across one band the integrand is entire with
a few oscillations, and a rule exact to degree 47 is limited by roundoff
alone: it matches adaptive quadrature at epsrel 1e-12 to 2e-13 for CP-OFDM
(cp <= 2, |l| <= 256) and to 1.5e-10 for OQAM (|l| <= 20, the integrand's
own roundoff floor).  It loses digits beyond cp = 4 (3e-8 at cp = 8).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .filterbank import PrototypeFilter, frequency_response, _usinc
from .oracle import _GL_NODES, _GL_WEIGHTS
from .txrx import lookup_direction, require_finite

__all__ = ["psd_ofdm_subcarrier", "psd_oqam_subcarrier", "psd_interference"]


def psd_ofdm_subcarrier(f_norm, cp_ratio) -> float | np.ndarray:
    """Unit-power PSD of one CP-OFDM subcarrier at offset f_norm subcarrier spacings.

    The rectangular pulse of length (1+cp_ratio) periods transforms to
    (1+cp) sinc^2(pi f (1+cp)); integrates to 1 over all f_norm.
    """
    cp = float(Fraction(cp_ratio))
    if cp < 0:
        raise ValueError("cp_ratio must be non-negative")
    f = np.asarray(f_norm, dtype=float)
    out = (1 + cp) * np.square(_usinc(np.pi * f * (1 + cp)))
    return out[()]


def psd_oqam_subcarrier(f_norm, filt: PrototypeFilter) -> float | np.ndarray:
    """Unit-power PSD of one OQAM subcarrier: normalized |frequency response|^2.

    The analytic normalization constant is sum_k G_|k|^2 / K (the response's
    total power by sinc orthogonality).
    """
    norm = filt.normalization_sum() / filt.overlap_K
    out = np.square(frequency_response(filt, f_norm)) / norm
    return out[()]


def psd_interference(direction: str, l, config) -> float | np.ndarray:
    """PSD-model interference at spectral distance l: victim-band integral.

    Integrates the interferer's subcarrier PSD over [l - 1/2, l + 1/2] and
    scales by the interferer's symbol power.  The interferer waveform of the
    direction's row in txrx.DIRECTIONS selects the PSD: OQAM ("s2i", power
    2 var_pam, with config.filt) or CP-OFDM ("i2s" and "o2o", power var_qam).  l is a scalar or
    an array; only l enters, absolute subcarrier positions are irrelevant.  A
    non-finite l is a ValueError.
    """
    l = require_finite("l", l)
    if lookup_direction(direction).interferer == "oqam":
        psd = lambda f: psd_oqam_subcarrier(f, config.filt)
        power = 2 * config.var_pam
    else:
        psd = lambda f: psd_ofdm_subcarrier(f, config.cp_ratio)
        power = config.var_qam
    out = power * 0.5 * np.sum(psd(l[..., None] + 0.5 * _GL_NODES) * _GL_WEIGHTS, axis=-1)
    return out[()]
