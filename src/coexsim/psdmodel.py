"""Legacy PSD-based interference estimate, for side-by-side comparison.

Estimates interference by integrating the interfering signal's power
spectral density over the victim subcarrier band, ignoring the victim's
receive windowing entirely.  Each subcarrier PSD is normalized to unit
total power and scaled by the interferer's mean symbol power per period
(var_qam for the CP-OFDM interferer, 2*var_pam for the OQAM interferer
whose two staggered real streams share the period).

The OQAM PSD is |frequency response|^2 under i.i.d. symbols; the
half-symbol staggering does not change the wide-sense spectrum.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .filterbank import PrototypeFilter, frequency_response, _usinc

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


def psd_interference(direction: str, l: float, config, filt: PrototypeFilter) -> float:
    """PSD-model interference at spectral distance l: victim-band integral.

    Integrates the interferer's subcarrier PSD over [l - 1/2, l + 1/2] by
    adaptive quadrature (relative tolerance 1e-8) and scales by the
    interferer's symbol power.  direction selects the interferer:
    "oqam_to_ofdm" (OQAM PSD, power 2 var_pam), "ofdm_to_oqam" or
    "ofdm_to_ofdm_mc" (CP-OFDM PSD, power var_qam).  Only l enters; absolute
    subcarrier positions are irrelevant.
    """
    l = float(l)
    if direction == "oqam_to_ofdm":
        integrand = lambda f: psd_oqam_subcarrier(f, filt)
        power = 2 * config.var_pam
    elif direction in ("ofdm_to_oqam", "ofdm_to_ofdm_mc"):
        integrand = lambda f: psd_ofdm_subcarrier(f, config.cp_ratio)
        power = config.var_qam
    else:
        raise ValueError(f"unknown direction {direction!r}")
    val, _ = quad(integrand, l - 0.5, l + 0.5, epsabs=1e-16, epsrel=1e-8, limit=300)
    return power * val
