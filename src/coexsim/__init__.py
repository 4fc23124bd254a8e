"""Cross-interference analysis for coexisting OFDM/OQAM and CP-OFDM systems.

Computes exact closed-form mean cross-interference powers per spectral
distance, validates them against a brute-force quadrature oracle and
link-level Monte-Carlo simulation, and contrasts them with the legacy
PSD-based interference estimate.

Time within the library is measured in units of the useful symbol period T
(symbol spacing 1/T between subcarriers); discrete signals are critically
sampled with M samples per period.
"""

from .filterbank import PrototypeFilter, phydyas_k4, evaluate_g, sample_taps, frequency_response
from .txrx import (
    CoexConfig,
    DiscreteSignal,
    ofdm_modulate,
    ofdm_demodulate,
    oqam_modulate,
    oqam_demodulate,
    apply_frequency_shift,
)
from .closedform import (
    interference_oqam_to_ofdm,
    interference_ofdm_to_oqam,
    build_table,
)
from .psdmodel import psd_ofdm_subcarrier, psd_oqam_subcarrier, psd_interference
from .montecarlo import (
    McEstimate,
    estimate_oqam_to_ofdm,
    estimate_ofdm_to_oqam,
    estimate_ofdm_to_ofdm,
    self_reconstruction_floor,
)
from .oracle import quadrature_term_stoi, quadrature_I, contributing_shifts

__all__ = [
    "PrototypeFilter",
    "phydyas_k4",
    "evaluate_g",
    "sample_taps",
    "frequency_response",
    "CoexConfig",
    "DiscreteSignal",
    "ofdm_modulate",
    "ofdm_demodulate",
    "oqam_modulate",
    "oqam_demodulate",
    "apply_frequency_shift",
    "interference_oqam_to_ofdm",
    "interference_ofdm_to_oqam",
    "build_table",
    "psd_ofdm_subcarrier",
    "psd_oqam_subcarrier",
    "psd_interference",
    "McEstimate",
    "estimate_oqam_to_ofdm",
    "estimate_ofdm_to_oqam",
    "estimate_ofdm_to_ofdm",
    "self_reconstruction_floor",
    "quadrature_term_stoi",
    "quadrature_I",
    "contributing_shifts",
]

__version__ = "0.1.0"
