"""Cross-interference analysis for coexisting OFDM/OQAM and CP-OFDM systems.

Computes exact closed-form mean cross-interference powers per spectral
distance, validates them against a brute-force quadrature oracle and
link-level Monte-Carlo simulation, and contrasts them with the legacy
PSD-based interference estimate.

Time within the library is measured in units of the useful symbol period T
(symbol spacing 1/T between subcarriers); discrete signals are critically
sampled with M samples per period.

The package exposes its modules (closedform, oracle, txrx, montecarlo,
psdmodel, filterbank, checks, cli), not top-level names.
"""

__version__ = "0.1.0"
