"""Frequency-sampled prototype filter: analytic pulse, sampled taps, spectrum.

The pulse is described by an overlapping factor K and K frequency-domain
coefficients G_0..G_{K-1}; in continuous time (t in units of the symbol
period T) it is the truncated Fourier series

    g(t) = sum_{k=-K+1}^{K-1} (G_|k|/K) * cos(2 pi k t / K),   |t| <= K/2,

zero outside.  All operations here are pure functions on immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PrototypeFilter", "phydyas_k4", "evaluate_g", "sample_taps", "frequency_response"]


def _usinc(x):
    """Unnormalized sinc: sin(x)/x with value 1 at x = 0."""
    return np.sinc(np.asarray(x) / np.pi)


@dataclass(frozen=True)
class PrototypeFilter:
    """Overlapping factor and frequency coefficients of a prototype pulse.

    coeffs[0] must equal 1 (unit response at the subcarrier center).  The
    near-perfect-reconstruction normalization sum_{|k|<K} G_|k|^2 == K is a
    property of well-designed coefficient sets, checked by the verification
    suite rather than enforced here so that deliberately corrupted filters
    can be constructed for negative tests.
    """

    overlap_K: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.overlap_K < 1:
            raise ValueError("overlap_K must be >= 1")
        if len(self.coeffs) != self.overlap_K:
            raise ValueError(f"expected {self.overlap_K} coefficients, got {len(self.coeffs)}")
        if self.coeffs[0] != 1.0:
            raise ValueError("G_0 must equal 1")
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be non-negative")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def support_halfwidth(self) -> float:
        """Half-width K/2 of the pulse support, in symbol periods."""
        return self.overlap_K / 2

    def coeff(self, k: int) -> float:
        """G_|k| for |k| < K, 0 beyond."""
        k = abs(k)
        return self.coeffs[k] if k < self.overlap_K else 0.0

    def normalization_sum(self) -> float:
        """sum_{k=-K+1}^{K-1} G_|k|^2 (equals K for near-PR coefficient sets)."""
        c = np.asarray(self.coeffs)
        return float(c[0] ** 2 + 2 * np.sum(c[1:] ** 2))


def phydyas_k4() -> PrototypeFilter:
    """The K = 4 filter used throughout: G = [1, 0.971960, 1/sqrt(2), 0.235147]."""
    return PrototypeFilter(overlap_K=4, coeffs=(1.0, 0.971960, 1 / np.sqrt(2), 0.235147))


def evaluate_g(filt: PrototypeFilter, t_norm) -> float | np.ndarray:
    """Pulse amplitude at time t_norm (in symbol periods).

    Real and even; identically zero for |t_norm| > K/2.  Accepts scalars or
    arrays.
    """
    t = np.asarray(t_norm, dtype=float)
    K = filt.overlap_K
    out = np.zeros_like(t)
    inside = np.abs(t) <= K / 2
    ti = t[inside]
    acc = np.full_like(ti, 1.0 / K)
    for k in range(1, K):
        acc += (2 * filt.coeffs[k] / K) * np.cos(2 * np.pi * k * ti / K)
    out[inside] = acc
    return out[()]


def sample_taps(filt: PrototypeFilter, samples_per_symbol: int) -> np.ndarray:
    """Pulse sampled at M points per symbol period.

    Returns K*M + 1 taps including both (zero-valued) support endpoints, so
    the center tap sits exactly at t = 0 and the vector is symmetric.
    """
    M = samples_per_symbol
    if M < 2:
        raise ValueError("samples_per_symbol must be >= 2")
    K = filt.overlap_K
    idx = np.arange(K * M + 1)
    return evaluate_g(filt, (idx - K * M / 2) / M)


def frequency_response(filt: PrototypeFilter, f_norm) -> float | np.ndarray:
    """Spectrum at frequency f_norm in subcarrier spacings, normalized to 1 at DC.

    Analytic transform of the truncated series: sum_k G_|k| sinc(pi(K f - k)).
    Real-valued (the pulse is real and symmetric).  At f = k/K it sifts out
    the single coefficient G_|k|.
    """
    f = np.asarray(f_norm, dtype=float)
    K = filt.overlap_K
    acc = np.zeros_like(f)
    for k in range(-K + 1, K):
        acc += filt.coeff(k) * _usinc(np.pi * (K * f - k))
    return acc[()]
