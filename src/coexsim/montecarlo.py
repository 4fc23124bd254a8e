"""Monte-Carlo estimation of post-demodulation cross-interference powers.

Estimators synthesize random bursts with full guard context (every measured
victim window or slot has its complete filter/window support inside the
synthesized signal), demodulate every victim subcarrier, and average the
squared interference samples.  Reported spectral distances follow the
victim's frequency reference:

    oqam -> ofdm (s2i):  l = m_s + delta_f - m_i
    ofdm -> oqam (i2s):  l = m_i - delta_f - m_s
    ofdm -> ofdm (o2o):  l = m_s + delta_f - m_i

The i2s estimator reports interference per victim complex symbol period
(twice the per-slot mean over the two staggered real slots), matching the
closed-form convention.

Bursts: s2i and i2s synthesize one burst per 256 victim windows (slots),
o2o one per 32 windows, where a fresh timing offset is drawn per burst.

Determinism: a master seed spawns one independent substream per burst via
numpy SeedSequence spawn keys, so results are bit-identical however bursts
are scheduled.  Trial counts are the number of victim windows (slots)
measured, and the reported standard errors treat them as independent.
They are not: windows of one burst share its interferer symbols and, for
o2o, its timing offset.  The ratio of a batch-means standard error over bursts
(Flegal & Jones, Ann. Stat. 2010) to the reported one was measured on the
reference scenario at 3.5-4.0 for o2o, where the shared offset dominates
the variance, so its reported errors are about 4x too small; for s2i it was
0.82-1.05 (40 bursts only).  Reporting the batch-means value instead is an
open ROADMAP item.

Buffers: the i2s and o2o estimators own one txrx workspace per call and
pass it to every burst's ofdm_modulate, apply_frequency_shift and
_oqam_demod_slots.  The OQAM tap blocks are built once per M and shared,
read-only, by every modem call; the burst signal, its outer-product
temporary, the frequency ramp and the shifted signal, and the receiver's
64-slot fold and per-block product each reuse one buffer.  Both receivers
read the burst in place, so neither copies it.  These temporaries are up to
2 MiB, and glibc maps a fresh array of that size as fresh pages, so
allocating them per burst cost a warm 10^4-symbol run about 42,000 minor
page faults for i2s and 20,000 for o2o; with the workspace and the
receiver's 64-slot fold it is about 800 and 120, and the i2s run takes
about half the time.  Which of the per-burst arrays glibc returns to the
system depends on the order they are freed in: with only the modem's
buffers reused, o2o at delta_f = 0.3 went from 140 to 41,000 faults per
run, so the shift's buffers are reused too.  A signal built in the
workspace aliases it until the next burst writes it, so each burst
consumes its signal first.  The s2i estimator owns a
workspace for apply_frequency_shift only: at delta_f = 0.3 a warm run made
about 45,500 faults with a fresh ramp and shifted signal per burst, and
makes about 2,300 with them reused (0.35 s to 0.21 s).  Its synthesis and
its delta_f = 0 path allocate per burst: they make about 1,200 faults per
run, and a workspace there raised peak memory without saving time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import ceil, floor

import numpy as np

from .filterbank import phydyas_k4
from .txrx import (
    CoexConfig,
    ConfigError,
    apply_frequency_shift,
    ofdm_modulate,
    oqam_modulate,
    shift_samples,
    _ofdm_demod_window,
    _oqam_demod_slots,
    _Workspace,
)

__all__ = [
    "McEstimate",
    "estimate_oqam_to_ofdm",
    "estimate_ofdm_to_oqam",
    "estimate_ofdm_to_ofdm",
]

# substream tags keep the per-direction random streams disjoint
_TAG_S2I, _TAG_I2S, _TAG_O2O = 0, 1, 2

_BURST = 256
# offset diversity, not window count, dominates the o2o estimator variance
# under the uniform timing offset, so its bursts are short
_O2O_BURST = 32


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Mean interference power and its standard error per victim l, ascending in l."""

    l_values: np.ndarray
    powers: np.ndarray
    std_errors: np.ndarray
    trials: int


def _roles(interferers, victims, interferer: str, victim: str) -> tuple[int, list[int]]:
    """The single interferer subcarrier and the sorted victim subcarriers."""
    if len(interferers) != 1:
        raise ConfigError(f"estimator needs exactly one {interferer} (interferer) subcarrier, "
                          f"got {sorted(interferers)}")
    if not victims:
        raise ConfigError(f"estimator needs at least one {victim} (victim) subcarrier")
    return next(iter(interferers)), sorted(victims)


def _rng(seed: int, tag: int, burst: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, burst)))


def _draw_pam(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    """i.i.d. 2-PAM at the requested variance."""
    return rng.choice([1.0, -1.0], size=n) * np.sqrt(variance)


def _draw_qpsk(rng: np.random.Generator, n: int, variance: float) -> np.ndarray:
    """i.i.d. QPSK at the requested variance (proper: E d^2 = 0)."""
    return (rng.choice([1.0, -1.0], size=n) + 1j * rng.choice([1.0, -1.0], size=n)) \
        * np.sqrt(variance / 2)


def _burst_sizes(n_total: int, burst: int) -> list[int]:
    if n_total < 1:
        raise ConfigError("n_symbols must be >= 1")
    n_bursts = ceil(n_total / burst)
    sizes = [burst] * n_bursts
    sizes[-1] = n_total - burst * (n_bursts - 1)
    return sizes


class _MomentSums:
    """Per-column running count, sum and sum of squares; mean and standard error from them."""

    def __init__(self, width: int):
        self.count = 0
        self.total = np.zeros(width)
        self.total_sq = np.zeros(width)

    def add(self, rows: np.ndarray):
        self.count += rows.shape[0]
        self.total += rows.sum(axis=0)
        self.total_sq += (rows ** 2).sum(axis=0)

    def mean(self) -> np.ndarray:
        return self.total / self.count

    def std_error(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.total)
        var = (self.total_sq - self.total ** 2 / self.count) / (self.count - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.count)


def _finish(acc: _MomentSums, l_of, victims, scale=1.0) -> McEstimate:
    """The estimate ascending in l; column c of acc belongs to victims[c]."""
    ls = np.array([float(l_of(m)) for m in victims])
    order = np.argsort(ls)
    return McEstimate(l_values=ls[order], powers=scale * acc.mean()[order],
                      std_errors=scale * acc.std_error()[order], trials=acc.count)


def _oqam_slot_span(n_windows: int, cp: Fraction, K: int) -> tuple[int, int]:
    """Half-symbol slots whose pulse support can reach victim windows [0, n_windows)."""
    hi = float(n_windows * (1 + cp))
    return floor(2 * (0 - K / 2)), ceil(2 * (hi + K / 2)) + 1


def _ofdm_symbol_span(n_slots: int, cp: Fraction, K: int) -> tuple[int, int]:
    """CP-OFDM symbols whose samples can reach the filter span of victim slots [0, n_slots)."""
    lo_t, hi_t = -K / 2, (n_slots - 1) / 2 + K / 2
    return (floor((lo_t - 1) / float(1 + cp)) - 1,
            ceil((hi_t + float(cp)) / float(1 + cp)) + 2)


def _s2i_bursts(config: CoexConfig, n_symbols: int, m_s: int, victims, add) -> None:
    """Pass add() each burst's |demodulated|^2 windows: (windows, victims) rows in window order.

    A callback, not a generator: a consumer's loop variable kept each burst's rows
    alive through the next burst, which cost 15x the page faults (+40% s2i run time).
    """
    K = phydyas_k4().overlap_K
    ws = _Workspace()
    for b, size in enumerate(_burst_sizes(n_symbols, _BURST)):
        rng = _rng(config.seed, _TAG_S2I, b)
        n_lo, n_hi = _oqam_slot_span(size, config.cp_ratio, K)
        data = {m_s: _draw_pam(rng, n_hi - n_lo, config.var_pam)}
        sig = oqam_modulate(config, data, (n_lo, n_hi))
        if config.delta_f:
            sig = apply_frequency_shift(sig, config.delta_f, workspace=ws)
        add(np.abs(_ofdm_demod_window(config, sig, (0, size), victims)) ** 2)


def estimate_oqam_to_ofdm(config: CoexConfig, n_symbols: int) -> McEstimate:
    """Mean |interference|^2 seen by every incumbent subcarrier from the OQAM interferer.

    n_symbols victim CP-OFDM windows are measured (bursts synthesized with
    guard context so every window is interior).
    """
    m_s, victims = _roles(config.secondary_set, config.incumbent_set, "secondary", "incumbent")
    acc = _MomentSums(len(victims))
    _s2i_bursts(config, n_symbols, m_s, victims, acc.add)
    return _finish(acc, lambda m: m_s + config.delta_f - m, victims)


def estimate_ofdm_to_oqam(config: CoexConfig, n_symbols: int) -> McEstimate:
    """Mean interference per complex symbol seen by every secondary subcarrier.

    n_symbols victim half-symbol slots are measured; the reported power is
    twice the per-slot mean (the sum over a staggered slot pair).
    """
    m_i, victims = _roles(config.incumbent_set, config.secondary_set, "incumbent", "secondary")
    K = phydyas_k4().overlap_K
    acc = _MomentSums(len(victims))
    ws = _Workspace()
    for b, size in enumerate(_burst_sizes(n_symbols, _BURST)):
        rng = _rng(config.seed, _TAG_I2S, b)
        n_lo, n_hi = _ofdm_symbol_span(size, config.cp_ratio, K)
        data = {m_i: _draw_qpsk(rng, n_hi - n_lo, config.var_qam)}
        sig = ofdm_modulate(config, data, (n_lo, n_hi), workspace=ws)
        if config.delta_f:
            sig = apply_frequency_shift(sig, -config.delta_f, workspace=ws)
        vals = _oqam_demod_slots(config, sig, (0, size), victims, workspace=ws)
        acc.add(vals ** 2)
    return _finish(acc, lambda m: m_i - config.delta_f - m, victims, scale=2.0)


def estimate_ofdm_to_ofdm(config: CoexConfig, n_symbols: int) -> McEstimate:
    """CP-OFDM-vs-CP-OFDM baseline: asynchronous secondary, same waveform.

    Each burst draws a fresh integer timing offset, uniform in
    [0, symbol_samples).  The secondary transmits QAM at var_qam (equal
    energy per symbol with the incumbent).
    """
    m_s, victims = _roles(config.secondary_set, config.incumbent_set, "secondary", "incumbent")
    S = config.symbol_samples
    acc = _MomentSums(len(victims))
    ws = _Workspace()
    for b, size in enumerate(_burst_sizes(n_symbols, _O2O_BURST)):
        rng = _rng(config.seed, _TAG_O2O, b)
        off = int(rng.integers(0, S))
        data = {m_s: _draw_qpsk(rng, size + 4, config.var_qam)}
        sig = ofdm_modulate(replace(config, incumbent_set=frozenset({m_s})), data, (-2, size + 2),
                            workspace=ws)
        sig = shift_samples(sig, off)
        if config.delta_f:
            sig = apply_frequency_shift(sig, config.delta_f, workspace=ws)
        acc.add(np.abs(_ofdm_demod_window(config, sig, (0, size), victims)) ** 2)
    return _finish(acc, lambda m: m_s + config.delta_f - m, victims)

