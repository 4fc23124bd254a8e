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

Bursts: one loop serves all three rows of txrx.DIRECTIONS.  s2i and i2s
synthesize one burst per 256 victim windows (slots), o2o one per 32 windows,
where a fresh timing offset is drawn per burst.  A burst synthesizes exactly the
interferer symbols whose samples (txrx._extent) meet the samples its receiver reads.

Determinism: a master seed spawns one independent substream per burst via
numpy SeedSequence spawn keys, so results are bit-identical however bursts
are scheduled.  Trial counts are the number of victim windows (slots)
measured, and the reported standard errors treat them as independent.
They are not: windows of one burst share its interferer symbols and, for
o2o, its timing offset.  The ratio of a batch-means standard error over bursts
(Flegal & Jones, Ann. Stat. 2010) to the reported one was measured on the
reference scenario (10^4 windows, burst means weighted by burst size) at
3.45-4.01 for o2o, where the shared offset dominates the variance, so its
reported errors are about 4x too small; at 0.84-1.35 for s2i and 0.69-1.40
for i2s (40 bursts each).  Reporting the batch-means value instead is an
open ROADMAP item.

Buffers: each run owns one txrx workspace, which every burst's synthesis,
frequency shift and receiver share in all three directions, and which holds
every array as long as a burst's signal.  A signal built in the workspace
aliases it, so each burst consumes its signal before the next burst writes
to the workspace.  Allocated per burst, such arrays made the run time depend
on whether glibc had kept their pages or given them back to the system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .txrx import (
    CoexConfig,
    ConfigError,
    Direction,
    apply_frequency_shift,
    lookup_direction,
    ofdm_modulate,
    oqam_modulate,
    shift_samples,
    _extent,
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


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Mean interference power and its standard error per victim l, ascending in l."""

    l_values: np.ndarray
    powers: np.ndarray
    std_errors: np.ndarray
    trials: int


def _roles(config: CoexConfig, d: Direction) -> tuple[int, list[int]]:
    """The single interferer subcarrier and the sorted victims; CP-OFDM victims are incumbent."""
    roles = [("secondary", config.secondary_set), ("incumbent", config.incumbent_set)]
    (interferer, interferers), (victim, victims) = roles if d.victim == "ofdm" else roles[::-1]
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
    return [min(burst, n_total - start) for start in range(0, n_total, burst)]


class _MomentSums:
    """Per-column running count, sum and sum of squares; mean and standard error from them."""

    def __init__(self):
        self.count = 0
        self.total = self.total_sq = 0.0  # the first add makes them arrays

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


def _finish(acc: _MomentSums, d: Direction, l_values: np.ndarray) -> McEstimate:
    """The estimate ascending in l; column c of acc has l_values[c].

    An OQAM victim reports per complex symbol period: twice the per-slot mean.
    """
    scale = 2.0 if d.victim == "oqam" else 1.0
    order = np.argsort(l_values)
    return McEstimate(l_values=l_values[order], powers=scale * acc.mean()[order],
                      std_errors=scale * acc.std_error()[order], trials=acc.count)


def _reach(first: int, last: int, lo: int, hi: int, step: int) -> tuple[int, int]:
    """The half-open range of symbols n whose samples n step + [first, last] meet [lo, hi]."""
    return -((last - lo) // step), (hi - first) // step + 1


def _span(config: CoexConfig, d: Direction, size: int, offset: int) -> tuple[int, int]:
    """The interferer symbols whose samples, delayed by offset, meet victim windows [0, size).

    The samples a sent or received symbol covers are txrx._extent's.
    """
    first, last, step = _extent(config, d.interferer)
    v_first, v_last, v_step = _extent(config, d.victim, received=True)
    return _reach(first + offset, last + offset, v_first, (size - 1) * v_step + v_last, step)


def _bursts(config: CoexConfig, d: Direction, n_symbols: int, add) -> np.ndarray:
    """Pass add() each burst's |demodulated|^2 windows: (windows, victims) rows in window order.

    Returns the l of every victim column.  A callback, not a generator: a consumer's loop
    variable kept each burst's rows alive through the next burst, which cost 15x the page
    faults (+40% s2i run time).
    """
    m, victims = _roles(config, d)
    # delta_f shifts the secondary, so an OQAM victim sees the incumbent at -delta_f
    shift = -config.delta_f if d.victim == "oqam" else config.delta_f
    # the interferer alone, in a config both modulators accept: the o2o secondary sends CP-OFDM
    tx = replace(config, incumbent_set=frozenset({m}), secondary_set=frozenset({m}))
    ws = _Workspace()
    for b, size in enumerate(_burst_sizes(n_symbols, d.burst)):
        rng = _rng(config.seed, d.tag, b)
        off = int(rng.integers(0, config.symbol_samples)) if d.offset else 0
        n_lo, n_hi = _span(config, d, size, off)
        if d.interferer == "oqam":
            sig = oqam_modulate(tx, {m: _draw_pam(rng, n_hi - n_lo, config.var_pam)},
                                (n_lo, n_hi), workspace=ws)
        else:
            sig = ofdm_modulate(tx, {m: _draw_qpsk(rng, n_hi - n_lo, config.var_qam)},
                                (n_lo, n_hi), workspace=ws)
        sig = shift_samples(sig, off)
        if shift:
            sig = apply_frequency_shift(sig, shift, workspace=ws)
        if d.victim == "oqam":
            add(_oqam_demod_slots(config, sig, (0, size), victims, workspace=ws) ** 2)
        else:
            add(np.abs(_ofdm_demod_window(config, sig, (0, size), victims, workspace=ws)) ** 2)
    return np.array([float(m + shift - v) for v in victims])


def _estimate(config: CoexConfig, direction: str, n_symbols: int) -> McEstimate:
    d = lookup_direction(direction)
    acc = _MomentSums()
    return _finish(acc, d, _bursts(config, d, n_symbols, acc.add))


def estimate_oqam_to_ofdm(config: CoexConfig, n_symbols: int) -> McEstimate:
    """Mean |interference|^2 seen by every incumbent subcarrier from the OQAM interferer.

    n_symbols victim CP-OFDM windows are measured (bursts synthesized with
    guard context so every window is interior).
    """
    return _estimate(config, "s2i", n_symbols)


def estimate_ofdm_to_oqam(config: CoexConfig, n_symbols: int) -> McEstimate:
    """Mean interference per complex symbol seen by every secondary subcarrier.

    n_symbols victim half-symbol slots are measured; the reported power is
    twice the per-slot mean (the sum over a staggered slot pair).
    """
    return _estimate(config, "i2s", n_symbols)


def estimate_ofdm_to_ofdm(config: CoexConfig, n_symbols: int) -> McEstimate:
    """CP-OFDM-vs-CP-OFDM baseline: asynchronous secondary, same waveform.

    Each burst draws a fresh integer timing offset, uniform in
    [0, symbol_samples).  The secondary transmits QAM at var_qam (equal
    energy per symbol with the incumbent).
    """
    return _estimate(config, "o2o", n_symbols)
