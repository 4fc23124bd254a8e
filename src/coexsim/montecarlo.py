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

Determinism: every draw comes from Philox4x64-10 (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), a counter-based generator
written in numpy uint64 arithmetic and equal bit for bit to
numpy.random.Philox.  The key is the seed as 128 bits (CoexConfig bounds
it), and block j of burst b in a direction with tag t is the cipher of the
counter (j, b, t, 0): four 64-bit words that depend on nothing else, so
results are bit-identical however bursts are grouped or scheduled.  PAM
sign i is bit i of a burst's words (bit i mod 64 of word i // 64, a set bit
is -1); QPSK takes its real signs first, then its imaginary signs; o2o takes
its offset from the first word and its signs from the words after it.
Trial counts are the number of victim windows (slots) measured, and the
reported standard errors treat them as independent.
They are not: windows of one burst share its interferer symbols and, for
o2o, its timing offset.  The ratio of a batch-means standard error over bursts
(Flegal & Jones, Ann. Stat. 2010) to the reported one was measured on the
acceptance scenarios (seeds 1-100, 10^4 windows, |l| <= 20, burst means
weighted by burst size) at 3.11-4.05 for o2o (313 bursts), where the shared
offset dominates the variance, so its reported errors are 3-4x too small;
at 0.65-1.57 for s2i and 0.53-1.69 for i2s (40 bursts each).  Reporting the
batch-means value instead is an open ROADMAP item.

Buffers: each run owns one txrx workspace, which every burst's synthesis,
frequency shift and receiver share in all three directions, and which holds
every array as long as a burst's signal.  A signal built in the workspace
aliases it, so each burst consumes its signal before the next burst writes
to the workspace.  Allocated per burst, such arrays made the run time depend
on whether glibc had kept their pages or given them back to the system.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["McEstimate", "l_values", "estimate_oqam_to_ofdm", "estimate_ofdm_to_oqam",
           "estimate_ofdm_to_ofdm"]

_MAX_BURST_SAMPLES = 2 ** 23  # a burst's samples as _burst_count counts them: 128 MiB complex
# bursts whose words one _philox call computes, as 10^4 s2i or i2s windows' 40: a call takes
# about 0.25 ms whatever its size, and 10^6 o2o windows' 31,250 bursts at once would hold
# about 1 MB of words before the first burst ran
_RNG_CHUNK = 64

# Philox4x64's multipliers and key increments (Random123; numpy.random.Philox's too)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = (1 << 64) - 1
_LOW, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


@dataclass(frozen=True, eq=False)
class McEstimate:
    """Mean interference power and its standard error per victim l, ascending in l."""

    l_values: np.ndarray
    powers: np.ndarray
    std_errors: np.ndarray
    trials: int


def _roles(config: CoexConfig, d: Direction) -> tuple[int, np.ndarray, float]:
    """Where roles are decided: the one interferer subcarrier m, the victims v in ascending
    l = m + shift - v (descending v), and the shift (delta_f moves the secondary).
    """
    roles = [("secondary", config.secondary_set), ("incumbent", config.incumbent_set)]
    (interferer, interferers), (victim, victims) = roles if d.victim == "ofdm" else roles[::-1]
    if len(interferers) != 1:
        raise ConfigError(f"estimator needs exactly one {interferer} (interferer) subcarrier, "
                          f"got {sorted(interferers)}")
    if not victims:
        raise ConfigError(f"estimator needs at least one {victim} (victim) subcarrier")
    shift = -config.delta_f if d.victim == "oqam" else config.delta_f
    return next(iter(interferers)), np.array(sorted(victims, reverse=True)), shift


def l_values(config: CoexConfig, direction: str, n_symbols: int) -> np.ndarray:
    """The ascending l_values of an n_symbols estimate, its roles and burst size checked first."""
    d = lookup_direction(direction)
    m, victims, shift = _roles(config, d)
    _burst_count(config, d, n_symbols)
    return m + shift - victims


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products m x, the high one from 32-bit limbs.

    Every partial sum stays below 2^64; the low word is the product that uint64 wraps.
    """
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    x_hi, x_lo = x >> _32, x & _LOW
    lo_lo, hi_lo = x_lo * m_lo, x_lo * m_hi
    middle = (lo_lo >> _32) + (hi_lo & _LOW) + x_hi * m_lo
    return x_hi * m_hi + (hi_lo >> _32) + (middle >> _32), x * np.uint64(m)


def _philox(key: int, counter: np.ndarray) -> np.ndarray:
    """Philox4x64-10 under the 128-bit key of every counter: uint64 (4, ...) -> (..., 4) words.

    The key's low word is k0, and a counter's word 0 is its lowest.  Counter c gives the words
    numpy.random.Philox(key=key, counter=c - 1).random_raw(4) does.  counter needs ndim >= 2:
    each step is then an array operation, which wraps, not a scalar one, which warns.
    """
    c0, c1, c2, c3 = counter
    k0, k1 = key & _WORD, key >> 64
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
        k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
    return np.stack([c0, c1, c2, c3], axis=-1)


def _draw_pam(source: np.ndarray, n: int, variance: float) -> np.ndarray:
    """i.i.d. 2-PAM at the requested variance: symbol i is negative where bit i of the words
    source is set, bit i mod 64 of word i // 64 whatever the host's byte order."""
    bits = np.unpackbits(source.astype("<u8").view(np.uint8), bitorder="little")[:n]
    return np.where(bits, -1.0, 1.0) * np.sqrt(variance)


def _draw_qpsk(source: np.ndarray, n: int, variance: float) -> np.ndarray:
    """i.i.d. QPSK at the requested variance (proper: E d^2 = 0), real signs first."""
    signs = _draw_pam(source, 2 * n, 1.0)
    return (signs[:n] + 1j * signs[n:]) * np.sqrt(variance / 2)


def _draw_offset(word: int, samples: int) -> int:
    """(word samples) >> 64: each offset in [0, samples) within samples/2^64 of 1/samples
    relative, at most 2^-41 at _MAX_BURST_SAMPLES."""
    return word * samples >> 64


def _burst_count(config: CoexConfig, d: Direction, n_total: int) -> int:
    if n_total < 1:
        raise ConfigError("n_symbols must be >= 1")
    # before any array exists: the windows at M + L samples, an interferer symbol + step each side
    first, last, step = _extent(config, d.interferer)
    _extent(config, d.victim)  # an OQAM victim, like an OQAM interferer, refuses an odd M here
    span = min(d.burst, n_total) * config.symbol_samples + 2 * (last - first + step)
    if span > _MAX_BURST_SAMPLES:  # CoexConfig takes M = 10^30
        raise ConfigError(f"M = {config.M}: a burst spans {span} > {_MAX_BURST_SAMPLES} samples")
    return -(-n_total // d.burst)


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


def _burst_words(config: CoexConfig, d: Direction, n_symbols: int, first: int,
                 stop: int) -> np.ndarray:
    """One row of Philox words for each of the bursts [first, stop), from one _philox call.

    Block j of burst b is the cipher of the counter (j, b, d.tag, 0).  Every row is as long
    as the first burst, the longest, needs: an o2o offset word, then a bit per PAM and two per
    QPSK symbol of its span at offset 0, and one symbol more for o2o, as a delay moves the
    span's count by at most one (_reach's two floors sum to within one of their sum's floor).
    """
    n_lo, n_hi = _span(config, d, min(d.burst, n_symbols - first * d.burst), 0)
    bits = (n_hi - n_lo + d.offset) * (1 if d.interferer == "oqam" else 2)
    words = d.offset + -(-bits // 64)
    counter = np.zeros((4, stop - first, -(-words // 4)), dtype=np.uint64)
    counter[0] = np.arange(counter.shape[2])
    counter[1] = np.arange(first, stop)[:, None]
    counter[2] = d.tag
    return _philox(config.seed, counter).reshape(stop - first, -1)


def _bursts(config: CoexConfig, d: Direction, roles: tuple[int, np.ndarray, float],
            n_symbols: int, add) -> None:
    """Pass add() each burst's |demodulated|^2 windows: (windows, victims) rows in window order.

    roles is _roles(config, d).  A callback, not a generator: a consumer's loop variable kept
    each burst's rows alive through the next burst: 15x the page faults, +40% s2i run time.
    """
    m, victims, shift = roles
    ws = _Workspace()
    n_bursts = _burst_count(config, d, n_symbols)
    for chunk in range(0, n_bursts, _RNG_CHUNK):
        stop = min(chunk + _RNG_CHUNK, n_bursts)
        for b, words in zip(range(chunk, stop), _burst_words(config, d, n_symbols, chunk, stop)):
            size = min(d.burst, n_symbols - b * d.burst)
            off = 0
            if d.offset:
                off, words = _draw_offset(int(words[0]), config.symbol_samples), words[1:]
            n_lo, n_hi = _span(config, d, size, off)
            if d.interferer == "oqam":
                sig = oqam_modulate(config, m, _draw_pam(words, n_hi - n_lo, config.var_pam),
                                    (n_lo, n_hi), workspace=ws)
            else:
                sig = ofdm_modulate(config, m, _draw_qpsk(words, n_hi - n_lo, config.var_qam),
                                    (n_lo, n_hi), workspace=ws)
            sig = shift_samples(sig, off)
            if shift:
                sig = apply_frequency_shift(config, sig, shift, workspace=ws)
            if d.victim == "oqam":
                add(_oqam_demod_slots(config, sig, (0, size), victims, workspace=ws) ** 2)
            else:
                add(np.abs(_ofdm_demod_window(config, sig, (0, size), victims, workspace=ws)) ** 2)


def _estimate(config: CoexConfig, direction: str, n_symbols: int) -> McEstimate:
    """Column c of the bursts' rows has l_values[c]; an OQAM victim reports twice the mean."""
    d = lookup_direction(direction)
    m, victims, shift = roles = _roles(config, d)
    acc = _MomentSums()
    _bursts(config, d, roles, n_symbols, acc.add)
    scale = 2.0 if d.victim == "oqam" else 1.0
    return McEstimate(m + shift - victims, scale * acc.mean(), scale * acc.std_error(), acc.count)


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
