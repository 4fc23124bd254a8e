"""Monte-Carlo estimation of post-demodulation cross-interference powers.

Estimators measure the interference after demodulation, through the real
modems: every measured victim window or slot meets every interferer symbol
that reaches it (full guard context), every victim subcarrier is
demodulated, and the squared interference samples are averaged.  Reported
spectral distances follow the victim's frequency reference:

    oqam -> ofdm (s2i):  l = m_s + delta_f - m_i
    ofdm -> oqam (i2s):  l = m_i - delta_f - m_s
    ofdm -> ofdm (o2o):  l = m_s + delta_f - m_i

The i2s estimator reports interference per victim complex symbol period
(twice the per-slot mean over the two staggered real slots), matching the
closed-form convention.

Bursts: one loop serves all three rows of txrx.DIRECTIONS: 256 victim
windows (slots) per burst for s2i and i2s, 32 for o2o, which draws a fresh
timing offset per burst.  A burst draws exactly the interferer symbols whose
samples (txrx._extent) meet the samples its receiver reads (_span).  The
modems, the delay and the frequency shift are linear, so a burst is a
superposition: _responses runs unit symbols through the real chain
(modulator, delay, frequency shift, receiver) and tabulates each window's
victim values before detection, one per symbol the window meets, and a
burst's values are its symbols, gathered per window, times that table, one
small matrix product per window (real for PAM symbols, which multiply the
table's real and imaginary parts), then |.|^2 (a CP-OFDM victim) or Re(.)^2
(an OQAM victim).  A window meets at most width symbols (10 for s2i, 4-5 for
i2s at the reference scenario, 1-2 for o2o), and comb r sends unit symbols
at n = r mod width, so each window meets one of them at most and width
receiver runs fill the table.  Comb r + moved is comb r delayed by one
pattern of the interferer (txrx._pattern: 4 OQAM slots of M/2 samples, one
CP-OFDM symbol), so the combs take gcd(moved, width) modulations: 2 for s2i,
1 for i2s and o2o.  The geometry repeats after a period, the lcm of the two
waveforms' patterns, so the table spans min(period, burst) windows: 16 s2i
windows and 36 i2s slots at cp 1/8, one o2o window.  One period later a
window meets the symbols one period later, and its value turns by exp(2 pi j
shift period / M) (_turn): |.|^2 drops the turn, and i2s turns its symbols
before the product.  Every s2i and i2s burst has one geometry (victim
windows from 0), so their table is built once per run; o2o builds one per
burst offset.  The product's inner dimension is width, so its bytes, like
the OQAM synthesis's, do not depend on the BLAS thread count.  The table
costs width receiver runs of min(period, burst) windows, where the full
chain ran one per burst: where the period exceeds a burst (cp 511/512) a run
of fewer than width bursts reads more windows through the receiver than the
bursts hold (2,560 for a 2,000-window s2i run).

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

Buffers: each run owns one txrx workspace, which the combs' synthesis,
frequency shift and receivers share, and which holds each burst's product.
A signal built in the workspace aliases it: a comb's signal stays in the
modulator's (or the shift's) buffer while the receiver reads its delayed
copies, _RESPONSE_BLOCK windows at a time, and the next class of combs
overwrites it.  The table is the run's (s2i, i2s) or the burst's (o2o).
An s2i or i2s burst runs no modem: it allocates its symbols, their gather
and its detected rows, none of them as large as a burst's signal.
Allocated per burst, burst-sized arrays made the run time depend on whether
glibc had kept their pages or given them back to the system.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm

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
    _pattern,
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
# victim windows a response run reads at a time: 1 MiB of CP-OFDM spectra at M = 512.  Read
# whole, a 256-window cp 511/512 s2i table kept 8.7 MiB of heap alive at once, and glibc gave
# the heap's top back to the system after every run: 1,600 page faults and +3 ms per run
_RESPONSE_BLOCK = 128

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
    """Per-column running count, sum, and sums of the rows less the first row and of their
    squares; mean and standard error from them.

    The spread is summed about the first row, not about zero: about zero, a column of
    equal values would report the rounding of its sum of squares, sqrt(eps) of the
    mean, as its standard error.
    """

    def __init__(self):
        self.count = 0
        self.total = self.shifted = self.shifted_sq = 0.0  # the first add makes them arrays
        self.origin = None

    def add(self, rows: np.ndarray):
        if self.origin is None:
            self.origin = rows[0].copy()
        deviations = rows - self.origin
        self.count += rows.shape[0]
        self.total += rows.sum(axis=0)
        self.shifted += deviations.sum(axis=0)
        self.shifted_sq += (deviations ** 2).sum(axis=0)

    def mean(self) -> np.ndarray:
        return self.total / self.count

    def std_error(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.total)
        var = (self.shifted_sq - self.shifted ** 2 / self.count) / (self.count - 1)
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


def _responses(config: CoexConfig, d: Direction, roles: tuple[int, np.ndarray, float],
               windows: int, off: int, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Unit responses of victim windows [0, windows) with the interferer delayed by off.

    Returns (table, index), table complex (windows, width, victims): row r of window w holds
    the window's victim values before detection (|.|^2 or Re(.)^2) for a unit symbol
    index[w, r] symbols after the first one the windows meet.  width is the most symbols a
    window meets, so comb r, unit symbols at n = r mod width and zeros elsewhere, reaches
    each window with one of them at most: width receiver runs fill the table, and an entry
    is exactly 0 where a window meets no symbol of its comb.  Comb r + moved, moved the
    symbols in one pattern of the interferer (txrx._pattern), is comb r delayed by that
    pattern, bit for bit, so one modulation and one frequency shift per class of r mod
    gcd(moved, width) serve every comb of the class, the delayed combs' values turned by
    _turn.  The receiver reads _RESPONSE_BLOCK windows at a time.
    """
    m, victims, shift = roles
    first, last, step = _extent(config, d.interferer)
    v_first, v_last, v_step = _extent(config, d.victim, received=True)
    w = np.arange(windows)
    lo, hi = _reach(first + off, last + off, w * v_step + v_first, w * v_step + v_last, step)
    width, n_lo, n_hi = int(np.max(hi - lo)), int(lo[0]), int(hi[-1])  # _span's two ends
    pattern = _pattern(config, d.interferer)
    moved = pattern // step
    classes = gcd(moved, width)
    # delayed k patterns, the comb must still cover n_lo: it starts k moved symbols earlier
    delays = width // classes
    n_first = n_lo - moved * (delays - 1)
    modulate = oqam_modulate if d.interferer == "oqam" else ofdm_modulate
    demodulate = _oqam_demod_slots if d.victim == "oqam" else _ofdm_demod_window
    table = np.empty((windows, width, len(victims)), complex)
    for c in range(classes):
        units = np.zeros(n_hi - n_first)
        units[(c - n_first) % width::width] = 1.0
        comb = shift_samples(modulate(config, m, units, (n_first, n_hi), workspace=ws), off)
        if shift:
            comb = apply_frequency_shift(config, comb, shift, workspace=ws)
        for k in range(delays):
            delayed, turn = shift_samples(comb, k * pattern), _turn(config, shift, k * pattern)
            for w0 in range(0, windows, _RESPONSE_BLOCK):
                w1 = min(w0 + _RESPONSE_BLOCK, windows)
                np.multiply(demodulate(config, delayed, (w0, w1), victims, workspace=ws), turn,
                            out=table[w0:w1, (c + k * moved) % width])
    return table, (lo - n_lo)[:, None] + (np.arange(width) - lo[:, None]) % width


def _turn(config: CoexConfig, shift: float, delay) -> np.ndarray:
    """exp(2 pi j shift delay / M): a signal delayed by delay samples, then shifted, is the
    shifted signal delayed and turned by this, as the shift's ramp runs in absolute time."""
    return np.exp(2j * np.pi * shift * (np.asarray(delay) / config.M))


def _bursts(config: CoexConfig, d: Direction, roles: tuple[int, np.ndarray, float],
            n_symbols: int, add) -> None:
    """Pass add() each burst's detected windows: (windows, victims) rows in window order.

    roles is _roles(config, d).  A callback, not a generator: a consumer's loop variable kept
    each burst's rows alive through the next burst: 15x the page faults, +40% s2i run time.
    """
    _, victims, shift = roles
    ws = _Workspace()
    n_bursts = _burst_count(config, d, n_symbols)
    period = lcm(_pattern(config, d.interferer), _pattern(config, d.victim))
    windows = min(period // _extent(config, d.victim, received=True)[2], d.burst, n_symbols)
    advance = period // _extent(config, d.interferer)[2]  # the interferer symbols in a period
    if not d.offset:
        table, index = _responses(config, d, roles, windows, 0, ws)
    for chunk in range(0, n_bursts, _RNG_CHUNK):
        stop = min(chunk + _RNG_CHUNK, n_bursts)
        for b, words in zip(range(chunk, stop), _burst_words(config, d, n_symbols, chunk, stop)):
            size = min(d.burst, n_symbols - b * d.burst)
            off = 0
            if d.offset:
                off, words = _draw_offset(int(words[0]), config.symbol_samples), words[1:]
                table, index = _responses(config, d, roles, windows, off, ws)
            n_lo, n_hi = _span(config, d, size, off)
            if d.interferer == "oqam":
                symbols = _draw_pam(words, n_hi - n_lo, config.var_pam)
            else:
                symbols = _draw_qpsk(words, n_hi - n_lo, config.var_qam)
            # window w + k windows, k periods on, meets window w's symbols k advance later.  An
            # index past the burst's symbols has a table entry of 0 or is a window past size
            periods = np.arange(-(-size // windows))
            gathered = np.take(symbols, index[:, None] + advance * periods[:, None], mode="clip")
            if d.victim == "oqam" and shift:
                # |.|^2 drops a period's turn, Re(.) does not
                gathered = gathered * _turn(config, shift, period * periods)[:, None]
            values = ws.array("mc.values", (len(periods), windows, len(victims)))
            if np.iscomplexobj(gathered):
                np.matmul(gathered, table, out=values.transpose(1, 0, 2))
            else:  # PAM: real symbols times the table's real and imaginary parts
                np.matmul(gathered, table.view(float), out=values.view(float).transpose(1, 0, 2))
            values = values.reshape(-1, len(victims))[:size]
            add(values.real ** 2 if d.victim == "oqam" else np.abs(values) ** 2)


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
