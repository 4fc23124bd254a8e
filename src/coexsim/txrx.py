"""Discrete-time synthesis and matched-filter demodulation of both waveforms.

Sampling convention: the useful symbol period T spans M samples (critical
sampling); absolute sample index p corresponds to time t = p/M in units of
T.  Every modulator scales amplitudes by 1/sqrt(M) so that demodulating a
clean own-signal returns the transmitted symbol with unit gain.

CP-OFDM symbol n occupies samples [n(M+L) - L, n(M+L) + M) with L cyclic
prefix samples; the useful window is the last M of those.  OQAM half-symbol
slot n centers its pulse at sample n M/2 and spans K M + 1 samples (_extent).

OQAM synthesis is polyphase (Bellanger et al., FBMC physical layer: a
primer, PHYDYAS 2010): the taps are padded to nb = 2K + 1 blocks of M/2
samples and the carrier, reduced exactly as (m p) mod M, is folded into
them.  A slot starts one half period after its predecessor, which
multiplies its carrier by (-1)^m, so its pulse is the same nb blocks times
one amplitude.  Each subcarrier's burst is then one product of the
(slots + nb - 1) x nb Toeplitz matrix of slot amplitudes with the nb x M/2
block matrix; with inner dimension nb the bytes do not depend on the BLAS
thread count.

OQAM demodulation is the polyphase analysis dual.  The receiver reads the
burst in place, as a view of blocks of M/2 samples; slot n + 1 reads the
same nb tap blocks one block later.  The K M + 1 taps end one sample into
the last block, so that block holds a single tap.  So nb - 1 block
products, alternating between the two halves of M, and one column update
for the last tap fold a run of slots' tap-weighted windows onto M samples
each, and one FFT per slot follows; nothing is copied or zero-padded.  It
works through the slots 64 at a time (_DEMOD_BLOCK): the first two
products of a block write its fold, the other six and the last tap add to
it, and its FFT runs while the fold is still in cache, instead of every
product streaming a whole burst's fold through memory.  Slot n's fold
starts at sample p0 = n M/2 - K M/2, and K M/2 is a whole number of
periods for the even K, so its phase exp(-2 pi j k p0 / M) is exactly
(-1)^(k n).  With the conjugate phase map it is a quarter turn, one of +-1
and +-j, that repeats every 4 slots: one 4-row table, taken from
oqam_phase on the first 4 slots, rotates every block.

The OQAM receiver and CP-OFDM synthesis run their ufuncs with a buffer of
_UFUNC_BUFFER elements, set for the call's thread only, in place of numpy's
default 8192: their broadcast and strided operands are then buffered in L1
and not in 128 KiB blocks allocated per call.  The bytes do not depend on
the buffer size.

CP-OFDM synthesis reduces its carrier exactly too: the prefix phase makes
every symbol block the same M + L carrier samples, so each subcarrier
evaluates its carrier over one block only.

Both receivers return only the subcarriers they are asked for, in the order
asked: the FFT runs over all M bins and the requested columns are read
from it.  DiscreteSignal.window returns a view, and both receivers read
the burst in place: the CP-OFDM receiver reads one span covering a run of
windows and takes them as a strided view of it, one window every M + L
samples, which one block transform demodulates.

OQAM phase map: slot n of subcarrier m carries oqam_phase(m, n) =
(-1)^(m n) j^(m+n).  The one vectorised map serves both sides: the
modulator applies it, the demodulator applies its conjugate over 4 slots x
requested subcarriers.  Adjacent slots and subcarriers sit in quadrature,
which keeps the intrinsic own-signal interference purely imaginary
(near-perfect reconstruction).  Cross-system interference powers do not
depend on the phase map (each slot contributes one unimodular factor);
own-signal reconstruction does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import inf

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .filterbank import phydyas_k4, sample_taps

__all__ = ["CoexConfig", "Direction", "DIRECTIONS", "lookup_direction", "DiscreteSignal",
           "ofdm_modulate", "oqam_modulate", "apply_frequency_shift", "shift_samples",
           "oqam_phase", "ConfigError"]


class ConfigError(ValueError):
    """An invalid scenario: bad config values or a setup an operation cannot run."""


def _as_fraction(x) -> Fraction:
    return Fraction(x).limit_denominator(1 << 30) if isinstance(x, float) else Fraction(x)


@dataclass(frozen=True)
class CoexConfig:
    """Full coexistence scenario description.

    Subcarrier indices live in [-M/2, M/2 - 1]; the two active sets may
    overlap (co-channel scenarios are allowed).  delta_f is the frequency
    misalignment of the secondary relative to the incumbent, in subcarrier
    spacings.  Defaults follow the reference scenario: M = 512, one-eighth
    prefix, unit-energy symbols (var_qam = 2 var_pam = 1), interferer on
    subcarrier 0.
    """

    M: int = 512
    cp_ratio: Fraction = Fraction(1, 8)
    incumbent_set: frozenset = field(default_factory=lambda: frozenset(range(-25, 26)))
    secondary_set: frozenset = field(default_factory=lambda: frozenset({0}))
    var_qam: float = 1.0
    var_pam: float = 0.5
    delta_f: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "cp_ratio", _as_fraction(self.cp_ratio))
        object.__setattr__(self, "incumbent_set", frozenset(int(m) for m in self.incumbent_set))
        object.__setattr__(self, "secondary_set", frozenset(int(m) for m in self.secondary_set))
        if self.M < 8:
            raise ConfigError("M must be >= 8")
        if self.cp_ratio < 0:
            raise ConfigError("cp_ratio must be non-negative")
        if (self.M * self.cp_ratio).denominator != 1:
            raise ConfigError("M * cp_ratio must be an integer number of samples")
        lo, hi = -self.M // 2, self.M // 2 - 1
        for name, s in (("incumbent_set", self.incumbent_set), ("secondary_set", self.secondary_set)):
            if any(m < lo or m > hi for m in s):
                raise ConfigError(f"{name} entries must lie in [{lo}, {hi}]")
        if not all(0 < v < inf for v in (self.var_qam, self.var_pam)):
            raise ConfigError("symbol variances must be positive and finite")
        if not (-0.5 < self.delta_f <= 0.5):
            raise ConfigError("delta_f must lie in (-0.5, 0.5]")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @property
    def cp_samples(self) -> int:
        return int(self.M * self.cp_ratio)

    @property
    def symbol_samples(self) -> int:
        """Samples per CP-OFDM symbol including the prefix."""
        return self.M + self.cp_samples


@dataclass(frozen=True)
class Direction:
    """Interferer and victim waveform ("oqam" or "ofdm"), and timing: a symbol lattice, or
    with offset a uniform timing offset per Monte-Carlo burst.  tag keeps the directions'
    Monte-Carlo substreams disjoint; burst is the victim windows (slots) per burst.
    """

    name: str
    interferer: str
    victim: str
    tag: int
    burst: int
    offset: bool = False


# offset diversity, not window count, dominates the o2o estimator variance
# under the uniform timing offset, so its bursts are short
DIRECTIONS = (
    Direction("s2i", "oqam", "ofdm", tag=0, burst=256),
    Direction("i2s", "ofdm", "oqam", tag=1, burst=256),
    Direction("o2o", "ofdm", "ofdm", tag=2, burst=32, offset=True),
)


def lookup_direction(name: str, lattice: bool = False) -> Direction:
    """The row of DIRECTIONS called name; with lattice, not an offset row (no closed form yet)."""
    for d in DIRECTIONS:
        if d.name == name:
            if lattice and d.offset:
                raise ConfigError(f"no closed form or oracle for the offset direction {name!r}")
            return d
    raise ValueError(f"unknown direction {name!r}, expected one of {[d.name for d in DIRECTIONS]}")


@dataclass
class DiscreteSignal:
    """Complex baseband sample stream on the absolute sample grid.

    samples[i] is the sample at absolute index p = i - origin_index
    (t = p/M).  Treated as immutable once synthesized.
    """

    samples: np.ndarray
    samples_per_symbol: int
    origin_index: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=complex)

    @property
    def start(self) -> int:
        """Absolute index of the first sample."""
        return -self.origin_index

    @property
    def stop(self) -> int:
        """Absolute index one past the last sample."""
        return len(self.samples) - self.origin_index

    def window(self, p0: int, length: int) -> np.ndarray:
        """Samples at absolute indices [p0, p0 + length): a view, not a copy.

        Raises if the window leaves the signal.
        """
        if p0 < self.start or p0 + length > self.stop:
            raise ValueError(f"window [{p0}, {p0 + length}) out of signal "
                             f"bounds [{self.start}, {self.stop})")
        i = p0 + self.origin_index
        return self.samples[i:i + length]


def _extent(config: CoexConfig, waveform: str, received: bool = False) -> tuple[int, int, int]:
    """(first, last, step): symbol (slot) n of waveform covers samples n step + [first, last]:
    an OQAM slot the K M + 1 taps of _tap_blocks, sent or received, a sent CP-OFDM symbol its
    L prefix and M useful samples, a received one the M useful samples only.
    """
    if waveform == "oqam":
        half = (len(_tap_blocks(config.M)[0]) - 1) // 2
        return -half, half, config.M // 2
    return 0 if received else -config.cp_samples, config.M - 1, config.symbol_samples


def _zero_signal(M: int, start: int, stop: int) -> DiscreteSignal:
    return DiscreteSignal(np.zeros(stop - start, dtype=complex), M, origin_index=-start)


def _symbols(n_range) -> tuple[int, int]:
    """n_range as (n0, n1); a ValueError unless it is a tuple of integers n0 < n1, not an array."""
    if not (isinstance(n_range, tuple) and len(n_range) == 2
            and all(isinstance(n, (int, np.integer)) for n in n_range)
            and n_range[0] < n_range[1]):
        raise ValueError(f"n_range must be a non-empty pair (n0, n1) of integers, got {n_range!r}")
    return int(n_range[0]), int(n_range[1])


class _Workspace:
    """Complex scratch arrays that successive calls reuse.

    array(name, shape) is a view of the first entries of one flat buffer per
    name, which grows when a call needs more and is never shrunk.  Its
    contents are whatever the previous user left: every caller overwrites
    all of the view it reads.  A modem called without a workspace makes a
    fresh one, so its arrays are its own.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = int(np.prod(shape))
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=complex)
        return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# CP-OFDM
# ---------------------------------------------------------------------------

def ofdm_modulate(config: CoexConfig, data: dict, n_range: tuple[int, int], *,
                  workspace: _Workspace | None = None) -> DiscreteSignal:
    """Synthesize the CP-OFDM signal for QAM symbols on the incumbent subcarriers.

    data maps subcarrier index -> complex vector covering symbols
    n_range[0] .. n_range[1]-1.  Each symbol occupies (1+cp_ratio) M samples
    (prefix first); sample values carry the 1/sqrt(M) amplitude convention.

    With a workspace the samples live in its buffer: the signal aliases the
    workspace and is overwritten by the next call that shares it (the next
    burst), so use it before then or copy it.
    """
    n0, n1 = _symbols(n_range)
    bad = set(data) - config.incumbent_set
    if bad:
        raise ValueError(f"data on subcarriers outside the incumbent set: {sorted(bad)}")
    M = config.M
    first, last, S = _extent(config, "ofdm")
    nsym = n1 - n0
    ws = workspace or _Workspace()
    p = np.arange(first, last + 1)  # symbol 0's block
    blocks = None
    with np.errstate():  # restores the thread's buffer size on exit
        np.setbufsize(_UFUNC_BUFFER)
        for m, vec in sorted(data.items()):
            vec = np.asarray(vec, dtype=complex)
            if vec.shape != (nsym,):
                raise ValueError(f"data vector for subcarrier {m} must cover n_range "
                                 f"({nsym} symbols)")
            # symbol n's prefix phase exp(-2 pi j m n L / M) cancels the advance of the
            # carrier exp(2 pi j m p / M) over n blocks, so every block is symbol 0's: one
            # carrier block, reduced exactly as (m p) mod M, times each symbol
            carrier = np.exp(2j * np.pi * ((m * p) % M) / M)
            amp = (vec / np.sqrt(M))[:, None]
            # symbol blocks tile the burst exactly: block n is n S + [first, last]
            if blocks is None:
                blocks = np.multiply(amp, carrier, out=ws.array("ofdm.signal", (nsym, S)))
            else:
                blocks += np.multiply(amp, carrier, out=ws.array("ofdm.term", blocks.shape))
    if blocks is None:
        return _zero_signal(M, n0 * S + first, n1 * S + first)
    return DiscreteSignal(blocks.ravel(), M, origin_index=-(n0 * S + first))


def _ofdm_demod_window(config: CoexConfig, signal: DiscreteSignal, n_range: tuple[int, int],
                       subcarriers, *, workspace: _Workspace | None = None) -> np.ndarray:
    """Demodulated values of windows n_range[0] .. n_range[1]-1: (windows, len(subcarriers)).

    Correlates the useful window (prefix discarded) against the receive
    exponential with 1/sqrt(M) scaling.  The absolute-time and prefix
    reference phases cancel exactly for integer subcarriers, so the FFT of
    the window, read at bins m % M, is the complete answer.  A clean
    own-signal returns the transmitted symbol exactly (discrete
    orthogonality).  The windows are a strided view of the signal, which is
    read in place; the spectra go to the workspace, the result is new.
    """
    n0, n1 = _symbols(n_range)
    M = config.M
    first, last, S = _extent(config, "ofdm", received=True)
    span = signal.window(n0 * S + first, (n1 - n0 - 1) * S + last - first + 1)
    bins = np.asarray(subcarriers) % M
    spectra = (workspace or _Workspace()).array("ofdm.spectrum", (n1 - n0, M))
    np.fft.fft(sliding_window_view(span, M)[::S], axis=-1, out=spectra)
    return spectra[:, bins] / np.sqrt(M)


# ---------------------------------------------------------------------------
# OFDM/OQAM
# ---------------------------------------------------------------------------

def oqam_phase(m, n):
    """Modulation phase (-1)^(m n) j^(m+n) of slot n on subcarrier m; broadcasts over arrays."""
    return np.where((m * n) % 2, -1.0, 1.0) * 1j ** ((m + n) % 4)


# slots the OQAM receiver folds and transforms at a time: its fold and FFT stay in
# cache instead of streaming a whole burst through memory once per tap block.  A
# multiple of 4, the period of its rotation in slots
_DEMOD_BLOCK = 64

# elements per buffered operand of the ufuncs of the OQAM receiver and of CP-OFDM
# synthesis.  numpy buffers their broadcast and strided operands (the taps over a
# block's rows, the fold's half-rows, a symbol column times a carrier block) 8192
# elements at a time by default: 128 KiB of complex values per operand, allocated per
# call and streamed through L2.  512 elements stay in L1.  They took a 256-slot
# receiver call (M = 512, 51 subcarriers) from 4.1 to 2.9 ms on a 2-vCPU Xeon, and one
# 260-symbol ofdm_modulate call from about 560 to 240-320 us (medians of 300 warm
# calls); the bytes do not depend on the buffer size
_UFUNC_BUFFER = 512


@cache
def _tap_blocks(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The prototype taps, and the taps zero-padded to nb blocks of M/2 samples: (nb, M/2).

    Built once per M and shared by every modem call, so both arrays are read-only.
    """
    if M % 2:
        raise ConfigError("OQAM requires even M (half-period slots must be whole samples)")
    taps = sample_taps(phydyas_k4(), M)
    hop = M // 2
    # K M + 1 taps: nb = 2K + 1 blocks (9 for K = 4), the last of them one tap
    blocks = np.zeros(-(-len(taps) // hop) * hop)
    blocks[:len(taps)] = taps
    taps.flags.writeable = blocks.flags.writeable = False
    return taps, blocks.reshape(-1, hop)


def oqam_modulate(config: CoexConfig, data: dict, n_range: tuple[int, int], *,
                  workspace: _Workspace | None = None) -> DiscreteSignal:
    """Synthesize the OQAM signal for real PAM symbols on the secondary subcarriers.

    data maps subcarrier index -> real vector covering half-symbol slots
    n_range[0] .. n_range[1]-1; successive slots are offset by M/2 samples.
    With a workspace the signal aliases its buffer, as ofdm_modulate's does.
    """
    n0, n1 = _symbols(n_range)
    bad = set(data) - config.secondary_set
    if bad:
        raise ValueError(f"data on subcarriers outside the secondary set: {sorted(bad)}")
    M = config.M
    first, last, hop = _extent(config, "oqam")
    pulse = _tap_blocks(M)[1] / np.sqrt(M)
    nb = len(pulse)
    nsym = n1 - n0
    start, stop = n0 * hop + first, (n1 - 1) * hop + last + 1
    p = start + np.arange(pulse.size).reshape(nb, hop)  # absolute samples of slot n0's pulse
    sign = np.where(np.arange(nsym) % 2, -1.0, 1.0)
    amps = np.zeros(nsym + 2 * (nb - 1), dtype=complex)
    toeplitz = sliding_window_view(amps, nb)[:, ::-1]  # row k holds amps of slots k-nb+1 .. k
    ws = workspace or _Workspace()
    samples = None
    for m, vec in sorted(data.items()):
        vec = np.asarray(vec)
        if np.iscomplexobj(vec):
            raise ValueError(f"OQAM data must be real (subcarrier {m})")
        if vec.shape != (nsym,):
            raise ValueError(f"data vector for subcarrier {m} must cover n_range ({nsym} slots)")
        # carrier exp(2 pi j m p / M) of slot n0's pulse, reduced exactly as (m p) mod M;
        # slot n0 + j starts j half periods later, which multiplies it by (-1)^(m j)
        blocks = pulse * np.exp(2j * np.pi * ((m * p) % M) / M)
        amp = oqam_phase(m, np.arange(n0, n1)) * vec
        amps[nb - 1:nb - 1 + nsym] = amp * sign if m % 2 else amp
        if samples is None:
            samples = np.matmul(toeplitz, blocks, out=ws.array("oqam.signal", (len(toeplitz), hop)))
        else:
            samples += np.matmul(toeplitz, blocks, out=ws.array("oqam.term", samples.shape))
    if samples is None:
        return _zero_signal(M, start, stop)
    return DiscreteSignal(samples.ravel()[:stop - start], M, origin_index=-start)


def _oqam_demod_slots(config: CoexConfig, signal: DiscreteSignal, n_range: tuple[int, int],
                      subcarriers, *, workspace: _Workspace | None = None) -> np.ndarray:
    """Real demodulated values of slots n_range[0] .. n_range[1]-1: (slots, len(subcarriers)).

    Correlates against the pulse times the receive exponential, normalizes
    by the measured tap energy, rotates by the conjugate modulation phase
    and takes the real part.  A clean own-signal returns the symbol up to
    the prototype's near-perfect-reconstruction floor.  The signal is read
    in place; the folds and spectra go to the workspace, the result is new.
    """
    n0, n1 = _symbols(n_range)
    M = config.M
    ws = workspace or _Workspace()
    taps, pulse = _tap_blocks(M)
    first, last, hop = _extent(config, "oqam", received=True)
    nb = len(pulse)
    nsym = n1 - n0
    # the tap support, read in place: len(taps) = (nb - 1) hop + 1, so a slot's tap blocks
    # 0 .. nb - 2 are whole rows of x and its block nb - 1 is one sample, an entry of tail
    flat = signal.window(n0 * hop + first, (nsym - 1) * hop + last - first + 1)
    x = flat[:(nsym + nb - 2) * hop].reshape(-1, hop)
    tail = flat[(nb - 1) * hop::hop]
    m = np.asarray(subcarriers)
    k = m % M
    # slot n's fold starts at p0 = n hop + first, and -first = K M/2 is a whole number of
    # periods (K even), so its phase exp(-2 pi j k p0 / M) is exactly (-1)^(k n); with the
    # conjugate phase map, which has period 4 in n, it is one of 4 rows of +-1 and +-j
    quarter = np.arange(n0, n0 + 4)[:, None]
    turn = np.where((k * quarter) % 2, -1.0, 1.0) * np.conj(oqam_phase(m, quarter))
    turn *= np.sqrt(M) / float(np.dot(taps, taps))
    block = min(_DEMOD_BLOCK, nsym)
    # every block starts a multiple of 4 slots after n0, so its row i takes row i mod 4
    turn = turn[np.arange(block) % 4]
    folds = ws.array("oqam.fold", (block, 2, hop))
    products = ws.array("oqam.product", (block, hop))
    spectra = ws.array("oqam.spectrum", (block, M))
    out = np.empty((nsym, len(m)))
    with np.errstate():  # restores the thread's buffer size on exit
        np.setbufsize(_UFUNC_BUFFER)
        for j in range(0, nsym, block):
            size = min(block, nsym - j)
            # slot n0 + j + i reads blocks j + i .. j + i + nb - 1; tap block b folds onto
            # half b % 2 of M
            folded, product = folds[:size], products[:size]
            np.multiply(x[j:j + size], pulse[0], out=folded[:, 0])
            np.multiply(x[j + 1:j + 1 + size], pulse[1], out=folded[:, 1])
            for b in range(2, nb - 1):
                folded[:, b % 2] += np.multiply(x[j + b:j + b + size], pulse[b], out=product)
            folded[:, (nb - 1) % 2, 0] += tail[j:j + size] * pulse[nb - 1, 0]
            spec = np.fft.fft(folded.reshape(size, M), axis=1, out=spectra[:size])[:, k]
            out[j:j + size] = np.real(spec * turn[:size])
    return out


# ---------------------------------------------------------------------------
# Channel helpers
# ---------------------------------------------------------------------------

def apply_frequency_shift(signal: DiscreteSignal, delta_f: float, *,
                          workspace: _Workspace | None = None) -> DiscreteSignal:
    """Shift the signal by delta_f subcarrier spacings (phase ramp in absolute time).

    With p = q M + r, 0 <= r < M, the ramp exp(2 pi j delta_f p / M) is
    exp(2 pi j delta_f q) exp(2 pi j delta_f r / M): one M-sample ramp times
    one phase per block of M samples.

    With a workspace the ramp and the shifted samples live in its buffers,
    and the result aliases it as ofdm_modulate's signal does.
    """
    M = signal.samples_per_symbol
    q0, r0 = divmod(signal.start, M)
    blocks = -(-(r0 + len(signal.samples)) // M)
    ramp = np.exp(2j * np.pi * delta_f * np.arange(M) / M)
    phases = np.exp(2j * np.pi * delta_f * np.arange(q0, q0 + blocks))
    ws = workspace or _Workspace()
    full = np.multiply(phases[:, None], ramp, out=ws.array("shift.ramp", (blocks, M)))
    full = full.ravel()[r0:r0 + len(signal.samples)]
    out = np.multiply(signal.samples, full, out=ws.array("shift.signal", full.shape))
    return DiscreteSignal(out, M, signal.origin_index)


def shift_samples(signal: DiscreteSignal, offset: int) -> DiscreteSignal:
    """Delay the signal by a whole number of samples (relabels the time origin)."""
    return DiscreteSignal(signal.samples, signal.samples_per_symbol,
                          signal.origin_index - offset)
