"""Discrete-time synthesis and matched-filter demodulation of both waveforms.

Sampling convention: the useful symbol period T spans M = config.M samples
(critical sampling), and absolute sample p is at time t = p/M in units of T.
A DiscreteSignal is samples plus an origin on that grid; every modem
function, the frequency shift too, takes the config.  A modulator sends one
subcarrier, as the estimators' one interferer does, and scales by 1/sqrt(M),
so a clean own-signal demodulates to its symbol with unit gain.

CP-OFDM symbol n occupies samples [n(M+L) - L, n(M+L) + M) with L cyclic
prefix samples; the useful window is the last M of those.  OQAM half-symbol
slot n centers its pulse at sample n M/2 and spans K M + 1 samples (_extent).

OQAM synthesis is polyphase (Bellanger et al., FBMC physical layer: a
primer, PHYDYAS 2010): the taps are padded to nb = 2K + 1 blocks of M/2
samples and the carrier, reduced exactly as (m p) mod M, is folded into
them.  A slot starts one half period after its predecessor, which
multiplies its carrier by (-1)^m, so its pulse is the same nb blocks times
one amplitude.  A burst is then one product of the (slots + nb - 1) x nb
Toeplitz matrix of slot amplitudes with the nb x M/2 block matrix; with
inner dimension nb the bytes do not depend on the BLAS thread count.

The prototype filter is config.filt.  _tap_blocks builds its taps once per
(filter, M), and _carrier_blocks those blocks once per (filter, M, m mod M,
first sample mod M), the last being 0 or M/2, keeping 8 read-only.

OQAM demodulation is the polyphase analysis dual.  The receiver reads the
burst in place, as a view of blocks of M/2 samples; slot n + 1 reads the
same nb tap blocks one block later.  The K M + 1 taps end one sample into
the last block, so that block holds a single tap.  So nb - 1 block
products, alternating between the two halves of M, and one column update
for the last tap fold a run of slots' tap-weighted windows onto M samples
each, and one FFT per slot follows; nothing is copied or zero-padded.  It
works through the slots _DEMOD_BLOCK at a time: the first two products of
a block write its fold, the other 2K - 2 and the last tap add to it, and
its FFT runs while the fold is still in cache.  Slot n's fold starts at
sample p0 = (n - K) M/2, so its phase exp(-2 pi j k p0 / M) is exactly
(-1)^(k (n + K)) for any K.  With the conjugate phase map it is a quarter
turn, one of +-1 and +-j, that repeats every 4 slots: one 4-row table,
taken from oqam_phase on the first 4 slots, rotates every block.  The
OQAM receiver returns the rotated complex values, whose real parts are the
symbols.  Both receivers return only the subcarriers they are asked for, in
that order.

OQAM phase map: slot n of subcarrier m carries oqam_phase(m, n) = (-1)^(m n)
j^(m+n); the modulator applies it, the demodulator its conjugate.  Adjacent
slots and subcarriers sit in quadrature (near-perfect reconstruction).
Cross-system interference powers do not depend on the map (each slot gets one
unimodular factor); own-signal reconstruction does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import islice
from math import inf, prod

import numpy as np

from .filterbank import PrototypeFilter, phydyas_k4, sample_taps

__all__ = ["CoexConfig", "Direction", "DIRECTIONS", "lookup_direction", "DiscreteSignal",
           "ofdm_modulate", "oqam_modulate", "apply_frequency_shift", "shift_samples",
           "oqam_phase", "ConfigError", "MAX_OFFSET_CYCLE", "MAX_SET_ENTRIES", "SEED_BITS",
           "require_finite"]


class ConfigError(ValueError):
    """An invalid scenario: bad config values or a setup an operation cannot run."""


def _number(value, kind=float):
    """kind(value), but no bool: YAML 1.1 loads yes/no/on/off as True/False, not as 1/0."""
    if isinstance(value, (bool, np.bool_)):
        raise TypeError(f"expected a number, got {value!r}")
    return kind(value)


def _integer(value, lo=-inf, hi=inf) -> int:
    """int(value) in [lo, hi]; a non-integral float is an error rather than truncated."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    if not lo <= (n := _number(value, int)) <= hi:
        raise ValueError(f"entries must lie in [{lo}, {hi}], got {n}")
    return n


# bits of a seed: montecarlo's Philox4x64 key
SEED_BITS = 128

# entries a set may hold, counted before a {range} is built and as a list is read: only simulate
# reads the sets, and its one-window burst of over 4 M samples caps M below 2^21.  Bounded by M
# alone, M = 10^30 let {range: [0, 10^12]} be built until the process was killed for memory
MAX_SET_ENTRIES = 1 << 21


def _subcarriers(values, M: int) -> frozenset:
    """A list of subcarriers, or the ones {range: [lo, hi]} names, each checked as it is read."""
    lo, hi = -M // 2, M // 2 - 1
    if isinstance(values, dict):
        if set(values) != {"range"} or len(values["range"]) != 2:
            raise ValueError("expected {range: [lo, hi]} or a list of integers")
        a, b = map(_integer, values["range"])
        if not 0 <= b - a < M:  # before the set is built: a range of 10^12 would exhaust memory
            raise ValueError(f"range [{a}, {b}] is "
                             + ("reversed" if b < a else f"wider than M = {M} subcarriers"))
        if b - a >= MAX_SET_ENTRIES:
            raise ValueError(f"range [{a}, {b}] holds over {MAX_SET_ENTRIES} entries")
        return frozenset(range(_integer(a, lo, hi), _integer(b, lo, hi) + 1))  # its ends bound it
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):  # "012" is no list
        raise TypeError("expected a list or {range: [lo, hi]}")
    entries = [_integer(value, lo, hi) for value in islice(values, MAX_SET_ENTRIES + 1)]
    if len(entries) > MAX_SET_ENTRIES:
        raise ValueError(f"a set may hold at most {MAX_SET_ENTRIES} entries")
    return frozenset(entries)


def _filter(value) -> PrototypeFilter:
    if not isinstance(value, PrototypeFilter):  # no file value is one: set it in Python
        raise TypeError(f"expected a filterbank.PrototypeFilter, got {value!r}")
    return value


# each field's reader, in field order: an integer is never a truncated float, no number is a
# bool, and a prefix ratio is read from its str(), so 0.1 is 1/10 (as in YAML) and "1/8" is 1/8
_READERS = {"M": _integer, "cp_ratio": lambda x: Fraction(str(x)),
            "incumbent_set": _subcarriers, "secondary_set": _subcarriers,
            "var_qam": _number, "var_pam": _number, "delta_f": _number, "seed": _integer,
            "filt": _filter}


@dataclass(frozen=True)
class CoexConfig:
    """Full coexistence scenario description.

    Subcarrier indices live in [-M/2, M/2 - 1]; the two active sets may
    overlap (co-channel scenarios are allowed).  delta_f is the frequency
    misalignment of the secondary relative to the incumbent, in subcarrier
    spacings.  Defaults follow the reference scenario: M = 512, one-eighth
    prefix, unit-energy symbols (var_qam = 2 var_pam = 1), interferer on
    subcarrier 0.  Every value, from a file, a flag or Python, passes its
    field's reader (_READERS) and is checked in field order, so the first
    bad field is named: ConfigError("<field>: ...") if its reader rejects
    it.  A set may be {"range": [lo, hi]}, read against the checked M.  filt
    is the one record of the prototype filter, which every model reads.
    """

    M: int = 512
    cp_ratio: Fraction = Fraction(1, 8)
    incumbent_set: frozenset = field(default_factory=lambda: frozenset(range(-25, 26)))
    secondary_set: frozenset = field(default_factory=lambda: frozenset({0}))
    var_qam: float = 1.0
    var_pam: float = 0.5
    delta_f: float = 0.0
    seed: int = 0
    filt: PrototypeFilter = phydyas_k4()

    def __post_init__(self):
        M = self._read("M")
        if M < 8:
            raise ConfigError("M must be >= 8")
        cp = self._read("cp_ratio")
        if cp < 0:
            raise ConfigError("cp_ratio must be non-negative")
        if (M * cp).denominator != 1:
            raise ConfigError("M * cp_ratio must be an integer number of samples")
        self._read("incumbent_set", M)
        self._read("secondary_set", M)
        if not all(0 < self._read(name) < inf for name in ("var_qam", "var_pam")):
            raise ConfigError("symbol variances must be positive and finite")
        if not (-0.5 < self._read("delta_f") <= 0.5):
            raise ConfigError("delta_f must lie in (-0.5, 0.5]")
        if self._read("seed") < 0:
            raise ConfigError("seed must be non-negative")
        if self.seed >> SEED_BITS:  # the Monte-Carlo key: a wider seed would alias another
            raise ConfigError(f"seed: {self.seed} is not below 2^{SEED_BITS}")
        self._read("filt")

    def _read(self, name: str, *args):
        try:
            object.__setattr__(self, name, _READERS[name](getattr(self, name), *args))
        except (ArithmeticError, TypeError, ValueError) as e:  # 1/0, float(10 ** 400)
            raise ConfigError(f"{name}: {e}") from e
        return getattr(self, name)

    @cached_property
    def cp_samples(self) -> int:
        return int(self.M * self.cp_ratio)

    @cached_property
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

# i2s slots per offset cycle (2(p + q)/gcd(2, q) at cp = p/q) that closedform and oracle take:
# every k/512 prefix has <= 1,024; on a 2-vCPU Xeon 1/4096 (4,097) took a 10,001-point i2s
# table 8.4 s, and 1/2^20 over a minute
MAX_OFFSET_CYCLE = 1 << 12


def lookup_direction(name: str, lattice: bool = False) -> Direction:
    """The row of DIRECTIONS called name; with lattice, not an offset row (no closed form yet)."""
    for d in DIRECTIONS:
        if d.name == name:
            if lattice and d.offset:
                raise ConfigError(f"no closed form or oracle for the offset direction {name!r}")
            return d
    raise ValueError(f"unknown direction {name!r}, expected one of {[d.name for d in DIRECTIONS]}")


def require_finite(name: str, values) -> np.ndarray:
    """values as a float array; a non-finite entry is a ValueError that names the argument."""
    v = np.asarray(values, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got {v[~np.isfinite(v)][0]}")
    return v


@dataclass
class DiscreteSignal:
    """Complex baseband samples and their origin on the config's sample grid.

    samples[i], C-contiguous complex128 (16 bytes), is the sample at absolute
    index p = i - origin_index (t = p/M, M = config.M); immutable once made.
    """

    samples: np.ndarray
    origin_index: int

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=complex)

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


def _slot_step(M: int) -> int:
    """M/2, the samples from one OQAM slot to the next; an odd M has no whole half period."""
    if M % 2:
        raise ConfigError("OQAM requires even M (half-period slots must be whole samples)")
    return M // 2


def _extent(config: CoexConfig, waveform: str, received: bool = False) -> tuple[int, int, int]:
    """(first, last, step): symbol (slot) n of waveform covers samples n step + [first, last]:
    an OQAM slot the K M + 1 taps of _tap_blocks, sent or received, a sent CP-OFDM symbol its
    L prefix and M useful samples, a received one the M useful samples only.
    """
    if waveform == "oqam":
        step = _slot_step(config.M)
        return -config.filt.overlap_K * step, config.filt.overlap_K * step, step
    return 0 if received else -config.cp_samples, config.M - 1, config.symbol_samples


def _pattern(config: CoexConfig, waveform: str) -> int:
    """The samples after which waveform repeats: symbol (slot) n + pattern / step, sent or
    received, is symbol n delayed by pattern samples.  Every CP-OFDM block is symbol 0's, so
    one symbol; an OQAM slot's phase map (-1)^(m n) j^(m + n) repeats after 4 slots, and so
    does the carrier, which each M/2-sample step turns by (-1)^m: 2M samples.
    """
    step = _extent(config, waveform)[2]
    return 4 * step if waveform == "oqam" else step


def _symbols(n_range) -> tuple[int, int]:
    """n_range as (n0, n1); a ValueError unless it is a tuple of integers n0 < n1, not an array."""
    if not (isinstance(n_range, tuple) and len(n_range) == 2
            and all(isinstance(n, (int, np.integer)) for n in n_range)
            and n_range[0] < n_range[1]):
        raise ValueError(f"n_range must be a non-empty pair (n0, n1) of integers, got {n_range!r}")
    return int(n_range[0]), int(n_range[1])


class _Workspace:
    """Complex scratch arrays, 16 bytes an entry, that successive calls reuse.

    array(name, shape) is a view of the first entries of one flat buffer per
    name, which grows when a call needs more and is never shrunk.  Its
    contents are whatever the previous user left: every caller overwrites
    all of the view it reads.  A modem called without a workspace makes a
    fresh one, so its arrays are its own.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size, dtype=complex)
        return buf[:size].reshape(shape)


# ---------------------------------------------------------------------------
# CP-OFDM
# ---------------------------------------------------------------------------

def ofdm_modulate(config: CoexConfig, m: int, vec, n_range: tuple[int, int], *,
                  workspace: _Workspace | None = None) -> DiscreteSignal:
    """Synthesize the CP-OFDM signal of the QAM symbols vec on subcarrier m.

    vec is a complex vector covering symbols n_range[0] .. n_range[1]-1.
    Each symbol occupies (1+cp_ratio) M samples (prefix first); sample
    values carry the 1/sqrt(M) amplitude convention.

    With a workspace the samples live in its buffer: the signal aliases the
    workspace and is overwritten by the next call that shares it (the next
    burst), so use it before then or copy it.
    """
    n0, n1 = _symbols(n_range)
    M = config.M
    first, last, S = _extent(config, "ofdm")
    vec = np.asarray(vec, dtype=complex)
    if vec.shape != (n1 - n0,):
        raise ValueError(f"data vector for subcarrier {m} must cover n_range ({n1 - n0} symbols)")
    p = np.arange(first, last + 1)  # symbol 0's block
    with np.errstate():  # restores the thread's buffer size on exit
        np.setbufsize(_UFUNC_BUFFER)
        # symbol n's prefix phase exp(-2 pi j m n L / M) cancels the advance of the carrier
        # exp(2 pi j m p / M) over n blocks, so every block is symbol 0's: one carrier block,
        # reduced exactly as (m p) mod M, times each symbol
        carrier = np.exp(2j * np.pi * ((m * p) % M) / M)
        # symbol blocks tile the burst exactly: block n is n S + [first, last]
        blocks = (workspace or _Workspace()).array("ofdm.signal", (n1 - n0, S))
        np.multiply((vec / np.sqrt(M))[:, None], carrier, out=blocks)
    return DiscreteSignal(blocks.ravel(), origin_index=-(n0 * S + first))


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
    spectra = (workspace or _Workspace()).array("ofdm.spectrum", (n1 - n0, M))
    np.fft.fft(np.ndarray(spectra.shape, complex, span, strides=(S * 16, 16)), out=spectra)
    return spectra[:, np.asarray(subcarriers) % M] / np.sqrt(M)


# ---------------------------------------------------------------------------
# OFDM/OQAM
# ---------------------------------------------------------------------------

def oqam_phase(m, n):
    """Modulation phase (-1)^(m n) j^(m+n) of slot n on subcarrier m; broadcasts over arrays."""
    return np.where((m * n) % 2, -1.0, 1.0) * _QUARTER_TURNS[(m + n) % 4]


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

_QUARTER_TURNS = 1j ** np.arange(4)  # j^k computed as the power it stands for: its bytes


@cache
def _tap_blocks(filt: PrototypeFilter, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The prototype taps, and the taps zero-padded to nb blocks of M/2 samples: (nb, M/2).

    Built once per (filter, M) and shared by every modem call, so both arrays are read-only.
    """
    hop = _slot_step(M)
    taps = sample_taps(filt, M)
    # K M + 1 taps: nb = 2K + 1 blocks (9 for K = 4), the last of them one tap
    blocks = np.zeros(-(-len(taps) // hop) * hop)
    blocks[:len(taps)] = taps
    taps.flags.writeable = blocks.flags.writeable = False
    return taps, blocks.reshape(-1, hop)


@lru_cache(maxsize=8)
def _carrier_blocks(filt: PrototypeFilter, M: int, m: int, start: int) -> np.ndarray:
    """The tap blocks / sqrt(M) times the carrier at samples start + (0, 1, ..); read-only."""
    pulse = _tap_blocks(filt, M)[1] / np.sqrt(M)
    p = start + np.arange(pulse.size).reshape(pulse.shape)
    blocks = pulse * np.exp(2j * np.pi * ((m * p) % M) / M)
    blocks.flags.writeable = False
    return blocks


def oqam_modulate(config: CoexConfig, m: int, vec, n_range: tuple[int, int], *,
                  workspace: _Workspace | None = None) -> DiscreteSignal:
    """Synthesize the OQAM signal of the real PAM symbols vec on subcarrier m.

    vec covers half-symbol slots n_range[0] .. n_range[1]-1; successive
    slots are offset by M/2 samples.  With a workspace the signal aliases
    its buffer, as ofdm_modulate's does.
    """
    n0, n1 = _symbols(n_range)
    M = config.M
    first, last, hop = _extent(config, "oqam")
    nb = len(_tap_blocks(config.filt, M)[1])
    nsym = n1 - n0
    vec = np.asarray(vec)
    if np.iscomplexobj(vec) or vec.shape != (nsym,):
        raise ValueError(f"OQAM data for subcarrier {m} must be real, one value per slot ({nsym})")
    start, stop = n0 * hop + first, (n1 - 1) * hop + last + 1
    ws = workspace or _Workspace()
    amps = ws.array("oqam.amps", (nsym + 2 * (nb - 1),))
    amps[:nb - 1] = amps[1 - nb:] = 0  # toeplitz row k holds slots k - nb + 1 .. k, last first
    toeplitz = np.ndarray((nsym + nb - 1, nb), complex, amps, (nb - 1) * 16, (16, -16))
    blocks = _carrier_blocks(config.filt, M, m % M, start % M)  # slot n0 + j: (-1)^(m j) x these
    amp = oqam_phase(m, np.arange(n0, n1)) * vec
    amps[nb - 1:1 - nb] = amp * np.where(np.arange(nsym) % 2, -1.0, 1.0) if m % 2 else amp
    samples = np.matmul(toeplitz, blocks, out=ws.array("oqam.signal", (len(toeplitz), hop)))
    return DiscreteSignal(samples.ravel()[:stop - start], origin_index=-start)


def _oqam_demod_slots(config: CoexConfig, signal: DiscreteSignal, n_range: tuple[int, int],
                      subcarriers, *, workspace: _Workspace | None = None) -> np.ndarray:
    """Rotated values of slots n_range[0] .. n_range[1]-1: (slots, len(subcarriers)), complex.

    Correlates against the pulse times the receive exponential, normalizes
    by the measured tap energy and rotates by the conjugate modulation
    phase; the real part is the demodulated PAM symbol.  A clean own-signal
    returns the symbol up to the prototype's near-perfect-reconstruction
    floor.  The rotated value is linear over complex amplitudes, so a caller
    can superpose it before taking the real part.  The signal is read in
    place; the folds and spectra go to the workspace, the result is new.
    """
    n0, n1 = _symbols(n_range)
    M = config.M
    ws = workspace or _Workspace()
    taps, pulse = _tap_blocks(config.filt, M)
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
    # slot n's fold starts at p0 = (n - K) M/2, so its phase exp(-2 pi j k p0 / M) is exactly
    # (-1)^(k (n + K)); with the conjugate phase map, which has period 4 in n, it is one of 4
    # rows of +-1 and +-j
    quarter = np.arange(n0, n0 + 4)[:, None]
    K = config.filt.overlap_K
    turn = np.where((k * (quarter + K)) % 2, -1.0, 1.0) * np.conj(oqam_phase(m, quarter))
    turn *= np.sqrt(M) / float(np.dot(taps, taps))
    block = min(_DEMOD_BLOCK, nsym)
    # every block starts a multiple of 4 slots after n0, so its row i takes row i mod 4
    turn = turn[np.arange(block) % 4]
    folds = ws.array("oqam.fold", (block, 2, hop))
    products = ws.array("oqam.product", (block, hop))
    spectra = ws.array("oqam.spectrum", (block, M))
    out = np.empty((nsym, len(m)), complex)
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
            np.multiply(spec, turn[:size], out=out[j:j + size])
    return out


# ---------------------------------------------------------------------------
# Channel helpers
# ---------------------------------------------------------------------------

def apply_frequency_shift(config: CoexConfig, signal: DiscreteSignal, delta_f: float, *,
                          workspace: _Workspace | None = None) -> DiscreteSignal:
    """Shift the signal by delta_f subcarrier spacings (phase ramp in absolute time).

    With p = q M + r, 0 <= r < M, the ramp exp(2 pi j delta_f p / M) is
    exp(2 pi j delta_f q) exp(2 pi j delta_f r / M): one M-sample ramp times
    one phase per block of M samples.

    With a workspace the ramp and the shifted samples live in its buffers,
    and the result aliases it as ofdm_modulate's signal does.
    """
    M = config.M
    q0, r0 = divmod(signal.start, M)
    blocks = -(-(r0 + len(signal.samples)) // M)
    ramp = np.exp(2j * np.pi * delta_f * np.arange(M) / M)
    phases = np.exp(2j * np.pi * delta_f * np.arange(q0, q0 + blocks))
    ws = workspace or _Workspace()
    full = np.multiply(phases[:, None], ramp, out=ws.array("shift.ramp", (blocks, M)))
    full = full.ravel()[r0:r0 + len(signal.samples)]
    out = np.multiply(signal.samples, full, out=ws.array("shift.signal", full.shape))
    return DiscreteSignal(out, signal.origin_index)


def shift_samples(signal: DiscreteSignal, offset: int) -> DiscreteSignal:
    """Delay the signal by a whole number of samples (relabels the time origin)."""
    return DiscreteSignal(signal.samples, signal.origin_index - offset)
