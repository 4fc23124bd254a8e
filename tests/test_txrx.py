"""Modulators, demodulators, signal helpers, configuration validation."""

import ast
import itertools
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import coexsim.txrx as txrx
from coexsim.filterbank import PrototypeFilter, phydyas_k4, sample_taps
from coexsim.txrx import (
    CoexConfig,
    DiscreteSignal,
    _ofdm_demod_window,
    _oqam_demod_slots,
    apply_frequency_shift,
    ofdm_modulate,
    oqam_modulate,
    oqam_phase,
    shift_samples,
)


def floor_phase(m, n):
    """Test-only alternative OQAM phase map (-1)^(m n) exp(j pi/2 floor((m+n)/2)).

    Broadcasts over arrays like oqam_phase, so it can stand in for it.
    """
    return np.where((m * n) % 2, -1.0, 1.0) * 1j ** (((m + n) // 2) % 4)


def superpose(modulate, config, data, n_range):
    """Test-only: the signal of data {subcarrier: vector}, one modulate call per subcarrier,
    added in place in ascending subcarrier order to a copy of the first one's samples.
    """
    (m, vec), *rest = sorted(data.items())
    first = modulate(config, m, vec, n_range)
    samples = first.samples.copy()
    for m, vec in rest:
        samples += modulate(config, m, vec, n_range).samples
    return DiscreteSignal(samples, first.origin_index)


def loop_oqam_modulate(config, data, n_range):
    """Test-only reference: slot-by-slot OQAM synthesis with exactly reduced carriers.

    Adds each slot's pulse times exp(2 pi j ((m p) mod M) / M) into the burst;
    returns (samples, origin_index) over the modulator's extent.
    """
    n0, n1 = n_range
    M = config.M
    taps = sample_taps(phydyas_k4(), M)
    half = (len(taps) - 1) // 2
    start = n0 * M // 2 - half
    out = np.zeros((n1 - 1) * M // 2 + half + 1 - start, dtype=complex)
    rel = np.arange(len(taps))
    for m, vec in sorted(data.items()):
        phases = oqam_phase(m, np.arange(n0, n1))
        for j, n in enumerate(range(n0, n1)):
            p = n * M // 2 - half + rel
            amp = phases[j] * vec[j] / np.sqrt(M)
            out[p - start] += amp * taps * np.exp(2j * np.pi * ((m * p) % M) / M)
    return out, -start


def loop_oqam_demod(config, signal, n_range, subcarriers):
    """Test-only reference: slot-by-slot OQAM demodulation with exactly reduced carriers.

    Correlates each slot's full tap window against taps * exp(-2 pi j ((m p) mod M) / M),
    rotates by the conjugate phase map and takes the real part: (slots, len(subcarriers)).
    """
    n0, n1 = n_range
    M = config.M
    taps = sample_taps(phydyas_k4(), M)
    half = (len(taps) - 1) // 2
    subs = np.asarray(subcarriers)
    out = np.zeros((n1 - n0, len(subs)))
    for j, n in enumerate(range(n0, n1)):
        p = n * M // 2 - half + np.arange(len(taps))
        seg = signal.window(p[0], len(taps)) * taps
        carriers = np.exp(-2j * np.pi * ((subs[:, None] * p[None, :]) % M) / M)
        corr = np.sqrt(M) / np.dot(taps, taps) * (carriers @ seg)
        out[j] = np.real(corr * np.conj(oqam_phase(subs, n)))
    return out


def padded_fold_oqam_demod(config, signal, n_range, subcarriers):
    """Test-only reference: the OQAM receiver with a zero-padded copy of the burst.

    The same arithmetic as _oqam_demod_slots (64-slot blocks, quarter-turn
    rotation) but folding all nb tap blocks, the last one included, from a
    copy of the tap support zero-padded to (slots + nb - 1) whole blocks.
    """
    n0, n1 = n_range
    M = config.M
    taps, pulse = txrx._tap_blocks(config.filt, M)
    nb, hop = pulse.shape
    nsym = n1 - n0
    start = n0 * hop - (len(taps) - 1) // 2
    support = (nsym - 1) * hop + len(taps)
    x = np.zeros((nsym + nb - 1) * hop, dtype=complex)
    x[:support] = signal.window(start, support)
    x = x.reshape(-1, hop)
    m = np.asarray(subcarriers)
    k = m % M
    quarter = np.arange(n0, n0 + 4)[:, None]
    turn = np.where((k * quarter) % 2, -1.0, 1.0) * np.conj(oqam_phase(m, quarter))
    turn *= np.sqrt(M) / float(np.dot(taps, taps))
    block = min(txrx._DEMOD_BLOCK, nsym)
    turn = turn[np.arange(block) % 4]
    out = np.empty((nsym, len(m)))
    for j in range(0, nsym, block):
        size = min(block, nsym - j)
        folded = np.empty((size, 2, hop), dtype=complex)
        np.multiply(x[j:j + size], pulse[0], out=folded[:, 0])
        np.multiply(x[j + 1:j + 1 + size], pulse[1], out=folded[:, 1])
        for b in range(2, nb):
            folded[:, b % 2] += x[j + b:j + b + size] * pulse[b]
        spec = np.fft.fft(folded.reshape(size, M), axis=1)[:, k]
        out[j:j + size] = np.real(spec * turn[:size])
    return out


def edge_subcarriers(M):
    return [-M // 2, -1, 0, M // 2 - 1]


def all_subcarriers(config):
    return np.arange(-config.M // 2, config.M // 2)


def small_config(**kw):
    defaults = dict(M=64, cp_ratio=Fraction(1, 8),
                    incumbent_set=frozenset(range(-8, 9)),
                    secondary_set=frozenset(range(-8, 9)), seed=1)
    defaults.update(kw)
    return CoexConfig(**defaults)


class TestConfig:
    def test_defaults_follow_reference_scenario(self):
        cfg = CoexConfig()
        assert cfg.M == 512
        assert cfg.cp_ratio == Fraction(1, 8)
        assert cfg.var_qam == 2 * cfg.var_pam == 1.0
        assert cfg.secondary_set == frozenset({0})

    def test_cp_ratio_coercion(self):
        assert CoexConfig(cp_ratio=0.125).cp_ratio == Fraction(1, 8)
        assert CoexConfig(cp_ratio="1/8").cp_ratio == Fraction(1, 8)
        tiny = CoexConfig(M=10, cp_ratio=0.1, incumbent_set=frozenset({0}),
                          secondary_set=frozenset({0}))
        assert tiny.cp_ratio == Fraction(1, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoexConfig(M=4)
        with pytest.raises(ValueError):
            CoexConfig(M=512, cp_ratio=Fraction(1, 7))  # not whole samples
        with pytest.raises(ValueError):
            CoexConfig(M=16, incumbent_set=frozenset({8}))  # beyond M/2 - 1
        with pytest.raises(ValueError):
            CoexConfig(var_qam=0.0)
        with pytest.raises(ValueError):
            CoexConfig(delta_f=0.75)
        with pytest.raises(ValueError):
            CoexConfig(cp_ratio=Fraction(-1, 8))
        for bad in (dict(seed=-1), dict(var_pam=float("nan")), dict(var_pam=float("inf")),
                    dict(var_qam=float("nan")), dict(var_qam=float("inf"))):
            with pytest.raises(txrx.ConfigError):
                CoexConfig(**bad)
        # a value its field cannot read is an error naming the field, never truncated; a
        # string is iterable, but its characters (bytes) are no subcarriers
        for bad in (dict(M=512.5), dict(seed=1.5), dict(incumbent_set=[2.5]),
                    dict(secondary_set=[0, 0.5]), dict(cp_ratio="1/0"), dict(delta_f="x"),
                    dict(var_qam=10 ** 400), dict(incumbent_set="012"), dict(secondary_set=b"01")):
            with pytest.raises(txrx.ConfigError, match=rf"^{next(iter(bad))}: "):
                CoexConfig(**bad)

    def test_integral_floats_read_as_integers(self):
        cfg = CoexConfig(M=512.0, seed=7.0, incumbent_set=[-1.0, 2], secondary_set=range(2))
        assert (cfg.M, cfg.seed) == (512, 7) and type(cfg.M) is type(cfg.seed) is int
        assert cfg.incumbent_set == frozenset({-1, 2}) and cfg.secondary_set == frozenset({0, 1})
        assert all(type(m) is int for m in cfg.incumbent_set)

    def test_every_field_has_a_reader(self):
        assert list(txrx._READERS) == [f.name for f in fields(CoexConfig)]

    def test_overlapping_sets_allowed(self):
        cfg = CoexConfig(incumbent_set=frozenset({0, 1}), secondary_set=frozenset({0}))
        assert 0 in cfg.incumbent_set and 0 in cfg.secondary_set

    def test_sample_counts(self):
        cfg = small_config()
        assert cfg.cp_samples == 8
        assert cfg.symbol_samples == 72


class TestRequireFinite:
    def test_only_place_that_tests_finiteness(self):
        # build_table, the oracle and the PSD model share one refusal and its message
        src = Path(txrx.__file__).parent
        for name in ("closedform.py", "oracle.py", "psdmodel.py"):
            text = (src / name).read_text()
            assert "isfinite" not in text and "require_finite(" in text


# the K = 3 PHYDYAS coefficients, whose sum of G^2 is 3 to six digits: a filter besides the default
K3 = PrototypeFilter(3, (1.0, 0.911438, 0.411438))


class TestFilterRecord:
    def test_only_the_config_default_calls_phydyas_k4(self):
        # CoexConfig.filt is the one record of the prototype filter: no module builds its own
        src = Path(txrx.__file__).parent
        calls = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", getattr(node.func, "attr", None)) == "phydyas_k4"]
        config = next(node for node in ast.walk(ast.parse(Path(txrx.__file__).read_text()))
                      if isinstance(node, ast.ClassDef) and node.name == "CoexConfig")
        default = next(node for node in config.body
                       if isinstance(node, ast.AnnAssign) and node.target.id == "filt")
        assert calls == [("txrx.py", default.value.lineno)]

    @pytest.mark.parametrize("value", [3, "phydyas_k4", {"overlap_K": 3, "coeffs": [1, 0.9, 0.4]}])
    def test_filt_must_be_a_prototype_filter(self, value):
        with pytest.raises(txrx.ConfigError, match=r"^filt: expected a filterbank\.Prototype"):
            CoexConfig(filt=value)

    def test_modems_read_the_config_filter(self):
        cfg = CoexConfig(M=64, filt=K3)
        assert txrx._extent(cfg, "oqam") == (-96, 96, 32)  # K M/2 either side
        assert txrx._tap_blocks(K3, 64)[1].shape == (7, 32)  # 2K + 1 blocks
        assert txrx._tap_blocks(phydyas_k4(), 64)[1].shape == (9, 32)
        assert txrx._carrier_blocks(K3, 64, 1, 0).shape == (7, 32)
        sig = oqam_modulate(cfg, 1, np.ones(3), (0, 3))
        assert (sig.start, sig.stop) == (-96, 2 * 32 + 96 + 1)

    def test_k3_own_signal_reconstruction(self):
        # slot n's fold phase is (-1)^(k (n + K)): (-1)^(k n) alone flips the odd subcarriers'
        # signs at an odd K, a max error of 2
        cfg = CoexConfig(M=512, incumbent_set=frozenset({0}),
                         secondary_set=frozenset(range(-4, 4)), filt=K3)
        rng = np.random.default_rng(3)
        n0, n1 = -6, 46
        subs = sorted(cfg.secondary_set)
        data = {m: rng.choice([1.0, -1.0], n1 - n0) for m in subs}
        sig = superpose(oqam_modulate, cfg, data, (n0, n1))
        rec = _oqam_demod_slots(cfg, sig, (0, 40), subs)
        sent = np.array([data[m][-n0:40 - n0] for m in subs]).T
        assert np.max(np.abs(rec - sent)) <= 0.05


class TestDiscreteSignal:
    def test_window_bounds(self):
        sig = DiscreteSignal(np.arange(10, dtype=complex), origin_index=4)
        assert sig.start == -4 and sig.stop == 6
        assert len(sig.window(-4, 10)) == 10
        with pytest.raises(ValueError):
            sig.window(-5, 4)
        with pytest.raises(ValueError):
            sig.window(0, 7)
        # the receivers read the signal in place: a window is a view
        part = sig.window(-1, 4)
        assert np.array_equal(part, [3, 4, 5, 6])
        assert np.shares_memory(part, sig.samples)

    def test_samples_are_contiguous(self):
        # the CP-OFDM receiver views its windows directly in the samples' buffer
        cfg = small_config()
        strided = np.random.default_rng(3).normal(size=(2, 5 * cfg.symbol_samples))[0] + 0j
        sig = DiscreteSignal(strided[::-1], origin_index=0)
        assert sig.samples.flags.c_contiguous
        copy = DiscreteSignal(strided[::-1].copy(), origin_index=0)
        assert np.array_equal(_ofdm_demod_window(cfg, sig, (0, 4), [0, 3]),
                              _ofdm_demod_window(cfg, copy, (0, 4), [0, 3]))

    def test_shift_samples_relabels_origin(self):
        sig = DiscreteSignal(np.arange(4, dtype=complex), origin_index=0)
        delayed = shift_samples(sig, 3)
        assert delayed.window(3, 4) is not None
        assert np.array_equal(delayed.window(3, 4), sig.window(0, 4))


class TestOfdm:
    def test_single_symbol_constant_envelope(self):
        # one unit symbol on the center subcarrier: (1+cp) M constant samples
        cfg = CoexConfig(M=512, cp_ratio=Fraction(1, 8),
                         incumbent_set=frozenset({0}), secondary_set=frozenset({0}))
        sig = ofdm_modulate(cfg, 0, np.array([1.0 + 0j]), (0, 1))
        assert len(sig.samples) == 576
        assert np.allclose(sig.samples, 1 / np.sqrt(512), rtol=0, atol=1e-15)

    def test_subcarriers_outside_the_incumbent_set_synthesize_alike(self):
        # roles are the estimator's: the modulator takes any subcarrier, with the same bytes
        rng = np.random.default_rng(4)
        data = {m: rng.normal(size=3) + 1j * rng.normal(size=3) for m in (3, 20)}
        outside = superpose(ofdm_modulate, small_config(incumbent_set=frozenset({0, 1})), data,
                            (0, 3))
        inside = superpose(ofdm_modulate, small_config(incumbent_set=frozenset({3, 20})), data,
                           (0, 3))
        assert outside.samples.tobytes() == inside.samples.tobytes()
        assert outside.origin_index == inside.origin_index

    def test_rejects_wrong_vector_length(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            ofdm_modulate(cfg, 0, np.ones(2, dtype=complex), (0, 3))

    def test_round_trip_100_random_grids(self):
        cfg = small_config()
        rng = np.random.default_rng(123)
        subs = sorted(cfg.incumbent_set)
        worst = 0.0
        for _ in range(100):
            data = {m: (rng.choice([1, -1], 3) + 1j * rng.choice([1, -1], 3)) / np.sqrt(2)
                    for m in subs}
            sig = superpose(ofdm_modulate, cfg, data, (0, 3))
            rows = _ofdm_demod_window(cfg, sig, (0, 3), subs)
            sent = np.array([data[m] for m in subs]).T
            worst = max(worst, np.max(np.abs(rows - sent)))
        assert worst < 1e-10

    def test_zero_signal_demodulates_to_zero(self):
        cfg = small_config()
        sig = ofdm_modulate(cfg, 0, np.zeros(1), (0, 1))
        assert np.all(_ofdm_demod_window(cfg, sig, (0, 1), all_subcarriers(cfg)) == 0)

    def test_batched_windows_bit_equal_to_single(self):
        cfg = small_config()
        rng = np.random.default_rng(11)
        data = {m: rng.normal(size=6) + 1j * rng.normal(size=6) for m in (-3, 0, 5)}
        sig = apply_frequency_shift(cfg, superpose(ofdm_modulate, cfg, data, (0, 6)), 0.3)
        rows = _ofdm_demod_window(cfg, sig, (0, 6), all_subcarriers(cfg))
        assert rows.shape == (6, cfg.M)
        for i in range(6):
            single = _ofdm_demod_window(cfg, sig, (i, i + 1), all_subcarriers(cfg))
            assert np.array_equal(rows[i], single[0])

    def test_window_out_of_bounds(self):
        cfg = small_config()
        sig = ofdm_modulate(cfg, 0, np.zeros(1), (0, 1))
        with pytest.raises(ValueError):
            _ofdm_demod_window(cfg, sig, (2, 3), [0])

    @pytest.mark.parametrize("M", [64, 512])
    def test_carrier_blocks_match_direct_exponential(self, M):
        subs = edge_subcarriers(M)
        cfg = CoexConfig(M=M, incumbent_set=frozenset(subs), secondary_set=frozenset({0}))
        n0, n1 = -5, 4
        rng = np.random.default_rng(M)
        data = {m: rng.normal(size=n1 - n0) + 1j * rng.normal(size=n1 - n0) for m in subs}
        sig = superpose(ofdm_modulate, cfg, data, (n0, n1))
        S, L = cfg.symbol_samples, cfg.cp_samples
        p = np.arange(n0 * S - L, (n1 - 1) * S + M)
        assert sig.start == p[0] and sig.stop == p[-1] + 1
        ref = np.zeros(len(p), dtype=complex)
        for m in subs:
            per_symbol = data[m] / np.sqrt(M) * np.exp(-2j * np.pi * m * L * np.arange(n0, n1) / M)
            ref += np.repeat(per_symbol, S) * np.exp(2j * np.pi * m * p / M)
        assert np.max(np.abs(sig.samples - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSymbolRange:
    """The four modem entry points take n_range as a non-empty pair of integers only."""

    @staticmethod
    def entry_points():
        cfg = small_config()
        ofdm = ofdm_modulate(cfg, 0, np.ones(8, dtype=complex), (-2, 6))
        oqam = oqam_modulate(cfg, 0, np.ones(16), (-4, 12))
        # n_range is read before the symbols, so two symbols serve every case
        return [lambda r: ofdm_modulate(cfg, 0, np.zeros(2), r),
                lambda r: oqam_modulate(cfg, 0, np.zeros(2), r),
                lambda r: _ofdm_demod_window(cfg, ofdm, r, [0]),
                lambda r: _oqam_demod_slots(cfg, oqam, r, [0])]

    @pytest.mark.parametrize("n_range", [
        np.arange(2), [0, 1], (0,), (0, 1, 2), (1, 1), (2, 1), (0.0, 1.0), (0, 1.5), None,
    ], ids=["array", "list", "one", "three", "empty", "reversed", "floats", "fraction", "none"])
    def test_rejects_anything_but_a_nonempty_integer_pair(self, n_range):
        for call in self.entry_points():
            with pytest.raises(ValueError, match="n_range"):
                call(n_range)

    def test_numpy_integers_are_integers(self):
        for call in self.entry_points():
            a, b = call((0, 2)), call((np.int64(0), np.int64(2)))
            if isinstance(a, DiscreteSignal):
                assert (a.start, a.stop) == (b.start, b.stop)
                a, b = a.samples, b.samples
            assert np.array_equal(a, b)


class TestOqamPhases:
    def test_floor_convention_reference_values(self):
        # the test-only alternative map is the floor-convention theta table of
        # the coexistence formulation times the (-1)^(m n) sign
        assert floor_phase(0, 0) == 1
        assert floor_phase(0, 1) == 1
        assert floor_phase(0, 2) == 1j
        assert floor_phase(0, 3) == 1j
        assert floor_phase(1, 0) == 1
        assert floor_phase(1, 1) == -1j  # (-1)^(1*1) * j

    def test_standard_convention_quadrature_structure(self):
        # adjacent slots and adjacent subcarriers always sit in quadrature
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert oqam_phase(m, n + 1) / oqam_phase(m, n) in (1j, -1j)
                assert oqam_phase(m + 1, n) / oqam_phase(m, n) in (1j, -1j)

    def test_period_four_in_slots_and_quarter_turn_values(self):
        # the demodulator builds its rotation from 4 slots of the map and reads it as
        # exactly +-1 or +-j
        m, n = np.arange(-9, 10)[:, None], np.arange(-11, 12)[None, :]
        assert np.array_equal(oqam_phase(m, n + 4), oqam_phase(m, n))
        assert np.all(np.isin(oqam_phase(m, n), [1, -1, 1j, -1j]))

    def test_quarter_turn_table_is_the_power_bit_for_bit(self):
        # the map reads j^k from a table; its bytes, signed zeros included, are the power's
        powers = np.array([1j ** k for k in range(4)])  # 1j ** 3 is (-0-1j)
        assert txrx._QUARTER_TURNS.tobytes() == powers.tobytes()
        assert np.signbit(txrx._QUARTER_TURNS.real).tolist() == [False, False, True, True]
        m, n = np.arange(-9, 10)[:, None], np.arange(-11, 12)[None, :]
        power_map = np.where((m * n) % 2, -1.0, 1.0) * 1j ** ((m + n) % 4)
        assert oqam_phase(m, n).tobytes() == power_map.tobytes()

    def test_demodulator_conjugates_modulator_phase(self):
        # the demodulator evaluates the modulator's map over a (slot,
        # subcarrier) grid; the vectorised map must match the per-element formula
        slots, bins = np.arange(-5, 7), np.arange(-8, 8)
        table = oqam_phase(bins[None, :], slots[:, None])
        assert table.shape == (len(slots), len(bins))
        for i, n in enumerate(slots.tolist()):
            for j, m in enumerate(bins.tolist()):
                assert table[i, j] == (-1) ** (m * n) * 1j ** ((m + n) % 4)


class TestOqam:
    def test_rejects_complex_data(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            oqam_modulate(cfg, 0, np.ones(2, dtype=complex), (0, 2))

    def test_subcarriers_outside_the_secondary_set_synthesize_alike(self):
        rng = np.random.default_rng(5)
        data = {m: rng.choice([1.0, -1.0], size=4) for m in (3, 20)}
        outside = superpose(oqam_modulate, small_config(secondary_set=frozenset({0})), data,
                            (0, 4))
        inside = superpose(oqam_modulate, small_config(secondary_set=frozenset({3, 20})), data,
                           (0, 4))
        assert outside.samples.tobytes() == inside.samples.tobytes()
        assert outside.origin_index == inside.origin_index

    def test_rejects_odd_m(self):
        cfg = CoexConfig(M=9, cp_ratio=0, incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}))
        with pytest.raises(txrx.ConfigError):
            oqam_modulate(cfg, 0, np.ones(1), (0, 1))
        with pytest.raises(txrx.ConfigError):
            _oqam_demod_slots(cfg, DiscreteSignal(np.zeros(100, dtype=complex), 50), (0, 1),
                              [0])

    def test_single_symbol_envelope_is_pulse(self):
        # m = 0, n = 0: phase 1, so samples are exactly taps / sqrt(M)
        cfg = small_config()
        sig = oqam_modulate(cfg, 0, np.array([1.0]), (0, 1))
        taps = sample_taps(phydyas_k4(), cfg.M)
        assert np.allclose(sig.samples, taps / np.sqrt(cfg.M), rtol=0, atol=1e-15)
        assert sig.start == -2 * cfg.M

    def test_single_symbol_recovered(self):
        cfg = small_config()
        sig = oqam_modulate(cfg, 0, np.array([1.0]), (0, 1))
        rec = _oqam_demod_slots(cfg, sig, (0, 1), [0])[0, 0]
        assert abs(rec - 1.0) < 1e-3

    def test_zero_signal_demodulates_to_zero(self):
        cfg = small_config()
        sig = oqam_modulate(cfg, 0, np.zeros(12), (-4, 8))
        assert np.all(_oqam_demod_slots(cfg, sig, (0, 1), all_subcarriers(cfg)) == 0.0)

    def test_round_trip_floor_below_minus_50db(self):
        cfg = CoexConfig(M=128, cp_ratio=0, incumbent_set=frozenset({0}),
                         secondary_set=frozenset(range(-4, 5)), seed=2)
        rng = np.random.default_rng(8)
        n0, n1 = -8, 48
        data = {m: rng.choice([1.0, -1.0], n1 - n0) * np.sqrt(cfg.var_pam)
                for m in sorted(cfg.secondary_set)}
        sig = superpose(oqam_modulate, cfg, data, (n0, n1))
        subs = sorted(cfg.secondary_set)
        rec = _oqam_demod_slots(cfg, sig, (0, 40), subs)
        sent = np.array([data[m][-n0:40 - n0] for m in subs]).T
        assert np.mean((rec - sent) ** 2) / cfg.var_pam < 1e-5

    def test_single_slot_interference_power_invariant_across_conventions(self, monkeypatch):
        # a lone slot's leaked power is exactly phase-map independent
        # (the map contributes one unimodular factor per slot)
        cfg = CoexConfig(M=64, cp_ratio=Fraction(1, 8), incumbent_set=frozenset(range(-4, 5)),
                         secondary_set=frozenset(range(-2, 3)), seed=3)

        def leaked(m_s, n_s):
            sig = oqam_modulate(cfg, m_s, np.eye(8)[n_s], (0, 8))
            return np.abs(_ofdm_demod_window(cfg, sig, (0, 1), sorted(cfg.incumbent_set))[0]) ** 2

        cases = ((0, 0), (1, 3), (-2, 5))
        standard = [leaked(*c) for c in cases]
        monkeypatch.setattr(txrx, "oqam_phase", floor_phase)
        for case, expect in zip(cases, standard):
            assert np.allclose(leaked(*case), expect, rtol=1e-12, atol=1e-300)


class TestPolyphaseSynthesis:
    @pytest.mark.parametrize("M", [64, 512])
    @pytest.mark.parametrize("subs", ["dc", "edges", "band"])
    @pytest.mark.parametrize("n_range", [(0, 1), (-7, 13)], ids=["one-slot", "odd-negative-n0"])
    def test_matches_loop_reference(self, M, subs, n_range):
        active = {"dc": [0], "edges": [-M // 2, M // 2 - 1, 1, -3],
                  "band": list(range(-25, 26))}[subs]
        cfg = CoexConfig(M=M, incumbent_set=frozenset({0}), secondary_set=frozenset(active))
        rng = np.random.default_rng(M + len(active))
        data = {m: rng.normal(size=n_range[1] - n_range[0]) for m in active}
        sig = superpose(oqam_modulate, cfg, data, n_range)
        ref, origin = loop_oqam_modulate(cfg, data, n_range)
        assert sig.origin_index == origin
        assert len(sig.samples) == len(ref)
        assert np.max(np.abs(sig.samples - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_tap_blocks_are_shared_and_read_only(self):
        # built once per (filter, M) for every modem call, so no caller may write to them
        taps, blocks = txrx._tap_blocks(phydyas_k4(), 64)
        assert txrx._tap_blocks(phydyas_k4(), 64)[1] is blocks
        assert np.array_equal(taps, sample_taps(phydyas_k4(), 64))
        assert np.array_equal(blocks.ravel()[:len(taps)], taps)
        for shared in (taps, blocks):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0

    def test_carrier_blocks_are_shared_read_only_and_keyed_by_m_and_start(self):
        M, filt = 64, phydyas_k4()
        pulse = txrx._tap_blocks(filt, M)[1] / np.sqrt(M)
        built = {}
        for m, start in [(1, 0), (1, M // 2), (3, 0), (3, M // 2), (4, 0), (4, M // 2)]:
            blocks = txrx._carrier_blocks(filt, M, m, start)
            assert txrx._carrier_blocks(filt, M, m, start) is blocks
            with pytest.raises(ValueError, match="read-only"):
                blocks[0, 0] = 0
            p = start + np.arange(pulse.size).reshape(pulse.shape)
            assert np.array_equal(blocks, pulse * np.exp(2j * np.pi * ((m * p) % M) / M))
            built[m, start] = blocks
        # an odd m's carrier changes sign over M/2 samples, an even m's repeats
        distinct = [built[1, 0], built[1, M // 2], built[3, 0], built[3, M // 2], built[4, 0]]
        for i, j in itertools.combinations(range(len(distinct)), 2):
            assert not np.allclose(distinct[i], distinct[j])
        assert np.array_equal(built[4, 0], built[4, M // 2])

    @pytest.mark.parametrize("m", [-3, 0, 1, 6])
    def test_cached_blocks_match_loop_reference_at_both_start_phases(self, m):
        # slot n0's first sample is n0 M/2 - K M/2: 0 mod M for even n0, M/2 for odd.  The
        # cache outlives a call, so the phases alternate and a range comes back
        cfg = CoexConfig(M=64, incumbent_set=frozenset({0}), secondary_set=frozenset({m}))
        rng = np.random.default_rng(m + 10)
        hits = txrx._carrier_blocks.cache_info().hits
        for n_range in [(0, 9), (-7, 4), (2, 30), (5, 6), (0, 9)]:
            data = {m: rng.normal(size=n_range[1] - n_range[0])}
            sig = oqam_modulate(cfg, m, data[m], n_range)
            ref, origin = loop_oqam_modulate(cfg, data, n_range)
            assert sig.origin_index == origin and len(sig.samples) == len(ref)
            assert np.max(np.abs(sig.samples - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert txrx._carrier_blocks.cache_info().hits >= hits + 3

    def test_workspace_amplitudes_are_rewritten(self):
        # the slot amplitudes live in the workspace; its guard zeros are written every call
        cfg = CoexConfig(M=64, incumbent_set=frozenset({0}), secondary_set=frozenset({-3, 2}))
        rng = np.random.default_rng(5)
        ws = txrx._Workspace()
        for m in (-3, 2):
            vec = rng.normal(size=20)
            ws.array("oqam.amps", (1000,))[:] = np.nan
            sig = oqam_modulate(cfg, m, vec, (-7, 13), workspace=ws)
            assert np.array_equal(sig.samples, oqam_modulate(cfg, m, vec, (-7, 13)).samples)

    def test_bytes_do_not_depend_on_blas_threads(self):
        code = ("import hashlib, numpy as np; from coexsim.txrx import CoexConfig, oqam_modulate; "
                "from test_txrx import superpose; "
                "subs = range(-25, 26); rng = np.random.default_rng(7); "
                "cfg = CoexConfig(secondary_set=frozenset(subs)); "
                "data = {m: rng.choice([-1.0, 1.0], 608) for m in subs}; "
                "sig = superpose(oqam_modulate, cfg, data, (-8, 600)); "
                "print(hashlib.sha256(sig.samples.tobytes()).hexdigest())")
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(here.parent / "src"), str(here)])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": path,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            digests.add(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, env=env).stdout)
        assert len(digests) == 1


class TestPolyphaseAnalysis:
    @staticmethod
    def noise_over_support(M, n_range, seed):
        """Complex noise covering exactly the tap support of the slots in n_range."""
        taps = sample_taps(phydyas_k4(), M)
        start = n_range[0] * M // 2 - (len(taps) - 1) // 2
        length = (n_range[1] - n_range[0] - 1) * M // 2 + len(taps)
        rng = np.random.default_rng(seed)
        return DiscreteSignal(rng.normal(size=length) + 1j * rng.normal(size=length), -start)

    @pytest.mark.parametrize("M, n_range, subs", [
        (64, (-7, 13), edge_subcarriers(64)),
        (512, (-7, 13), edge_subcarriers(512)),
        # 149 slots: two full slot blocks and a partial one, from an odd negative n0, on
        # subcarriers in every class m mod 4 (so every (m + n) mod 4 of each slot)
        (64, (-69, 80), edge_subcarriers(64) + [-31, -30, -3, 1, 2, 5]),
    ], ids=["64", "512", "64-partial-blocks"])
    def test_matches_loop_reference(self, M, n_range, subs):
        cfg = CoexConfig(M=M, incumbent_set=frozenset({0}), secondary_set=frozenset({0}))
        sig = self.noise_over_support(M, n_range, M)
        fast = _oqam_demod_slots(cfg, sig, n_range, subs)
        ref = loop_oqam_demod(cfg, sig, n_range, subs)
        assert fast.shape == ref.shape == (n_range[1] - n_range[0], len(subs))
        assert np.max(np.abs(fast - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_columns_equal_single_subcarrier_calls(self):
        cfg = small_config()
        subs = edge_subcarriers(cfg.M) + [5, -3]
        sig = self.noise_over_support(cfg.M, (-3, 6), 2)
        rows = _oqam_demod_slots(cfg, sig, (-3, 6), subs)
        for c, m in enumerate(subs):
            assert np.array_equal(rows[:, c], _oqam_demod_slots(cfg, sig, (-3, 6), [m])[:, 0])
        ofdm = apply_frequency_shift(cfg, superpose(
            ofdm_modulate, cfg, {m: np.ones(4, dtype=complex) for m in (-8, 0, 3)}, (0, 4)), 0.3)
        rows = _ofdm_demod_window(cfg, ofdm, (0, 4), subs)
        for c, m in enumerate(subs):
            single = _ofdm_demod_window(cfg, ofdm, (0, 4), [m])
            assert np.array_equal(rows[:, c], single[:, 0])

    def test_exact_tap_support_suffices(self):
        cfg = small_config()
        sig = self.noise_over_support(cfg.M, (-3, 6), 3)
        assert _oqam_demod_slots(cfg, sig, (-3, 6), [0, 1]).shape == (9, 2)
        short_tail = DiscreteSignal(sig.samples[:-1], sig.origin_index)
        short_head = DiscreteSignal(sig.samples[1:], sig.origin_index - 1)
        for short in (short_tail, short_head):
            with pytest.raises(ValueError):
                _oqam_demod_slots(cfg, short, (-3, 6), [0])


class TestInPlaceReceivers:
    """Both receivers read the burst in place and give the bytes of copying ones."""

    @staticmethod
    def delayed_shifted_ofdm(cfg, n_range, seed):
        rng = np.random.default_rng(seed)
        nsym = n_range[1] - n_range[0]
        data = {m: rng.normal(size=nsym) + 1j * rng.normal(size=nsym) for m in (-3, 0, 5)}
        sig = shift_samples(superpose(ofdm_modulate, cfg, data, n_range), 37)
        return apply_frequency_shift(cfg, sig, 0.3)

    def test_strided_windows_equal_fft_of_gathered_copies(self):
        cfg = small_config()
        sig = self.delayed_shifted_ofdm(cfg, (-3, 9), 12)
        subs = edge_subcarriers(cfg.M) + [5, -3]
        S, M = cfg.symbol_samples, cfg.M
        for n_range in ((-2, 7), (0, 1), (3, 8)):
            rows = _ofdm_demod_window(cfg, sig, n_range, subs)
            # one copied window per row, gathered by fancy indexing
            idx = np.arange(*n_range)[:, None] * S + np.arange(M) + sig.origin_index
            ref = np.fft.fft(sig.samples[idx], axis=-1)[:, np.asarray(subs) % M] / np.sqrt(M)
            assert np.array_equal(rows, ref)

    @pytest.mark.parametrize("M, n_range", [(8, (-5, 60)), (16, (0, 65)), (16, (-33, 96)),
                                            (512, (0, 65)), (512, (3, 132))],
                             ids=["8", "16-65", "16-129", "512-65", "512-129"])
    def test_oqam_equals_zero_padded_fold(self, M, n_range):
        # 65 and 129 slots end on a one-slot block; the signal is exactly the tap support
        cfg = CoexConfig(M=M, cp_ratio=Fraction(1, 8), incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}))
        sig = TestPolyphaseAnalysis.noise_over_support(M, n_range, M + n_range[1])
        subs = sorted({-M // 2, -1, 0, 1, 2, 3, M // 2 - 1})
        assert np.array_equal(_oqam_demod_slots(cfg, sig, n_range, subs),
                              padded_fold_oqam_demod(cfg, sig, n_range, subs))

    @pytest.mark.parametrize("slots", [65, 129])
    def test_oqam_equals_zero_padded_fold_after_frequency_shift(self, slots):
        cfg = CoexConfig(M=512, incumbent_set=frozenset({-3, 0, 5}),
                         secondary_set=frozenset(range(-8, 9)))
        sig = self.delayed_shifted_ofdm(cfg, (-4, slots // 2 + 4), slots)
        subs = sorted(cfg.secondary_set)
        assert np.array_equal(_oqam_demod_slots(cfg, sig, (0, slots), subs),
                              padded_fold_oqam_demod(cfg, sig, (0, slots), subs))

    @pytest.mark.parametrize("M", [8, 10, 16, 64, 512])
    def test_last_tap_block_holds_one_tap(self, M):
        taps, blocks = txrx._tap_blocks(phydyas_k4(), M)
        nb, hop = blocks.shape
        assert len(taps) == (nb - 1) * hop + 1
        assert np.all(blocks[-1, 1:] == 0)

    def test_receivers_leave_the_signal_unchanged(self):
        cfg = small_config()
        sig = self.delayed_shifted_ofdm(cfg, (-4, 12), 21)
        before = sig.samples.copy()
        _ofdm_demod_window(cfg, sig, (0, 9), all_subcarriers(cfg))
        _oqam_demod_slots(cfg, sig, (0, 9), all_subcarriers(cfg))
        assert np.array_equal(sig.samples, before)


class TestReceiverBuffer:
    """The OQAM receiver's ufunc buffer size changes neither its bytes nor its caller's."""

    @pytest.mark.parametrize("M", [64, 512])
    @pytest.mark.parametrize("slots", [1, 64, 65, 257])
    def test_bytes_do_not_depend_on_the_buffer_size(self, monkeypatch, M, slots):
        cfg = CoexConfig(M=M, incumbent_set=frozenset({0}), secondary_set=frozenset({0}))
        n_range = (-5, slots - 5)
        sig = TestPolyphaseAnalysis.noise_over_support(M, n_range, slots)
        subs = edge_subcarriers(M) + [-3, 1, 2, 5]
        small = _oqam_demod_slots(cfg, sig, n_range, subs)
        monkeypatch.setattr(txrx, "_UFUNC_BUFFER", np.getbufsize())
        assert np.array_equal(small, _oqam_demod_slots(cfg, sig, n_range, subs))

    def test_caller_keeps_its_ufunc_buffer_size(self):
        cfg = small_config()
        sig = TestPolyphaseAnalysis.noise_over_support(cfg.M, (0, 200), 7)
        before = np.getbufsize()
        _oqam_demod_slots(cfg, sig, (0, 200), [0, 3])
        assert np.getbufsize() == before != txrx._UFUNC_BUFFER


class TestOfdmBuffer:
    """CP-OFDM synthesis runs its ufuncs under the small buffer, as the OQAM receiver does."""

    @staticmethod
    def burst(subs, nsym, seed):
        rng = np.random.default_rng(seed)
        return {m: rng.normal(size=nsym) + 1j * rng.normal(size=nsym) for m in subs}

    @pytest.mark.parametrize("subs", [[0], [-3, 0, 5]], ids=["one", "three"])
    def test_bytes_do_not_depend_on_the_buffer_size(self, monkeypatch, subs):
        cfg = CoexConfig(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset(subs),
                         secondary_set=frozenset({0}))
        data = self.burst(subs, 260, len(subs))
        small = superpose(ofdm_modulate, cfg, data, (-3, 257)).samples
        monkeypatch.setattr(txrx, "_UFUNC_BUFFER", np.getbufsize())
        assert np.array_equal(small, superpose(ofdm_modulate, cfg, data, (-3, 257)).samples)

    def test_warm_call_allocates_no_iterator_buffer(self):
        # numpy's default buffer made the broadcast product allocate 256 KiB per call
        cfg = CoexConfig(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}))
        vec = self.burst([0], 260, 7)[0]
        ws = txrx._Workspace()
        ofdm_modulate(cfg, 0, vec, (0, 260), workspace=ws)
        tracemalloc.start()
        try:
            ofdm_modulate(cfg, 0, vec, (0, 260), workspace=ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_caller_keeps_its_ufunc_buffer_size(self):
        cfg = small_config()
        before = np.getbufsize()
        ofdm_modulate(cfg, 0, self.burst([0], 3, 1)[0], (0, 3))
        assert np.getbufsize() == before != txrx._UFUNC_BUFFER


class TestLinearity:
    def test_both_receivers_additive(self):
        cfg = small_config()
        rng = np.random.default_rng(4)
        a = ofdm_modulate(cfg, 1, rng.normal(size=2) + 0j, (0, 2))
        b = oqam_modulate(cfg, 0, rng.choice([1.0, -1.0], 12), (-4, 8))
        # overlay on a common span
        start = min(a.start, b.start)
        stop = max(a.stop, b.stop)
        buf_a = np.zeros(stop - start, dtype=complex)
        buf_b = np.zeros(stop - start, dtype=complex)
        buf_a[a.start - start:a.stop - start] = a.samples
        buf_b[b.start - start:b.stop - start] = b.samples
        total = DiscreteSignal(buf_a + buf_b, -start)
        only_a = DiscreteSignal(buf_a, -start)
        only_b = DiscreteSignal(buf_b, -start)
        d_sum = _ofdm_demod_window(cfg, total, (0, 1), [1])[0, 0]
        d_parts = (_ofdm_demod_window(cfg, only_a, (0, 1), [1])[0, 0]
                   + _ofdm_demod_window(cfg, only_b, (0, 1), [1])[0, 0])
        assert d_sum == pytest.approx(d_parts, abs=1e-12)
        q_sum = _oqam_demod_slots(cfg, total, (2, 3), [0])[0, 0]
        q_parts = (_oqam_demod_slots(cfg, only_a, (2, 3), [0])[0, 0]
                   + _oqam_demod_slots(cfg, only_b, (2, 3), [0])[0, 0])
        assert q_sum == pytest.approx(q_parts, abs=1e-12)


class TestFrequencyShift:
    def test_zero_shift_is_identity(self):
        cfg = small_config()
        sig = ofdm_modulate(cfg, 1, np.ones(1, dtype=complex), (0, 1))
        assert np.array_equal(apply_frequency_shift(cfg, sig, 0.0).samples, sig.samples)

    def test_integer_shift_relabels_subcarriers(self):
        cfg = small_config()
        sig = ofdm_modulate(cfg, 3, np.ones(1, dtype=complex), (0, 1))
        shifted = apply_frequency_shift(cfg, sig, 1.0)
        row = _ofdm_demod_window(cfg, shifted, (0, 1), [3, 4])[0]
        assert row[1] == pytest.approx(1.0, abs=1e-12)
        assert abs(row[0]) < 1e-12

    def test_shift_round_trip(self):
        cfg = small_config()
        rng = np.random.default_rng(6)
        sig = ofdm_modulate(cfg, 0, rng.normal(size=2) + 1j * rng.normal(size=2), (0, 2))
        back = apply_frequency_shift(cfg, apply_frequency_shift(cfg, sig, 0.37), -0.37)
        assert np.allclose(back.samples, sig.samples, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delta_f", [0.3, 0.5, -0.25])
    @pytest.mark.parametrize("origin_index, M", [(333, 64), (-70, 64), (333, 512), (-70, 512)],
                             ids=["333", "-70", "333-M512", "-70-M512"])
    def test_block_ramp_matches_direct_exponential(self, origin_index, M, delta_f):
        # the signal starts mid-block, before (333) or after (-70) the time origin; the
        # ramp's M is the config's, as the signal carries no sample rate
        cfg, n = small_config(M=M), 1000
        rng = np.random.default_rng(8)
        sig = DiscreteSignal(rng.normal(size=n) + 1j * rng.normal(size=n), origin_index)
        p = np.arange(n) - origin_index
        direct = sig.samples * np.exp(2j * np.pi * delta_f * p / cfg.M)
        shifted = apply_frequency_shift(cfg, sig, delta_f)
        assert shifted.origin_index == origin_index
        assert np.max(np.abs(shifted.samples - direct)) <= 1e-12 * np.max(np.abs(direct))


class TestSignalPower:
    def test_oqam_mean_power_matches_filter_energy(self):
        # interior mean power of an i.i.d. burst: 2 var E_g / M^2
        cfg = CoexConfig(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}), seed=5)
        rng = np.random.default_rng(9)
        n_slots = 420
        sig = oqam_modulate(cfg, 0, rng.choice([1.0, -1.0], n_slots) * np.sqrt(cfg.var_pam),
                            (0, n_slots))
        taps = sample_taps(phydyas_k4(), cfg.M)
        energy = float(np.dot(taps, taps))
        core = sig.window(2 * cfg.M, (n_slots // 2 - 4) * cfg.M)  # >= 1e5 interior samples
        assert len(core) >= 100_000
        measured = float(np.mean(np.abs(core) ** 2))
        predicted = 2 * cfg.var_pam * energy / cfg.M ** 2
        assert measured == pytest.approx(predicted, rel=0.02)
