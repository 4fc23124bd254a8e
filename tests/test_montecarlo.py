"""Monte-Carlo estimators: determinism, statistics, physics cross-checks.

Sizes here are kept moderate; the full-scale reproduction runs live in the
acceptance suite.
"""

import ast
import itertools
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import coexsim.montecarlo as mc
import coexsim.txrx as txrx
from coexsim.closedform import build_table
from coexsim.filterbank import phydyas_k4
from coexsim.montecarlo import estimate_ofdm_to_ofdm, estimate_ofdm_to_oqam, estimate_oqam_to_ofdm
from coexsim.txrx import CoexConfig, lookup_direction
from test_txrx import floor_phase

# spawn key (3, 0): a substream disjoint from the estimators' tags 0-2
_TAG_FLOOR = 3
S2I, I2S = lookup_direction("s2i"), lookup_direction("i2s")


def s2i_config(**kw):
    base = dict(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset(range(-8, 9)),
                secondary_set=frozenset({0}), seed=100)
    base.update(kw)
    return CoexConfig(**base)


def i2s_config(**kw):
    base = dict(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset({0}),
                secondary_set=frozenset(range(-8, 9)), seed=100)
    base.update(kw)
    return CoexConfig(**base)


@pytest.fixture(scope="module")
def filt():
    return phydyas_k4()


def window_class_estimates(config, n_symbols):
    """s2i estimates of the windows n_i mod 4 = 0, 1, 2, 3, from one pass over the bursts.

    Classes are physical window phases within the burst timeline (256 windows
    per burst, a multiple of 4).
    """
    accs = [mc._MomentSums() for _ in range(4)]

    def add(rows):
        for c, acc in enumerate(accs):
            acc.add(rows[c::4])

    l_values = mc._bursts(config, S2I, n_symbols, add)
    return [mc._finish(acc, S2I, l_values) for acc in accs]


def self_reconstruction_floor(config, n_symbols):
    """Own-signal reconstruction error of an isolated OQAM link.

    Synthesizes a random burst on the secondary subcarriers, recovers the
    n_symbols interior slots, and returns mean((recovered - sent)^2) divided
    by the symbol variance (linear ratio; 10*log10 gives the floor in dB).
    """
    active = sorted(config.secondary_set)
    K = phydyas_k4().overlap_K
    rng = mc._rng(config.seed, _TAG_FLOOR, 0)
    n_lo, n_hi = -2 * K, n_symbols + 2 * K
    data = {m: mc._draw_pam(rng, n_hi - n_lo, config.var_pam) for m in active}
    sig = txrx.oqam_modulate(config, data, (n_lo, n_hi))
    vals = txrx._oqam_demod_slots(config, sig, (0, n_symbols), active)
    sent = np.array([data[m][-n_lo:-n_lo + n_symbols] for m in active]).T
    return float(np.sum((vals - sent) ** 2) / (n_symbols * len(active)) / config.var_pam)


class PoisonedWorkspace(txrx._Workspace):
    """A workspace whose buffers start as NaN: a value not rewritten before use shows."""

    def array(self, name, shape):
        before = self._buffers.get(name)
        out = super().array(name, shape)
        if self._buffers[name] is not before:
            self._buffers[name].fill(np.nan)
        return out


class FreshWorkspace(txrx._Workspace):
    """A workspace that never reuses a buffer: every array is new and starts as NaN."""

    def array(self, name, shape):
        return np.full(shape, np.nan, dtype=complex)


def same_estimate(a, b) -> bool:
    return (np.array_equal(a.l_values, b.l_values) and np.array_equal(a.powers, b.powers)
            and np.array_equal(a.std_errors, b.std_errors))


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = s2i_config()
        a = estimate_oqam_to_ofdm(cfg, 200)
        b = estimate_oqam_to_ofdm(cfg, 200)
        assert same_estimate(a, b)
        assert a.trials == b.trials == 200

    def test_different_seed_differs(self):
        a = estimate_oqam_to_ofdm(s2i_config(), 200)
        b = estimate_oqam_to_ofdm(s2i_config(seed=101), 200)
        assert not same_estimate(a, b)

    def test_o2o_deterministic(self):
        cfg = s2i_config()
        a = estimate_ofdm_to_ofdm(cfg, 128)
        b = estimate_ofdm_to_ofdm(cfg, 128)
        assert same_estimate(a, b)


class TestZeroData:
    def test_s2i_all_zero_symbols_give_zero_power(self, monkeypatch):
        monkeypatch.setattr(mc, "_draw_pam", lambda rng, n, var: np.zeros(n))
        est = estimate_oqam_to_ofdm(s2i_config(), 100)
        assert np.all(est.powers == 0)

    def test_i2s_all_zero_symbols_give_zero_power(self, monkeypatch):
        monkeypatch.setattr(mc, "_draw_qpsk", lambda rng, n, var: np.zeros(n, dtype=complex))
        est = estimate_ofdm_to_oqam(i2s_config(), 100)
        assert np.all(est.powers == 0)


class TestStatistics:
    def test_std_error_scales_with_trials(self):
        # doubling the windows roughly halves the estimator variance
        cfg = s2i_config()
        a = estimate_oqam_to_ofdm(cfg, 512)
        b = estimate_oqam_to_ofdm(cfg, 1024)
        ratios = (b.std_errors ** 2) / (a.std_errors ** 2)
        assert np.mean(ratios) == pytest.approx(0.5, rel=0.2)

    def test_matches_closed_form(self, filt):
        cfg = s2i_config()
        est = estimate_oqam_to_ofdm(cfg, 1500)
        closed = build_table("s2i", est.l_values, cfg, filt)
        assert np.all(np.abs(10 * np.log10(est.powers / closed)) < 0.5)

    def test_i2s_matches_closed_form(self, filt):
        cfg = i2s_config()
        est = estimate_ofdm_to_oqam(cfg, 1500)
        closed = build_table("i2s", est.l_values, cfg, filt)
        assert np.all(np.abs(10 * np.log10(est.powers / closed)) < 0.5)

    def test_phase_convention_leaves_interference_unchanged(self, monkeypatch):
        # expectations agree under a test-only alternative (floor) phase map
        cfg = s2i_config()
        a = estimate_oqam_to_ofdm(cfg, 2000)
        monkeypatch.setattr(txrx, "oqam_phase", floor_phase)
        b = estimate_oqam_to_ofdm(cfg, 2000)
        assert not np.array_equal(a.powers, b.powers)
        for pa, pb in zip(a.powers, b.powers):
            assert abs(10 * np.log10(pa / pb)) < 0.4

    def test_relabeling_subcarriers_at_fixed_l(self):
        # shifting interferer and victims together leaves the physics alone;
        # for the incumbent-victim direction the samples match exactly
        base = estimate_oqam_to_ofdm(s2i_config(), 300)
        shifted = estimate_oqam_to_ofdm(
            s2i_config(incumbent_set=frozenset(range(2, 19)),
                       secondary_set=frozenset({10})), 300)
        # compare entries at common l
        a = {round(l, 9): p for l, p in zip(base.l_values, base.powers)}
        b = {round(l, 9): p for l, p in zip(shifted.l_values, shifted.powers)}
        common = sorted(set(a) & set(b))
        assert len(common) >= 7
        for l in common:
            assert a[l] == pytest.approx(b[l], rel=1e-12)


class TestWindowClasses:
    def test_classes_partition_trials(self):
        cfg = s2i_config()
        full = estimate_oqam_to_ofdm(cfg, 400)
        parts = window_class_estimates(cfg, 400)
        assert [p.trials for p in parts] == [100] * 4
        assert sum(p.trials for p in parts) == full.trials
        # the trial-weighted class means recombine into the full estimate
        pooled = sum(p.trials * p.powers for p in parts) / full.trials
        assert np.allclose(pooled, full.powers, rtol=1e-12, atol=0)

    def test_per_class_means_consistent(self):
        # window-position invariance at MC resolution
        cfg = s2i_config(incumbent_set=frozenset(range(-4, 5)))
        parts = window_class_estimates(cfg, 1200)
        for i in range(4):
            for j in range(i + 1, 4):
                zi = np.abs(parts[i].powers - parts[j].powers) \
                    / np.sqrt(parts[i].std_errors ** 2 + parts[j].std_errors ** 2)
                assert np.max(zi) < 4.0


class TestWorkspace:
    """The estimators reuse one workspace across bursts; no burst may read a stale buffer.

    2 * 256 + 17 windows (slots) make the last s2i and i2s burst shorter than the
    ones before it (and a partial o2o burst).  Every estimate with a reused workspace
    that starts as NaN must equal the one from NaN buffers that are never reused.
    """

    N_SYMBOLS = 2 * 256 + 17

    def assert_reuse_equals_fresh(self, monkeypatch, estimate, cfg):
        monkeypatch.setattr(mc, "_Workspace", PoisonedWorkspace)
        reused = estimate(cfg, self.N_SYMBOLS)
        monkeypatch.setattr(mc, "_Workspace", FreshWorkspace)
        assert same_estimate(reused, estimate(cfg, self.N_SYMBOLS))

    @pytest.mark.parametrize("delta_f", [0.0, 0.3])
    def test_s2i_equals_fresh_calls(self, monkeypatch, delta_f):
        self.assert_reuse_equals_fresh(monkeypatch, estimate_oqam_to_ofdm,
                                       s2i_config(delta_f=delta_f))

    @pytest.mark.parametrize("delta_f", [0.0, 0.3])
    def test_i2s_equals_fresh_calls(self, monkeypatch, delta_f):
        self.assert_reuse_equals_fresh(monkeypatch, estimate_ofdm_to_oqam,
                                       i2s_config(delta_f=delta_f))

    @pytest.mark.parametrize("delta_f", [0.0, 0.3])
    def test_o2o_equals_fresh_calls(self, monkeypatch, delta_f):
        self.assert_reuse_equals_fresh(monkeypatch, estimate_ofdm_to_ofdm,
                                       s2i_config(delta_f=delta_f))

    @staticmethod
    def burst_allocations(cfg, d):
        """Peak bytes allocated by each of 3 bursts, over what the previous one left behind."""
        rises = []

        def add(rows):
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - start[0])
            tracemalloc.reset_peak()
            start[0] = current

        tracemalloc.start()
        try:
            start = [tracemalloc.get_traced_memory()[0]]
            mc._bursts(cfg, d, 3 * d.burst, add)
        finally:
            tracemalloc.stop()
        return rises

    def test_later_s2i_bursts_allocate_no_burst_sized_array(self):
        """OQAM synthesis and the CP-OFDM receiver write into the run's workspace.

        A fresh burst-sized array per burst leaves its pages to the allocator, which
        may give them back to the system and fault them in again at every burst.
        """
        cfg = s2i_config()
        n_lo, n_hi = mc._span(cfg, S2I, S2I.burst, 0)
        signal_bytes = (n_hi - n_lo) * cfg.M // 2 * 16
        rises = self.burst_allocations(cfg, S2I)
        assert rises[0] > signal_bytes  # the first burst sizes the workspace
        assert max(rises[1:]) < signal_bytes / 4

    def test_later_i2s_bursts_allocate_less_than_one_spectrum_block(self):
        """The OQAM receiver's spectra and CP-OFDM synthesis write into the run's workspace.

        A later burst may allocate its small per-call arrays, but not one 64-slot block
        of receiver spectra (512 KiB at M = 512).
        """
        cfg = i2s_config()
        n_lo, n_hi = mc._span(cfg, I2S, I2S.burst, 0)
        rises = self.burst_allocations(cfg, I2S)
        assert rises[0] > (n_hi - n_lo) * cfg.symbol_samples * 16  # it sizes the workspace
        assert max(rises[1:]) < txrx._DEMOD_BLOCK * cfg.M * 16

    def test_shared_ofdm_modulate_equals_fresh(self):
        """The first subcarrier is written into the signal buffer, later ones added to it."""
        cfg = CoexConfig(incumbent_set=frozenset({-7, 0, 3}), secondary_set=frozenset({0}))
        rng = np.random.default_rng(6)
        ws = PoisonedWorkspace()
        for nsym, subs in ((40, (-7, 0, 3)), (9, (0,)), (5, (0, 3)), (3, ())):
            data = {m: rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym) for m in subs}
            shared = txrx.ofdm_modulate(cfg, data, (-1, nsym - 1), workspace=ws)
            fresh = txrx.ofdm_modulate(cfg, data, (-1, nsym - 1))
            assert (shared.start, shared.stop) == (fresh.start, fresh.stop)
            assert np.array_equal(shared.samples, fresh.samples)

    def test_shared_oqam_demod_equals_fresh(self):
        cfg = i2s_config()
        rng = np.random.default_rng(5)
        victims = sorted(cfg.secondary_set)
        ws = PoisonedWorkspace()
        # each call after the first reads less of every buffer; 65 slots end on a
        # one-slot block after a full one
        for size in (256, 65, 17):
            n_lo, n_hi = mc._span(cfg, I2S, size, 0)
            data = {0: rng.standard_normal(n_hi - n_lo) + 1j * rng.standard_normal(n_hi - n_lo)}
            sig = txrx.ofdm_modulate(cfg, data, (n_lo, n_hi))
            shared = txrx._oqam_demod_slots(cfg, sig, (0, size), victims, workspace=ws)
            assert np.array_equal(shared, txrx._oqam_demod_slots(cfg, sig, (0, size), victims))


def symbol_extent(config, waveform):
    """(first, last, step): sent symbol n covers n step + [first, last], read off its modulator."""
    cfg = replace(config, incumbent_set=frozenset({0}), secondary_set=frozenset({0}))
    if waveform == "oqam":
        sigs = [txrx.oqam_modulate(cfg, {0: np.ones(1)}, (n, n + 1)) for n in (0, 1)]
    else:
        sigs = [txrx.ofdm_modulate(cfg, {0: np.ones(1, dtype=complex)}, (n, n + 1))
                for n in (0, 1)]
    return sigs[0].start, sigs[0].stop - 1, sigs[1].start - sigs[0].start


@pytest.fixture
def window_reads(monkeypatch):
    """The sample ranges [p0, p0 + length - 1] that DiscreteSignal.window is asked for."""
    reads = []
    window = txrx.DiscreteSignal.window

    def recorded(signal, p0, length):
        reads.append((p0, p0 + length - 1))
        return window(signal, p0, length)

    monkeypatch.setattr(txrx.DiscreteSignal, "window", recorded)
    return reads


class TestSpans:
    """Each burst synthesizes exactly the interferer symbols that reach its victim samples."""

    @pytest.mark.parametrize("cp", [0, Fraction(1, 8), Fraction(7, 16)])
    @pytest.mark.parametrize("M", [16, 512])
    def test_extent_is_what_the_modems_use(self, window_reads, M, cp):
        cfg = CoexConfig(M=M, cp_ratio=cp, incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}))
        for waveform in ("oqam", "ofdm"):
            assert txrx._extent(cfg, waveform) == symbol_extent(cfg, waveform)
        # each receiver, asked for symbol 1 alone, reads exactly its received extent
        sig = txrx.ofdm_modulate(cfg, {0: np.ones(3, dtype=complex)}, (0, 3))
        txrx._ofdm_demod_window(cfg, sig, (1, 2), [0])
        sig = txrx.oqam_modulate(cfg, {0: np.ones(3)}, (0, 3))
        txrx._oqam_demod_slots(cfg, sig, (1, 2), [0])
        extents = [txrx._extent(cfg, w, received=True) for w in ("ofdm", "oqam")]
        assert window_reads == [(step + first, step + last) for first, last, step in extents]
        assert extents[0] == (0, M - 1, cfg.symbol_samples)

    def test_montecarlo_leaves_the_geometry_to_txrx(self):
        # sample extents are txrx._extent's: montecarlo reads no filter length or prefix
        tree = ast.parse(Path(mc.__file__).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert not any("filterbank" in (name or "") for name in imported)
        attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not attributes & {"overlap_K", "cp_samples"}

    def test_reach_matches_enumeration(self):
        for step, first, lo in itertools.product(range(1, 6), range(-4, 4), range(-5, 4)):
            for last, hi in itertools.product(range(first, first + 7), range(lo, lo + 7)):
                meets = [n for n in range(-20, 20)
                         if n * step + first <= hi and n * step + last >= lo]
                n0, n1 = mc._reach(first, last, lo, hi, step)
                assert list(range(n0, n1)) == meets, (first, last, lo, hi, step)

    @pytest.mark.parametrize("cp", [0, Fraction(1, 8), Fraction(7, 16)])
    @pytest.mark.parametrize("M", [16, 512])
    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_span_is_exact(self, window_reads, direction, M, cp):
        d = lookup_direction(direction)
        cfg = CoexConfig(M=M, cp_ratio=cp, incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}))
        first, last, step = symbol_extent(cfg, d.interferer)
        for size, off in itertools.product((1, 17, 256), (0, cfg.symbol_samples - 1)):
            if off and not d.offset:
                continue
            n0, n1 = mc._span(cfg, d, size, off)
            data = {0: np.zeros(n1 - n0)}
            if d.interferer == "oqam":
                sig = txrx.oqam_modulate(cfg, data, (n0, n1))
            else:
                sig = txrx.ofdm_modulate(cfg, data, (n0, n1))
            sig = txrx.shift_samples(sig, off)
            # the receiver reads the victim samples [lo, hi] and raises if they leave sig
            if d.victim == "oqam":
                txrx._oqam_demod_slots(cfg, sig, (0, size), [0])
            else:
                txrx._ofdm_demod_window(cfg, sig, (0, size), [0])
            lo, hi = window_reads.pop()
            n = np.arange(n0 - 1, n1 + 1)
            meets = (n * step + first + off <= hi) & (n * step + last + off >= lo)
            assert meets[1:-1].all() and not meets[0] and not meets[-1], (size, off)


class TestOfdmToOfdm:
    def test_uniform_offsets_track_reference_gap(self, filt):
        cfg = s2i_config()
        est = estimate_ofdm_to_ofdm(cfg, 2048)
        gap = 10 * np.log10(est.powers / build_table("s2i", est.l_values, cfg, filt))
        assert np.all(gap < 4.5)  # acceptance runs the tight bound at full scale


class TestSelfReconstruction:
    def test_floor_below_minus_50_db(self):
        cfg = CoexConfig(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset({0}),
                         secondary_set=frozenset(range(-3, 4)), seed=17)
        ratio = self_reconstruction_floor(cfg, 120)
        assert 10 * np.log10(ratio) < -50.0

    def test_frozen_regression_value(self):
        # measured once at the reference scale and frozen
        cfg = CoexConfig(M=512, cp_ratio=Fraction(1, 8), incumbent_set=frozenset({0}),
                         secondary_set=frozenset(range(-3, 4)), seed=17)
        assert self_reconstruction_floor(cfg, 120) == pytest.approx(2.5478322759e-07, rel=1e-6)

    def test_zero_burst_zero_error(self, monkeypatch):
        monkeypatch.setattr(mc, "_draw_pam", lambda rng, n, var: np.zeros(n))
        cfg = CoexConfig(M=128, cp_ratio=0, incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}), seed=1)
        assert self_reconstruction_floor(cfg, 50) == 0.0


class TestValidation:
    def test_single_interferer_required(self):
        cfg = s2i_config(secondary_set=frozenset({0, 1}))
        with pytest.raises(ValueError):
            estimate_oqam_to_ofdm(cfg, 100)

    def test_positive_symbol_count_required(self):
        with pytest.raises(ValueError):
            estimate_oqam_to_ofdm(s2i_config(), 0)
        with pytest.raises(ValueError):
            self_reconstruction_floor(s2i_config(), 0)

