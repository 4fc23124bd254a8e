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
from test_txrx import K3, floor_phase, superpose

_WORD = (1 << 64) - 1
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

    mc._bursts(config, S2I, mc._roles(config, S2I), n_symbols, add)
    l_values = mc.l_values(config, "s2i", n_symbols)
    return [mc.McEstimate(l_values, acc.mean(), acc.std_error(), acc.count) for acc in accs]


def pam_words(rng, n):
    """Words whose bits 0 .. n-1 are set where rng.choice([1.0, -1.0], size=n) is negative."""
    bits = np.packbits(rng.choice([1.0, -1.0], size=n) < 0, bitorder="little")
    return np.pad(bits, (0, -len(bits) % 8)).view("<u8")


def self_reconstruction_floor(config, n_symbols):
    """Own-signal reconstruction error of an isolated OQAM link.

    Synthesizes a random burst on the secondary subcarriers, recovers the
    n_symbols interior slots, and returns mean((recovered - sent)^2) divided
    by the symbol variance (linear ratio; 10*log10 gives the floor in dB).
    """
    active = sorted(config.secondary_set)
    K = phydyas_k4().overlap_K
    # numpy's generator, not the estimators' Philox: the frozen value below predates it
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(3, 0)))
    n_lo, n_hi = -2 * K, n_symbols + 2 * K
    data = {m: mc._draw_pam(pam_words(rng, n_hi - n_lo), n_hi - n_lo, config.var_pam)
            for m in active}
    sig = superpose(txrx.oqam_modulate, config, data, (n_lo, n_hi))
    vals = txrx._oqam_demod_slots(config, sig, (0, n_symbols), active).real
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
        closed = build_table("s2i", est.l_values, cfg)
        assert np.all(np.abs(10 * np.log10(est.powers / closed)) < 0.5)

    def test_i2s_matches_closed_form(self, filt):
        cfg = i2s_config()
        est = estimate_ofdm_to_oqam(cfg, 1500)
        closed = build_table("i2s", est.l_values, cfg)
        assert np.all(np.abs(10 * np.log10(est.powers / closed)) < 0.5)

    @pytest.mark.parametrize("direction", ["s2i", "i2s"])
    def test_k3_filter_matches_its_closed_form(self, direction):
        # the modems and the closed form read the one filter of the config
        band = frozenset(range(-20, 21))
        if direction == "s2i":
            cfg = s2i_config(incumbent_set=band, filt=K3)
        else:
            cfg = i2s_config(secondary_set=band, filt=K3)
        est = mc._estimate(cfg, direction, 10 ** 4)
        closed = build_table(direction, est.l_values, cfg)
        near = closed >= 1e-6 * closed.max()  # within 60 dB of the peak
        assert np.all(np.abs(10 * np.log10(est.powers / closed))[near] < 0.5)

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


def exact_mean(column):
    """The mean of the doubles column, summed exactly and rounded once."""
    return float(sum(Fraction(x) for x in column.tolist()) / len(column))


def exact_std_error(column):
    """sqrt(sum((x - mean)^2) / (n - 1) / n) of the doubles column, summed exactly."""
    q = [Fraction(x) for x in column.tolist()]
    mean = sum(q) / len(q)
    return float(np.sqrt(float(sum((x - mean) ** 2 for x in q) / (len(q) - 1) / len(q))))


class TestMomentSums:
    @pytest.mark.parametrize("case", ["ulps apart", "far from zero", "all zero", "single row"])
    def test_std_error_is_the_rows_own_spread(self, case):
        # an o2o burst whose windows each meet one constant-modulus symbol has powers equal
        # but for rounding (cp 7/16, 17 windows): unshifted, the sum of squares less its
        # mean term cancelled to its own rounding, 0 or sqrt(eps) of the mean.  The mean,
        # the origin plus the mean deviation, is the exact mean within rounding
        x = 2.84124657475236383e-04
        if case == "ulps apart":
            ulps = np.array([0, 1, -1, 0, 2, 0, -1, 1, 0, 0, -2, 1, 0, 0, 1, -1, 0])
            rows = (x + ulps * np.spacing(x))[:, None]
        elif case == "far from zero":
            rows = 1e3 + 1e-3 * np.sin(np.arange(40.0))[:, None]
        elif case == "all zero":
            rows = np.zeros((17, 1))
        else:
            rows = np.array([[x]])
        mean = exact_mean(rows[:, 0])
        error = exact_std_error(rows[:, 0]) if len(rows) > 1 else 0.0
        acc = mc._MomentSums()
        for part in np.split(rows.copy(), [9] if len(rows) > 1 else []):  # add overwrites it
            acc.add(part)
        assert acc.count == len(rows)
        # abs=0: an exact 0 (all zero, a single row) must come out exactly 0
        assert acc.mean()[0] == pytest.approx(mean, rel=1e-15, abs=0)
        assert acc.std_error()[0] == pytest.approx(error, rel=1e-9, abs=0)


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
    def burst_allocations(monkeypatch, cfg, d):
        """Peak bytes allocated by each of 3 bursts, over what the previous one left behind,
        and the response tables the run built."""
        rises, tables = [], []
        responses = mc._responses

        def built(*args):
            table, index = responses(*args)
            tables.append(table)
            return table, index

        def add(rows):
            current, peak = tracemalloc.get_traced_memory()
            rises.append(peak - start[0])
            tracemalloc.reset_peak()
            start[0] = current

        monkeypatch.setattr(mc, "_responses", built)
        tracemalloc.start()
        try:
            start = [tracemalloc.get_traced_memory()[0]]
            mc._bursts(cfg, d, mc._roles(cfg, d), 3 * d.burst, add)
        finally:
            tracemalloc.stop()
        return rises, tables

    def test_later_s2i_bursts_allocate_no_burst_sized_array(self, monkeypatch):
        """The first burst builds the run's one response table; later bursts reuse it, and the
        product writes into the run's workspace.

        A fresh burst-sized array per burst leaves its pages to the allocator, which
        may give them back to the system and fault them in again at every burst.
        """
        cfg = s2i_config()
        n_lo, n_hi = mc._span(cfg, S2I, S2I.burst, 0)
        signal_bytes = (n_hi - n_lo) * cfg.M // 2 * 16
        rises, tables = self.burst_allocations(monkeypatch, cfg, S2I)
        assert len(tables) == 1 and rises[0] > tables[0].nbytes  # built by the first burst
        assert max(rises[1:]) < signal_bytes / 4

    def test_later_i2s_bursts_allocate_less_than_one_spectrum_block(self, monkeypatch):
        """The first burst builds the run's one response table; later bursts run no receiver.

        A later burst may allocate its small per-burst arrays, but not one 64-slot block
        of receiver spectra (512 KiB at M = 512).
        """
        cfg = i2s_config()
        rises, tables = self.burst_allocations(monkeypatch, cfg, I2S)
        assert len(tables) == 1 and rises[0] > tables[0].nbytes  # built by the first burst
        assert max(rises[1:]) < txrx._DEMOD_BLOCK * cfg.M * 16

    def test_shared_ofdm_modulate_equals_fresh(self):
        """Each call writes all of the signal buffer it returns, the first one and shorter ones."""
        cfg = CoexConfig(incumbent_set=frozenset({-7, 0, 3}), secondary_set=frozenset({0}))
        rng = np.random.default_rng(6)
        ws = PoisonedWorkspace()
        for nsym, m in ((40, -7), (9, 0), (5, 3), (3, 0)):
            vec = rng.standard_normal(nsym) + 1j * rng.standard_normal(nsym)
            shared = txrx.ofdm_modulate(cfg, m, vec, (-1, nsym - 1), workspace=ws)
            fresh = txrx.ofdm_modulate(cfg, m, vec, (-1, nsym - 1))
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
            vec = rng.standard_normal(n_hi - n_lo) + 1j * rng.standard_normal(n_hi - n_lo)
            sig = txrx.ofdm_modulate(cfg, 0, vec, (n_lo, n_hi))
            shared = txrx._oqam_demod_slots(cfg, sig, (0, size), victims, workspace=ws)
            assert np.array_equal(shared, txrx._oqam_demod_slots(cfg, sig, (0, size), victims))


def symbol_extent(config, waveform):
    """(first, last, step): sent symbol n covers n step + [first, last], read off its modulator."""
    cfg = replace(config, incumbent_set=frozenset({0}), secondary_set=frozenset({0}))
    if waveform == "oqam":
        sigs = [txrx.oqam_modulate(cfg, 0, np.ones(1), (n, n + 1)) for n in (0, 1)]
    else:
        sigs = [txrx.ofdm_modulate(cfg, 0, np.ones(1, dtype=complex), (n, n + 1)) for n in (0, 1)]
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
        sig = txrx.ofdm_modulate(cfg, 0, np.ones(3, dtype=complex), (0, 3))
        txrx._ofdm_demod_window(cfg, sig, (1, 2), [0])
        sig = txrx.oqam_modulate(cfg, 0, np.ones(3), (0, 3))
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
            modulate = txrx.oqam_modulate if d.interferer == "oqam" else txrx.ofdm_modulate
            sig = modulate(cfg, 0, np.zeros(n1 - n0), (n0, n1))
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
        gap = 10 * np.log10(est.powers / build_table("s2i", est.l_values, cfg))
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


class TestLValues:
    @pytest.mark.parametrize("delta_f", [0.0, 0.3])
    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_are_the_estimates_in_ascending_order(self, direction, delta_f):
        # known before any burst, and ascending: _roles puts the victims in descending order
        victims = frozenset({-9, -2, 0, 4})
        if direction == "i2s":
            cfg, shift = i2s_config(secondary_set=victims, delta_f=delta_f), -delta_f
        else:
            cfg, shift = s2i_config(incumbent_set=victims, delta_f=delta_f), delta_f
        l_values = mc.l_values(cfg, direction, 40)
        assert np.all(np.diff(l_values) > 0)
        assert l_values.tobytes() == mc._estimate(cfg, direction, 40).l_values.tobytes()
        assert l_values.tolist() == sorted(0 + shift - v for v in victims)

    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_roles_are_decided_once_per_estimate(self, monkeypatch, direction):
        # the bursts and the l values take the same roles
        roles, calls = mc._roles, []

        def spy(*args):
            calls.append(args)
            return roles(*args)

        monkeypatch.setattr(mc, "_roles", spy)
        cfg = i2s_config() if direction == "i2s" else s2i_config()
        est = mc._estimate(cfg, direction, 40)
        assert len(calls) == 1
        assert est.l_values.tobytes() == mc.l_values(cfg, direction, 40).tobytes()


class TestBurstPlan:
    def test_memory_does_not_grow_with_the_window_count(self, monkeypatch):
        # 10^6 o2o windows are 31,250 bursts: built all at once, their generators took about
        # 30 MB before the first burst ran
        class FirstBurst(Exception):
            pass

        def modulate(*args, **kwargs):
            raise FirstBurst

        monkeypatch.setattr(mc, "ofdm_modulate", modulate)
        tracemalloc.start()
        try:
            with pytest.raises(FirstBurst):
                estimate_ofdm_to_ofdm(s2i_config(), 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    @pytest.mark.parametrize("chunk", [1, 2, 4])
    def test_chunk_size_leaves_the_estimate_unchanged(self, monkeypatch, chunk):
        # 5 bursts in each direction, the last one short: chunks of 1, 2 and 4 end on every burst
        runs = [((i2s_config if d.name == "i2s" else s2i_config)(delta_f=0.3), d.name,
                 4 * d.burst + 5) for d in txrx.DIRECTIONS]
        whole = [mc._estimate(*run) for run in runs]
        monkeypatch.setattr(mc, "_RNG_CHUNK", chunk)
        for run, estimate in zip(runs, whole):
            assert same_estimate(estimate, mc._estimate(*run)), run[1]

    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_responses_are_built_once_per_run_or_per_offset(self, monkeypatch, direction):
        # s2i and i2s bursts share one geometry, so one table serves the run; each o2o burst
        # draws its own offset.  A table modulates one comb per class of r mod gcd(moved,
        # width), moved the symbols in one interferer pattern: 4 OQAM slots against s2i's
        # width of 10 make 2 classes; a CP-OFDM interferer moves one symbol, so 1 class
        d = lookup_direction(direction)
        cfg = (i2s_config if direction == "i2s" else s2i_config)(delta_f=0.3)
        calls, widths, offsets, responses = [], [], [], mc._responses
        modulate = mc.oqam_modulate if d.interferer == "oqam" else mc.ofdm_modulate

        def built(*args):
            table, index = responses(*args)
            widths.append(index.shape[1])
            offsets.append(args[4])
            return table, index

        def counted(*args, **kwargs):
            calls.append(args[2].copy())
            return modulate(*args, **kwargs)

        monkeypatch.setattr(mc, "_responses", built)
        monkeypatch.setattr(mc, "oqam_modulate" if d.interferer == "oqam" else "ofdm_modulate",
                            counted)
        mc._estimate(cfg, direction, 4 * d.burst + 5)
        assert len(widths) == (5 if d.offset else 1)
        # a table is as wide as the most symbols a window meets: an o2o window reads samples
        # [0, M), and symbol n, delayed by off, covers n S + off + [-L, M)
        M, L, S = cfg.M, cfg.cp_samples, cfg.symbol_samples
        meets = [sum(-M < n * S + off < M + L for n in range(-2, 3)) for off in offsets]
        assert widths == ({"s2i": [10], "i2s": [5]}[direction] if not d.offset else meets)
        classes = 2 if direction == "s2i" else 1
        assert len(calls) == classes * len(widths)
        # a class's comb: unit symbols every width-th; a table's classes are residues c, c + 1
        for c, (units, width) in enumerate(zip(calls, np.repeat(widths, classes))):
            ones = np.flatnonzero(units)
            assert np.all((units == 0) | (units == 1)) and np.all(np.diff(ones) == width)
            assert ones[0] < width and len(ones) == -(-(len(units) - ones[0]) // width)
            if c % classes:
                assert (ones[0] - np.flatnonzero(calls[c - 1])[0]) % width == 1

    def test_ten_thousand_windows_take_one_chunk(self):
        for d in (S2I, I2S):
            assert mc._burst_count(s2i_config(), d, 10_000) <= mc._RNG_CHUNK


def full_burst_rows(config, d, n_symbols):
    """Test-only reference: each burst's detected rows from the whole chain, burst by burst.

    Synthesizes every burst's Philox symbols with the public modulators, delays and shifts
    the signal, and demodulates and detects every window of the burst.
    """
    m, victims, shift = mc._roles(config, d)
    n_bursts = mc._burst_count(config, d, n_symbols)
    out = []
    for b, words in enumerate(mc._burst_words(config, d, n_symbols, 0, n_bursts)):
        size = min(d.burst, n_symbols - b * d.burst)
        off = 0
        if d.offset:
            off, words = mc._draw_offset(int(words[0]), config.symbol_samples), words[1:]
        n_lo, n_hi = mc._span(config, d, size, off)
        if d.interferer == "oqam":
            symbols = mc._draw_pam(words, n_hi - n_lo, config.var_pam)
            sig = txrx.oqam_modulate(config, m, symbols, (n_lo, n_hi))
        else:
            symbols = mc._draw_qpsk(words, n_hi - n_lo, config.var_qam)
            sig = txrx.ofdm_modulate(config, m, symbols, (n_lo, n_hi))
        sig = txrx.apply_frequency_shift(config, txrx.shift_samples(sig, off), shift)
        if d.victim == "oqam":
            out.append(txrx._oqam_demod_slots(config, sig, (0, size), victims).real ** 2)
        else:
            out.append(np.abs(txrx._ofdm_demod_window(config, sig, (0, size), victims)) ** 2)
    return out


class TestSuperposition:
    """The bursts' rows, one product of their symbols with the unit responses, are the rows
    of the whole link-level chain run on every burst.

    2 * 256 + 17 windows end on a short burst; cp 511/512 has a period (lcm of 2M and
    the CP-OFDM symbol) of 1,024 windows, longer than a burst.
    """

    N_SYMBOLS = 2 * 256 + 17

    @pytest.mark.parametrize("filt", [phydyas_k4(), K3], ids=["K4", "K3"])
    @pytest.mark.parametrize("delta_f", [0.0, 0.3])
    @pytest.mark.parametrize("cp", [0, Fraction(1, 8), Fraction(7, 16), Fraction(511, 512)],
                             ids=["cp0", "cp1_8", "cp7_16", "cp511_512"])
    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_rows_equal_the_full_burst_chain(self, direction, cp, delta_f, filt):
        d = lookup_direction(direction)
        cfg = (i2s_config if direction == "i2s" else s2i_config)(cp_ratio=cp, delta_f=delta_f,
                                                                 filt=filt)
        rows = []
        mc._bursts(cfg, d, mc._roles(cfg, d), self.N_SYMBOLS, lambda r: rows.append(r.copy()))
        reference = full_burst_rows(cfg, d, self.N_SYMBOLS)
        assert [len(r) for r in rows] == [len(r) for r in reference]
        rows, reference = np.concatenate(rows), np.concatenate(reference)
        error = np.max(np.abs(rows - reference), axis=0)
        assert np.all(error <= 1e-12 * np.max(reference, axis=0))


def explicit_philox(key, counter):
    """Philox4x64-10 of one counter on Python ints, as Random123 writes it."""
    multipliers = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
    increments = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
    c, k = list(counter), [key & _WORD, key >> 64]
    for _ in range(10):
        p0, p1 = multipliers[0] * c[0], multipliers[1] * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k[0], p1 & _WORD, (p0 >> 64) ^ c[3] ^ k[1], p0 & _WORD]
        k = [(k[0] + increments[0]) & _WORD, (k[1] + increments[1]) & _WORD]
    return c


class TestPhilox:
    KEYS = [0, 1, (1 << 128) - 1]
    # all-ones words carry through every 32-bit limb of the high-word products
    COUNTERS = [(0, 0, 0, 0), (_WORD,) * 4, (_WORD, 0, _WORD, 0), (0, _WORD, 0, _WORD),
                (3, 17, 2, 0), (_WORD, 5, 1, 0)]

    @pytest.mark.parametrize("key", KEYS, ids=["0", "1", "2^128-1"])
    def test_equals_numpy_philox(self, key):
        # numpy increments its counter before it generates: counter c - 1 yields block c
        got = mc._philox(key, np.array(self.COUNTERS, dtype=np.uint64).T)
        for words, counter in zip(got, self.COUNTERS):
            c = sum(w << 64 * i for i, w in enumerate(counter))
            reference = np.random.Philox(key=key, counter=(c - 1) % (1 << 256)).random_raw(4)
            assert words.tolist() == reference.tolist() == explicit_philox(key, counter)

    def test_counter_shape_is_kept(self):
        counter = np.arange(4 * 6, dtype=np.uint64).reshape(4, 2, 3)
        got = mc._philox(7, counter)
        assert got.shape == (2, 3, 4)
        assert got[1, 2].tolist() == explicit_philox(7, counter[:, 1, 2].tolist())

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    def test_signs_are_the_bits_of_the_words(self, n):
        words = np.array([0x8000000000000001, 0x0123456789ABCDEF, _WORD, 0x5555000000000000],
                         dtype=np.uint64)
        bits = [int(words[i // 64]) >> (i % 64) & 1 for i in range(n)]
        assert mc._draw_pam(words, n, 4.0).tolist() == [-2.0 if b else 2.0 for b in bits]
        half = n // 2
        qpsk = mc._draw_qpsk(words, half, 2.0)
        signs = [-1.0 if b else 1.0 for b in bits[:2 * half]]
        assert qpsk.tolist() == [complex(re, im) for re, im in zip(signs[:half], signs[half:])]

    def test_signs_do_not_depend_on_the_byte_order(self):
        words = np.array([0x0123456789ABCDEF], dtype=np.uint64)
        assert np.array_equal(mc._draw_pam(words, 64, 1.0),
                              mc._draw_pam(words.astype(">u8"), 64, 1.0))

    def test_offsets_cover_the_range_in_order(self):
        S = 576
        edges = [mc._draw_offset(w, S) for w in (0, (1 << 64) // S - 1, -(-(1 << 64) // S),
                                                   _WORD)]
        assert edges == [0, 0, 1, S - 1]

    @pytest.mark.parametrize("cp", [0, Fraction(1, 8), Fraction(7, 16)])
    def test_o2o_rows_hold_the_signs_at_every_offset(self, cp):
        cfg = s2i_config(M=16, cp_ratio=cp, incumbent_set=frozenset({0}))
        d = lookup_direction("o2o")
        rows = mc._burst_words(cfg, d, 3 * d.burst + 1, 0, 4)
        assert rows.shape[0] == 4
        spans = (mc._span(cfg, d, d.burst, off) for off in range(cfg.symbol_samples))
        # the first word is the offset's, then two signs per QPSK symbol
        assert 64 * (rows.shape[1] - 1) >= max(2 * (n_hi - n_lo) for n_lo, n_hi in spans)

    @pytest.mark.parametrize("direction", ["s2i", "o2o"])
    def test_block_j_of_burst_b_is_the_cipher_of_j_b_tag(self, direction):
        d, cfg = lookup_direction(direction), s2i_config(seed=(1 << 100) + 7)
        rows = mc._burst_words(cfg, d, 3 * d.burst, 1, 3)
        for b, row in zip((1, 2), rows):
            blocks = [explicit_philox(cfg.seed, (j, b, d.tag, 0)) for j in range(len(row) // 4)]
            assert row.tolist() == sum(blocks, [])

    def test_a_burst_s_words_do_not_depend_on_its_chunk(self):
        cfg = s2i_config()
        whole = mc._burst_words(cfg, S2I, 4 * 256 + 5, 0, 5)
        for b in range(5):
            alone = mc._burst_words(cfg, S2I, 4 * 256 + 5, b, b + 1)[0]
            assert np.array_equal(whole[b, :len(alone)], alone)


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

    @pytest.mark.parametrize("estimate", [estimate_oqam_to_ofdm, estimate_ofdm_to_oqam,
                                          estimate_ofdm_to_ofdm], ids=["s2i", "i2s", "o2o"])
    def test_oversize_m_rejected_before_any_array(self, estimate):
        # CoexConfig takes any M >= 8; a burst of one window at M = 10^30 is measured, not built
        cfg = CoexConfig(M=10 ** 30, incumbent_set=frozenset({0}), secondary_set=frozenset({0}))
        with pytest.raises(txrx.ConfigError, match=rf"^M = {10 ** 30}: a burst spans \d+ > "
                                                   rf"{mc._MAX_BURST_SAMPLES} samples$"):
            estimate(cfg, 1)

    def test_no_run_takes_a_set_at_the_entry_cap(self):
        # txrx.MAX_SET_ENTRIES: a set that large needs M at least that large, and then even
        # one window's burst is over the burst cap, in every direction and at cp = 0
        cfg = CoexConfig(M=txrx.MAX_SET_ENTRIES, cp_ratio=0, incumbent_set=frozenset({0}),
                         secondary_set=frozenset({0}))
        for d in txrx.DIRECTIONS:
            with pytest.raises(txrx.ConfigError, match="a burst spans"):
                mc._burst_count(cfg, d, 1)

    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_burst_cap_is_inclusive(self, monkeypatch, direction):
        # a burst of exactly _MAX_BURST_SAMPLES samples runs; one sample more is refused
        d, cfg = lookup_direction(direction), s2i_config()
        first, last, step = txrx._extent(cfg, d.interferer)
        span = d.burst * cfg.symbol_samples + 2 * (last - first + step)
        monkeypatch.setattr(mc, "_MAX_BURST_SAMPLES", span)
        assert mc._burst_count(cfg, d, 3 * d.burst) == 3
        monkeypatch.setattr(mc, "_MAX_BURST_SAMPLES", span - 1)
        with pytest.raises(txrx.ConfigError, match=rf"a burst spans {span} > {span - 1} samples"):
            mc._burst_count(cfg, d, 3 * d.burst)
