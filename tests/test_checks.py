"""Verification battery: result types, the Parseval tail model and its strictness."""

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coexsim import checks, closedform
from coexsim.checks import (
    _parseval_estimates,
    check_decay_envelope,
    check_frequency_response_vs_dft,
    check_oracle_equivalence,
    check_parseval,
    check_reciprocity,
    check_symmetry,
    run_all_checks,
)
from coexsim.filterbank import PrototypeFilter, evaluate_g, phydyas_k4
from coexsim.oracle import oracle_parseval_constant

FILT = phydyas_k4()


@pytest.fixture
def drop_outermost_shift(monkeypatch):
    """Call it to drop the outermost shift, the largest, from each direction's lattice.

    The forms are cached per (filter, prefix), so a warm entry would hide the fault: the
    cache is cleared when the fault is applied and again after the test.
    """
    def apply():
        lattice = closedform._lattice

        def dropped(*args):
            *geometry, taus = lattice(*args)
            return *geometry, taus[:-1]
        monkeypatch.setattr(closedform, "_lattice", dropped)
        closedform._forms.cache_clear()
    yield apply
    monkeypatch.undo()
    closedform._forms.cache_clear()


def test_results_are_json_serialisable():
    results = run_all_checks(FILT, Fraction(1, 8))
    assert len(results) == 8
    assert all(type(r.passed) is bool for r in results)
    json.dumps([vars(r) for r in results])


def test_pass_bounds_are_pinned():
    # the battery's bounds are constants, so loosening one must fail here
    assert (checks._NORMALIZATION_TOL, checks._UNIT_ENERGY_TOL, checks._DFT_TOL) \
        == (1e-5, 1e-6, 1e-3)
    assert (checks._ORACLE_TOL, checks._SYMMETRY_TOL, checks._RECIPROCITY_TOL,
            checks._PARSEVAL_TOL, checks._ENERGY_TOL, checks._RIPPLE_DB) \
        == (1e-9, 1e-12, 1e-12, 1e-10, 1e-6, 1.0)
    assert checks._ORACLE_FLOOR == 1e-12


class TestParsevalTail:
    def test_tail_coefficient_matches_edge_jumps(self):
        # I(l) ~ sum_tau (g(1 - tau) - g(-tau))^2 / (4 pi^2 l^2) at integer l, so the
        # half-open grid [-L, L) misses sum_tau (...)^2 / (2 pi^2 L) of the total
        L = 1 << 13
        taus = np.arange(-3, 6) / 2   # the 9 half-period shifts whose support meets [0, 1]
        predicted = np.sum((evaluate_g(FILT, 1 - taus) - evaluate_g(FILT, -taus)) ** 2) \
            / (2 * np.pi ** 2)
        grid = np.arange(-L, L, dtype=float)
        partial = float(np.sum(closedform._oqam_to_ofdm_grid(grid, FILT, 1.0)))
        measured = (oracle_parseval_constant(FILT) - partial) * L
        assert predicted == pytest.approx(0.2026535796, rel=1e-9)
        assert measured == pytest.approx(predicted, rel=2e-8)

    def test_scaled_closed_form_fails(self, monkeypatch):
        grid = checks._oqam_to_ofdm_grid
        monkeypatch.setattr(checks, "_oqam_to_ofdm_grid", lambda *a: grid(*a) * (1 + 1e-8))
        assert not check_parseval(FILT).passed

    def test_dropped_outermost_shift_fails(self, drop_outermost_shift):
        drop_outermost_shift()
        assert not check_parseval(FILT).passed

    def test_dropped_outermost_shift_fails_after_a_warm_call(self, drop_outermost_shift):
        assert check_parseval(FILT).passed
        drop_outermost_shift()
        assert not check_parseval(FILT).passed

    def test_disagreeing_estimates_fail(self, monkeypatch):
        # the finer estimate is exact, but the coarser one shows the tail is off-model
        const = oracle_parseval_constant(FILT)
        monkeypatch.setattr(checks, "_parseval_estimates", lambda filt: (const * (1 + 1e-9), const))
        assert not check_parseval(FILT).passed


class TestOracleEquivalenceStrictness:
    CPS = (Fraction(0), Fraction(1, 8))

    def test_unmodified_closed_form_passes(self):
        assert check_oracle_equivalence(FILT, self.CPS).passed

    def test_scaled_i2s_closed_form_fails(self, monkeypatch):
        grid = checks._ofdm_to_oqam_grid
        monkeypatch.setattr(checks, "_ofdm_to_oqam_grid", lambda *a: grid(*a) * (1 + 1e-8))
        result = check_oracle_equivalence(FILT, self.CPS)
        assert not result.passed
        assert "i2s" in result.detail

    def test_dropped_outermost_shift_fails(self, drop_outermost_shift):
        drop_outermost_shift()
        assert not check_oracle_equivalence(FILT, self.CPS).passed

    def test_dropped_outermost_shift_fails_after_a_warm_call(self, drop_outermost_shift):
        assert check_oracle_equivalence(FILT, self.CPS).passed
        drop_outermost_shift()
        assert not check_oracle_equivalence(FILT, self.CPS).passed

    SHORT_FILTERS = pytest.mark.parametrize(
        "filt", [PrototypeFilter(1, (1.0,)), PrototypeFilter(2, (1.0, 0.5 ** 0.5))],
        ids=["K1", "K2"])

    @SHORT_FILTERS
    def test_short_filters_pass(self, filt):
        # K = 1's s2i power is exactly 0 at even l != 0, where the closed form and the oracle
        # give rounding noise (2.3e-33 against 1.3e-30): that gap is measured against 1e-12
        # of the row's largest value
        result = check_oracle_equivalence(filt, (Fraction(0), Fraction(1, 8), Fraction(7, 16)))
        assert result.passed, result.detail

    @SHORT_FILTERS
    def test_short_filters_dropped_outermost_shift_fails(self, filt, drop_outermost_shift):
        drop_outermost_shift()
        assert not check_oracle_equivalence(filt, self.CPS).passed

    @pytest.mark.parametrize("cp", [Fraction(1, 512), Fraction(511, 512)],
                             ids=["1/512", "511/512"])
    def test_one_sample_prefix_converges(self, cp):
        # one prefix sample at M = 512: an i2s row overlaps the window 1/512 wide at the
        # pulse's support edge, and stops only on the oracle's width floor
        assert check_oracle_equivalence(FILT, (cp,)).passed


class TestSymmetryAndReciprocityStrictness:
    CP = Fraction(1, 8)

    @staticmethod
    def recorded(monkeypatch, name, factor=lambda ls: 1.0):
        """Install a wrapper on checks' grid `name` that records each l grid and scales by factor."""
        grid, calls = getattr(checks, name), []

        def wrapper(ls, *args, **kwargs):
            calls.append(np.array(ls))
            return grid(ls, *args, **kwargs) * factor(ls)

        monkeypatch.setattr(checks, name, wrapper)
        return calls

    def test_unmodified_grids_pass(self):
        assert check_symmetry(FILT, self.CP).passed
        assert check_reciprocity(FILT).passed

    @pytest.mark.parametrize("name", ["_oqam_to_ofdm_grid", "_ofdm_to_oqam_grid"])
    def test_odd_perturbation_fails_symmetry(self, monkeypatch, name):
        # 1e-11 relative, odd in l: ten times the check's bound apart at l and -l
        self.recorded(monkeypatch, name, lambda ls: 1 + 1e-11 * np.sign(ls))
        result = check_symmetry(FILT, self.CP)
        assert not result.passed, result.detail

    def test_scaled_cp0_i2s_grid_fails_reciprocity(self, monkeypatch):
        self.recorded(monkeypatch, "_ofdm_to_oqam_grid", lambda ls: 1 + 1e-11)
        result = check_reciprocity(FILT)
        assert not result.passed, result.detail

    def test_symmetry_points(self, monkeypatch):
        # 200 distinct fixed points in (0.01, 30), compared with their negatives
        calls = self.recorded(monkeypatch, "_oqam_to_ofdm_grid")
        check_symmetry(FILT, self.CP)
        pos, neg = calls
        assert pos.shape == (200,) and np.unique(pos).size == 200
        assert np.all((pos > 0.01) & (pos < 30.0))
        assert np.array_equal(neg, -pos)

    def test_reciprocity_points(self, monkeypatch):
        # the integers 0..20, then 179 distinct fixed points in (-30, 30)
        calls = self.recorded(monkeypatch, "_oqam_to_ofdm_grid")
        check_reciprocity(FILT)
        ls, = calls
        assert ls.shape == (200,)
        assert np.array_equal(ls[:21], np.arange(21))
        assert np.all((ls[21:] > -30.0) & (ls[21:] < 30.0)) and np.unique(ls[21:]).size == 179


class TestFrequencyResponseStrictness:
    def test_time_axis_off_by_k_periods_fails(self, monkeypatch):
        # K n leading zeros put every tap K periods late on the check's time axis: a phase of
        # exactly 1 at the multiples of 1/K, so only the off-lattice frequencies see it
        taps = checks.sample_taps
        monkeypatch.setattr(checks, "sample_taps", lambda filt, n: np.concatenate(
            [np.zeros(filt.overlap_K * n), taps(filt, n)]))
        result = check_frequency_response_vs_dft(FILT)
        assert not result.passed, result.detail


class TestDecayEnvelopeStrictness:
    CP = Fraction(1, 8)

    @pytest.mark.parametrize("name", ["_oqam_to_ofdm_grid", "_ofdm_to_oqam_grid"])
    @pytest.mark.parametrize("step_db, passed", [(1.5, False), (0.5, True)])
    def test_largest_step_against_the_bound(self, monkeypatch, name, step_db, passed):
        # a grid falling 1 dB per integer l but for one rise of step_db from l = 9 to 10: the
        # 1 dB bound is pinned from both sides (the other grid's steps are all negative)
        def grid(ls, *args):
            return 10 ** ((-ls + (ls >= 10) * (step_db + 1)) / 10)
        monkeypatch.setattr(checks, name, grid)
        result = check_decay_envelope(FILT, self.CP)
        assert result.passed is passed, result.detail
        assert f"{step_db:+.3f}" in result.detail


@settings(max_examples=15, deadline=None, database=None)
@given(st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_extrapolated_sum_matches_oracle_for_any_k4_filter(tail_coeffs):
    filt = PrototypeFilter(overlap_K=4, coeffs=(1.0, *tail_coeffs))
    const = oracle_parseval_constant(filt)
    coarse, fine = _parseval_estimates(filt)
    assert abs(fine - const) <= 1e-10 * const
    assert abs(coarse - const) <= 1e-10 * const
