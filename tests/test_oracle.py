"""Quadrature oracle: term values, shift enumeration, convergence, identities."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

import coexsim.oracle as oracle
from coexsim.filterbank import evaluate_g, phydyas_k4
from coexsim.oracle import (
    QuadratureError,
    _integrate,
    _panel_sum,
    _window_integral,
    _window_taus,
    contributing_shifts,
    oracle_parseval_constant,
    quadrature_I,
    victim_slot_offsets,
)


@pytest.fixture(scope="module")
def filt():
    return phydyas_k4()


def term(filt, l, tau):
    """|integral_0^1 g(u - tau) exp(j 2 pi l u) du|^2: one shift's power in the unit window."""
    return abs(_window_integral(filt, l, tau, 1.0)) ** 2


class TestTerm:
    def test_disjoint_support_is_zero(self, filt):
        assert term(filt, 0.0, 3.5) == 0.0
        assert term(filt, 2.0, -2.0) == 0.0  # touches only at the endpoint

    def test_frozen_edge_shift_value(self, filt):
        # regression constant: half-overlapped shift at l = 0
        assert term(filt, 0.0, -1.5) == pytest.approx(1.2756673704524824e-06, rel=1e-9)

    def test_conjugation_symmetry(self, filt):
        rng = np.random.default_rng(1)
        for _ in range(20):
            l = rng.uniform(0.1, 12.0)
            tau = rng.uniform(-2.4, 3.4)
            assert term(filt, l, tau) == pytest.approx(term(filt, -l, tau), rel=1e-12, abs=1e-300)

    def test_subdivision_doubling(self, filt):
        # doubled panel count moves the result by < 1e-10 relative
        for l, tau in ((0.0, 0.0), (5.0, 0.5), (12.0, -1.0)):
            f = lambda u: evaluate_g(filt, u - tau) * np.exp(2j * np.pi * l * u)
            lo, hi = max(0.0, tau - 2), min(1.0, tau + 2)
            a = abs(_panel_sum(f, lo, hi, 32)) ** 2
            b = abs(_panel_sum(f, lo, hi, 64)) ** 2
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_against_scipy_quad(self, filt):
        # independent integrator cross-check
        for l, tau in ((0.0, -1.5), (3.0, 1.0), (7.5, 0.25)):
            a, b = max(0.0, tau - 2), min(1.0, tau + 2)
            re = quad(lambda u: evaluate_g(filt, u - tau) * np.cos(2 * np.pi * l * u),
                      a, b, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
            im = quad(lambda u: evaluate_g(filt, u - tau) * np.sin(2 * np.pi * l * u),
                      a, b, epsabs=1e-14, epsrel=1e-13, limit=300)[0]
            assert term(filt, l, tau) == pytest.approx(re * re + im * im, rel=1e-10, abs=1e-25)

    def test_nonconvergence_reported(self, monkeypatch):
        # oscillation far beyond what the panel cap can resolve
        monkeypatch.setattr(oracle, "_MAX_PANELS", 16)
        f = lambda x: np.exp(2j * np.pi * 5000.0 * x)
        with pytest.raises(QuadratureError):
            _integrate(f, 0.0, 1.0)


class TestContributingShifts:
    def test_aligned_case_is_contiguous_2k_plus_1(self, filt):
        shifts = contributing_shifts("s2i", 0, Fraction(0), filt)
        assert shifts == set(range(-3, 6))
        assert len(shifts) == 2 * filt.overlap_K + 1

    def test_translation_by_whole_half_periods(self, filt):
        base = contributing_shifts("s2i", 0, Fraction(0), filt)
        assert contributing_shifts("s2i", 1, Fraction(0), filt) == {n + 2 for n in base}
        # cp = 1/8: four windows advance the lattice by nine half-periods
        base8 = contributing_shifts("s2i", 0, Fraction(1, 8), filt)
        assert contributing_shifts("s2i", 4, Fraction(1, 8), filt) == {n + 9 for n in base8}

    def test_i2s_shifts(self, filt):
        assert contributing_shifts("i2s", 0, Fraction(1, 8), filt) == {-2, -1, 0, 1}
        # cp = 0 symbols tile the filter span exactly
        assert contributing_shifts("i2s", 0, Fraction(0), filt) == {-2, -1, 0, 1}

    def test_unknown_direction(self, filt):
        with pytest.raises(ValueError):
            contributing_shifts("sideways", 0, Fraction(0), filt)


class TestQuadratureI:
    def test_cp0_reciprocity(self, filt):
        # unit-variance: the i2s pair mean is half the s2i lattice sum
        for l in (0.0, 0.5, 1.0, 3.0, 7.3):
            s2i = quadrature_I("s2i", l, filt)
            i2s = quadrature_I("i2s", l, filt, Fraction(0))
            assert 2 * i2s == pytest.approx(s2i, rel=1e-10)

    def test_decreasing_along_integers(self, filt):
        vals = [quadrature_I("s2i", float(l), filt) for l in range(2, 12)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_victim_dependence_is_small(self, filt):
        # window-offset variation at cp = 1/8 is a sub-0.01 dB effect
        vals = [sum(term(filt, 1.0, float(tau))
                    for tau in _window_taus("s2i", nv, Fraction(1, 8), filt))
                for nv in range(4)]
        spread = (max(vals) - min(vals)) / min(vals)
        assert 1e-12 < spread < 1e-3

    def test_slot_offset_cycles(self):
        assert victim_slot_offsets(Fraction(0)) == [Fraction(0), Fraction(1, 2)]
        offs = victim_slot_offsets(Fraction(1, 8))
        assert len(offs) == 9
        assert sorted(offs) == [Fraction(k, 8) for k in range(9)]
        # cycle length 2(p+q)/gcd(2, q) at cp = p/q
        for cp, length in ((Fraction(1, 3), 8), (Fraction(2, 3), 10), (Fraction(1, 5), 12)):
            assert len(victim_slot_offsets(cp)) == length

    def test_parseval_constant(self, filt):
        # captured pulse energy equals 2 sum G^2 / K (quadrature vs analytic)
        assert oracle_parseval_constant(filt) == pytest.approx(
            2 * filt.normalization_sum() / 4, abs=1e-8)
