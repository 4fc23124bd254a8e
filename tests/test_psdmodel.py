"""PSD-based interference model: normalization, band integrals, model contrast."""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from coexsim.closedform import build_table
from coexsim.filterbank import phydyas_k4
from coexsim.psdmodel import psd_interference, psd_ofdm_subcarrier, psd_oqam_subcarrier
from coexsim.txrx import CoexConfig


@pytest.fixture(scope="module")
def filt():
    return phydyas_k4()


@pytest.fixture(scope="module")
def config():
    return CoexConfig()


def band_sum(f, l_max):
    """Partition-of-unity check helper: per-band quadrature, summed."""
    return sum(quad(f, l - 0.5, l + 0.5, epsabs=1e-14, epsrel=1e-10, limit=200)[0]
               for l in range(-l_max, l_max + 1))


class TestOfdmPsd:
    def test_global_maximum_at_dc(self):
        f = np.linspace(-6, 6, 4001)
        vals = psd_ofdm_subcarrier(f, 0)
        assert np.argmax(vals) == 2000

    def test_integer_zeros_without_prefix(self):
        for n in (1, 2, 5, -3):
            assert psd_ofdm_subcarrier(float(n), 0) == pytest.approx(0.0, abs=1e-30)

    def test_unit_total_power(self):
        # the PSD's Fourier transform lives on |t| <= 1 + cp < 4, so by Poisson summation a
        # step-1/4 trapezoid sum equals the integral; only the sinc^2 tails outside the
        # window [-7000.5, 7000.5] are missed (1/(pi^2 (1 + cp) 7000) = 1.3e-5)
        vals = psd_ofdm_subcarrier(np.arange(-28002, 28003) / 4, Fraction(1, 8))
        total = 0.25 * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))  # trapezoid rule
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_even(self):
        f = np.linspace(0, 5, 100)
        assert np.allclose(psd_ofdm_subcarrier(f, Fraction(1, 8)),
                           psd_ofdm_subcarrier(-f, Fraction(1, 8)), rtol=0, atol=1e-18)

    def test_rejects_negative_cp(self):
        with pytest.raises(ValueError):
            psd_ofdm_subcarrier(0.0, Fraction(-1, 8))


class TestOqamPsd:
    def test_global_maximum_at_dc(self, filt):
        f = np.linspace(-3, 3, 2001)
        vals = psd_oqam_subcarrier(f, filt)
        assert np.argmax(vals) == 1000

    def test_collapses_beyond_two_spacings(self, filt):
        peak = psd_oqam_subcarrier(0.0, filt)
        assert 10 * np.log10(psd_oqam_subcarrier(2.0, filt) / peak) < -60

    def test_unit_total_power(self, filt):
        total = band_sum(lambda f: psd_oqam_subcarrier(f, filt), 50)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_even(self, filt):
        f = np.linspace(0, 4, 100)
        assert np.allclose(psd_oqam_subcarrier(f, filt),
                           psd_oqam_subcarrier(-f, filt), rtol=1e-12, atol=1e-15)


def band_quad(f, l):
    """Test-only reference: one tight adaptive quadrature of the band around l."""
    return quad(f, l - 0.5, l + 0.5, epsabs=0, epsrel=1e-12, limit=200)[0]


class TestBandRule:
    FRACTIONAL = (0.3, -2.5, 7.25, -31.7, 100.01, 255.5)

    @pytest.mark.parametrize("cp", [Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(2)])
    def test_ofdm_matches_tight_quad(self, config, filt, cp):
        cfg = replace(config, cp_ratio=cp)
        ls = np.concatenate([np.arange(-256.0, 257.0), self.FRACTIONAL])
        rule = psd_interference("i2s", ls, cfg)
        ref = np.array([band_quad(lambda f: psd_ofdm_subcarrier(f, cp), l) for l in ls])
        assert np.max(np.abs(rule / (cfg.var_qam * ref) - 1)) <= 1e-12

    def test_oqam_matches_tight_quad(self, config, filt):
        ls = np.concatenate([np.arange(-20.0, 21.0), np.arange(-20.0, 20.0) + 0.37])
        rule = psd_interference("s2i", ls, config)
        ref = np.array([band_quad(lambda f: psd_oqam_subcarrier(f, filt), l) for l in ls])
        # the OQAM integrand's own roundoff floor sits near 1e-10
        assert np.max(np.abs(rule / (2 * config.var_pam * ref) - 1)) <= 1e-9

    @pytest.mark.parametrize("direction", ["s2i", "i2s", "o2o"])
    def test_array_call_bit_equal_to_scalar_calls(self, config, filt, direction):
        ls = np.concatenate([np.arange(-25.0, 26.0), np.arange(-5.0, 5.0) + 0.3])
        rows = psd_interference(direction, ls, config)
        scalars = [psd_interference(direction, l, config) for l in ls]
        assert all(type(v) is np.float64 for v in scalars)
        assert np.array_equal(rows, scalars)


class TestPsdInterference:
    def test_band_partition_recovers_interferer_power(self, config, filt):
        total_i2s = psd_interference("i2s", np.arange(-3000.0, 3001.0), config).sum()
        assert total_i2s == pytest.approx(config.var_qam, rel=1e-3)
        total_s2i = psd_interference("s2i", np.arange(-20.0, 21.0), config).sum()
        assert total_s2i == pytest.approx(2 * config.var_pam, rel=1e-3)

    def test_tracks_closed_form_toward_oqam_victim(self, config, filt):
        # the OQAM receive window is wider than the interferer's pulse, so
        # band integration is a fair estimate in this direction
        ls = np.arange(0.0, 11.0)
        psd = psd_interference("i2s", ls, config)
        closed = build_table("i2s", ls, config)
        assert np.all(np.abs(10 * np.log10(psd / closed)) < 3.0)

    def test_fails_toward_ofdm_victim(self, config, filt):
        # the rectangular receive window destroys the interferer's spectral
        # containment; the PSD estimate misses that entirely
        ls = np.arange(2.0, 11.0)
        psd = psd_interference("s2i", ls, config)
        closed = build_table("s2i", ls, config)
        assert np.max(np.abs(10 * np.log10(psd / closed))) > 10.0

    def test_only_l_enters(self, config, filt):
        # API takes the spectral distance directly; absolute indices never enter
        a = psd_interference("i2s", 3.0, config)
        b = psd_interference("i2s", 3.0,
                             replace(config, incumbent_set=frozenset({10}),
                                     secondary_set=frozenset({7})))
        assert a == b

    def test_unknown_direction(self, config, filt):
        with pytest.raises(ValueError):
            psd_interference("up", 0.0, config)
