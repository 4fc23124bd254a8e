"""Closed-form interference powers: frozen oracle values, identities, tables."""

import os
import subprocess
import sys
from datetime import timedelta
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import coexsim.closedform as closedform
from coexsim.closedform import (
    _forms,
    _lattice,
    _ofdm_to_oqam_grid,
    _oqam_to_ofdm_grid,
    _power_sum,
    build_table,
    power_db,
)
from coexsim.filterbank import PrototypeFilter, evaluate_g, phydyas_k4
from coexsim.oracle import _victim_taus, _window_taus, quadrature_I
from coexsim.txrx import MAX_OFFSET_CYCLE, CoexConfig, ConfigError

ACCEPT_GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)

# pinned by the quadrature oracle (unit variances would double these s2i values)
FROZEN_S2I_VARHALF = (
    0.7366849107196884,
    0.4506822380636598,
    0.09665294970878348,
    0.014465191977920726,
    0.005963283725242942,
    0.002068535290255461,
    0.0007979574539498509,
)
FROZEN_I2S_CP18_VAR1 = (
    0.7756120934300099,
    0.45329494259160774,
    0.08286221367427506,
    0.011802907194816376,
    0.004809978488689454,
    0.0017684635537012876,
    0.0007494907314693559,
)


@pytest.fixture(scope="module")
def filt():
    return phydyas_k4()


def exact_turns(l_grid, k, K, r):
    """((l + k/K) r) mod 2 for each float l and a Fraction r = p/q, exact but for the last rounding.

    It is ((l K p + k p) mod 2Kq) / (Kq), as Fraction(l) would give it: l splits into a
    26-bit high part and the rest (Dekker), so that both products with the integer K p are
    exact, np.fmod reduces the high one exactly, and only the sum of the parts and the
    final division round, each by about 2^-52 of its result.
    """
    p, q = r.numerator, r.denominator
    period = 2 * K * q
    split = l_grid * (2.0 ** 27 + 1)
    high = split - (split - l_grid)
    turns = np.fmod(high * (K * p), period) + (k * p) % period
    turns += (l_grid - high) * (K * p)
    return np.fmod(turns, period) / (K * q)


def direct_power_sum(filt, l_grid, taus, width):
    """Reference for _power_sum: each shift's window integral as a complex sum over k.

    On the overlap [a, b] of the shifted support with [0, width], coefficient k
    contributes (G_|k|/K) exp(-j 2 pi k tau / K) (b-a) exp(j w (a+b)/2)
    sinc(w (b-a)/2), with w = 2 pi (k/K + l).  The arguments w (b-a)/2 and
    w (a+b)/2 are pi times (k/K + l)(b-a) and (k/K + l)(a+b): exact_turns reduces
    both mod 2 from the exact l before the float sin and exp see them.
    """
    hw, K = Fraction(filt.overlap_K, 2), filt.overlap_K
    total = np.zeros(len(l_grid))
    for tau in taus:
        a, b = max(Fraction(0), tau - hw), min(width, tau + hw)
        out = np.zeros(len(l_grid), dtype=complex)
        for k in range(-K + 1, K):
            arg = np.pi * (l_grid + k / K) * float(b - a)
            sinc = np.sin(np.pi * exact_turns(l_grid, k, K, b - a))
            # sinc(x) = 1 - x^2/6 + ... is 1.0 in doubles below 1e-9, where a subnormal x
            # would lose bits
            limit = np.abs(arg) < 1e-9
            np.divide(sinc, arg, out=sinc, where=~limit)
            sinc[limit] = 1.0
            out += (filt.coeff(k) / K) * np.exp(-2j * np.pi * k * float(tau / K)) * float(b - a) \
                * np.exp(1j * np.pi * exact_turns(l_grid, k, K, a + b)) * sinc
        total += np.abs(out) ** 2
    return total


def oracle_shifts(filt, cp):
    """Every shift the closed form sums, from the oracle's own walk: s2i window 0 (cp None) or
    the i2s slots of one offset cycle at cp, concatenated; then the window's width."""
    if cp is None:
        return _victim_taus("s2i", Fraction(0), filt)[0], Fraction(1)
    return [tau for slot in _victim_taus("i2s", cp, filt) for tau in slot], 1 + cp


def edit_shifts(monkeypatch, edit):
    """Patch _lattice to return edit(shifts), and clear the cached forms that would hide it."""
    lattice = closedform._lattice

    def edited(*args):
        *geometry, taus = lattice(*args)
        return *geometry, edit(taus)
    monkeypatch.setattr(closedform, "_lattice", edited)
    _forms.cache_clear()


CP_RATIOS = st.fractions(min_value=0, max_value=2, max_denominator=16)
# K in 1..6, G_0 = 1 and the other G in [0, 1]: K = 1 and 2 meet windows wider than the pulse
FILTERS = st.integers(1, 6).flatmap(
    lambda K: st.lists(st.floats(0.0, 1.0), min_size=K - 1, max_size=K - 1)
    .map(lambda tail: PrototypeFilter(K, (1.0, *tail))))


def gaps(a, b):
    """|a - b| against the larger of each pair, but not below 1e-12 of the largest value, as
    checks measures oracle equivalence: where a power is exactly 0 (K = 1, even l), both
    sides are rounding noise."""
    floor = 1e-12 * max(np.max(np.abs(a)), np.max(np.abs(b)))
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


def s2i(l_grid, filt, var_pam):
    return build_table("s2i", l_grid, CoexConfig(var_pam=var_pam, filt=filt))


def i2s(l_grid, filt, cp_ratio, var_qam):
    return build_table("i2s", l_grid, CoexConfig(cp_ratio=cp_ratio, var_qam=var_qam, filt=filt))


class TestOqamToOfdm:
    def test_frozen_oracle_pinned_values(self, filt):
        assert list(s2i(ACCEPT_GRID, filt, 0.5)) == pytest.approx(FROZEN_S2I_VARHALF, rel=1e-10)

    def test_matches_quadrature(self, filt):
        expect = [quadrature_I("s2i", l, filt) for l in ACCEPT_GRID]
        assert list(s2i(ACCEPT_GRID, filt, 1.0)) == pytest.approx(expect, rel=1e-9)

    def test_even_in_l(self, filt):
        rng = np.random.default_rng(3)
        ls = rng.uniform(0.01, 30.0, 200)
        pos = _oqam_to_ofdm_grid(ls, filt, 1.0)
        neg = _oqam_to_ofdm_grid(-ls, filt, 1.0)
        assert np.max(np.abs(pos - neg) / pos) < 1e-12

    def test_linear_in_variance(self, filt):
        base = s2i([2.0], filt, 1.0)[0]
        assert s2i([2.0], filt, 3.5)[0] == pytest.approx(3.5 * base, rel=1e-14)

    def test_strictly_positive(self, filt):
        assert np.all(s2i([0.0, 0.31, 17.0, 100.5], filt, 1.0) > 0)


class TestOfdmToOqam:
    def test_frozen_oracle_pinned_values(self, filt):
        assert list(i2s(ACCEPT_GRID, filt, Fraction(1, 8), 1.0)) == pytest.approx(
            FROZEN_I2S_CP18_VAR1, rel=1e-10)

    def test_matches_quadrature(self, filt):
        for cp in (Fraction(0), Fraction(1, 8)):
            expect = [quadrature_I("i2s", l, filt, cp) for l in ACCEPT_GRID]
            assert list(i2s(ACCEPT_GRID, filt, cp, 1.0)) == pytest.approx(expect, rel=1e-9)

    def test_reciprocity_at_zero_cp(self, filt):
        # var_qam = 2 var_pam and no prefix: both directions identical
        rng = np.random.default_rng(5)
        ls = np.concatenate([np.arange(0.0, 21.0), rng.uniform(-30, 30, 179)])
        s2i = _oqam_to_ofdm_grid(ls, filt, 1.0)
        i2s = _ofdm_to_oqam_grid(ls, filt, Fraction(0), 2.0)
        assert np.max(np.abs(s2i - i2s) / s2i) < 1e-12

    def test_even_in_l(self, filt):
        rng = np.random.default_rng(7)
        ls = rng.uniform(0.01, 30.0, 200)
        pos = _ofdm_to_oqam_grid(ls, filt, Fraction(1, 8), 1.0)
        neg = _ofdm_to_oqam_grid(-ls, filt, Fraction(1, 8), 1.0)
        assert np.max(np.abs(pos - neg) / pos) < 1e-12


class TestOracleFarRange:
    """The oracle against the closed form on fractional l out to 50, past verify's l <= 8."""
    GRID = 0.3 + 1.25 * np.arange(41)   # 0.3 .. 50.3

    def test_s2i(self, filt):
        oracle = quadrature_I("s2i", self.GRID, filt)
        closed = _oqam_to_ofdm_grid(self.GRID, filt, 1.0)
        assert np.max(np.abs(closed - oracle) / oracle) <= 1e-9

    @pytest.mark.parametrize("cp", [Fraction(0), Fraction(1, 8), Fraction(7, 16)],
                             ids=["0", "1/8", "7/16"])
    def test_i2s(self, filt, cp):
        oracle = quadrature_I("i2s", self.GRID, filt, cp)
        closed = _ofdm_to_oqam_grid(self.GRID, filt, cp, 1.0)
        assert np.max(np.abs(closed - oracle) / oracle) <= 1e-9

    # out to the far end of the table range: the oracle's stopping test scales with the
    # integral of |g|, so large-l integrals converge above their roundoff floor
    def test_s2i_far(self, filt):
        ls = np.array([1000.0, 1e4])
        oracle = quadrature_I("s2i", ls, filt)
        closed = _oqam_to_ofdm_grid(ls, filt, 1.0)
        assert np.max(np.abs(closed - oracle) / oracle) <= 1e-9

    def test_i2s_far(self, filt):
        ls = np.array([133.0, 1e4])
        oracle = quadrature_I("i2s", ls, filt, Fraction(1, 8))
        closed = _ofdm_to_oqam_grid(ls, filt, Fraction(1, 8), 1.0)
        assert np.max(np.abs(closed - oracle) / oracle) <= 1e-9


class TestJumpAsymptote:
    """A third reference at large |l|, from neither the coefficient expansion nor quadrature.

    Integrating by parts, each shift's window integral over its overlap [a, b] is
    (g(b - tau) e^{j 2 pi l b} - g(a - tau) e^{j 2 pi l a}) / (j 2 pi l) + O(1/l^2), so
    I_s2i(l) (2 pi l)^2 tends to the jump sum J over the shifts, and the next term, from the
    jumps of g', makes (I (2 pi l)^2 - J) / J fall as 1/l^2 with a coefficient near 0.51.
    """

    @pytest.mark.parametrize("l", [100, 101, 1000, 1001, 10 ** 4, 10 ** 4 + 1])
    def test_s2i_tends_to_the_jump_sum(self, filt, l):
        hw = filt.overlap_K / 2
        jumps = 0.0
        for tau in map(float, _window_taus("s2i", 0, Fraction(0), filt)):
            a, b = max(0.0, tau - hw), min(1.0, tau + hw)
            jumps += abs(evaluate_g(filt, b - tau) * np.exp(2j * np.pi * l * b)
                         - evaluate_g(filt, a - tau) * np.exp(2j * np.pi * l * a)) ** 2
        power = build_table("s2i", float(l), CoexConfig(var_pam=1.0))
        # measured 0.5094-0.5097 at these l
        assert 0.50 <= (power * (2 * np.pi * l) ** 2 - jumps) / jumps * l ** 2 <= 0.52


class TestPowerSum:
    # the table grid of the benchmark, and the Parseval grid (several evaluation blocks)
    GRID = -50 + 0.01 * np.arange(10_001)
    INTEGER_GRID = np.arange(-(1 << 13), 1 << 13, dtype=float)

    @pytest.mark.parametrize("grid", [GRID, INTEGER_GRID], ids=["table", "integer"])
    def test_s2i_matches_direct(self, filt, grid):
        victims, delta, forms = _forms(filt, None)
        new = _power_sum(filt.overlap_K, grid, delta, forms)
        ref = direct_power_sum(filt, grid, *oracle_shifts(filt, None))
        assert victims == 1
        assert np.max(np.abs(new - ref) / ref) <= 1e-13

    @pytest.mark.parametrize("cp", [Fraction(0), Fraction(1, 8), Fraction(1, 3),
                                    Fraction(7, 16), Fraction(2)])
    def test_i2s_matches_direct(self, filt, cp):
        # the forms of a whole offset cycle against all of its shifts, one by one
        victims, delta, forms = _forms(filt, cp)
        new = _power_sum(filt.overlap_K, self.GRID, delta, forms)
        ref = direct_power_sum(filt, self.GRID, *oracle_shifts(filt, cp))
        assert victims == len(_victim_taus("i2s", cp, filt))
        assert np.max(np.abs(new - ref) / ref) <= 1e-13

    def test_i2s_matches_direct_over_a_long_cycle(self, filt):
        # cp 511/512: lengths j/512 up to j = 1023, so nearly every sine comes from the
        # recurrence, restarted every _RESEED steps
        cp = Fraction(511, 512)
        grid = self.GRID[::100]
        victims, delta, forms = _forms(filt, cp)
        assert delta == Fraction(1, 512) and forms[-1][0] == 1023
        new = _power_sum(filt.overlap_K, grid, delta, forms)
        ref = direct_power_sum(filt, grid, *oracle_shifts(filt, cp))
        assert np.max(np.abs(new - ref) / ref) <= 1e-13

    def test_matches_direct_far_out(self, filt):
        # l near 10^4: pi delta l is reduced mod 2 pi exactly before its cos and sin, or the
        # recurrence's 2 cos theta is off by 1e-12 at cp 7/16
        grid = 1e4 + self.GRID[::100]
        for key, taus, width in self.shift_sets(filt, Fraction(7, 16)):
            new = _power_sum(filt.overlap_K, grid, *_forms(filt, key)[1:])
            ref = direct_power_sum(filt, grid, taus, width)
            assert np.max(np.abs(new - ref) / ref) <= 1e-13

    @staticmethod
    def shift_sets(filt, cp):
        """(key, taus, width) of s2i and of i2s at cp: the _forms key and its oracle shifts."""
        return tuple((key, *oracle_shifts(filt, key)) for key in (None, cp))

    def test_matches_direct_where_a_sinc_argument_is_zero(self, filt):
        # k/K + l = 0 for K = 4, and a subnormal l, which x delta / 2 cannot resolve
        grid = np.array([0.0, 0.25, -0.25, 0.5, -0.5, 0.75, -0.75, -0.0, 1.0, 5e-324, -1e-310])
        for key, taus, width in self.shift_sets(filt, Fraction(7, 16)):
            new = _power_sum(filt.overlap_K, grid, *_forms(filt, key)[1:])
            assert np.all(np.isfinite(new))
            ref = direct_power_sum(filt, grid, taus, width)
            assert np.max(np.abs(new - ref) / ref) <= 1e-13
        # the sincs there: a one-row form that picks coefficient k gives v_j^2, and
        # v_j = j sinc(j theta) is exactly j, by direct sines, the recurrence and its restarts
        R = closedform._RESEED
        for j in (1, 2, 7, R, R + 1, 3 * R + 2):
            for k in range(-3, 4):
                row = np.zeros((1, 7))
                row[0, k + 3] = 1.0
                l = np.array([-k / 4, 5e-324 if k == 0 else -k / 4])
                assert _power_sum(4, l, Fraction(1, 8), ((j, row),)).tolist() == [j * j] * 2

    def test_sines_restart_every_twelve_steps(self, monkeypatch):
        # the error bounds above hold for two direct sines every 12 steps of the recurrence:
        # lengths up to 25 delta take them at j = 1, 12, 13, 24 and 25, and no others
        calls = []
        sines = closedform._sines
        monkeypatch.setattr(closedform, "_sines", lambda *a: calls.append(a[2]) or sines(*a))
        _power_sum(4, np.array([0.3]), Fraction(1, 8), ((25, np.ones((1, 7))),))
        assert calls == [1, 12, 13, 24, 25]

    @pytest.mark.parametrize("size", [1, closedform._BLOCK - 1, closedform._BLOCK,
                                      closedform._BLOCK + 1])
    def test_bytes_equal_reference_at_block_edges(self, filt, size):
        # the reference is the same grid in other calls: uneven pieces, and points one at a
        # time; _BLOCK + 1 points end on a one-point block
        grid = -0.75 + 0.25 * np.arange(size) + 0.001 * (np.arange(size) % 3)
        cuts = sorted({0, size, *np.random.default_rng(size).integers(0, size, 12).tolist()})
        points = sorted({0, size - 1, size // 2, *range(0, size, 37),
                         *(i for i in range(closedform._BLOCK - 2, closedform._BLOCK + 1)
                           if i < size)})
        for key, _, _ in self.shift_sets(filt, Fraction(7, 16)):
            forms = _forms(filt, key)[1:]
            whole = _power_sum(filt.overlap_K, grid, *forms)
            pieces = [_power_sum(filt.overlap_K, grid[a:b], *forms) for a, b in zip(cuts, cuts[1:])]
            assert np.concatenate(pieces).tobytes() == whole.tobytes()
            for i in points:
                assert _power_sum(filt.overlap_K, grid[i:i + 1], *forms)[0] == whole[i]

    def test_cached_forms_are_read_only(self, filt):
        for key, _, _ in self.shift_sets(filt, Fraction(1, 8)):
            forms = _forms(filt, key)
            assert forms is _forms(filt, key)
            for _, r in forms[2]:
                assert not r.flags.writeable
                with pytest.raises(ValueError):
                    r[0, 0] = 0.0

    def test_forms_do_not_depend_on_the_shift_order(self, filt, monkeypatch):
        # the shifts reach _triangular grouped and sorted by (length, phase), whatever
        # order the lattice lists them in
        for key in (None, Fraction(7, 16)):
            full = _power_sum(filt.overlap_K, self.GRID, *_forms(filt, key)[1:])
            edit_shifts(monkeypatch, lambda taus: taus[::-1])
            reversed_ = _power_sum(filt.overlap_K, self.GRID, *_forms(filt, key)[1:])
            monkeypatch.undo()
            _forms.cache_clear()
            assert reversed_.tobytes() == full.tobytes()

    def test_dropped_shift_moves_the_sum(self, filt, monkeypatch):
        # the fault the fault-injection tests of checks apply: the lattice less its last shift
        for key in (None, Fraction(1, 8)):
            full = _power_sum(filt.overlap_K, self.GRID, *_forms(filt, key)[1:])
            edit_shifts(monkeypatch, lambda taus: taus[:-1])
            dropped = _power_sum(filt.overlap_K, self.GRID, *_forms(filt, key)[1:])
            monkeypatch.undo()
            _forms.cache_clear()
            assert not np.array_equal(full, dropped)

    def test_warm_call_builds_no_shift_or_offset_list(self, monkeypatch):
        # the forms are cached per (filter, cp): cp = 511/512 has 1,023 victim slots and
        # 3,070 shifts, and a second call builds and groups none of them
        config = CoexConfig(cp_ratio=Fraction(511, 512))
        build_table("i2s", [0.0], config)
        calls = []
        lattice = closedform._lattice
        monkeypatch.setattr(closedform, "_lattice", lambda *a: calls.append(a) or lattice(*a))
        misses = _forms.cache_info().misses
        build_table("i2s", [0.0], config)
        assert _forms.cache_info().misses == misses
        assert calls == []
        # the spy sees a cold call: one lattice for the whole cycle
        _forms.cache_clear()
        build_table("i2s", [0.0], config)
        assert len(calls) == 1

    def test_bytes_do_not_depend_on_blas_threads(self):
        code = ("import hashlib, numpy as np; from fractions import Fraction; "
                "from coexsim.closedform import build_table; "
                "from coexsim.txrx import CoexConfig; "
                "t = build_table('i2s', -50 + 0.01 * np.arange(10001), "
                "CoexConfig(cp_ratio=Fraction(7, 16))); "
                "print(hashlib.sha256(t.tobytes()).hexdigest())")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
            digests.add(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, check=True, env=env).stdout)
        assert len(digests) == 1


class TestProperties:
    @settings(max_examples=10, deadline=None, database=None)
    @given(CP_RATIOS, st.floats(0.0, 8.0))
    def test_oracle_equivalence(self, filt, cp, l):
        closed = _ofdm_to_oqam_grid(np.array([l]), filt, cp, 1.0)[0]
        assert closed == pytest.approx(quadrature_I("i2s", l, filt, cp), rel=1e-9)

    @settings(max_examples=10, deadline=None, database=None)
    @given(CP_RATIOS, st.lists(st.floats(0.01, 30.0), min_size=1, max_size=50))
    def test_even_in_fractional_l(self, filt, cp, ls):
        ls = np.asarray(ls)
        for pos, neg in ((_oqam_to_ofdm_grid(ls, filt, 1.0), _oqam_to_ofdm_grid(-ls, filt, 1.0)),
                         (_ofdm_to_oqam_grid(ls, filt, cp, 1.0),
                          _ofdm_to_oqam_grid(-ls, filt, cp, 1.0))):
            assert np.max(np.abs(pos - neg) / pos) <= 1e-12

    @settings(max_examples=10, deadline=None, database=None)
    @given(st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=50))
    def test_reciprocity_at_zero_cp(self, filt, ls):
        ls = np.asarray(ls)
        s2i = _oqam_to_ofdm_grid(ls, filt, 1.0)
        i2s = _ofdm_to_oqam_grid(ls, filt, Fraction(0), 2.0)
        assert np.max(np.abs(s2i - i2s) / s2i) <= 1e-12


    @settings(max_examples=10, deadline=timedelta(seconds=10), database=None)
    @given(FILTERS, CP_RATIOS, st.lists(st.floats(0.0, 8.0), min_size=2, max_size=3))
    def test_any_filter_and_prefix(self, filt, cp, ls):
        # l = 0 first, so that gaps' floor is set by a power of order 1
        ls = np.array([0.0, *ls])
        s2i = _oqam_to_ofdm_grid(ls, filt, 1.0)
        i2s = _ofdm_to_oqam_grid(ls, filt, cp, 1.0)
        assert np.max(gaps(s2i, quadrature_I("s2i", ls, filt))) <= 1e-9
        assert np.max(gaps(i2s, quadrature_I("i2s", ls, filt, cp))) <= 1e-9
        assert np.max(gaps(s2i, _oqam_to_ofdm_grid(-ls, filt, 1.0))) <= 1e-12
        assert np.max(gaps(i2s, _ofdm_to_oqam_grid(-ls, filt, cp, 1.0))) <= 1e-12
        # at cp = 0 the two directions interfere equally: i2s with var_qam = 2 var_pam is s2i
        assert np.max(gaps(s2i, _ofdm_to_oqam_grid(ls, filt, Fraction(0), 2.0))) <= 1e-12


    def test_subnormal_coefficient(self):
        # a subnormal entry has too few bits to pivot a rotation on: symmetry and reciprocity
        # were off by 1e-11 with it
        filt = PrototypeFilter(3, (1.0, 1.0, 2.2250738585e-313))
        ls = np.array([0.0, 1.0, 2.5])
        s2i = _oqam_to_ofdm_grid(ls, filt, 1.0)
        assert np.max(gaps(s2i, _oqam_to_ofdm_grid(-ls, filt, 1.0))) <= 1e-12
        assert np.max(gaps(s2i, _ofdm_to_oqam_grid(ls, filt, Fraction(0), 2.0))) <= 1e-12

class TestStructure:
    def test_monotone_decay_envelope(self, filt):
        ls = np.arange(1.0, 21.0)
        for vals in (_oqam_to_ofdm_grid(ls, filt, 1.0),
                     _ofdm_to_oqam_grid(ls, filt, Fraction(1, 8), 1.0)):
            steps = np.diff(10 * np.log10(vals))
            assert np.max(steps) <= 1.0

    def test_power_sum_converges_to_captured_energy(self, filt):
        # truncation tail decays like 1/L; the full-sum identity is checked
        # at acceptance scale (|l| <= 2^20, 1e-6)
        grid = np.arange(-4096.0, 4096.0)
        total = float(np.sum(_oqam_to_ofdm_grid(grid, filt, 1.0)))
        assert total == pytest.approx(2 * filt.normalization_sum() / 4, rel=3e-5)


class TestGeometry:
    # every prefix ratio p/q with q <= 16, p <= 2q, and two long cycles (1,023 and 4,095 slots)
    RATIOS = sorted({Fraction(p, q) for q in range(1, 17) for p in range(2 * q + 1)}
                    | {Fraction(511, 512), Fraction(2047, 2048)})

    def test_closed_form_shifts_match_oracle(self, filt):
        # the one lattice against the oracle's walk over every slot of its own cycle: the same
        # victim count and the same shifts, each as often
        assert len(self.RATIOS) == 163
        mismatched = []
        for cp in [None, *self.RATIOS]:
            victims, unit, window, taus = _lattice(filt, cp)
            walked = [_victim_taus("s2i", Fraction(0), filt)] if cp is None \
                else _victim_taus("i2s", cp, filt)
            shifts, width = oracle_shifts(filt, cp)
            if (victims != len(walked) or Fraction(window, unit) != width
                    or sorted(Fraction(int(t), unit) for t in taus) != sorted(shifts)):
                mismatched.append(cp)
        assert mismatched == []

    def test_lengths_match_oracle(self, filt):
        # delta and the multiples j of it that _forms groups by, from the exact overlap lengths
        # of the oracle's shifts
        hw = Fraction(filt.overlap_K, 2)
        mismatched = []
        for cp in [None, *self.RATIOS]:
            shifts, width = oracle_shifts(filt, cp)
            lengths = {min(width, tau + hw) - max(Fraction(0), tau - hw) for tau in shifts}
            scale = max(length.denominator for length in lengths)
            delta = Fraction(gcd(*(int(length * scale) for length in lengths)), scale)
            _, got_delta, forms = _forms(filt, cp)
            if got_delta != delta or [j for j, _ in forms] != sorted(x / delta for x in lengths):
                mismatched.append(cp)
        assert mismatched == []

    def test_offset_cycle_cap(self, filt, monkeypatch):
        # every k/512 prefix fits (511/512 is the longest, 1,023 slots); 1/2047 has exactly
        # MAX_OFFSET_CYCLE slots, 1/4096 one more, refused before any array is built, as is
        # Fraction(0.1) = p/2^55 with its p + 2^55 slots
        assert max(_lattice(filt, Fraction(k, 512))[0] for k in range(513)) == 1023
        assert _lattice(filt, Fraction(1, 2047))[0] == MAX_OFFSET_CYCLE == 4096
        monkeypatch.setattr(closedform, "np", None)  # any array would raise AttributeError
        for cp, cycle in ((Fraction(1, 4096), 4097), (Fraction(0.1), 39631676720860365)):
            with pytest.raises(ConfigError, match=rf"^cp_ratio = {cp}: i2s offset cycle of "
                                                  rf"{cycle} slots, over 4096$"):
                _lattice(filt, cp)
        monkeypatch.undo()
        with pytest.raises(ConfigError, match="i2s offset cycle"):
            build_table("i2s", [0.0], CoexConfig(M=2 ** 20, cp_ratio=Fraction(1, 2 ** 20)))


class TestTables:
    def test_integer_grid_symmetric(self, filt):
        grid = np.arange(-5.0, 6.0)
        table = build_table("s2i", grid, CoexConfig())
        assert len(table) == 11
        powers = dict(zip(grid, table))
        for l in range(1, 6):
            assert powers[l] == pytest.approx(powers[-l], rel=1e-12)

    def test_db_column_consistent(self, filt):
        powers = build_table("i2s", np.arange(-3.0, 4.0), CoexConfig())
        for p, db in zip(powers, power_db(powers)):
            assert db == pytest.approx(10 * np.log10(p), abs=1e-12)

    def test_fractional_grid(self, filt):
        cfg = CoexConfig(delta_f=0.3)
        assert np.all(build_table("s2i", np.arange(-5.0, 6.0) + 0.3, cfg) > 0)

    def test_empty_grid_rejected(self, filt):
        with pytest.raises(ValueError):
            build_table("s2i", [], CoexConfig())

    def test_scalar_l(self):
        for direction in ("s2i", "i2s"):
            value = build_table(direction, 2.5, CoexConfig())
            assert np.ndim(value) == 0
            assert value == build_table(direction, [2.5], CoexConfig())[0]

    def test_any_shape(self):
        grid = np.arange(-3.0, 3.0).reshape(2, 3) + 0.3
        for direction in ("s2i", "i2s"):
            table = build_table(direction, grid, CoexConfig())
            assert table.shape == (2, 3)
            assert table.tobytes() == build_table(direction, grid.ravel(), CoexConfig()).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_l_rejected(self, bad):
        for direction in ("s2i", "i2s"):
            with pytest.raises(ValueError, match=rf"^l_grid must be finite, got {bad}$"):
                build_table(direction, [0.0, bad], CoexConfig())

    def test_mc_direction_rejected(self, filt):
        with pytest.raises(ValueError):
            build_table("o2o", [0.0], CoexConfig())

    def test_db_floor_clamps_display_only(self):
        assert power_db(1e-30) == pytest.approx(-150.0)
        assert power_db(1e-3) == pytest.approx(-30.0)
