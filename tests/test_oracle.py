"""Quadrature oracle: term values, shift enumeration, convergence, batching, identities."""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import coexsim.oracle as oracle
import coexsim.psdmodel as psdmodel
from coexsim.filterbank import evaluate_g, phydyas_k4
from coexsim.oracle import (
    QuadratureError,
    _integrate,
    _panel_sums,
    _victim_taus,
    _window_integrals,
    _window_taus,
    oracle_parseval_constant,
    quadrature_I,
)
from coexsim.txrx import MAX_OFFSET_CYCLE, ConfigError


@pytest.fixture(scope="module")
def filt():
    return phydyas_k4()


def term(filt, l, tau):
    """|integral_0^1 g(u - tau) exp(j 2 pi l u) du|^2: one shift's power in the unit window."""
    pulse = lambda t: evaluate_g(filt, t)
    return abs(_window_integrals(pulse, filt.support_halfwidth, [tau], 1.0, [l], "term")[0, 0]) ** 2


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
        pulse = lambda t: evaluate_g(filt, t)
        for l, tau in ((0.0, 0.0), (5.0, 0.5), (12.0, -1.0)):
            row = [np.array([v]) for v in (tau, max(0.0, tau - 2), min(1.0, tau + 2), l)]
            a = abs(_panel_sums(pulse, *row, 32)[0][0]) ** 2
            b = abs(_panel_sums(pulse, *row, 64)[0][0]) ** 2
            assert abs(a - b) <= 1e-10 * abs(b)

    def test_roundoff_scale_is_integral_of_abs_pulse(self, filt):
        # the stopping test's scale: the integral of |g(u - tau)| over the row's interval.
        # |g| has kinks where g changes sign, so the Gauss sums only approach it (a scale
        # needs no more)
        pulse = lambda t: evaluate_g(filt, t)
        for l, tau in ((0.0, 0.0), (1000.3, -1.5), (7.5, 1.25)):
            a, b = max(0.0, tau - 2), min(1.0, tau + 2)
            row = [np.array([v]) for v in (tau, a, b, l)]
            ref = quad(lambda u: abs(evaluate_g(filt, u - tau)), a, b, epsabs=1e-14,
                       epsrel=1e-12, limit=300)[0]
            assert _panel_sums(pulse, *row, 64)[1][0] == pytest.approx(ref, rel=1e-5)

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
        # oscillation far beyond what the panel cap can resolve; at a whole l the panel
        # sums would cancel to about 0 and agree, so l is not a whole number
        monkeypatch.setattr(oracle, "_MAX_PANELS", 16)
        with pytest.raises(QuadratureError):
            _integrate(np.ones_like, [0.0], [0.0], [1.0], [5000.3], "test")

    def test_deepest_level_is_the_cap(self, monkeypatch):
        # the error says "within _MAX_PANELS panels": no level may go past it
        levels = []

        def spy(pulse, tau, a, b, l, n_panels):
            levels.append(n_panels)
            return _panel_sums(pulse, tau, a, b, l, n_panels)

        monkeypatch.setattr(oracle, "_MAX_PANELS", 64)
        monkeypatch.setattr(oracle, "_panel_sums", spy)
        with pytest.raises(QuadratureError, match=r"within 64 panels"):
            _integrate(np.ones_like, [0.0], [0.0], [1.0], [5000.3], "test")
        assert levels == [2, 4, 8, 16, 32, 64]


class TestWindowTaus:
    def test_aligned_case_is_contiguous_2k_plus_1(self, filt):
        taus = _window_taus("s2i", 0, Fraction(0), filt)
        assert taus == [Fraction(n, 2) for n in range(-3, 6)]
        assert len(taus) == 2 * filt.overlap_K + 1

    def test_translation_by_whole_half_periods(self, filt):
        # relative taus: a window shift by whole half-periods leaves them equal
        base = _window_taus("s2i", 0, Fraction(0), filt)
        assert _window_taus("s2i", 1, Fraction(0), filt) == base
        # cp = 1/8: four windows advance the lattice by nine half-periods
        base8 = _window_taus("s2i", 0, Fraction(1, 8), filt)
        assert _window_taus("s2i", 4, Fraction(1, 8), filt) == base8

    def test_i2s_shifts(self, filt):
        # symbols 1, 0, -1, -2 in ascending tau: tau = cp - n (1 + cp) for slot 0
        for cp in (Fraction(1, 8), Fraction(0)):
            assert _window_taus("i2s", 0, cp, filt) == [cp - n * (1 + cp) for n in (1, 0, -1, -2)]
        # cp = 0 symbols tile the filter span exactly
        assert _window_taus("i2s", 0, Fraction(0), filt) == [-1, 0, 1, 2]

    def test_unknown_direction(self, filt):
        with pytest.raises(ValueError):
            _window_taus("sideways", 0, Fraction(0), filt)

    @pytest.mark.parametrize("cp", [Fraction(0), Fraction(1, 8), Fraction(1, 3),
                                    Fraction(7, 16), Fraction(2)])
    @pytest.mark.parametrize("direction", ["s2i", "i2s"])
    def test_matches_brute_force_scan(self, filt, direction, cp):
        # keep every n of a wide range whose support meets the window in nonzero measure
        # (support ends that only touch a window edge stay out), in ascending tau
        hw, span = Fraction(filt.overlap_K, 2), range(-100, 101)
        for nv in range(len(_victim_taus("i2s", cp, filt))):
            if direction == "s2i":
                # OQAM slot n, pulse on [n/2 - hw, n/2 + hw], against CP-OFDM window nv
                w0 = nv * (1 + cp)
                kept = [n for n in span if max(w0, Fraction(n, 2) - hw)
                        < min(w0 + 1, Fraction(n, 2) + hw)]
                taus = [Fraction(n, 2) - w0 for n in kept]
            else:
                # CP-OFDM symbol n on [n (1 + cp) - cp, n (1 + cp) + 1], against OQAM slot
                # nv's span; tau from the symbol's start
                c = Fraction(nv, 2)
                kept = [n for n in span if max(c - hw, n * (1 + cp) - cp)
                        < min(c + hw, n * (1 + cp) + 1)]
                taus = [c + cp - n * (1 + cp) for n in kept]
            assert kept and span[0] < min(kept) and max(kept) < span[-1]
            assert _window_taus(direction, nv, cp, filt) == sorted(taus)


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

    def test_slot_offset_cycles(self, filt):
        # the walk's slots, each named by its offset tau mod (1 + cp) against the CP-OFDM lattice
        def offsets(cp):
            return [taus[0] % (1 + cp) for taus in _victim_taus("i2s", cp, filt)]

        assert offsets(Fraction(0)) == [Fraction(0), Fraction(1, 2)]
        offs = offsets(Fraction(1, 8))
        assert len(offs) == 9
        assert sorted(offs) == [Fraction(k, 8) for k in range(9)]
        # cycle length 2(p+q)/gcd(2, q) at cp = p/q
        for cp, length in ((Fraction(1, 3), 8), (Fraction(2, 3), 10), (Fraction(1, 5), 12)):
            assert len(_victim_taus("i2s", cp, filt)) == length
        s2i = _window_taus("s2i", 0, Fraction(1, 8), filt)
        assert _victim_taus("s2i", Fraction(1, 8), filt) == [s2i]  # window 0 only

    def test_slot_offset_cycle_cap(self, filt):
        # the longest k/512 cycle fits; the walk stops one slot past MAX_OFFSET_CYCLE, so
        # Fraction(0.1), with its 2^55 denominator, is refused after 4,096 slots
        assert len(_victim_taus("i2s", Fraction(511, 512), filt)) == 1023
        assert len(_victim_taus("i2s", Fraction(1, 2047), filt)) == MAX_OFFSET_CYCLE == 4096
        for cp in (Fraction(1, 4096), Fraction(0.1)):
            with pytest.raises(ConfigError, match=rf"^cp_ratio = {cp}: i2s offset cycle of "
                                                  r"over 4096 slots$"):
                _victim_taus("i2s", cp, filt)
        with pytest.raises(ConfigError, match="i2s offset cycle"):
            quadrature_I("i2s", 0.0, filt, 0.1)
        with pytest.raises(ValueError, match=r"^cp_ratio must be non-negative$"):
            quadrature_I("i2s", 0.0, filt, Fraction(-1, 8))

    def test_parseval_constant(self, filt):
        # captured pulse energy equals 2 sum G^2 / K (quadrature vs analytic)
        assert oracle_parseval_constant(filt) == pytest.approx(
            2 * filt.normalization_sum() / 4, abs=1e-8)


class TestBatchedOracle:
    LS = np.array([-3.7, 0.0, 0.5, 2.25, 8.0, 13.1])

    @pytest.mark.parametrize("direction,cp", [("s2i", Fraction(0)), ("i2s", Fraction(0)),
                                              ("i2s", Fraction(1, 8))])
    def test_array_equals_one_element_calls(self, filt, direction, cp):
        # a row's value does not depend on which rows share its batch
        batch = quadrature_I(direction, self.LS, filt, cp)
        single = [quadrature_I(direction, np.array([l]), filt, cp)[0] for l in self.LS]
        assert list(batch) == pytest.approx(single, rel=1e-15)

    def test_chunks_do_not_change_values(self, filt, monkeypatch):
        whole = quadrature_I("i2s", self.LS, filt, Fraction(1, 8))
        # chunks of a few rows that split one tau's l between them
        monkeypatch.setattr(oracle, "_CHUNK_NODES", 1000)
        assert np.array_equal(quadrature_I("i2s", self.LS, filt, Fraction(1, 8)), whole)

    def test_keeps_the_shape_of_l(self, filt):
        ls = self.LS.reshape(2, 3)
        assert quadrature_I("s2i", ls, filt).shape == (2, 3)
        value = quadrature_I("s2i", 2.25, filt)
        assert np.ndim(value) == 0
        assert value == quadrature_I("s2i", ls, filt)[1, 0]

    def test_rows_converge_at_their_own_level(self, filt, monkeypatch):
        last_level = {}
        panel_sums = oracle._panel_sums

        def spy(pulse, tau, a, b, l, n_panels):
            last_level.update((float(v), n_panels) for v in l)
            return panel_sums(pulse, tau, a, b, l, n_panels)

        monkeypatch.setattr(oracle, "_panel_sums", spy)
        batch = quadrature_I("s2i", np.array([0.0, 40.0]), filt)
        assert last_level[0.0] < last_level[40.0]
        monkeypatch.undo()
        assert batch[0] == pytest.approx(quadrature_I("s2i", 0.0, filt), rel=1e-15)
        assert batch[1] == pytest.approx(quadrature_I("s2i", 40.0, filt), rel=1e-15)

    def test_nonconvergence_names_the_integral(self, filt, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_PANELS", 16)
        quadrature_I("s2i", np.array([0.0, 1.0]), filt)   # these converge under the cap
        with pytest.raises(QuadratureError, match=r"^s2i .* 16 panels at l = 400\.5, tau = "):
            quadrature_I("s2i", np.array([0.0, 1.0, 400.5]), filt)

    def test_window_energies_in_one_call(self, filt):
        taus = np.array([-1.5, 0.0, 0.75, 2.5])
        batch = oracle.quadrature_window_energy(filt, taus, 1.0)
        assert list(batch) == [oracle.quadrature_window_energy(filt, t, 1.0) for t in taus]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_refused_before_quadrature(self, filt, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "_panel_sums", lambda *args: calls.append(args))
        for name, call in (("l", lambda: quadrature_I("s2i", bad, filt)),
                           ("l", lambda: quadrature_I("i2s", [0.0, bad], filt, Fraction(1, 8))),
                           ("tau", lambda: oracle.quadrature_window_energy(filt, bad, 1.0)),
                           ("tau", lambda: oracle.quadrature_window_energy(filt, [0.0, bad], 1.0))):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
                call()
        assert calls == []

    def test_one_route_to_integrate(self):
        # g and g^2 share one overlap and row-stacking path: _integrate is called only there
        tree = ast.parse(Path(oracle.__file__).read_text())

        def calls(node):
            return sum(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                       and n.func.id == "_integrate" for n in ast.walk(node))

        route, = (fn for fn in tree.body
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_window_integrals")
        assert calls(tree) == calls(route) == 1

    def test_no_modulo(self):
        # no offset formula (cp + n/2) mod (1 + cp): the i2s cycle comes from the shifts alone
        tree = ast.parse(Path(oracle.__file__).read_text())
        assert not any(isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Mod)
                       for node in ast.walk(tree))

    def test_never_imports_closedform(self):
        # the oracle is the independent reference of the closed forms
        tree = ast.parse(Path(oracle.__file__).read_text())
        imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
        assert not any("closedform" in (name or "") for name in imported)


def test_gauss_legendre_rule_is_one_constant_record():
    # leggauss(24) solves an eigenproblem; the constants must carry its exact bits
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert oracle._GL_NODES.tobytes() == nodes.tobytes()
    assert oracle._GL_WEIGHTS.tobytes() == weights.tobytes()
    assert oracle._GL_NODES.dtype == oracle._GL_WEIGHTS.dtype == np.float64
    assert not oracle._GL_NODES.flags.writeable and not oracle._GL_WEIGHTS.flags.writeable
    # the PSD model reads the same arrays
    assert psdmodel._GL_NODES is oracle._GL_NODES and psdmodel._GL_WEIGHTS is oracle._GL_WEIGHTS


def test_no_source_module_uses_numpy_polynomial_or_linalg():
    # neither is needed at run time: no eigen- or QR solve, and no numpy.polynomial import
    for path in Path(oracle.__file__).parent.glob("*.py"):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        names = [n.attr for n in nodes if isinstance(n, ast.Attribute)]
        names += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
        names += [n.name for n in nodes if isinstance(n, ast.alias)]
        assert not [n for n in names if "polynomial" in n or "linalg" in n], path.name
