"""Cross-validation suite: closed forms against the quadrature oracle.

Each check returns a CheckResult; the CLI `verify` command prints one line
per check and fails if any check fails.  The suite is deliberately able to
run on corrupted filters (nothing here assumes the near-PR normalization
holds; it is one of the things being checked).  The pass bounds are fixed
module constants, not arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .closedform import _oqam_to_ofdm_grid, _ofdm_to_oqam_grid
from .filterbank import PrototypeFilter, frequency_response, sample_taps
from .oracle import oracle_parseval_constant, quadrature_I, quadrature_window_energy

__all__ = ["CheckResult", "run_all_checks", "ORACLE_L_GRID"]

ORACLE_L_GRID = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0)
# the Parseval partial sums S(L/4), S(L/2), S(L) all come off one closed-form grid [-L, L)
_PARSEVAL_L = 1 << 13
# pass bounds, in battery order
_NORMALIZATION_TOL, _UNIT_ENERGY_TOL, _DFT_TOL = 1e-5, 1e-6, 1e-3
_ORACLE_TOL, _SYMMETRY_TOL, _RECIPROCITY_TOL, _PARSEVAL_TOL = 1e-9, 1e-12, 1e-12, 1e-10
# oracle-equivalence measures a gap against at least this share of its row's largest value
_ORACLE_FLOOR = 1e-12
# captured energy vs 2 is limited by the 6-digit K=4 coefficients (1.8e-7), not by the sum
_ENERGY_TOL = 1e-6
_RIPPLE_DB = 1.0
# the symmetry and reciprocity points: the Kronecker sequence frac(i alpha), i = 1, 2, ...,
# at the golden ratio, spread over (0, 1) at least as evenly as uniform draws, with no
# numpy.random (Niederreiter, Random Number Generation and Quasi-Monte Carlo Methods, 1992)
_ALPHA = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy comparisons give np.bool_, which json cannot encode
        object.__setattr__(self, "passed", bool(self.passed))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _spread(n: int, lo: float, hi: float) -> np.ndarray:
    """n fixed points in the open interval (lo, hi): lo + (hi - lo) frac(i alpha), i = 1..n."""
    return lo + (hi - lo) * (np.arange(1, n + 1) * _ALPHA % 1.0)


def check_filter_normalization(filt: PrototypeFilter) -> CheckResult:
    s = filt.normalization_sum()
    dev = abs(s - filt.overlap_K) / filt.overlap_K
    return CheckResult("filter-normalization", dev <= _NORMALIZATION_TOL,
                       f"sum G^2 = {s:.8f} vs K = {filt.overlap_K} (rel dev {dev:.2e})")


def check_filter_unit_energy(filt: PrototypeFilter) -> CheckResult:
    # pulse energy over its full support, in units of the symbol period
    hw = filt.support_halfwidth
    energy = quadrature_window_energy(filt, hw, 2 * hw)
    dev = abs(energy - 1.0)
    return CheckResult("filter-unit-energy", dev <= _UNIT_ENERGY_TOL,
                       f"integral g^2 = {energy:.9f} vs 1 (dev {dev:.2e})")


def check_frequency_response_vs_dft(filt: PrototypeFilter) -> CheckResult:
    n = 512  # pulse samples per symbol period
    taps = sample_taps(filt, n)
    t = (np.arange(len(taps)) - filt.overlap_K * n / 2) / n
    # multiples of 1/4, then frequencies where a time axis K periods off is no phase of 1
    fs = [0.0, 0.25, 0.5, 1.0, 2.0, 0.1, 0.3, 0.7, 1.3, 2.6]
    dft = np.array([np.sum(taps * np.exp(-2j * np.pi * f * t)) for f in fs]) / n
    worst = float(np.max(np.abs(frequency_response(filt, fs) - dft)))
    return CheckResult("frequency-response-vs-dft", worst <= _DFT_TOL,
                       f"max |analytic - sampled transform| = {worst:.2e}")


def check_oracle_equivalence(filt: PrototypeFilter, cp_ratios) -> CheckResult:
    grid = np.asarray(ORACLE_L_GRID)
    # (label, closed form, oracle) per direction and prefix
    pairs = [("s2i", _oqam_to_ofdm_grid(grid, filt, 1.0), quadrature_I("s2i", grid, filt))]
    pairs += [(f"i2s cp={cp}", _ofdm_to_oqam_grid(grid, filt, cp, 1.0),
               quadrature_I("i2s", grid, filt, cp)) for cp in cp_ratios]
    worst, where = 0.0, ""
    for label, closed, oracle in pairs:
        # each gap against the larger value, but not below _ORACLE_FLOOR of the row's largest:
        # where the power is exactly 0 (K = 1, even l) both sides are rounding noise
        floor = _ORACLE_FLOOR * max(np.max(np.abs(closed)), np.max(np.abs(oracle)))
        for l, c, o in zip(ORACLE_L_GRID, closed, oracle):
            dev = abs(c - o) / max(abs(c), abs(o), floor, 1e-300)
            if dev > worst:
                worst, where = dev, f"{label} l={l}"
    return CheckResult("oracle-equivalence", worst <= _ORACLE_TOL,
                       f"max rel dev {worst:.2e} ({where})")


def check_symmetry(filt: PrototypeFilter, cp_ratio) -> CheckResult:
    """Both closed forms are even in l, compared at 200 fixed points l in (0.01, 30)."""
    ls = _spread(200, 0.01, 30.0)
    worst = 0.0
    for grid_fn, kw in ((_oqam_to_ofdm_grid, {"var_pam": 1.0}),
                        (_ofdm_to_oqam_grid, {"cp_ratio": cp_ratio, "var_qam": 1.0})):
        pos = grid_fn(ls, filt, **kw)
        neg = grid_fn(-ls, filt, **kw)
        worst = max(worst, float(np.max(np.abs(pos - neg) / np.maximum(pos, 1e-300))))
    return CheckResult("l-symmetry", worst <= _SYMMETRY_TOL, f"max rel asymmetry {worst:.2e}")


def check_reciprocity(filt: PrototypeFilter) -> CheckResult:
    """At cp = 0 the i2s form with var_qam = 2 var_pam equals the s2i form.

    Compared at the integers 0..20 and 179 fixed points l in (-30, 30).
    """
    ls = np.concatenate([np.arange(0, 21, dtype=float), _spread(200 - 21, -30.0, 30.0)])
    s2i = _oqam_to_ofdm_grid(ls, filt, 1.0)
    i2s = _ofdm_to_oqam_grid(ls, filt, Fraction(0), 2.0)
    worst = float(np.max(np.abs(s2i - i2s) / np.maximum(s2i, 1e-300)))
    return CheckResult("cp0-reciprocity", worst <= _RECIPROCITY_TOL,
                       f"max rel deviation {worst:.2e} (var_qam = 2 var_pam, cp = 0)")


def _parseval_estimates(filt: PrototypeFilter) -> tuple[float, float]:
    """Richardson estimates of sum_l I(l) from the (2^11, 2^12) and (2^12, 2^13) partial sums."""
    L = _PARSEVAL_L
    vals = _oqam_to_ofdm_grid(np.arange(-L, L, dtype=float), filt, 1.0)
    s_quarter, s_half, s_full = (float(np.sum(vals[L - n:L + n])) for n in (L // 4, L // 2, L))
    return 2 * s_half - s_quarter, 2 * s_full - s_half


def check_parseval(filt: PrototypeFilter) -> CheckResult:
    """sum over all integer l of the s2i I(l) must equal the captured pulse energy.

    At large |l| each shift's window integral is set by the jumps of the
    windowed pulse, (g(1 - tau) - g(-tau)) / (j 2 pi l) at integer l (a jump
    of the pulse inside the window adds a (-1)^l term), so I(l) falls as
    1/l^2 and the partial sum over the half-open grid [-L, L) is

        S(L) = E - C/L + O(1/L^3).

    The half-open grid counts l = -L but not +L, which cancels the 1/L^2
    terms of the two tails (also the alternating ones, for even L).  One
    Richardson step 2 S(2L) - S(L) therefore leaves O(1/L^3).  The check
    fails when the (2^12, 2^13) estimate misses the oracle's E by more than
    _PARSEVAL_TOL, or when it differs from the (2^11, 2^12) estimate by more
    than _PARSEVAL_TOL (a tail that breaks the expansion).
    """
    coarse, fine = _parseval_estimates(filt)
    const = oracle_parseval_constant(filt)
    dev = _rel(fine, const)
    spread = _rel(fine, coarse)
    # two pulse streams per period at unit energy: the captured total must be 2
    dev_energy = _rel(const, 2.0)
    passed = dev <= _PARSEVAL_TOL and spread <= _PARSEVAL_TOL and dev_energy <= _ENERGY_TOL
    return CheckResult("parseval-power-conservation", passed,
                       f"extrapolated sum_l I(l) = {fine:.9f} vs captured energy {const:.9f} "
                       f"(rel {dev:.2e}, Richardson spread {spread:.2e}; "
                       f"energy vs 2: {dev_energy:.2e})")


def check_decay_envelope(filt: PrototypeFilter, cp_ratio) -> CheckResult:
    ls = np.arange(1, 21, dtype=float)
    worst = -np.inf
    for vals in (_oqam_to_ofdm_grid(ls, filt, 1.0),
                 _ofdm_to_oqam_grid(ls, filt, cp_ratio, 1.0)):
        db = 10 * np.log10(vals)
        worst = max(worst, float(np.max(np.diff(db))))
    return CheckResult("decay-envelope", worst <= _RIPPLE_DB,
                       f"max dB step between successive integer l in 1..20: {worst:+.3f}")


def run_all_checks(filt: PrototypeFilter, cp_ratio) -> list[CheckResult]:
    """The full verification battery used by the CLI `verify` command."""
    cps = tuple(sorted({Fraction(0), Fraction(cp_ratio)}))
    cp = Fraction(cp_ratio) or Fraction(1, 8)  # symmetry and decay run with a prefix at cp = 0
    return [
        check_filter_normalization(filt),
        check_filter_unit_energy(filt),
        check_frequency_response_vs_dft(filt),
        check_oracle_equivalence(filt, cps),
        check_symmetry(filt, cp),
        check_reciprocity(filt),
        check_parseval(filt),
        check_decay_envelope(filt, cp),
    ]
