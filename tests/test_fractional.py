import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfield.fractional as fractional
from graphfield.fractional import (ORDER_CAP, NonConvergenceError, RationalError,
                                   _bary_eval, _brasil_canonical, brasil, calibrate_order,
                                   fractional_part, partial_fractions)
from scalar_brasil import bary_eval_points, scalar_brasil_canonical


def dense_sup_error(approx, n=100_000):
    """Independent sup-norm measurement on a dense grid."""
    x = np.linspace(0.0, approx.interval, n)
    return float(np.abs(x**approx.alpha_frac - approx.evaluate(x)).max())


def test_monotone_improvement_m1_to_m2():
    e1 = dense_sup_error(brasil(0.5, 1))
    e2 = dense_sup_error(brasil(0.5, 2))
    assert e2 < e1


def test_sup_error_alpha_half_m4():
    # true minimax error for x^{1/2}, type (4,4) on [0,1]; Stahl's asymptotic
    # constant 4^{3/2} puts it at ~1.1e-3 * e^{-2pi sqrt(2)} scale
    ra = brasil(0.5, 4)
    measured = dense_sup_error(ra)
    assert ra.sup_error == pytest.approx(measured, rel=1e-3)
    assert 6e-4 < ra.sup_error < 8e-4


def test_reported_sup_matches_dense_grid():
    for af, m in ((0.25, 3), (0.75, 5)):
        ra = brasil(af, m)
        assert ra.sup_error == pytest.approx(dense_sup_error(ra), rel=1e-4)


def test_interval_rescaling_identity():
    ra1 = brasil(0.5, 3, b=1.0)
    rab = brasil(0.5, 3, b=0.2)
    x = np.linspace(0, 0.2, 4001)
    d = np.abs(rab.evaluate(x) - 0.2**0.5 * ra1.evaluate(x / 0.2)).max()
    assert d < 1e-12


def test_equioscillation_certificate():
    ra = brasil(0.3, 4)
    assert ra.equioscillation_ratio >= 0.95
    assert len(ra.extrema) == 2 * ra.m + 2
    signs = np.sign(ra.extrema_values)
    assert np.all(signs[1:] * signs[:-1] < 0)


def test_hand_case_m1_partial_fractions():
    ra = brasil(0.5, 1)
    (y0, y1), (f0, f1), (w0, w1) = ra.support, ra.support_values, ra.weights
    pf = partial_fractions(ra)
    # r(x) = n(x)/d(x) with d(x) = w0/(x - y0) + w1/(x - y1), whose one zero
    # x* = (w0 y1 + w1 y0)/(w0 + w1) is the pole 1/x* in lambda = 1/x; k = r(0)
    x_star = (w0 * y1 + w1 * y0) / (w0 + w1)
    k = (w0 * f0 / y0 + w1 * f1 / y1) / (w0 / y0 + w1 / y1)
    assert pf.k == pytest.approx(k, rel=1e-12)
    assert pf.poles[0] == pytest.approx(1.0 / x_star, rel=1e-10)
    lam = np.geomspace(1.0, 1e6, 7)
    assert pf.evaluate(lam) == pytest.approx(ra.evaluate(1.0 / lam), rel=1e-9)


def test_sign_constraints_alpha_half_m3():
    pf = partial_fractions(brasil(0.5, 3))
    assert all(p < 0 for p in pf.poles)
    assert all(r > 0 for r in pf.residues)
    assert pf.k > 0


def test_reconstruction_over_random_lambda():
    rng = np.random.default_rng(11)
    for af, m, b in ((0.25, 4, 1.0), (0.75, 5, 1.0), (0.5, 3, 0.125)):
        ra = brasil(af, m, b=b)
        pf = partial_fractions(ra)
        lam = np.exp(rng.uniform(np.log(1.0 / b), np.log(1e6), 100))
        lhs = ra.evaluate(1.0 / lam)
        rhs = pf.evaluate(lam)
        assert np.abs(lhs - rhs).max() / np.abs(lhs).max() < 1e-10


def test_equioscillation_grid():
    # spec invariant: ratio >= 0.95 over {0.1..0.9} x {1..6}, with valid signs
    for af in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        for m in range(1, 7):
            ra = brasil(af, m)
            assert ra.equioscillation_ratio >= 0.95, (af, m)
            pf = partial_fractions(ra)
            assert pf.k > 0 and all(r > 0 for r in pf.residues) \
                and all(p < 0 for p in pf.poles), (af, m)


def test_sup_error_strictly_decreasing_in_m():
    for af in (0.25, 0.5, 0.75):
        errs = [brasil(af, m).sup_error for m in range(1, 7)]
        assert all(a > b for a, b in zip(errs, errs[1:])), (af, errs)


def test_stahl_decay_slope():
    # log sup-error vs sqrt(m) slope within 25% of -2 pi sqrt(alpha)
    for af in (0.25, 0.5, 0.75):
        ms = np.arange(1, 7)
        errs = np.array([brasil(af, m).sup_error for m in ms])
        slope = np.polyfit(np.sqrt(ms), np.log(errs), 1)[0]
        target = -2 * math.pi * math.sqrt(af)
        assert abs(slope - target) <= 0.25 * abs(target), (af, slope, target)


def test_invalid_arguments():
    with pytest.raises(RationalError):
        brasil(1.2, 3)
    with pytest.raises(RationalError):
        brasil(0.5, 0)
    with pytest.raises(RationalError):
        brasil(0.5, 2, b=-1.0)


def test_order_above_cap_rejected_before_solving():
    solves = _brasil_canonical.cache_info().misses
    with pytest.raises(RationalError, match=f"exceeds the cap {ORDER_CAP}"):
        brasil(0.1, 24)
    assert _brasil_canonical.cache_info().misses == solves


def test_nonconvergence_carries_iterate():
    with pytest.raises(NonConvergenceError) as exc:
        brasil(0.5, 6, maxiter=2)
    assert exc.value.ratio < 0.95
    assert exc.value.last_iterate.m == 6


def test_nonconvergence_names_the_failed_certificate(monkeypatch):
    with pytest.raises(NonConvergenceError, match="ratio .* below 0.95"):
        brasil(0.5, 6, maxiter=2)
    # a converged ratio with one extremum's sign flipped fails only the
    # alternation certificate
    ratio, coeffs, loc, signed, sup = _brasil_canonical(0.5, 3, 1000)
    flipped = signed.copy()
    flipped[1] = -flipped[1]
    monkeypatch.setattr(fractional, "_brasil_canonical",
                        lambda *args: (ratio, coeffs, loc, flipped, sup))
    with pytest.raises(NonConvergenceError, match="signs at the 8 extrema do not alternate") \
            as exc:
        brasil(0.5, 3)
    assert "below 0.95" not in str(exc.value)


def test_svd_failure_raises_rational_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(fractional, "svd", no_convergence)
    with pytest.raises(RationalError, match=r"SVD did not converge for \{alpha\} = 0.3701, m = 2"):
        brasil(0.3701, 2)


# the pairs the other tier-1 tests solve, and three whose support points
# reach 1e-20 and below
DECOMPOSED_PAIRS = (
    [(af, m) for af in (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9)
     for m in range(1, 7)]
    + [(0.05, 1), (0.125, 14), (0.125, 16), (0.4, 16), (0.5, 8), (0.875, 2), (0.875, 3)]
    + [(0.02, 12), (0.01, 8), (0.01, 16)]
)


def test_partial_fractions_match_approximant():
    lam = np.geomspace(1e-2, 1e12, 2001)
    for af, m in DECOMPOSED_PAIRS:
        ra = brasil(af, m)
        pf = partial_fractions(ra)
        assert pf.k > 0 and all(r > 0 for r in pf.residues) \
            and all(p < 0 for p in pf.poles), (af, m)
        miss = np.abs(ra.evaluate(1.0 / lam) - pf.evaluate(lam)).max()
        assert miss <= 0.1 * ra.sup_error, (af, m, miss / ra.sup_error)


def test_missing_pole_names_alpha_and_m():
    with pytest.raises(RationalError,
                       match=r"expected 7 simple poles for \{alpha\} = 0.95, m = 7, "
                             r"found 6 sign changes"):
        partial_fractions(brasil(0.95, 7))


# -- the lockstep extremum search against the scalar reference --------------------


@pytest.mark.parametrize("alpha_frac, m", [(0.4, 16), (0.9, 3), (0.9, 6), (0.5, 8), (0.25, 5)])
def test_lockstep_search_matches_scalar_reference(alpha_frac, m):
    ratio, (y, fy, w), loc, signed, sup = _brasil_canonical(alpha_frac, m, 1000)
    r_ratio, (r_y, r_fy, r_w), r_loc, r_signed, r_sup = scalar_brasil_canonical(alpha_frac, m)
    for got, want in ((ratio, r_ratio), (y, r_y), (fy, r_fy), (w, r_w), (loc, r_loc),
                      (signed, r_signed), (sup, r_sup)):
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, ORDER_CAP + 1), rows=st.integers(1, 2 * ORDER_CAP + 2),
       hits=st.integers(0, 6), alpha_frac=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_stacked_evaluation_matches_one_point_calls(k, rows, hits, alpha_frac, seed):
    """Row j of a stacked evaluation equals a call on row j alone, for grid
    rows and for one-point rows (including points on the support), as the
    lockstep search assumes."""
    rng = np.random.default_rng(seed)
    y = np.sort(rng.uniform(0.0, 1.0, k) ** (1.0 / alpha_frac))
    fy = np.power(y, alpha_frac)
    w = rng.standard_normal(k)
    grid = rng.uniform(0.0, 1.0, (rows, 48)) ** (1.0 / alpha_frac)
    points = grid[:, 0].copy()
    for i in rng.integers(0, rows, hits):
        grid[i, rng.integers(48)] = points[i] = y[rng.integers(k)]
    stacked = _bary_eval(grid, y, fy, w)
    one_point = _bary_eval(points[:, None], y, fy, w)[:, 0]
    powers = np.power(points[:, None], alpha_frac)[:, 0]
    for i in range(rows):
        assert stacked[i].tobytes() == bary_eval_points(grid[i], y, fy, w).tobytes()
        assert one_point[i].tobytes() == bary_eval_points(points[i], y, fy, w).tobytes()
        assert powers[i].tobytes() == np.power(np.asarray(points[i]), alpha_frac).tobytes()


def test_calibrate_order_values():
    # Eq.-(7) with natural log and c=1 (frozen from the formula itself)
    assert calibrate_order(0.75, 2.0**-5) == 1
    assert calibrate_order(1.5, 2.0**-5) == 4
    assert calibrate_order(0.75, 2.0**-5.5) == 2
    # min{2 alpha - 1/2, 2} caps at 2 for alpha = 1.5, fractional part 0.5
    assert calibrate_order(1.5, 2.0**-5) == calibrate_order(1.5, 2**-5.0, 1.0)


def test_calibrate_order_integer_bypass():
    assert calibrate_order(1.0, 0.1) == 0
    assert calibrate_order(2.0, 0.01) == 0
    assert calibrate_order(2.0 - 1e-13, 0.01) == 0


def test_fractional_part_snaps_near_integers():
    for alpha in (2.0, 3.0 - 1e-13, 1.0 + 1e-13):
        assert fractional_part(alpha) == 0.0
    assert fractional_part(0.75) == 0.75
    assert fractional_part(1.4) == 1.4 - 1.0


def test_calibrate_order_errors():
    with pytest.raises(ValueError):
        calibrate_order(0.75, 1.5)
    with pytest.raises(ValueError):
        calibrate_order(0.4, 0.1)


def test_calibration_constant_scales():
    base = calibrate_order(0.75, 2.0**-5, 1.0)
    assert calibrate_order(0.75, 2.0**-5, 2.0) == 2 * base


def test_calibrate_order_capped():
    # uncapped, these ask for m = 21 and m = 60
    assert calibrate_order(1.05, 0.05) == ORDER_CAP
    assert calibrate_order(1.125, 2**-9, 1.5) == ORDER_CAP


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_partial_fractions_reject_non_finite():
    # on [0, 1e-320] the rescaled residue b^(a-1) r overflows to +inf, which
    # the sign check alone lets through
    with pytest.raises(RationalError, match="not finite"):
        partial_fractions(brasil(0.05, 1, b=1e-320))


def test_high_order_small_fraction():
    # orders demanded by the calibration at alpha = 1.125 must stay sound
    ra = brasil(0.125, 14)
    pf = partial_fractions(ra)
    lam = np.geomspace(1.0, 1e8, 200)
    rel = np.abs(ra.evaluate(1 / lam) - pf.evaluate(lam)).max() / ra.evaluate(1 / lam).max()
    assert rel < 1e-10
    assert all(p < 0 for p in pf.poles) and all(r > 0 for r in pf.residues)
