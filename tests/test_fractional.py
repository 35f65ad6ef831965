import math

import numpy as np
import pytest

from graphfield.fractional import (ORDER_CAP, NonConvergenceError, RationalError,
                                   brasil, calibrate_order, partial_fractions)


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
    a0, a1 = ra.numerator
    b0, b1 = ra.denominator
    pf = partial_fractions(ra)
    # r(1/lam) = (a0 lam + a1)/(b0 lam + b1): pole -b1/b0, k = a0/b0,
    # residue (a1 - a0 b1/b0)/b0 by elementary algebra
    assert pf.k == pytest.approx(a0 / b0, rel=1e-12)
    assert pf.poles[0] == pytest.approx(-b1 / b0, rel=1e-10)
    assert pf.residues[0] == pytest.approx((a1 - a0 * b1 / b0) / b0, rel=1e-9)


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


def test_nonconvergence_carries_iterate():
    with pytest.raises(NonConvergenceError) as exc:
        brasil(0.5, 6, maxiter=2)
    assert exc.value.ratio < 0.95
    assert exc.value.last_iterate.m == 6


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
