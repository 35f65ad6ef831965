"""Best rational approximation of x^a on [0, b] for a in (0,1), and its
partial-fraction form in the operator variable.

The minimax problem is solved on the canonical interval [0,1] by successive
interval-length equilibration of a barycentric rational interpolant: compute
the type (m,m) interpolant at 2m+1 nodes, locate the local error extrema on
the 2m+2 subintervals, and rescale the subinterval lengths toward equal
extrema.  At convergence the error curve equioscillates, which certificates
minimax optimality.  The homogeneity x^a = b^a (x/b)^a maps the solution to
any [0, b] exactly.

Substituting x = 1/lambda turns the approximant into
k + sum_i r_i / (lambda - p_i) with k, r_i > 0 and p_i < 0, the form applied
to the discrete operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import svd


class RationalError(RuntimeError):
    pass


class NonConvergenceError(RationalError):
    """Node equilibration failed to reach an acceptable equioscillation ratio."""

    def __init__(self, ratio, approx):
        super().__init__(
            f"equioscillation ratio {ratio:.4f} below 0.95 after the iteration limit"
        )
        self.ratio = ratio
        self.last_iterate = approx


@dataclass(frozen=True)
class RationalApprox:
    """Minimax rational approximation of x^alpha_frac on [0, interval]."""

    alpha_frac: float
    m: int
    interval: float
    numerator: tuple      # a_0..a_m, monomial basis on [0, interval]
    denominator: tuple    # b_0..b_m, normalized so b_0 = 1
    sup_error: float
    equioscillation_ratio: float
    extrema: tuple        # locations on [0, interval]
    extrema_values: tuple  # signed errors f - r at the extrema
    support: tuple        # barycentric internals, canonical [0,1]
    support_values: tuple
    weights: tuple

    def evaluate(self, x):
        """Evaluate the approximant (barycentric form, stable)."""
        b = self.interval
        u = np.asarray(x, dtype=float) / b
        return b**self.alpha_frac * _bary_eval(
            u, np.array(self.support), np.array(self.support_values), np.array(self.weights)
        )


@dataclass(frozen=True)
class PartialFractions:
    """Operator-variable form: r(1/lam) = k + sum_i residues_i/(lam - poles_i).

    All residues and k are positive and the poles negative; this is what makes
    each term of the covariance decomposition a valid covariance.
    """

    residues: tuple
    poles: tuple
    k: float
    alpha_frac: float
    interval: float

    @property
    def m(self) -> int:
        return len(self.poles)

    def evaluate(self, lam):
        lam = np.asarray(lam, dtype=float)
        r = np.array(self.residues)
        p = np.array(self.poles)
        return self.k + (r[None, :] / (lam[..., None] - p[None, :])).sum(axis=-1)

    def rescaled(self, b: float) -> "PartialFractions":
        """Map the decomposition from [0, interval] to [0, interval*b] using
        the homogeneity of x^a (exact)."""
        a = self.alpha_frac
        return PartialFractions(
            residues=tuple(b ** (a - 1) * r for r in self.residues),
            poles=tuple(p / b for p in self.poles),
            k=b**a * self.k,
            alpha_frac=a,
            interval=self.interval * b,
        )


# -- barycentric machinery -------------------------------------------------------


def _bary_eval(x, y, fy, w):
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.atleast_1d(x).ravel()
    diff = x[:, None] - y[None, :]
    hit = diff == 0.0
    diff[hit] = 1.0
    c = w / diff
    with np.errstate(invalid="ignore"):
        r = (c @ fy) / c.sum(axis=1)
    i, j = np.nonzero(hit)
    r[i] = fy[j]
    return r.reshape(shape)


def _interpolate(nodes, fvals):
    """Type (m,m) rational interpolant at 2m+1 nodes: barycentric support on
    the even-indexed nodes, Loewner nullspace enforcing the odd-indexed ones."""
    y, fy = nodes[0::2], fvals[0::2]
    t, ft = nodes[1::2], fvals[1::2]
    loewner = (ft[:, None] - fy[None, :]) / (t[:, None] - y[None, :])
    w = svd(loewner)[2][-1]
    return y, fy, w


def _local_max(err, a, b, n=48):
    """Location and magnitude of the largest |err| on [a, b] (endpoints
    included); geometric sampling when the interval spans decades, then a
    golden-section polish of the best bracket."""
    if a > 0 and b / a > 8:
        xs = np.geomspace(a, b, n)
    else:
        xs = np.linspace(a, b, n)
    vals = np.abs(err(xs))
    kk = int(np.argmax(vals))
    best_x, best_v = xs[kk], vals[kk]
    lo, hi = xs[max(kk - 1, 0)], xs[min(kk + 1, n - 1)]
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - gr * (hi - lo)
    d = lo + gr * (hi - lo)
    fc = abs(float(err(c)))
    fd = abs(float(err(d)))
    for _ in range(40):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - gr * (hi - lo)
            fc = abs(float(err(c)))
        else:
            lo, c, fc = c, d, fd
            d = lo + gr * (hi - lo)
            fd = abs(float(err(d)))
    xm = 0.5 * (lo + hi)
    vm = abs(float(err(xm)))
    if vm > best_v:
        best_x, best_v = xm, vm
    return best_x, best_v


@lru_cache(maxsize=256)
def _brasil_canonical(alpha_frac: float, m: int, tol_ratio: float, maxiter: int):
    """Equilibrated minimax solve of x^alpha_frac on [0,1]."""
    f = lambda x: np.power(x, alpha_frac)  # noqa: E731
    nn = 2 * m + 1
    # initial nodes clustered toward 0 to match the x^a curvature
    nodes = ((np.arange(1, nn + 1)) / (nn + 1)) ** (1.0 / alpha_frac)
    best = None
    gamma = 1.0
    prev_ratio = 0.0
    for _ in range(maxiter):
        y, fy, w = _interpolate(nodes, f(nodes))
        err = lambda x: f(np.asarray(x, float)) - _bary_eval(x, y, fy, w)  # noqa: E731
        bounds = np.concatenate([[0.0], nodes, [1.0]])
        loc = np.empty(nn + 1)
        eps = np.empty(nn + 1)
        for j in range(nn + 1):
            loc[j], eps[j] = _local_max(err, bounds[j], bounds[j + 1])
        ratio = eps.min() / eps.max()
        if best is None or ratio > best[0]:
            signed = np.array([float(err(x)) for x in loc])
            best = (ratio, (y, fy, w), loc.copy(), signed, eps.max())
        if ratio >= tol_ratio:
            break
        if ratio < 0.9 * prev_ratio:
            gamma = max(gamma * 0.5, 1.0 / 16)
        prev_ratio = ratio
        lengths = np.diff(bounds)
        gmean = math.exp(float(np.mean(np.log(eps))))
        lengths = lengths * (gmean / eps) ** gamma
        lengths /= lengths.sum()
        nodes = np.cumsum(lengths)[:-1]
    return best


# Largest rational order brasil accepts: above it the partial-fraction
# residues leave double precision at small fractional parts ({alpha} ~ 1/8)
# and the minimax solve itself breaks down.
ORDER_CAP = 16


def brasil(alpha_frac: float, m: int, b: float = 1.0, tol_ratio: float = 0.9999,
           maxiter: int = 1000) -> RationalApprox:
    """Best L_inf rational approximation of x^alpha_frac on [0, b], type (m, m),
    for 1 <= m <= ORDER_CAP.

    Raises NonConvergenceError (carrying the last iterate and its deviation
    ratio) if the equilibration cannot certify near-equioscillation.
    """
    if not (0.0 < alpha_frac < 1.0):
        raise RationalError(f"fractional exponent must be in (0,1), got {alpha_frac}")
    if m < 1:
        raise RationalError("rational order m must be >= 1")
    if m > ORDER_CAP:
        raise RationalError(f"rational order m={m} exceeds the cap {ORDER_CAP}")
    if not (b > 0):
        raise RationalError("interval endpoint must be positive")
    ratio, (y, fy, w), loc, signed, sup = _brasil_canonical(
        float(alpha_frac), int(m), float(tol_ratio), int(maxiter)
    )
    # alternating signs at the extrema certify minimax optimality
    signs = np.sign(signed)
    alternating = bool(np.all(signs[1:] * signs[:-1] < 0))
    num1, den1 = _monomial_coeffs(y, fy, w)
    # the denominator must be pole-free on the approximation interval; the
    # monomial form is only trustworthy at moderate orders (partial_fractions
    # re-validates via the bracketed pole locations at any order)
    if m <= 8:
        q_on_grid = np.polyval(den1[::-1], np.linspace(0.0, 1.0, 4096))
        if np.min(q_on_grid) * np.max(q_on_grid) <= 0:
            raise RationalError("denominator changes sign on the interval")
    approx = RationalApprox(
        alpha_frac=float(alpha_frac),
        m=int(m),
        interval=float(b),
        numerator=tuple(b**alpha_frac * num1 / b ** np.arange(m + 1)),
        denominator=tuple(den1 / b ** np.arange(m + 1)),
        sup_error=float(sup * b**alpha_frac),
        equioscillation_ratio=float(ratio),
        extrema=tuple(loc * b),
        extrema_values=tuple(signed * b**alpha_frac),
        support=tuple(y),
        support_values=tuple(fy),
        weights=tuple(w),
    )
    if ratio < 0.95 or not alternating:
        raise NonConvergenceError(ratio, approx)
    return approx


def _monomial_coeffs(y, fy, w):
    """Expand the barycentric numerator/denominator into monomial coefficients
    (a_0..a_m), (b_0..b_m) with the denominator normalized to b_0 = 1."""
    mm = len(y)
    num = np.zeros(mm)
    den = np.zeros(mm)
    for j in range(mm):
        pj = np.poly(np.delete(y, j))  # highest power first
        num += w[j] * fy[j] * pj
        den += w[j] * pj
    num = num[::-1]  # a_0 .. a_m
    den = den[::-1]
    if den[0] == 0:
        raise RationalError("denominator vanishes at 0; invalid interpolant")
    return num / den[0], den / den[0]


# -- partial fractions ------------------------------------------------------------


@lru_cache(maxsize=256)
def partial_fractions(approx: RationalApprox) -> PartialFractions:
    """Decompose r(1/lambda) = k + sum r_i/(lambda - p_i).

    Memoized: both dataclasses are frozen, and `brasil` returns equal
    approximations for equal arguments.

    Poles are found as bracketed sign changes of the barycentric denominator
    on the negative axis (they interlace the support-point magnitudes), which
    stays accurate when they span many orders of magnitude.  Sign constraints
    (r_i, k > 0, p_i < 0) are validated; violations raise RationalError.
    """
    y = np.array(approx.support)
    fy = np.array(approx.support_values)
    w = np.array(approx.weights)
    m = approx.m

    # roots of sum w_j/(x - y_j) at x = -u, u > 0
    def h(u):
        return float(np.sum(w / (u + y)))

    ys = np.sort(y)
    lo, hi = ys[0] / 100.0, ys[-1] * 100.0
    ngrid = max(64, int(math.log10(hi / lo) * 256))
    grid = np.geomspace(lo, hi, ngrid)
    vals = np.sum(w[None, :] / (grid[:, None] + y[None, :]), axis=1)
    idx = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    if len(idx) != m:
        raise RationalError(
            f"expected {m} simple poles, found {len(idx)} sign changes "
            "(repeated or complex poles)"
        )
    from scipy.optimize import brentq  # imported here: scipy.optimize is slow to import

    xpoles = np.empty(m)
    for i, g in enumerate(idx):
        v = brentq(lambda lv: h(math.exp(lv)), math.log(grid[g]), math.log(grid[g + 1]),
                   xtol=2e-16, rtol=8.9e-16)
        xpoles[i] = -math.exp(v)

    def numer(x):
        return sum(w[j] * fy[j] * np.prod(x - np.delete(y, j)) for j in range(len(y)))

    def denom_prime(x):
        tot = 0.0
        for j in range(len(y)):
            yk = np.delete(y, j)
            for el in range(len(yk)):
                tot += w[j] * np.prod(x - np.delete(yk, el))
        return tot

    denom0 = sum(w[j] * np.prod(-np.delete(y, j)) for j in range(len(y)))
    k1 = numer(0.0) / denom0
    p1 = 1.0 / xpoles
    r1 = np.array([-numer(x) / (x**2 * denom_prime(x)) for x in xpoles])

    pf = PartialFractions(
        residues=tuple(r1), poles=tuple(p1), k=float(k1),
        alpha_frac=approx.alpha_frac, interval=1.0,
    ).rescaled(approx.interval)
    # an overflowing residue is +inf and would pass the sign check below
    if not np.all(np.isfinite([pf.k, *pf.residues, *pf.poles])):
        raise RationalError(f"decomposition not finite: a residue, pole or k "
                            f"is inf or nan (m={m})")
    if not (pf.k > 0 and all(r > 0 for r in pf.residues) and all(p < 0 for p in pf.poles)):
        raise RationalError("decomposition not a covariance: sign constraint violated")
    return pf


# -- order calibration ------------------------------------------------------------

def calibrate_order(alpha: float, h: float, c: float = 1.0) -> int:
    """Rational order balancing FEM and rational error terms:
    m = c * ceil((min{2a - 1/2, 2} + 1/2)^2 log^2(h) / (4 pi^2 {a})), natural log,
    capped at ORDER_CAP.

    Integer alpha returns 0 (the rational stage is bypassed).
    """
    if alpha <= 0.5:
        raise ValueError("alpha must exceed 1/2")
    frac = alpha - math.floor(alpha)
    if frac < 1e-12 or frac > 1 - 1e-12:
        return 0
    if not (0.0 < h < 1.0):
        raise ValueError("order calibration assumes a mesh width h in (0, 1)")
    rate = min(2 * alpha - 0.5, 2.0)
    x = (rate + 0.5) ** 2 * math.log(h) ** 2 / (4 * math.pi**2 * frac)
    return min(ORDER_CAP, max(1, int(math.ceil(c * math.ceil(x - 1e-12)))))
