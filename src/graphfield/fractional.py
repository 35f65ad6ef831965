"""Best rational approximation of x^a on [0, b] for a in (0,1), and its
partial-fraction form in the operator variable.

The minimax problem is solved on the canonical interval [0,1] by successive
interval-length equilibration of a barycentric rational interpolant: compute
the type (m,m) interpolant at 2m+1 nodes, locate the local error extrema on
the 2m+2 subintervals, and rescale the subinterval lengths toward equal
extrema.  At convergence the error curve equioscillates, which certificates
minimax optimality.  The homogeneity x^a = b^a (x/b)^a maps the solution to
any [0, b] exactly.

The local extrema of all 2m+2 subintervals are searched in lockstep: one
stacked 48-point grid, then 40 golden-section steps taken together, with
np.where choosing each subinterval's bracket.  This reproduces a search of
one subinterval and one point at a time bit for bit, because every value is
computed with the same arithmetic: each subinterval's grid is its own gemv
((J, 48, k) @ fy is J separate products), each golden-section point its own
dot ((J, 1, k) @ fy), and row sums and np.power work elementwise.  A single
(J, k) @ fy gemv for J points would round differently, and since the
equilibration stops at the first iterate with ratio >= STOP_RATIO, a
different rounding path ends at a different nearby solution.

Substituting x = 1/lambda turns the approximant into
k + sum_i r_i / (lambda - p_i) with k, r_i > 0 and p_i < 0, the form applied
to the discrete operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError, svd


class RationalError(RuntimeError):
    pass


class NonConvergenceError(RationalError):
    """Node equilibration failed to certify minimax optimality; `failed`
    names the certificate that failed."""

    def __init__(self, ratio, approx, failed):
        super().__init__(f"minimax solve not certified: {failed}")
        self.ratio = ratio
        self.last_iterate = approx


@dataclass(frozen=True)
class RationalApprox:
    """Minimax rational approximation of x^alpha_frac on [0, interval]."""

    alpha_frac: float
    m: int
    interval: float
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
            u.reshape(1, -1), np.array(self.support), np.array(self.support_values),
            np.array(self.weights),
        ).reshape(u.shape)


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
    """Barycentric interpolant at the points x of shape (J, P), row by row.

    Each row is one BLAS product of its (P, k) Cauchy matrix with fy (a gemv,
    or a dot when P = 1), and the row sums run along the last axis, so row j
    rounds exactly as a call on x[j] alone: x[:, None] gives J one-point
    evaluations."""
    diff = x[..., None] - y
    hit = diff == 0.0
    diff[hit] = 1.0
    c = w / diff
    with np.errstate(invalid="ignore"):
        r = (c @ fy) / c.sum(axis=-1)
    i, p, j = np.nonzero(hit)
    r[i, p] = fy[j]
    return r


def _interpolate(nodes, fvals):
    """Type (m,m) rational interpolant at 2m+1 nodes: barycentric support on
    the even-indexed nodes, Loewner nullspace enforcing the odd-indexed ones."""
    y, fy = nodes[0::2], fvals[0::2]
    t, ft = nodes[1::2], fvals[1::2]
    loewner = (ft[:, None] - fy[None, :]) / (t[:, None] - y[None, :])
    w = svd(loewner)[2][-1]
    return y, fy, w


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _local_max(err, a, b, n=48):
    """Location and magnitude of the largest |err| on each subinterval
    [a_j, b_j] (endpoints included), all subintervals in lockstep: an n-point
    grid (geometric when the subinterval spans decades), then 40 golden-section
    steps on the bracket of the best grid point.  Every subinterval makes the
    comparisons and the one-point evaluations of a search on it alone."""
    rows = np.arange(len(a))
    geo = a > 0
    geo[geo] = b[geo] / a[geo] > 8
    xs = np.linspace(a, b, n, axis=-1)
    if geo.any():
        xs[geo] = np.geomspace(a[geo], b[geo], n, axis=-1)
    vals = np.abs(err(xs))
    kk = np.argmax(vals, axis=1)
    best_x, best_v = xs[rows, kk], vals[rows, kk]
    lo = xs[rows, np.maximum(kk - 1, 0)]
    hi = xs[rows, np.minimum(kk + 1, n - 1)]

    def at(x):
        return np.abs(err(x[:, None]))[:, 0]

    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = at(c), at(d)
    for _ in range(40):
        left = fc > fd  # keep [lo, d], else [c, hi]
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        x = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fx = at(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    xm = 0.5 * (lo + hi)
    vm = at(xm)
    better = vm > best_v
    return np.where(better, xm, best_x), np.where(better, vm, best_v)


# Largest rational order brasil accepts: above it the partial-fraction
# residues leave double precision at small fractional parts ({alpha} ~ 1/8)
# and the minimax solve itself breaks down.
ORDER_CAP = 16
# The equilibration stops at the first iterate whose equioscillation ratio
# (smallest over largest local error extremum) reaches this.
STOP_RATIO = 0.9999


@lru_cache(maxsize=256)
def _brasil_canonical(alpha_frac: float, m: int, maxiter: int):
    """Equilibrated minimax solve of x^alpha_frac on [0,1]."""
    f = lambda x: np.power(x, alpha_frac)  # noqa: E731
    nn = 2 * m + 1
    # initial nodes clustered toward 0 to match the x^a curvature
    nodes = ((np.arange(1, nn + 1)) / (nn + 1)) ** (1.0 / alpha_frac)
    best = None
    gamma = 1.0
    prev_ratio = 0.0
    for _ in range(maxiter):
        bounds = np.concatenate([[0.0], nodes, [1.0]])
        # finite, increasing and at least the smallest normal float apart: a
        # grid step that underflows to 0 would make np.linspace switch every
        # subinterval's grid to another formula
        if not np.diff(bounds).min() >= np.finfo(float).tiny:
            raise RationalError(
                f"minimax nodes underflow or coincide for {{alpha}} = {alpha_frac:.6g}, "
                f"m = {m}: the fractional part of alpha is too small"
            )
        try:
            y, fy, w = _interpolate(nodes, f(nodes))
        except LinAlgError as exc:
            raise RationalError(
                f"interpolation SVD did not converge for {{alpha}} = {alpha_frac:.6g}, m = {m}"
            ) from exc
        err = lambda x: f(x) - _bary_eval(x, y, fy, w)  # noqa: E731
        loc, eps = _local_max(err, bounds[:-1], bounds[1:])
        ratio = eps.min() / eps.max()
        if best is None or ratio > best[0]:
            signed = err(loc[:, None])[:, 0]
            best = (ratio, (y, fy, w), loc, signed, eps.max())
        if ratio >= STOP_RATIO:
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


def brasil(alpha_frac: float, m: int, b: float = 1.0, maxiter: int = 1000) -> RationalApprox:
    """Best L_inf rational approximation of x^alpha_frac on [0, b], type (m, m),
    for 1 <= m <= ORDER_CAP.

    Raises RationalError when the minimax nodes underflow (alpha_frac too
    small for m) or the interpolation fails, and NonConvergenceError (carrying
    the last iterate and its deviation ratio, and naming the failed
    certificate) if the equilibration cannot certify near-equioscillation.
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
        float(alpha_frac), int(m), int(maxiter)
    )
    # alternating signs at the extrema certify minimax optimality
    signs = np.sign(signed)
    alternating = bool(np.all(signs[1:] * signs[:-1] < 0))
    approx = RationalApprox(
        alpha_frac=float(alpha_frac),
        m=int(m),
        interval=float(b),
        sup_error=float(sup * b**alpha_frac),
        equioscillation_ratio=float(ratio),
        extrema=tuple(loc * b),
        extrema_values=tuple(signed * b**alpha_frac),
        support=tuple(y),
        support_values=tuple(fy),
        weights=tuple(w),
    )
    failed = []
    if ratio < 0.95:
        failed.append(f"equioscillation ratio {ratio:.4f} below 0.95 after the iteration limit")
    if not alternating:
        failed.append(f"the error signs at the {2 * m + 2} extrema do not alternate")
    if failed:
        raise NonConvergenceError(ratio, approx, "; ".join(failed))
    return approx


# -- partial fractions ------------------------------------------------------------


@lru_cache(maxsize=256)
def partial_fractions(approx: RationalApprox) -> PartialFractions:
    """Decompose r(1/lambda) = k + sum r_i/(lambda - p_i), read off the
    barycentric form r(x) = n(x)/d(x), n = sum w f/(x - y), d = sum w/(x - y).

    Memoized: both dataclasses are frozen, and `brasil` returns equal
    approximations for equal arguments.

    The poles x_i of r are the zeros of d on the negative axis; they interlace
    the support-point magnitudes, so each is bracketed by a sign change of d on
    a log grid and the m brackets are bisected together in log |x|, which
    stays accurate when the poles span many orders of magnitude.  With
    p_i = 1/x_i, the residue is r_i = -n(x_i)/(x_i^2 d'(x_i)) and k = r(0).
    Sign constraints (r_i, k > 0, p_i < 0) are validated; violations raise
    RationalError.
    """
    y = np.array(approx.support)
    fy = np.array(approx.support_values)
    w = np.array(approx.weights)
    m = approx.m

    def h(u):  # -d(-u) at each u > 0
        return (w / (u[:, None] + y)).sum(axis=1)

    lo, hi = y.min() / 100.0, y.max() * 100.0
    ngrid = max(64, int(math.log10(hi / lo) * 256))
    grid = np.geomspace(lo, hi, ngrid)
    vals = h(grid)
    idx = np.nonzero(np.sign(vals[1:]) != np.sign(vals[:-1]))[0]
    if len(idx) != m:
        raise RationalError(
            f"expected {m} simple poles for {{alpha}} = {approx.alpha_frac:.6g}, m = {m}, "
            f"found {len(idx)} sign changes of the denominator on [-{hi:.3g}, -{lo:.3g}] "
            "(repeated or complex poles, or a pole outside that range)"
        )
    a, b = np.log(grid[idx]), np.log(grid[idx + 1])
    sign_a = np.sign(vals[idx])
    for _ in range(60):
        mid = 0.5 * (a + b)
        right = np.sign(h(np.exp(mid))) == sign_a  # the root lies in [mid, b]
        a = np.where(right, mid, a)
        b = np.where(right, b, mid)
    xpoles = -np.exp(0.5 * (a + b))

    diff = xpoles[:, None] - y
    r1 = (w * fy / diff).sum(axis=1) / (xpoles**2 * (w / diff**2).sum(axis=1))
    k1 = np.sum(w * fy / y) / np.sum(w / y)

    pf = PartialFractions(
        residues=tuple(r1), poles=tuple(1.0 / xpoles), k=float(k1),
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

def fractional_part(alpha: float) -> float:
    """{alpha} = alpha - floor(alpha), snapped to 0 within 1e-12 of an
    integer: the rule by which integer alpha bypasses the rational stage."""
    frac = alpha - math.floor(alpha)
    return 0.0 if frac < 1e-12 or frac > 1 - 1e-12 else frac


def calibrate_order(alpha: float, h: float, c: float = 1.0) -> int:
    """Rational order balancing FEM and rational error terms:
    m = c * ceil((min{2a - 1/2, 2} + 1/2)^2 log^2(h) / (4 pi^2 {a})), natural log,
    capped at ORDER_CAP.

    Integer alpha returns 0 (the rational stage is bypassed).
    """
    if alpha <= 0.5:
        raise ValueError("alpha must exceed 1/2")
    frac = fractional_part(alpha)
    if frac == 0.0:
        return 0
    if not (0.0 < h < 1.0):
        raise ValueError(f"order calibration assumes a mesh width h in (0, 1), got {h:g}")
    rate = min(2 * alpha - 0.5, 2.0)
    x = (rate + 0.5) ** 2 * math.log(h) ** 2 / (4 * math.pi**2 * frac)
    return min(ORDER_CAP, max(1, int(math.ceil(c * math.ceil(x - 1e-12)))))
