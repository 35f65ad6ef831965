"""Scalar reference for the tests of `fractional`, which must reproduce it
bit for bit: the equilibration of `_brasil_canonical` with a scalar extremum
search (one subinterval and one golden-section point at a time).
"""

import math

import numpy as np

from graphfield.fractional import STOP_RATIO, _interpolate


def bary_eval_points(x, y, fy, w):
    """Barycentric interpolant at the points x (any shape) in one product of
    the (x.size, k) Cauchy matrix with fy."""
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


def scalar_local_max(err, a, b, n=48):
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


def scalar_brasil_canonical(alpha_frac, m, maxiter=1000):
    """(ratio, (y, fy, w), loc, signed, sup) as `_brasil_canonical` returns."""
    f = lambda x: np.power(x, alpha_frac)  # noqa: E731
    nn = 2 * m + 1
    nodes = ((np.arange(1, nn + 1)) / (nn + 1)) ** (1.0 / alpha_frac)
    best = None
    gamma = 1.0
    prev_ratio = 0.0
    for _ in range(maxiter):
        y, fy, w = _interpolate(nodes, f(nodes))
        err = lambda x: f(np.asarray(x, float)) - bary_eval_points(x, y, fy, w)  # noqa: E731
        bounds = np.concatenate([[0.0], nodes, [1.0]])
        loc = np.empty(nn + 1)
        eps = np.empty(nn + 1)
        for j in range(nn + 1):
            loc[j], eps[j] = scalar_local_max(err, bounds[j], bounds[j + 1])
        ratio = eps.min() / eps.max()
        if best is None or ratio > best[0]:
            signed = np.array([float(err(x)) for x in loc])
            best = (ratio, (y, fy, w), loc.copy(), signed, eps.max())
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
