"""Exact covariance functions on analytic graphs and the dense spectral oracle.

These are the ground truths the FEM/rational pipeline is validated against:

* the Matern covariance, with the modified Bessel K_nu from
  ``scipy.special.kv``;
* folded Matern sums for the interval (Neumann reflections) and the circle
  (periodic wrapping);
* the tadpole covariance, both as a truncated Mercer series over the known
  Kirchhoff-Laplacian eigenpairs and in a fast closed form obtained by
  resumming that series into wrapped Matern terms;
* the dense generalized-eigenvalue covariance of the *discrete* operator,
  the reference for the rational approximation at fixed mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh


class OracleError(ValueError):
    """An oracle asked for parameters outside its domain."""


def bessel_kv(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x) for real nu and
    x >= 0, by ``scipy.special.kv``.

    Vectorized over x; x = 0 yields inf, K_{-nu} = K_nu, x < 0 raises
    ValueError, and a 0-d x returns a float.
    """
    from scipy.special import kv  # imported here: scipy.special is slow to import

    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("bessel_kv requires x >= 0")
    out = kv(abs(nu), x)
    return float(out) if x.ndim == 0 else out


# -- Matern covariance --------------------------------------------------------


@dataclass(frozen=True)
class MaternParams:
    """Whittle-Matern parameters on the line: smoothness nu = alpha - 1/2,
    range parameter kappa, and noise scaling tau."""

    nu: float
    kappa: float
    tau: float = 1.0

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.nu, self.kappa, self.tau)):  # NaN fails too
            raise OracleError(f"nu, kappa, tau must be finite and positive, got nu={self.nu!r} "
                              f"(alpha={self.nu + 0.5!r}), kappa={self.kappa!r}, "
                              f"tau={self.tau!r}")
        try:
            sigma2 = self.sigma2
        except (OverflowError, ZeroDivisionError):
            sigma2 = math.inf
        if not 0 < sigma2 < math.inf:
            raise OracleError(f"the marginal variance at nu={self.nu!r}, kappa={self.kappa!r}, "
                              f"tau={self.tau!r} is not a finite positive float")

    @property
    def sigma2(self) -> float:
        """Marginal variance Gamma(nu) / (tau^2 kappa^{2 nu} sqrt(4 pi) Gamma(nu + 1/2))."""
        return math.gamma(self.nu) / (
            self.tau**2 * self.kappa ** (2 * self.nu)
            * math.sqrt(4 * math.pi) * math.gamma(self.nu + 0.5)
        )

    @property
    def practical_range(self) -> float:
        return math.sqrt(8 * self.nu) / self.kappa

    @classmethod
    def from_alpha(cls, alpha: float, kappa: float, tau: float = 1.0) -> "MaternParams":
        return cls(alpha - 0.5, kappa, tau)

    @classmethod
    def unit_variance(cls, alpha: float, rho: float) -> "MaternParams":
        """Parameters with practical range rho and marginal variance 1: tau^2
        is the marginal variance at tau = 1.  Needs alpha > 1/2 and a finite
        rho > 0."""
        if not (alpha > 0.5 and 0 < rho < math.inf):  # NaN fails too
            raise OracleError(f"unit_variance needs alpha > 1/2 and a finite range rho > 0, "
                              f"got alpha={alpha!r}, rho={rho!r}")
        nu = alpha - 0.5
        kappa = math.sqrt(8 * nu) / rho
        return cls(nu, kappa, math.sqrt(cls(nu, kappa).sigma2))


def matern(h, p: MaternParams):
    """Matern covariance C(h) = sigma^2 / (2^{nu-1} Gamma(nu)) (kappa h)^nu K_nu(kappa h)."""
    h = np.abs(np.asarray(h, dtype=float))
    scalar = h.ndim == 0
    h = np.atleast_1d(h)
    out = np.full_like(h, p.sigma2)
    pos = h > 0
    if np.any(pos):
        z = p.kappa * h[pos]
        out[pos] = p.sigma2 / (2 ** (p.nu - 1) * math.gamma(p.nu)) * z**p.nu * bessel_kv(p.nu, z)
    return float(out[0]) if scalar else out


def _default_wraps(p: MaternParams, period: float) -> int:
    # wrap terms decay like exp(-kappa * period * k); 45 e-foldings leave the
    # truncation tail far below double precision of the leading term
    return max(1, math.ceil(45.0 / (p.kappa * period)) + 1)


def wrapped_matern(z, p: MaternParams, period: float, n_wraps: int | None = None):
    """sum_k C(z + k * period) over k = -n..n (n chosen adaptively by default),
    evaluated once per distinct value of z."""
    z = np.asarray(z, dtype=float)
    uniq, inv = np.unique(z, return_inverse=True)
    n = _default_wraps(p, period) if n_wraps is None else int(n_wraps)
    total = matern(uniq, p)
    for k in range(1, n + 1):
        total = total + matern(uniq + k * period, p) + matern(uniq - k * period, p)
    out = total[inv].reshape(z.shape)
    return float(out) if z.ndim == 0 else out


def folded_interval(s1, s2, p: MaternParams, length: float, n_wraps: int | None = None):
    """Exact Whittle-Matern covariance on the interval [0, length] (Neumann
    reflections): sum_k C(s1-s2+2kL) + C(s1+s2+2kL)."""
    s1 = np.asarray(s1, float)
    s2 = np.asarray(s2, float)
    return wrapped_matern(s1 - s2, p, 2 * length, n_wraps) \
        + wrapped_matern(s1 + s2, p, 2 * length, n_wraps)


def folded_circle(s1, s2, p: MaternParams, circumference: float,
                  n_wraps: int | None = None):
    """Exact Whittle-Matern covariance on a circle of the given circumference:
    the periodic wrapping sum_k C(s1-s2+k*circumference)."""
    s1 = np.asarray(s1, float)
    s2 = np.asarray(s2, float)
    return wrapped_matern(s1 - s2, p, circumference, n_wraps)


# -- tadpole graph -------------------------------------------------------------

# The tadpole has a tail of length 1 (t=0 free tip, t=1 junction) and a loop
# of length 2 (both ends at the junction).  -Laplacian eigenvalues are 0 and
# (i pi / 2)^2; for every i >= 1 there is an eigenfunction phi_i, and for even
# i an additional psi_i, orthonormal in L2.


def tadpole_eigenfunctions(points, n_max: int):
    """Rows of eigenfunction values at tadpole points, with eigenvalues.

    Returns (values, lam) where values[k] holds the k-th eigenfunction at the
    given (edge, t) points and lam[k] its -Laplacian eigenvalue.
    """
    edges = np.array([p.edge for p in points])
    ts = np.array([p.t for p in points])
    tail = edges == 0
    rows = [np.full(len(points), 1.0 / math.sqrt(3.0))]
    lams = [0.0]
    for i in range(1, n_max + 1):
        lam = (i * math.pi / 2.0) ** 2
        c = 1.0 if i % 2 == 0 else 1.0 / math.sqrt(3.0)
        phi = np.where(
            tail,
            -2.0 * math.sin(i * math.pi / 2.0) * np.cos(i * math.pi * ts / 2.0),
            np.sin(i * math.pi * ts / 2.0),
        ) * c
        rows.append(phi)
        lams.append(lam)
        if i % 2 == 0:
            # normalization sqrt(2/3) makes psi_i unit L2 norm (tail integral
            # 1/2 plus loop integral 1)
            psi = math.sqrt(2.0 / 3.0) * np.where(
                tail,
                (-1.0) ** (i // 2) * np.cos(i * math.pi * ts / 2.0),
                np.cos(i * math.pi * ts / 2.0),
            )
            rows.append(psi)
            lams.append(lam)
    return np.array(rows), np.array(lams)


def tadpole_cov_mercer(points, alpha: float, kappa: float, tau: float = 1.0,
                       n_terms: int = 2000) -> np.ndarray:
    """Tadpole covariance matrix by the truncated Mercer series
    tau^{-2} sum_j (kappa^2 + lam_j)^{-alpha} e_j(s) e_j(s')."""
    E, lam = tadpole_eigenfunctions(points, n_terms)
    g = (kappa**2 + lam) ** (-alpha)
    return (E.T * g) @ E / tau**2


def tadpole_cov(s1, s2, alpha: float, kappa: float, tau: float = 1.0,
                n_terms: int = 2000) -> float:
    """Pointwise tadpole covariance via the truncated Mercer series."""
    return float(tadpole_cov_mercer([s1, s2], alpha, kappa, tau, n_terms)[0, 1]
                 if s1 != s2 else
                 tadpole_cov_mercer([s1], alpha, kappa, tau, n_terms)[0, 0])


def tadpole_cov_exact(points, alpha: float, kappa: float, tau: float = 1.0,
                      n_wraps: int | None = None) -> np.ndarray:
    """Tadpole covariance matrix in closed form.

    Resumming the Mercer series edge by edge turns it into combinations of
    the period-4 wrapped Matern F(z) = sum_k C(z + 4k):

    * tail-tail:  F(t-t') + F(t+t') - (F(t-t'+2) + F(t+t'+2))/3
    * loop-loop:  F(t-t') + 2 F(t-t'+2)/3 - F(t+t')/3
    * tail-loop:  (F(1-t+t') + F(3-t-t') + F(1+t+t') + F(3+t-t'))/3

    This is exact (no series truncation beyond the exponentially small wrap
    tail) and is what the convergence harness uses as ground truth.
    """
    p = MaternParams(alpha - 0.5, kappa, tau)
    edges = np.array([q.edge for q in points])
    ts = np.array([q.t for q in points])
    n = len(points)
    cov = np.empty((n, n))
    tail = np.where(edges == 0)[0]
    loop = np.where(edges == 1)[0]

    def F(z):
        return wrapped_matern(z, p, 4.0, n_wraps)

    if len(tail):
        t = ts[tail]
        d = t[:, None] - t[None, :]
        s = t[:, None] + t[None, :]
        cov[np.ix_(tail, tail)] = F(d) + F(s) - (F(d + 2) + F(s + 2)) / 3.0
    if len(loop):
        t = ts[loop]
        d = t[:, None] - t[None, :]
        s = t[:, None] + t[None, :]
        cov[np.ix_(loop, loop)] = F(d) + 2.0 * F(d + 2) / 3.0 - F(s) / 3.0
    if len(tail) and len(loop):
        t = ts[tail][:, None]
        u = ts[loop][None, :]
        block = (F(1 - t + u) + F(3 - t - u) + F(1 + t + u) + F(3 + t - u)) / 3.0
        cov[np.ix_(tail, loop)] = block
        cov[np.ix_(loop, tail)] = block.T
    return cov


# -- generic exact covariance at mesh points ------------------------------------


def exact_covariance(kind: str, points, alpha: float, kappa: float, tau: float,
                     length: float | None = None) -> np.ndarray:
    """Exact covariance matrix at graph points for an analytic graph kind.

    kind is "interval" (length L, points on edge 0), "circle"
    (circumference L) or "tadpole" (the unit-tail, 2-loop graph).
    """
    if kind == "tadpole":
        return tadpole_cov_exact(points, alpha, kappa, tau)
    p = MaternParams.from_alpha(alpha, kappa, tau)
    ts = np.array([q.t for q in points])
    if kind == "interval":
        return folded_interval(ts[:, None], ts[None, :], p, 1.0 if length is None else length)
    if kind == "circle":
        return folded_circle(ts[:, None], ts[None, :], p, 2.0 if length is None else length)
    raise ValueError(f"no exact covariance for graph kind {kind!r}")


# -- dense spectral oracle for the discrete operator ----------------------------


def spectral_discrete_cov(L, c_diag, tau_diag, alpha: float,
                          size_guard: int = 500) -> np.ndarray:
    """Covariance of the discrete field with the fractional power taken
    exactly: solve L v = lam * C v with V' C V = I and return
    tau^{-1} V diag(lam^{-alpha}) V' tau^{-1}.

    C must be the (lumped) mass diagonal.  Dense; guarded by size_guard.
    """
    c = np.asarray(c_diag, float)
    n = c.shape[0]
    if n > size_guard:
        raise ValueError(f"spectral oracle limited to N <= {size_guard}, got {n}")
    Ld = L.toarray() if hasattr(L, "toarray") else np.asarray(L, float)
    s = 1.0 / np.sqrt(c)
    M = (Ld * s[None, :]) * s[:, None]
    M = 0.5 * (M + M.T)
    lam, U = eigh(M)
    V = U * s[:, None]
    tinv = 1.0 / np.asarray(tau_diag, float)
    core = (V * lam ** (-alpha)) @ V.T
    return core * np.outer(tinv, tinv)
