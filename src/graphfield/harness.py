"""Covariance-error metrics and convergence-rate experiments.

The error between an exact covariance on a fine reference mesh and a coarse
rational-FEM covariance projected to it is measured in the L2(Gamma x Gamma)
quadrature norm

    error^2 = w' (D o D) w,   D = Sigma_exact - A Sigma_h A',

where o is the entrywise square, w holds the fine lumped-mass weights
(psi_i, 1), and A is the coarse-basis projector evaluated at the fine nodes.
Empirical convergence rates are the slopes of log error against log h.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_mass, lump_mass
from .field import FieldModel
from .graph import GraphError, builtin_graph
from .mesh import build_mesh
from .oracle import (MaternParams, exact_covariance, folded_circle, folded_interval,
                     tadpole_cov_exact)

THEORETICAL_RATE = lambda alpha: min(2 * alpha - 0.5, 2.0)  # noqa: E731

# Eq.-(7) constant used by the rate experiments: c=1 leaves the rational term
# non-negligible at the coarse levels for alpha near 3/4, polluting the fitted
# slope; 1.5 puts it safely below the FEM error.
DEFAULT_CALIBRATION_C = 1.5

# A rate fit is a least-squares line through one (log h, log error) point per
# mesh level; with fewer points its residual would say little about the fit.
MIN_RATE_LEVELS = 4


class OracleTruncationError(RuntimeError):
    pass


@dataclass
class ErrorRecord:
    graph: str
    alpha: float
    rho: float
    m: int
    h: float
    l2: float
    sup: float
    seconds: float


@dataclass
class RateFit:
    graph: str
    alpha: float
    slope: float
    intercept: float
    residual: float
    theoretical: float
    n_levels: int


def l2_error(sigma_exact: np.ndarray, sigma_approx: np.ndarray, A, w) -> float:
    """Quadrature L2(Gamma x Gamma) covariance error (see module docstring)."""
    D = np.asarray(sigma_exact) - A @ np.asarray(sigma_approx) @ A.T
    if D.shape[0] != len(w):
        raise ValueError("weight vector does not match the fine grid")
    return math.sqrt(float(w @ (D * D) @ w))


def sup_error(sigma_exact: np.ndarray, sigma_approx: np.ndarray, A) -> float:
    """Max absolute covariance deviation over the fine grid."""
    D = np.asarray(sigma_exact) - A @ np.asarray(sigma_approx) @ A.T
    return float(np.abs(D).max())


def oracle_graph(kind: str):
    """(graph, oracle kind, length) for a builtin graph spec with an exact
    covariance oracle; the length is the interval's or circle's, None for
    the tadpole."""
    g = builtin_graph(kind)
    name = kind.partition(":")[0]
    if name in ("interval", "circle"):
        return g, name, g.edges[0].length
    if name == "tadpole":
        return g, name, None
    raise GraphError(f"no exact covariance oracle for graph {kind!r}")


def _reference(kind: str, alpha: float, rho: float, h_ok: float):
    g, name, L = oracle_graph(kind)
    fine = build_mesh(g, h_ok)
    pts = fine.node_points()
    w = lump_mass(assemble_mass(fine))
    p = MaternParams.unit_variance(alpha, rho)
    sigma = exact_covariance(name, pts, alpha, p.kappa, p.tau, L)
    _check_truncation(name, pts, alpha, p, L, sigma)
    return g, pts, w, p, sigma


def _check_truncation(name, pts, alpha, p, L, sigma):
    """Doubling the wrap count on a subsample must not move the oracle; the
    adaptive wrap rule makes this ~1e-15 relative, but verify it anyway."""
    idx = np.linspace(0, len(pts) - 1, 8).astype(int)
    sub = [pts[i] for i in idx]
    if name == "tadpole":
        a = tadpole_cov_exact(sub, alpha, p.kappa, p.tau)
        b = tadpole_cov_exact(sub, alpha, p.kappa, p.tau, n_wraps=40)
    else:
        a = exact_covariance(name, sub, alpha, p.kappa, p.tau, L)
        ts = np.array([q.t for q in sub])
        fold = folded_interval if name == "interval" else folded_circle
        b = fold(ts[:, None], ts[None, :], p, L, n_wraps=60)
    tail = np.abs(a - b).max()
    # adaptive wraps leave a machine-level tail, far below any FEM error the
    # harness can observe; anything bigger means the oracle cannot referee
    if tail > 1e-12 * np.abs(sigma).max():
        raise OracleTruncationError(f"oracle wrap truncation {tail:.2e} too large")


def _coarse_error(mesh, model, pts, w, sigma_exact):
    t0 = time.time()
    S = model.covariance()
    A = mesh.basis_matrix(pts)
    return l2_error(sigma_exact, S, A, w), sup_error(sigma_exact, S, A), time.time() - t0


def rate_experiment(kind: str, alphas, levels=(4.5, 4.75, 5.0, 5.25, 5.5),
                    rho: float = 0.5, calibration_c: float = DEFAULT_CALIBRATION_C,
                    h_ok: float = 2.0**-9):
    """Fit empirical convergence rates against the exact covariance oracle.

    Returns (fits, records): one RateFit per alpha (slope of log L2 error
    vs log realized h) and the per-level ErrorRecord list.
    """
    if len(levels) < MIN_RATE_LEVELS:
        raise ValueError(f"rate fit needs at least {MIN_RATE_LEVELS} mesh levels")
    records: list[ErrorRecord] = []
    fits: list[RateFit] = []
    name = kind.partition(":")[0]
    for alpha in alphas:
        g, pts, w, p, sigma = _reference(kind, alpha, rho, h_ok)
        recs = []
        for lev in levels:
            mesh = build_mesh(g, 2.0**-lev)
            model = FieldModel.build(mesh, alpha, p.kappa, p.tau,
                                     calibration_c=calibration_c)
            l2, sup, secs = _coarse_error(mesh, model, pts, w, sigma)
            recs.append(ErrorRecord(name, alpha, rho, model.m, mesh.h, l2, sup, secs))
        hs = np.array([r.h for r in recs])
        errs = np.array([r.l2 for r in recs])
        coef, res = np.polyfit(np.log(hs), np.log(errs), 1, full=True)[:2]
        fits.append(RateFit(name, alpha, float(coef[0]), float(coef[1]),
                            float(res[0]) if len(res) else 0.0,
                            THEORETICAL_RATE(alpha), len(hs)))
        records.extend(recs)
    return fits, records


def error_grid(kind: str, alphas, ms=(1, 2, 3, 4, 5), rhos=(0.1, 0.5, 1.0, 2.0),
               h: float = 2.0**-6, h_ok: float = 2.0**-9):
    """Error sweep over (alpha, m, rho) at fixed mesh width, against the exact
    oracle on the h_ok reference mesh.  Integer alpha has no rational stage,
    so its rows repeat one model under each m."""
    name = kind.partition(":")[0]
    records: list[ErrorRecord] = []
    for alpha in alphas:
        for rho in rhos:
            g, pts, w, p, sigma = _reference(kind, alpha, rho, h_ok)
            mesh = build_mesh(g, h)
            for m in ms:
                model = FieldModel.build(mesh, alpha, p.kappa, p.tau, m=m)
                l2, sup, secs = _coarse_error(mesh, model, pts, w, sigma)
                records.append(ErrorRecord(name, alpha, rho, m, mesh.h, l2, sup, secs))
    return records


def write_records_csv(records, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["graph", "alpha", "rho", "m", "h", "l2_error", "sup_error", "seconds"])
        for r in records:
            writer.writerow([r.graph, f"{r.alpha:.17g}", f"{r.rho:.17g}", r.m,
                             f"{r.h:.17g}", f"{r.l2:.17g}", f"{r.sup:.17g}", f"{r.seconds:.3f}"])


def write_rates_csv(fits, path):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["graph", "alpha", "observed_rate", "theoretical_rate",
                         "intercept", "residual", "n_levels"])
        for r in fits:
            writer.writerow([r.graph, f"{r.alpha:.17g}", f"{r.slope:.17g}",
                             f"{r.theoretical:.17g}", f"{r.intercept:.17g}",
                             f"{r.residual:.17g}", r.n_levels])


def rates_table(fits) -> str:
    """Plain-text table mirroring the paper's rate summary."""
    lines = ["graph      alpha   observed   theoretical"]
    for r in fits:
        lines.append(f"{r.graph:<10s} {r.alpha:<7.4g} {r.slope:<10.4f} {r.theoretical:.4g}")
    return "\n".join(lines)
