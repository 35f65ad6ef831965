"""Generalized Whittle-Matern fields on a meshed metric graph.

A field model combines the discrete operator L = G + kappa^2 C~ (lumped mass
C~) with a rational approximation of the fractional power.  The SPDE
(kappa^2 - Delta)^{alpha/2} (tau u) = W makes u = T^{-1} x with T = diag(tau)
and x the tau = 1 field, whose covariance is

    Sigma_x = (L^{-1}C)^{n} sum_i r_i (L - p_i C)^{-1} + K_n,   n = floor(alpha),

with K_n = k (L^{-1}C)^{n} C^{-1}; Sigma_u = T^{-1} Sigma_x T^{-1}.  Equivalently
x = sum of m+1 independent GMRFs with tau-free sparse precisions

    Q_i = r_i^{-1} (L - p_i C)(C^{-1}L)^{n}   (i = 1..m),
    Q_{m+1} = K_n^{-1},

and u's blocks are T Q_i T.  For integer alpha the rational stage is bypassed
and Q = L (C^{-1}L)^{alpha-1}.

The blocks, their factors and the diagonal of their summed inverses depend
on (mesh, kappa, alpha, m) only; tau is applied where they are used, so
models that differ only in tau share them (see variance_stationary_model).
Every matrix on the operator's pattern (L, L - p_i C, the blocks for
alpha <= 1 and the tail block L / k for 1 < alpha < 2) shares the mesh's
symbolic analysis of that pattern; blocks of one model that share another
pattern (the product blocks) share the analysis of the first of them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix, diags

from .assembly import (coefficient_at_nodes, operator_matrix, positive_coefficient,
                       shift_diagonal)
from .cholesky import Analysis, NotSPDError, SparseCholesky, same_pattern
from .fractional import (ORDER_CAP, PartialFractions, brasil, calibrate_order,
                         partial_fractions)
from .graph import GraphPoint
from .mesh import Mesh

logger = logging.getLogger(__name__)

_DENSE_GUARD = 20000


class FieldError(ValueError):
    pass


@dataclass
class _BlockCore:
    """The tau-free blocks Q_i, their factors and diag(sum_i Q_i^{-1}),
    filled on first use and shared by models that differ only in tau."""

    blocks: list = field(default_factory=list)
    factors: list = field(default_factory=list)
    variance: np.ndarray | None = None


@dataclass
class FieldModel:
    """Discretized generalized Whittle-Matern field."""

    mesh: Mesh
    alpha: float
    kappa_nodes: np.ndarray
    tau_nodes: np.ndarray
    m: int
    rational: PartialFractions | None
    L: csr_matrix
    c_diag: np.ndarray
    _core: _BlockCore = field(default_factory=_BlockCore, repr=False)
    _L_factor: SparseCholesky | None = field(default=None, repr=False)

    @classmethod
    def build(cls, mesh: Mesh, alpha: float, kappa, tau, m: int | None = None,
              calibration_c: float = 1.0) -> "FieldModel":
        """Construct a model; m defaults to the order calibrated from the mesh
        width (integer alpha always bypasses the rational stage with m = 0).
        An explicit m above ORDER_CAP is rejected."""
        if alpha <= 0.5:
            raise FieldError("smoothness alpha must exceed 1/2")
        if alpha > 3.0:
            logger.warning("alpha=%g beyond the supported range (floor(alpha) <= 2)", alpha)
            raise FieldError("alpha > 3 not supported")
        kappa_nodes = positive_coefficient(mesh, kappa, "kappa")
        tau_nodes = positive_coefficient(mesh, tau, "tau")
        L, c_diag = operator_matrix(mesh, kappa_nodes)
        frac = alpha - math.floor(alpha)
        integer = frac < 1e-12 or frac > 1 - 1e-12
        if integer:
            m = 0
        elif m is None:
            m = calibrate_order(alpha, mesh.h, calibration_c)
        rational = None
        if not integer:
            if m < 1:
                raise FieldError("fractional alpha requires rational order m >= 1")
            if m > ORDER_CAP:
                raise FieldError(f"rational order m={m} exceeds the cap {ORDER_CAP}")
            b = 1.0 / float(np.min(kappa_nodes) ** 2)  # [0, b] covers spec(L_h^{-1})
            rational = partial_fractions(brasil(frac, m)).rescaled(b)
            if m >= 5:
                cond = abs(min(rational.poles)) * float(np.max(c_diag) / np.min(kappa_nodes) ** 2)
                logger.info("rational order m=%d, extreme-pole condition scale %.2e", m, cond)
        return cls(mesh=mesh, alpha=round(alpha) if integer else alpha,
                   kappa_nodes=kappa_nodes, tau_nodes=tau_nodes, m=int(m),
                   rational=rational, L=L, c_diag=c_diag)

    # -- precision blocks ------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return 1 if self.rational is None else self.m + 1

    @property
    def N(self) -> int:
        return self.mesh.N

    def _lambda_power(self, n: int):
        """Sparse (C^{-1} L)^n, or None for n = 0."""
        if n == 0:
            return None
        S = diags(1.0 / self.c_diag) @ self.L
        P = S
        for _ in range(n - 1):
            P = P @ S
        return P

    def _shifted(self, p: float) -> csr_matrix:
        """L - p C on L's pattern."""
        return shift_diagonal(self.mesh, self.L, -p * self.c_diag)

    def _tau_free_blocks(self) -> list[csr_matrix]:
        """The m+1 tau-free blocks Q_i (a single block for integer alpha)."""
        if self._core.blocks:
            return self._core.blocks
        n = int(math.floor(self.alpha))
        blocks = []
        if self.rational is None:
            P = self._lambda_power(int(self.alpha) - 1)
            Q = self.L if P is None else self.L @ P
            blocks.append(_sym(Q))
        else:
            P = self._lambda_power(n)
            for r, p in zip(self.rational.residues, self.rational.poles):
                Lp = self._shifted(p)
                Q = Lp if P is None else Lp @ P
                blocks.append(_sym(Q) / r)
            k = self.rational.k
            if n == 0:
                Kinv = diags(self.c_diag) / k
            else:
                Pm1 = self._lambda_power(n - 1)
                Kinv = (self.L if Pm1 is None else self.L @ Pm1) / k
            blocks.append(_sym(Kinv))
        self._core.blocks = blocks
        return blocks

    def precision_blocks(self) -> list[csr_matrix]:
        """The m+1 sparse SPD precision blocks T Q_i T of the field u, formed
        by scaling each tau-free block's entries with tau_row * tau_col."""
        tau = self.tau_nodes
        out = []
        for Q in self._tau_free_blocks():
            rows = np.repeat(np.arange(self.N), np.diff(Q.indptr))
            out.append(csr_matrix((Q.data * (tau[rows] * tau[Q.indices]), Q.indices,
                                   Q.indptr), shape=Q.shape))
        return out

    def block_factors(self) -> list[SparseCholesky]:
        """Cholesky factors of the tau-free blocks Q_i.  A block reuses the
        analysis of the block before it when their patterns agree, and the
        mesh's analysis of L's pattern when it has that pattern."""
        if not self._core.factors:
            factors = []
            analysis = None
            for i, Q in enumerate(self._tau_free_blocks()):
                if analysis is None or not analysis.fits(Q):
                    analysis = self._operator_analysis(Q)
                try:
                    factors.append(SparseCholesky(Q, analysis=analysis))
                except NotSPDError as err:
                    raise FieldError(f"precision block {i} not SPD: pivot "
                                     f"{err.pivot_index} at mesh node {err.row}") from err
                analysis = factors[-1].analysis
            self._core.factors = factors
        return self._core.factors

    def _operator_analysis(self, M):
        """The mesh's analysis of L's pattern if M has that pattern, else None."""
        if not same_pattern(M, self.L.indptr, self.L.indices):
            return None
        cache = self.mesh.matrix_cache
        if "operator_analysis" not in cache:
            cache["operator_analysis"] = Analysis(self.L)
        return cache["operator_analysis"]

    def _operator_factor(self) -> SparseCholesky:
        if self._L_factor is None:
            self._L_factor = SparseCholesky(self.L, analysis=self._operator_analysis(self.L))
        return self._L_factor

    # -- covariance --------------------------------------------------------------

    def covariance(self) -> np.ndarray:
        """Dense Sigma_u from the rational expansion (not via block inverses)."""
        if self.N > _DENSE_GUARD:
            raise FieldError(f"dense covariance guarded at N <= {_DENSE_GUARD}")
        return self._covariance_rhs(np.eye(self.N))

    def covariance_columns(self, cols: np.ndarray) -> np.ndarray:
        """Selected columns of Sigma_u: Sigma_u @ R for a dense RHS R."""
        return self._covariance_rhs(np.asarray(cols, float))

    def _covariance_rhs(self, R: np.ndarray) -> np.ndarray:
        tinv = 1.0 / self.tau_nodes
        Rt = R * tinv[:, None] if R.ndim == 2 else R * tinv
        n = int(math.floor(self.alpha))
        Lf = self._operator_factor()
        c = self.c_diag

        def lam_inv_pow(X, npow):
            for _ in range(npow):
                X = Lf.solve(c[:, None] * X if X.ndim == 2 else c * X)
            return X

        if self.rational is None:
            X = lam_inv_pow(Lf.solve(Rt), int(self.alpha) - 1)
        else:
            acc = np.zeros_like(Rt)
            for r, p in zip(self.rational.residues, self.rational.poles):
                F = SparseCholesky(_sym(self._shifted(p)), analysis=Lf.analysis)
                acc += r * F.solve(Rt)
            X = lam_inv_pow(acc, n)
            k = self.rational.k
            if n == 0:
                X = X + k / c[:, None] * Rt if Rt.ndim == 2 else X + k / c * Rt
            else:
                X = X + k * lam_inv_pow(Lf.solve(Rt), n - 1)
        out = X * tinv[:, None] if X.ndim == 2 else X * tinv
        if out.ndim == 2 and out.shape[0] == out.shape[1]:
            out = 0.5 * (out + out.T)
        return out

    def covariance_from_blocks(self) -> np.ndarray:
        """Dense T^{-1} (sum_i Q_i^{-1}) T^{-1}; the independent second route."""
        if self.N > _DENSE_GUARD:
            raise FieldError(f"dense covariance guarded at N <= {_DENSE_GUARD}")
        eye = np.eye(self.N)
        out = np.zeros((self.N, self.N))
        for F in self.block_factors():
            out += F.solve(eye)
        tinv = 1.0 / self.tau_nodes
        out *= tinv[:, None]
        out *= tinv
        return 0.5 * (out + out.T)

    def covariance_row(self, s0: GraphPoint) -> np.ndarray:
        """Covariance between the field at s0 and the field at every node."""
        psi = np.zeros(self.N)
        for node, w in self.mesh.eval_basis(s0):
            psi[node] = w
        psi /= self.tau_nodes
        out = np.zeros(self.N)
        for F in self.block_factors():
            out += F.solve(psi)
        return out / self.tau_nodes

    def marginal_variance(self) -> np.ndarray:
        """diag(Sigma_u) = sum_i diag(Q_i^{-1}) / tau^2, the tau-free sum by
        selected inversion of each block factor, once per shared core."""
        core = self._core
        if core.variance is None:
            out = np.zeros(self.N)
            for F in self.block_factors():
                out += F.selected_inverse_diag()
            core.variance = out
        return core.variance / self.tau_nodes**2

    def marginal_std(self) -> np.ndarray:
        return np.sqrt(self.marginal_variance())

    # -- sampling ------------------------------------------------------------------

    def sample(self, n_samples: int, seed: int) -> np.ndarray:
        """Draw field weights: (n_samples, N_h) with rows u = T^{-1} sum_i x_i,
        x_i ~ N(0, Q_i^{-1}).

        Deterministic per (seed, block index) via counter-based Philox streams,
        independent of evaluation order.
        """
        out = np.zeros((self.N, n_samples))
        for i, F in enumerate(self.block_factors()):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed & (2**64 - 1), i], dtype=np.uint64))
            )
            z = rng.standard_normal((self.N, n_samples))
            out += F.sample_backsolve(z)
        return (out / self.tau_nodes[:, None]).T


def _sym(M) -> csr_matrix:
    """(M + M^T) / 2 after checking that M is symmetric to 1e-8 relative; an
    exactly symmetric M in canonical form with no stored zeros is returned
    as it is, which is what (M + M^T) / 2 would give entry for entry."""
    M = M if isinstance(M, csr_matrix) else csr_matrix(M)
    T = M.T.tocsr()
    if (M.has_canonical_format and np.array_equal(M.indptr, T.indptr)
            and np.array_equal(M.indices, T.indices) and np.array_equal(M.data, T.data)
            and M.data.all()):
        return M
    asym = abs(M - M.T)
    scale = max(abs(M).max(), 1.0)
    if asym.nnz and asym.max() > 1e-8 * scale:
        raise FieldError(f"assembled block asymmetric beyond tolerance ({asym.max():.2e})")
    return ((M + M.T) * 0.5).tocsr()


# -- derived model builders ---------------------------------------------------------


def variance_stationary_model(mesh: Mesh, kappa, alpha: float, sigma0: float,
                              m: int | None = None) -> FieldModel:
    """Field with tau = sigma_kappa / sigma0, where sigma_kappa is the marginal
    standard deviation of the tau=1 model: nodal variances become sigma0^2.

    The blocks do not depend on tau, so the returned model shares the tau=1
    model's blocks, factors and selected-inverse diagonal; its marginal
    variance sigma_kappa^2 / tau^2 equals sigma0^2 up to rounding."""
    if sigma0 <= 0:
        raise FieldError("sigma0 must be positive")
    base = FieldModel.build(mesh, alpha, kappa, 1.0, m=m)
    sigma_k = base.marginal_std()
    return replace(base, tau_nodes=positive_coefficient(mesh, sigma_k / sigma0, "tau"))


def log_regression_coefficients(mesh: Mesh, covariates, theta_tau, theta_kappa):
    """Node values of tau and kappa from log-linear regressions
    log tau = theta_tau[0] + sum_j theta_tau[j] g_j (same for kappa).

    covariates: list of node-value arrays (or callables of GraphPoint).
    """
    gs = [coefficient_at_nodes(mesh, g) for g in covariates]
    theta_tau = np.asarray(theta_tau, float)
    theta_kappa = np.asarray(theta_kappa, float)
    if len(theta_tau) != len(gs) + 1 or len(theta_kappa) != len(gs) + 1:
        raise FieldError("theta must hold an intercept plus one slope per covariate")
    return (log_linear(mesh.N, theta_tau[0], zip(theta_tau[1:], gs)),
            log_linear(mesh.N, theta_kappa[0], zip(theta_kappa[1:], gs)))


def log_linear(n: int, intercept, terms) -> np.ndarray:
    """exp(intercept + sum_j coef_j g_j) at n nodes, for terms (coef_j, g_j)
    with g_j node-value arrays; the terms are summed in the order given."""
    eta = np.full(n, intercept, dtype=float)
    for coef, g in terms:
        eta += coef * np.asarray(g, float)
    return np.exp(eta)
