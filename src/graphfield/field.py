"""Generalized Whittle-Matern fields on a meshed metric graph.

A field model combines the discrete operator L = G + kappa^2 C~ (lumped mass
C~) with a rational approximation of the fractional power.  The covariance of
the basis weights is

    Sigma_u = tau^{-1} (L^{-1}C)^{n} sum_i r_i (L - p_i C)^{-1} tau^{-1}
              + tau^{-1} K_n tau^{-1},        n = floor(alpha),

with K_n = k (L^{-1}C)^{n} C^{-1}, and equivalently u = sum of m+1
independent GMRFs with sparse precisions

    Q_i = r_i^{-1} tau (L - p_i C)(C^{-1}L)^{n} tau   (i = 1..m),
    Q_{m+1} = tau K_n^{-1} tau.

For integer alpha the rational stage is bypassed and Q = tau L (C^{-1}L)^{alpha-1} tau.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix, diags

from .assembly import operator_matrix, positive_coefficient, coefficient_at_nodes
from .cholesky import NotSPDError, SparseCholesky
from .fractional import (ORDER_CAP, PartialFractions, brasil, calibrate_order,
                         partial_fractions)
from .graph import GraphPoint
from .mesh import Mesh

logger = logging.getLogger(__name__)

_DENSE_GUARD = 20000


class FieldError(ValueError):
    pass


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
    _blocks: list = field(default_factory=list, repr=False)
    _factors: list = field(default_factory=list, repr=False)
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
        L, c_diag = operator_matrix(mesh, kappa_nodes, lumped=True)
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
        """Sparse (C^{-1} L)^n."""
        S = diags(1.0 / self.c_diag) @ self.L
        P = None
        for _ in range(n):
            P = S if P is None else P @ S
        return P

    def precision_blocks(self) -> list[csr_matrix]:
        """The m+1 sparse SPD precision blocks (a single block for integer alpha)."""
        if self._blocks:
            return self._blocks
        tau = self.tau_nodes
        Td = diags(tau)
        Cd = diags(self.c_diag)
        n = int(math.floor(self.alpha))
        blocks = []
        if self.rational is None:
            P = self._lambda_power(int(self.alpha) - 1)
            Q = self.L if P is None else self.L @ P
            blocks.append(_sym(Td @ Q @ Td))
        else:
            P = self._lambda_power(n)
            for r, p in zip(self.rational.residues, self.rational.poles):
                T = (self.L - p * Cd).tocsr()
                Q = T if P is None else T @ P
                blocks.append(_sym(Td @ Q @ Td) / r)
            k = self.rational.k
            if n == 0:
                Kinv = Cd / k
            else:
                Pm1 = self._lambda_power(n - 1)
                Kinv = (self.L if Pm1 is None else self.L @ Pm1) / k
            blocks.append(_sym(Td @ Kinv @ Td))
        self._blocks = blocks
        return blocks

    def block_factors(self) -> list[SparseCholesky]:
        if not self._factors:
            factors = []
            for i, Q in enumerate(self.precision_blocks()):
                try:
                    factors.append(SparseCholesky(Q))
                except NotSPDError as err:
                    raise FieldError(f"precision block {i} not SPD: pivot "
                                     f"{err.pivot_index} at mesh node {err.row}") from err
            self._factors = factors
        return self._factors

    def _operator_factor(self) -> SparseCholesky:
        if self._L_factor is None:
            self._L_factor = SparseCholesky(self.L)
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
            Cd = diags(self.c_diag)
            for r, p in zip(self.rational.residues, self.rational.poles):
                F = SparseCholesky(_sym(self.L - p * Cd))
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
        """Dense sum of block inverses; the independent second route."""
        if self.N > _DENSE_GUARD:
            raise FieldError(f"dense covariance guarded at N <= {_DENSE_GUARD}")
        eye = np.eye(self.N)
        out = np.zeros((self.N, self.N))
        for F in self.block_factors():
            out += F.solve(eye)
        return 0.5 * (out + out.T)

    def covariance_row(self, s0: GraphPoint) -> np.ndarray:
        """Covariance between the field at s0 and the field at every node."""
        psi = np.zeros(self.N)
        for node, w in self.mesh.eval_basis(s0):
            psi[node] = w
        out = np.zeros(self.N)
        for F in self.block_factors():
            out += F.solve(psi)
        return out

    def marginal_variance(self) -> np.ndarray:
        """diag(Sigma_u) = sum_i diag(Q_i^{-1}), by selected inversion of
        each block factor."""
        out = np.zeros(self.N)
        for F in self.block_factors():
            out += F.selected_inverse_diag()
        return out

    def marginal_std(self) -> np.ndarray:
        return np.sqrt(self.marginal_variance())

    # -- sampling ------------------------------------------------------------------

    def sample(self, n_samples: int, seed: int) -> np.ndarray:
        """Draw field weights: (n_samples, N_h) with rows u = sum_i x_i,
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
        return out.T


def _sym(M) -> csr_matrix:
    M = csr_matrix(M)
    asym = abs(M - M.T)
    scale = max(abs(M).max(), 1.0)
    if asym.nnz and asym.max() > 1e-8 * scale:
        raise FieldError(f"assembled block asymmetric beyond tolerance ({asym.max():.2e})")
    return ((M + M.T) * 0.5).tocsr()


# -- derived model builders ---------------------------------------------------------


def variance_stationary_model(mesh: Mesh, kappa, alpha: float, sigma0: float,
                              m: int | None = None) -> FieldModel:
    """Field with tau = sigma_kappa / sigma0, where sigma_kappa is the marginal
    standard deviation of the tau=1 model: nodal variances become sigma0^2."""
    if sigma0 <= 0:
        raise FieldError("sigma0 must be positive")
    base = FieldModel.build(mesh, alpha, kappa, 1.0, m=m)
    sigma_k = base.marginal_std()
    return FieldModel.build(mesh, alpha, kappa, sigma_k / sigma0, m=base.m)


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

    def predict(theta):
        eta = np.full(mesh.N, theta[0])
        for coef, g in zip(theta[1:], gs):
            eta += coef * g
        return np.exp(eta)

    return predict(theta_tau), predict(theta_kappa)
