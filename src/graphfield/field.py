"""Generalized Whittle-Matern fields on a meshed metric graph.

A field model combines the discrete operator L = G + kappa^2 C~ (lumped mass
C~) with a rational approximation of the fractional power.  The SPDE
(kappa^2 - Delta)^{alpha/2} (tau u) = W makes u = T^{-1} x with T = diag(tau)
and x the tau = 1 field, whose covariance is

    Sigma_x = (L^{-1}C)^{n} (sum_i r_i (L - p_i C)^{-1} + k C^{-1}),   n = floor(alpha),

where {r_i, p_i, k} approximate x^{alpha - n}.  For integer alpha that power
is x^0 = 1 exactly: no terms and k = 1.  Sigma_u = T^{-1} Sigma_x T^{-1}.
Equivalently x = sum_i x_i, m+1 independent GMRFs with tau-free precisions

    Q_i = r_i^{-1} (L - p_i C)(C^{-1}L)^{n} = (M_{n+1} - p_i M_n) / r_i   (i = 1..m),
    Q_{m+1} = M_n / k,      M_j = C (C^{-1}L)^j = L (C^{-1}L)^{j-1},

and for integer alpha the one block is M_alpha.
Sampling, the marginal variance, kriging and the likelihood read the blocks.
Covariance applies (covariance, covariance_columns, covariance_row) read the
first form instead, through factors of L and of the shifted operators
L - p_i C, which avoids the products of the blocks.

The blocks, their factors and the diagonal of their summed inverses depend
on (mesh, kappa, alpha, m) only: tau enters as 1 / tau on draws and standard
deviations and as the observation operator A T^{-1} in inference, so models
that differ only in tau share them (see variance_stationary_model).
Every matrix on the operator's pattern (L, L - p_i C, the blocks for
alpha <= 1 and the tail block L / k for 1 <= alpha < 2) shares the mesh's
symbolic analysis of that pattern; blocks of one model that share another
pattern (the product blocks) share the analysis of the first of them.
The blocks on L's pattern are symmetric as assembled.  Only the product
blocks, (L - p_i C) S^n and the tail L S^{n-1} for n >= 2, are symmetrized,
by (M + M^T) / 2, since a sparse product is symmetric only to rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.sparse import csr_matrix, diags

from .assembly import (coefficient_at_nodes, operator_matrix, positive_coefficient,
                       shift_diagonal)
from .cholesky import Analysis, NotSPDError, SparseCholesky, same_pattern, selected_inverses
from .fractional import (ORDER_CAP, PartialFractions, brasil, calibrate_order,
                         fractional_part, partial_fractions)
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
    rational: PartialFractions
    L: csr_matrix
    c_diag: np.ndarray
    _core: _BlockCore = field(default_factory=_BlockCore, repr=False)
    _L_factor: SparseCholesky | None = field(default=None, repr=False)

    @classmethod
    def build(cls, mesh: Mesh, alpha: float, kappa, tau, m: int | None = None,
              calibration_c: float = 1.0) -> "FieldModel":
        """Construct a model; m defaults to the order calibrated from the mesh
        width (integer alpha takes the exact form of x^0, with m = 0).  An
        explicit m above ORDER_CAP is rejected."""
        if not 0.5 < alpha <= 3.0:  # NaN fails too
            raise FieldError(f"smoothness alpha must exceed 1/2 and be at most 3, got {alpha!r}")
        kappa_nodes = positive_coefficient(mesh, kappa, "kappa")
        tau_nodes = positive_coefficient(mesh, tau, "tau")
        L, c_diag = operator_matrix(mesh, kappa_nodes)
        frac = fractional_part(alpha)
        if frac == 0.0:
            alpha, rational = round(alpha), PartialFractions((), (), 1.0, 0.0, 1.0)
        else:
            if m is None:
                try:
                    m = calibrate_order(alpha, mesh.h, calibration_c)
                except ValueError as err:  # a mesh width outside (0, 1)
                    raise FieldError(f"{err}; give m") from None
            if m < 1:
                raise FieldError("fractional alpha requires rational order m >= 1")
            if m > ORDER_CAP:
                raise FieldError(f"rational order m={m} exceeds the cap {ORDER_CAP}")
            b = 1.0 / float(np.min(kappa_nodes) ** 2)  # [0, b] covers spec(L_h^{-1})
            rational = partial_fractions(brasil(frac, m)).rescaled(b)
            if m >= 5:
                cond = abs(min(rational.poles)) * float(np.max(c_diag) / np.min(kappa_nodes) ** 2)
                logger.info("rational order m=%d, extreme-pole condition scale %.2e", m, cond)
        return cls(mesh=mesh, alpha=alpha, kappa_nodes=kappa_nodes, tau_nodes=tau_nodes,
                   rational=rational, L=L, c_diag=c_diag)

    # -- precision blocks ------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.rational.poles)

    @property
    def n_blocks(self) -> int:
        return self.m + 1

    @property
    def N(self) -> int:
        return self.mesh.N

    def _powers(self) -> list:
        """[None, S, S^2, ...] for S = C^{-1} L, None standing for S^0 = I, up
        to the highest power a block reads: S^n for the shifted blocks, else
        S^{n-1} for the tail M_n = L S^{n-1}."""
        n = int(math.floor(self.alpha))
        power = [None]
        for j in range(n if self.m else n - 1):
            power.append(diags(1.0 / self.c_diag) @ self.L if j == 0 else power[-1] @ power[1])
        return power

    def _shifted(self, p: float) -> csr_matrix:
        """L - p C on L's pattern."""
        return shift_diagonal(self.mesh, self.L, -p * self.c_diag)

    def precision_blocks(self) -> list[csr_matrix]:
        """The tau-free blocks: the m shifted blocks and the tail block M_n / k."""
        if self._core.blocks:
            return self._core.blocks
        n, rat, power = int(math.floor(self.alpha)), self.rational, self._powers()
        blocks = [(_sym(self._shifted(p) @ power[n]) if n else self._shifted(p)) / r
                  for r, p in zip(rat.residues, rat.poles)]
        tail = diags(self.c_diag, format="csr") if n == 0 else _times(self.L, power[n - 1])
        # tail / k would copy the matrix twice (astype, then the scalar product)
        tail = csr_matrix((tail.data * (1 / rat.k), tail.indices, tail.indptr), shape=tail.shape)
        blocks.append(_sym(tail) if n >= 2 else tail)
        self._core.blocks = blocks
        return blocks

    def block_factors(self) -> list[SparseCholesky]:
        """Cholesky factors of the tau-free blocks Q_i.  A block reuses the
        analysis of the block before it when their patterns agree, and the
        mesh's analysis of L's pattern when it has that pattern."""
        if not self._core.factors:
            factors = []
            analysis = None
            for i, Q in enumerate(self.precision_blocks()):
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

    def block_inverses(self) -> list[np.ndarray]:
        """The entries of each Q_i^{-1} on Q_i's pattern, aligned with the data
        of precision_blocks()[i], from one selected inversion of all block
        factors."""
        factors = self.block_factors()
        pattern = {}  # blocks of one analysis have its pattern: one request each
        for Q, F in zip(self.precision_blocks(), factors):
            if F.analysis not in pattern:
                pattern[F.analysis] = (np.repeat(np.arange(self.N), np.diff(Q.indptr)),
                                       Q.indices)
        return selected_inverses(factors, [pattern[F.analysis] for F in factors])

    # -- derivative with respect to log kappa ---------------------------------------

    def _kappa_gradient(self, weights) -> np.ndarray:
        """d/d log kappa of sum_i <V_i, Q_i> for tau-free weights V_i on the
        blocks' patterns.

        The sum is <H, M_{n+1}> + <G, M_n> with H = sum_i V_i / r_i and
        G = -sum_i p_i V_i / r_i + V_tail / k (the module docstring's M_j), so
        the gradient is one product-rule chain per power (M_0 = C has none).
        With dL = diag(d), d = 2 kappa^2 C dlog kappa, dM_j is the sum over the
        L-factors of M_j of A diag(d) B (A, B the products before and after,
        C^{-1} folded into A), and <W, A diag(d) B> = d . rowsum((A'W) o B).
        The rational coefficients depend on b = 1 / min(kappa)^2 (residues as
        b^(a-1), poles as 1/b, k as b^a), which adds
        -2 ((1 - a) <H, M_{n+1}> - a <G, M_n>) at the node where kappa is
        smallest (the first such node on ties).  Its inner products are np.sum
        reductions, not BLAS dots, whose summation order (so their last bits)
        follows the BLAS thread count.  With no shifted blocks (integer alpha)
        H and the b-term vanish.
        """
        c, n, rat = self.c_diag, int(math.floor(self.alpha)), self.rational
        blocks, power = self.precision_blocks(), self._powers()
        G = _weighted_sum(blocks, weights,
                          [-p / r for r, p in zip(rat.residues, rat.poles)] + [1.0 / rat.k])
        # M_1, M_2, ... (M_0 = C is read off c)
        M = [None] + [_times(self.L, P) for P in power[:-1]]
        chains, b_term = [], 0.0
        if self.m:
            H = _weighted_sum(blocks[:-1], weights, [1.0 / r for r in rat.residues])
            M.append(_times(self.L, power[n]))
            chains.append((n + 1, H))
            a = rat.alpha_frac
            GMn = np.sum(G.diagonal() * c) if n == 0 else _inner(G, M[n])
            b_term = 2 * float((1 - a) * _inner(H, M[n + 1]) - a * GMn)
        chains.append((n, G))
        h = np.zeros(self.N)
        for j, W in chains:
            for t in range(j):  # the L-factors of M_j: first L, then each C^{-1}L
                AW = W if t == 0 else M[t].T @ W
                B = power[j - 1 - t]
                term = AW.diagonal() if B is None else \
                    np.asarray(AW.multiply(B).sum(axis=1)).ravel()
                h += term if t == 0 else term / c
        out = 2 * self.kappa_nodes**2 * c * h
        out[np.argmin(self.kappa_nodes)] -= b_term
        return out

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
        S = self._covariance_rhs(np.eye(self.N))
        return 0.5 * (S + S.T)

    def covariance_columns(self, cols: np.ndarray) -> np.ndarray:
        """Selected columns of Sigma_u: Sigma_u @ R for a dense RHS R."""
        return self._covariance_rhs(np.asarray(cols, float))

    def _covariance_rhs(self, R: np.ndarray) -> np.ndarray:
        """Sigma_u R for R of shape (N,) or (N, p).  With R~ = T^{-1} R and
        A = sum_i r_i (L - p_i C)^{-1} R~, Sigma_x R~ is A + k C^{-1} R~ for
        n = 0 and (L^{-1}C)^{n-1} L^{-1} (C A + k R~) for n >= 1."""
        column = (-1,) + (1,) * (R.ndim - 1)  # node values broadcast along R's rows
        tinv, c = (1.0 / self.tau_nodes).reshape(column), self.c_diag.reshape(column)
        Rt, rat, Lf = R * tinv, self.rational, self._operator_factor()
        A = np.zeros_like(Rt)
        for r, p in zip(rat.residues, rat.poles):
            A += r * SparseCholesky(self._shifted(p), analysis=Lf.analysis).solve(Rt)
        n = int(math.floor(self.alpha))
        if n == 0:
            return (A + rat.k / c * Rt) * tinv
        X = Lf.solve(c * A + rat.k * Rt)
        for _ in range(n - 1):
            X = Lf.solve(c * X)
        return X * tinv

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
        return self._covariance_rhs(psi)

    def marginal_variance(self) -> np.ndarray:
        """diag(Sigma_u) = sum_i diag(Q_i^{-1}) / tau^2, the tau-free sum from
        one selected inversion of all block factors, once per shared core."""
        core = self._core
        if core.variance is None:
            factors = self.block_factors()
            nodes = np.arange(self.N)
            out = np.zeros(self.N)
            for diagonal in selected_inverses(factors, [(nodes, nodes)] * len(factors)):
                out += diagonal
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
        if n_samples < 1:
            raise FieldError(f"the number of samples must be at least 1, got {n_samples}")
        out = np.zeros((self.N, n_samples))
        for i, F in enumerate(self.block_factors()):
            rng = np.random.Generator(
                np.random.Philox(key=np.array([seed & (2**64 - 1), i], dtype=np.uint64))
            )
            z = rng.standard_normal((self.N, n_samples))
            out += F.sample_backsolve(z)
        return (out / self.tau_nodes[:, None]).T


def _times(A, P):
    """A P, with P = None standing for the identity."""
    return A if P is None else A @ P


def _weighted_sum(blocks, weights, scales) -> csr_matrix:
    """sum_i scales[i] V_i as one CSR matrix, V_i the weights on block i's
    pattern; blocks on the running sum's pattern add their data arrays."""
    out = None
    for Q, v, s in zip(blocks, weights, scales):
        if out is not None and same_pattern(Q, out.indptr, out.indices):
            out.data += s * v
        else:
            V = csr_matrix((s * v, Q.indices, Q.indptr), shape=Q.shape)
            out = V if out is None else out + V
    return out


def _inner(W, M) -> float:
    """sum(W o M) for CSR matrices by np.sum, on the data if they share a pattern."""
    same = same_pattern(W, M.indptr, M.indices)
    return np.sum(W.data * M.data if same else W.multiply(M).data)


def _sym(M) -> csr_matrix:
    """(M + M^T) / 2 for a product M, whose indices are sorted in place first."""
    M.sort_indices()
    return (M + M.T) * 0.5


# -- derived model builders ---------------------------------------------------------


def variance_stationary_model(mesh: Mesh, kappa, alpha: float, sigma0: float,
                              m: int | None = None) -> FieldModel:
    """Field with tau = sigma_kappa / sigma0, where sigma_kappa is the marginal
    standard deviation of the tau=1 model: nodal variances become sigma0^2.

    The blocks do not depend on tau, so the returned model shares the tau=1
    model's blocks, factors and selected-inverse diagonal; its marginal
    variance sigma_kappa^2 / tau^2 equals sigma0^2 up to rounding."""
    if not 0 < sigma0 < math.inf:  # NaN fails too
        raise FieldError(f"sigma0 must be positive and finite, got {sigma0!r}")
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
