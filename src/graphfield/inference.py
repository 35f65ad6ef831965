"""Observation model, kriging, marginal likelihood, covariate construction,
and leave-radius-out cross-validation.

Observations follow y_i | u ~ N(F beta + u(s_i), sigma_e^2) with the field
expanded as u = sum of m+1 GMRF blocks; stacking X = (x_1, ..., x_{m+1})
gives the hierarchical form y | X ~ N(F beta + Abar X, sigma_e^2 I),
X ~ N(0, blockdiag(Q_i)^{-1}), Abar = [A ... A].  The kriging predictor
solves (Abar' Abar / sigma_e^2 + Q) mu = Abar' y / sigma_e^2; the exact
Gaussian marginal likelihood uses the matrix determinant lemma on the same
factorization.

The pattern of that posterior precision depends on the mesh, the
observation locations and the blocks' patterns only.  An observation set
keeps, per mesh, A, A', A'A, the stacked pattern with the slot of every
block and A'A entry in it, and the symbolic analyses of its factors, so a
likelihood evaluation only fills values into fixed structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix, csr_matrix

from .cholesky import SparseCholesky, same_pattern
from .field import FieldModel, log_linear, variance_stationary_model
from .graph import GraphPoint
from .mesh import Mesh


class InferenceError(ValueError):
    pass


class _ObservationMemo:
    """Structure of an observation set on one mesh: A, A', A'A and the
    stacked posterior pattern of the last block patterns it served."""

    def __init__(self):
        self.mesh = None

    def reset(self, mesh: Mesh, points):
        self.mesh = mesh
        self.A = mesh.basis_matrix(points)
        self.At = self.A.T
        self.AtA = self.At @ self.A
        self.stacked = None

    def stacked_for(self, blocks) -> _StackedPattern:
        st = self.stacked
        if st is None or not st.serves(blocks):
            st = self.stacked = _StackedPattern(blocks, self.AtA)
        return st


class _StackedPattern:
    """Pattern of Qpost = blockdiag(Q_1..Q_K) + J (x) A'A with J the K x K
    ones, in CSR form with sorted indices, and the slots of the blocks'
    entries and of the K^2 copies of A'A's entries in its data; plus the
    symbolic analyses of its factors (with and without the forced cross-block
    pairs of the variance)."""

    def __init__(self, blocks, AtA):
        self.patterns = [(Q.indptr.copy(), Q.indices.copy()) for Q in blocks]
        N, K = AtA.shape[0], len(blocks)
        self.K, self.shape = K, (K * N, K * N)
        q_rows = np.concatenate([np.repeat(np.arange(N) + i * N, np.diff(Q.indptr))
                                 for i, Q in enumerate(blocks)])
        q_cols = np.concatenate([Q.indices + i * N for i, Q in enumerate(blocks)])
        a = AtA.tocoo()
        r, c = np.divmod(np.arange(K * K), K)
        b_rows = (a.row + N * r[:, None]).ravel()
        b_cols = (a.col + N * c[:, None]).ravel()
        rows, cols = np.concatenate((q_rows, b_rows)), np.concatenate((q_cols, b_cols))
        pattern = coo_matrix((np.ones(rows.size), (rows, cols)), shape=self.shape).tocsr()
        self.indptr, self.indices = pattern.indptr, pattern.indices
        # row * KN + col over the canonical CSR pattern is increasing
        keys = np.repeat(np.arange(K * N, dtype=np.int64), np.diff(self.indptr)) * (K * N) \
            + self.indices
        self.q_slots = np.searchsorted(keys, q_rows.astype(np.int64) * (K * N) + q_cols)
        self.b_slots = np.searchsorted(keys, b_rows.astype(np.int64) * (K * N) + b_cols)
        self.analysis = None
        self.variance_analysis = None

    def serves(self, blocks) -> bool:
        return len(blocks) == self.K and all(
            same_pattern(Q, *pattern) for Q, pattern in zip(blocks, self.patterns))

    def matrix(self, blocks, AtA_scaled) -> csr_matrix:
        data = np.zeros(self.indices.size)
        data[self.q_slots] = np.concatenate([Q.data for Q in blocks])
        data[self.b_slots] += np.tile(AtA_scaled, self.K * self.K)
        return csr_matrix((data, self.indices, self.indptr), shape=self.shape)


@dataclass
class ObservationSet:
    """Noisy point observations; values may carry replicates as columns."""

    points: list
    values: np.ndarray        # (n,) or (n, n_replicates)
    sigma_e: float
    _memo: _ObservationMemo = field(default_factory=_ObservationMemo, init=False,
                                    repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.sigma_e <= 0:
            raise InferenceError("sigma_e must be positive")
        n = len(self.points)
        if self.values.shape[0] != n:
            raise InferenceError("values do not match the number of locations")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def matrix(self) -> np.ndarray:
        """Values as (n, n_replicates)."""
        v = self.values
        return v[:, None] if v.ndim == 1 else v

    def basis_matrix(self, mesh: Mesh):
        """Observation matrix A[i, j] = psi_j(points[i]) on `mesh`, built once
        per mesh."""
        return self._structure(mesh).A

    def _structure(self, mesh: Mesh) -> _ObservationMemo:
        if self._memo.mesh is not mesh:
            self._memo.reset(mesh, self.points)
        return self._memo

    def with_sigma_e(self, sigma_e: float) -> "ObservationSet":
        """The same observations under another noise level, sharing the
        per-mesh structure (observation matrix, stacked pattern, analyses)
        with this set, including what either builds later."""
        out = ObservationSet(self.points, self.values, sigma_e)
        out._memo = self._memo
        return out


@dataclass
class PosteriorSummary:
    mean: np.ndarray                 # (N,) or (N, n_replicates)
    variance: np.ndarray | None = None


# -- GMRF kriging -----------------------------------------------------------------


def _stacked_system(model: FieldModel, obs: ObservationSet):
    """(memo, stacked pattern, Qpost): the posterior precision of the stacked
    blocks, filled into the observation set's fixed pattern."""
    memo = obs._structure(model.mesh)
    blocks = model.precision_blocks()
    st = memo.stacked_for(blocks)
    return memo, st, st.matrix(blocks, memo.AtA.data * (1 / obs.sigma_e**2))


def kriging(model: FieldModel, obs: ObservationSet,
            compute_variance: bool = False) -> PosteriorSummary:
    """Posterior mean (and optionally marginal variances) of the field weights
    given the observations."""
    memo, st, Qpost = _stacked_system(model, obs)
    N, K = model.N, st.K
    rhs_block = (memo.At @ obs.matrix) / obs.sigma_e**2
    rhs = np.tile(rhs_block, (K, 1))
    variance = None
    if compute_variance:
        # Var(u_i) = sum_{r,s} Z_{(r i),(s i)}: force the cross-block (i, i)
        # pairs into the band and read all K^2 of them from one selected inverse
        i = np.arange(N)
        r, s = np.divmod(np.arange(K * K), K)
        rows = (i + N * r[:, None]).ravel()
        cols = (i + N * s[:, None]).ravel()
        F = SparseCholesky(Qpost, extra_pattern=(rows, cols), analysis=st.variance_analysis)
        st.variance_analysis = F.analysis
        variance = F.inverse_entries(rows, cols).reshape(K * K, N).sum(axis=0)
    else:
        F = SparseCholesky(Qpost, analysis=st.analysis)
        st.analysis = F.analysis
    sol = F.solve(rhs)
    mean = sol.reshape(K, N, -1).sum(axis=0)
    if obs.values.ndim == 1:
        mean = mean[:, 0]
    return PosteriorSummary(mean=mean, variance=variance)


def kriging_covariance_form(model: FieldModel, obs: ObservationSet) -> PosteriorSummary:
    """Covariance-form predictor Sigma A' (A Sigma A' + sigma^2 I)^{-1} y;
    the dense oracle route, algebraically equal to the GMRF form."""
    A = obs.basis_matrix(model.mesh)
    cols = model.covariance_columns(np.asarray(A.T.todense()))
    S_obs = np.asarray(A @ cols)
    S_obs = 0.5 * (S_obs + S_obs.T) + obs.sigma_e**2 * np.eye(obs.n)
    weights = cho_solve(cho_factor(S_obs, lower=True), obs.matrix)
    mean = cols @ weights
    if obs.values.ndim == 1:
        mean = mean[:, 0]
    return PosteriorSummary(mean=mean)


# -- marginal likelihood -------------------------------------------------------------


def log_likelihood(model: FieldModel, obs: ObservationSet, beta=None, design=None):
    """Exact Gaussian marginal log-likelihood of the observations.

    design is the fixed-effects matrix F at the observation locations; when
    beta is None and a design is given, beta is profiled out by generalized
    least squares.  Replicates contribute independent terms.  Returns
    (loglik, beta).
    """
    memo, st, Qpost = _stacked_system(model, obs)
    A, At, K = memo.A, memo.At, st.K
    n = obs.n
    s2 = obs.sigma_e**2
    Y = obs.matrix
    R = Y.shape[1]
    Fq = SparseCholesky(Qpost, analysis=st.analysis)
    st.analysis = Fq.analysis
    # log det(T Q_i T) = log det Q_i + 2 sum(log tau) for each of the K blocks
    logdet_q = sum(f.logdet() for f in model.block_factors()) \
        + 2 * K * float(np.sum(np.log(model.tau_nodes)))
    logdet_sy = Fq.logdet() - logdet_q + n * math.log(s2)

    def siginv(V):
        # Sigma_y^{-1} V via the Woodbury identity on the stacked system
        V = np.asarray(V, float)
        vv = V[:, None] if V.ndim == 1 else V
        Atv = np.tile((At @ vv) / s2, (K, 1))
        core = Fq.solve(Atv).reshape(K, model.N, -1).sum(axis=0)
        out = vv / s2 - (A @ core) / s2
        return out if V.ndim > 1 else out[:, 0]

    if design is not None:
        Fd = np.asarray(design, float)
        if Fd.ndim == 1:
            Fd = Fd[:, None]
        if beta is None:
            SiF = siginv(Fd)
            M = Fd.T @ SiF
            rhs = SiF.T @ Y.sum(axis=1)
            beta = np.atleast_1d(np.linalg.solve(R * M, rhs))
        else:
            beta = np.atleast_1d(beta)
        resid = Y - (Fd @ beta)[:, None]
    else:
        beta = None
        resid = Y
    quad = float(np.sum(resid * siginv(resid)))
    ll = -0.5 * (R * n * math.log(2 * math.pi) + R * logdet_sy + quad)
    return ll, beta


# -- covariates by kriging ---------------------------------------------------------


def covariate_from_observations(mesh: Mesh, obs: ObservationSet, alpha: float,
                                kappa, sigma0: float = 1.0, beta0=None,
                                standardize: bool = False):
    """Node-valued covariate built by kriging an auxiliary field
    (kappa^2 - Lap)^{alpha/2} w = sigma0 * W through the observations
    z_i = beta0 + w(s_i) + eps.

    Returns (covariate_nodes, beta0).  With standardize=True the returned
    node values have mean 0 and standard deviation 1.
    """
    model = FieldModel.build(mesh, alpha, kappa, 1.0 / sigma0)
    if obs.matrix.shape[1] != 1:
        raise InferenceError("covariate construction expects a single replicate")
    if beta0 is None:
        _, beta = log_likelihood(model, obs, design=np.ones(obs.n))
        beta0 = float(beta[0])
    shifted = ObservationSet(obs.points, obs.matrix[:, 0] - beta0, obs.sigma_e)
    z = beta0 + kriging(model, shifted).mean
    if standardize:
        z = (z - z.mean()) / z.std()
    return z, beta0


# -- model specification and fitting ----------------------------------------------


@dataclass
class LogRegression:
    """log f(s) = intercept + sum_j slopes[j] * covariate_j(s); entries set to
    None are estimated."""

    intercept: float | None = 0.0
    slopes: list = field(default_factory=list)


@dataclass
class ModelSpec:
    """Free/fixed parameterization for maximum-likelihood fitting.

    alpha and sigma_e may be numbers or "estimate"; covariates are node-value
    arrays shared by the kappa and tau log-regressions.
    """

    alpha: float | str
    kappa: LogRegression
    tau: LogRegression | None
    sigma_e: float | str
    covariates: list = field(default_factory=list)
    variance_stationary: bool = False
    sigma0: float | None = None   # varstat scale; None = estimate

    @classmethod
    def from_dict(cls, d: dict, covariates=None):
        def value(v):
            return None if v == "estimate" else (None if v is None else float(v))

        def logreg(sub):
            if sub is None:
                return None
            return LogRegression(value(sub.get("intercept", "estimate")),
                                 [value(s) for s in sub.get("slopes", [])])

        alpha = d.get("alpha", "estimate")
        sigma_e = d.get("sigma_e", "estimate")
        return cls(
            alpha="estimate" if alpha == "estimate" else float(alpha),
            kappa=logreg(d.get("kappa", {})),
            tau=logreg(d.get("tau", {})),
            sigma_e="estimate" if sigma_e == "estimate" else float(sigma_e),
            covariates=list(covariates or []),
            variance_stationary=bool(d.get("variance_stationary", False)),
            sigma0=value(d.get("sigma0")) if "sigma0" in d else 1.0,
        )


@dataclass
class FitResult:
    params: dict
    beta: np.ndarray | None
    loglik: float
    converged: bool
    n_evaluations: int
    alpha: float
    model: FieldModel


_ALPHA_BOX = (0.55, 2.95)


def _collect_free(spec: ModelSpec):
    names = []
    init = []
    if spec.kappa.intercept is None:
        names.append("kappa_intercept"); init.append(0.0)
    for j, s in enumerate(spec.kappa.slopes):
        if s is None:
            names.append(f"kappa_slope{j}"); init.append(0.0)
    if spec.variance_stationary:
        if spec.sigma0 is None:
            names.append("log_sigma0"); init.append(0.0)
    elif spec.tau is not None:
        if spec.tau.intercept is None:
            names.append("tau_intercept"); init.append(0.0)
        for j, s in enumerate(spec.tau.slopes):
            if s is None:
                names.append(f"tau_slope{j}"); init.append(0.0)
    if spec.sigma_e == "estimate":
        names.append("log_sigma_e"); init.append(math.log(0.3))
    return names, np.array(init)


def _materialize(spec: ModelSpec, mesh: Mesh, alpha: float, theta: dict) -> FieldModel:
    def predict(reg: LogRegression, prefix: str):
        return log_linear(mesh.N, theta.get(f"{prefix}_intercept", reg.intercept),
                          [(theta.get(f"{prefix}_slope{j}", s), spec.covariates[j])
                           for j, s in enumerate(reg.slopes)])

    kappa = predict(spec.kappa, "kappa")
    if spec.variance_stationary:
        sigma0 = math.exp(theta["log_sigma0"]) if spec.sigma0 is None else spec.sigma0
        return variance_stationary_model(mesh, kappa, alpha, sigma0)
    tau = predict(spec.tau, "tau")
    return FieldModel.build(mesh, alpha, kappa, tau)


def fit(spec: ModelSpec, mesh: Mesh, obs: ObservationSet, design=None,
        max_evaluations: int = 400, alpha_grid=None, x0=None,
        restarts: int = 1) -> FitResult:
    """Maximize the marginal likelihood by a derivative-free simplex search
    (restarted from its own optimum), with a coarse-then-fine grid for alpha
    when it is estimated.  x0 warm-starts the free parameters (in the order
    reported by the result's params)."""
    names, x0_default = _collect_free(spec)
    x0 = x0_default if x0 is None else np.asarray(x0, float)
    evaluations = [0]
    obs.basis_matrix(mesh)  # every evaluation's copy of obs shares it

    def objective(x, alpha):
        evaluations[0] += 1
        theta = dict(zip(names, x))
        sigma_e = math.exp(theta["log_sigma_e"]) if spec.sigma_e == "estimate" \
            else float(spec.sigma_e)
        try:
            model = _materialize(spec, mesh, alpha, theta)
            ll, _ = log_likelihood(model, obs.with_sigma_e(sigma_e), design=design)
        except (np.linalg.LinAlgError, ValueError, OverflowError):
            return 1e12
        return -ll

    if spec.alpha == "estimate":
        grid = list(alpha_grid) if alpha_grid is not None else \
            list(np.arange(0.6, 2.45, 0.2))
        best = min(grid, key=lambda a: objective(x0, a))
        fine = [a for a in np.arange(best - 0.15, best + 0.16, 0.05)
                if _ALPHA_BOX[0] < a < _ALPHA_BOX[1]]
        alpha = min(fine, key=lambda a: objective(x0, a))
    else:
        alpha = float(spec.alpha)

    if len(x0):
        from scipy.optimize import minimize  # imported here: scipy.optimize is slow to import

        xbest, success = x0, False
        for _ in range(max(1, restarts + 1)):
            res = minimize(objective, xbest, args=(alpha,), method="Nelder-Mead",
                           options={"maxfev": max_evaluations,
                                    "xatol": 1e-6, "fatol": 1e-8})
            moved = np.abs(res.x - xbest).max() if success else np.inf
            xbest, success = res.x, bool(res.success)
            if success and moved < 1e-5:
                break
    else:
        objective(x0, alpha)
        xbest, success = x0, True
    theta = dict(zip(names, xbest))
    sigma_e = math.exp(theta["log_sigma_e"]) if spec.sigma_e == "estimate" \
        else float(spec.sigma_e)
    model = _materialize(spec, mesh, alpha, theta)
    ll, beta = log_likelihood(model, obs.with_sigma_e(sigma_e), design=design)
    params = dict(theta)
    params["alpha"] = alpha
    params["sigma_e"] = sigma_e
    return FitResult(params=params, beta=beta, loglik=ll, converged=success,
                     n_evaluations=evaluations[0], alpha=alpha, model=model)


# -- leave-radius-out cross-validation -----------------------------------------------


@dataclass
class CVRecord:
    radius: float
    mse: float
    nls: float
    n_used: int
    n_skipped: int


def leave_radius_out_cv(model: FieldModel, obs: ObservationSet, radii,
                        design=None, beta=None) -> list[CVRecord]:
    """Predict each location after removing all observations within geodesic
    radius R of it; report mean squared error and mean negative log-score.

    The prediction uses the covariance-form kriging identity (equal to the
    GMRF form) so each exclusion set only costs a dense solve of size n.
    """
    A = obs.basis_matrix(model.mesh)
    cols = model.covariance_columns(np.asarray(A.T.todense()))
    S = np.asarray(A @ cols)
    S = 0.5 * (S + S.T)
    s2 = obs.sigma_e**2
    D = model.mesh.graph.geodesic_matrix(obs.points)
    Y = obs.matrix
    if design is not None and beta is not None:
        trend = np.asarray(design, float) @ np.atleast_1d(beta)
    else:
        trend = np.zeros(obs.n)
    E = Y - trend[:, None]
    out = []
    for R in radii:
        se = []
        nls = []
        skipped = 0
        for i in range(obs.n):
            keep = np.nonzero(D[i] > R)[0]
            if keep.size == 0:
                skipped += 1
                continue
            Sjj = S[np.ix_(keep, keep)] + s2 * np.eye(keep.size)
            ci = S[i, keep]
            sol = cho_solve(cho_factor(Sjj, lower=True),
                            np.column_stack([E[keep], ci]))
            w, aux = sol[:, :-1], sol[:, -1]
            mu = trend[i] + ci @ w
            var = S[i, i] - ci @ aux + s2
            err2 = (Y[i] - mu) ** 2
            se.extend(err2.tolist())
            nls.extend((0.5 * (np.log(2 * np.pi * var) + err2 / var)).tolist())
        out.append(CVRecord(radius=float(R),
                            mse=float(np.mean(se)) if se else float("nan"),
                            nls=float(np.mean(nls)) if nls else float("nan"),
                            n_used=obs.n - skipped, n_skipped=skipped))
    return out


def write_cv_csv(records, path):
    import csv as _csv
    with open(path, "w", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["radius", "mse", "nls", "n_used", "n_skipped"])
        for r in records:
            w.writerow([f"{r.radius:.17g}", f"{r.mse:.17g}", f"{r.nls:.17g}",
                        r.n_used, r.n_skipped])
