"""Observation model, kriging, marginal likelihood, covariate construction,
and leave-radius-out cross-validation.

Observations follow y_i | u ~ N(F beta + u(s_i), sigma_e^2) with the field
u = T^{-1} sum_i x_i, the m+1 GMRF blocks x_i of tau-free precisions Q_i;
stacking X = (x_1, ..., x_{m+1}) gives y | X ~ N(F beta + Bbar X, sigma_e^2 I),
X ~ N(0, blockdiag(Q_i)^{-1}), Bbar = [B ... B], and tau enters the posterior
only through the observation operator B = A T^{-1}.  The kriging predictor
solves (Bbar' Bbar / sigma_e^2 + Q) mu = Bbar' y / sigma_e^2; the exact
Gaussian marginal likelihood uses the matrix determinant lemma on the same
factorization, and its gradient in log kappa, log tau and log sigma_e reads
the selected inverse of that factorization.  `fit` maximizes it by L-BFGS-B.

The pattern of that posterior precision depends on the mesh, the
observation locations and the blocks' patterns only.  An observation set
keeps, per mesh, A, A', A'A, the stacked pattern with the slot of every
block and A'A entry in it, and the one symbolic analysis that kriging (mean
and variance) and the likelihood share, so a likelihood evaluation only
fills values into fixed structure.  It orders X node-major, so that the
cross-block pairs of a node that the variance reads lie in the band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse import coo_matrix, csr_matrix

from .cholesky import Analysis, SparseCholesky, same_pattern
from .field import FieldModel, variance_stationary_model
from .fractional import RationalError
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
    """Pattern of Qpost = blockdiag(Q_1..Q_K) + J (x) B'B with J the K x K
    ones (B'B on A'A's pattern), in CSR form with sorted indices, and the
    slots of the blocks' entries and of the K^2 copies of A'A's entries in
    its data; plus the symbolic analysis that all its factors share.

    The order is node-major: position K p + r holds copy r of node order[p],
    for the RCM order of the node pattern (the stacked pattern with indices
    taken mod N, of bandwidth b).  That is the pattern of blocks[0], which
    holds every other block's pattern and A'A's.  Copies of nodes p and q lie
    at most K (|p - q| + 1) - 1 apart, so the band is at most K (b + 1) - 1
    wide and holds every pair (r, i), (s, i) that the kriging variance reads."""

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
        order = Analysis(blocks[0]).perm
        self.analysis = Analysis(pattern, perm=(order[:, None] + N * np.arange(K)).ravel())
        # the analysis's copy of the pattern, so that Qpost has its very arrays
        self.indptr, self.indices = self.analysis.indptr, self.analysis.indices
        # row * KN + col over the canonical CSR pattern is increasing
        keys = np.repeat(np.arange(K * N, dtype=np.int64), np.diff(self.indptr)) * (K * N) \
            + self.indices
        self.q_slots = np.searchsorted(keys, q_rows.astype(np.int64) * (K * N) + q_cols)
        self.b_slots = np.searchsorted(keys, b_rows.astype(np.int64) * (K * N) + b_cols)

    def serves(self, blocks) -> bool:
        return len(blocks) == self.K and all(
            same_pattern(Q, *pattern) for Q, pattern in zip(blocks, self.patterns))

    def matrix(self, blocks, BtB_scaled) -> csr_matrix:
        data = np.zeros(self.indices.size)
        data[self.q_slots] = np.concatenate([Q.data for Q in blocks])
        data[self.b_slots] += np.tile(BtB_scaled, self.K * self.K)
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
        if not 0 < self.sigma_e < math.inf:
            raise InferenceError(f"sigma_e must be positive and finite, got {self.sigma_e!r}")
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
        per-mesh structure (observation matrix, stacked pattern, its analysis)
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
    """(memo, stacked pattern, factor of Qpost, t = 1 / tau, B'B's data on A'A's
    pattern) for Qpost = blockdiag(Q_i) + J (x) B'B / sigma_e^2, B = A T^{-1},
    filled into the observation set's fixed pattern."""
    memo = obs._structure(model.mesh)
    blocks = model.precision_blocks()
    st = memo.stacked_for(blocks)
    t, AtA = 1.0 / model.tau_nodes, memo.AtA
    BtB = AtA.data * (t[np.repeat(np.arange(model.N), np.diff(AtA.indptr))] * t[AtA.indices])
    F = SparseCholesky(st.matrix(blocks, BtB * (1 / obs.sigma_e**2)), analysis=st.analysis)
    return memo, st, F, t, BtB


def _stacked_solve(F, K: int, memo, t, V, s2: float):
    """For V (n, p): the stacked posterior mean mu = Qpost^{-1} (1 (x) B'V) / s2,
    the field's mean u = t sum_i mu_i (N, p), and Sigma_y^{-1} V = (V - A u) / s2
    by the Woodbury identity."""
    mu = F.solve(np.tile(t[:, None] * (memo.At @ V) / s2, (K, 1)))
    u = t[:, None] * mu.reshape(K, t.size, -1).sum(axis=0)
    return mu, u, V / s2 - (memo.A @ u) / s2


def kriging(model: FieldModel, obs: ObservationSet,
            compute_variance: bool = False) -> PosteriorSummary:
    """Posterior mean (and optionally marginal variances) of the field weights
    given the observations: u = t x for the tau-free field x."""
    memo, st, F, t, _ = _stacked_system(model, obs)
    N, K = model.N, st.K
    mean = _stacked_solve(F, K, memo, t, obs.matrix, obs.sigma_e**2)[1]
    if obs.values.ndim == 1:
        mean = mean[:, 0]
    variance = None
    if compute_variance:
        # Var(u_i) = t_i^2 sum_{r,s} Z_{(r i),(s i)}: the node-major order puts all
        # K^2 of these pairs in the band, so one selected inverse reads them
        i = np.arange(N)
        r, s = np.divmod(np.arange(K * K), K)
        variance = t**2 * F.selected_inverse((i + N * r[:, None]).ravel(),
                                             (i + N * s[:, None]).ravel()
                                             ).reshape(K * K, N).sum(axis=0)
    return PosteriorSummary(mean=mean, variance=variance)


def _observation_covariance(model: FieldModel, obs: ObservationSet):
    """The dense observation-space object of covariance-form kriging and CV:
    W = Sigma A' (N, n), the observation covariance S_y = S + sigma_e^2 I
    with S = A W symmetrized, and the lower Cholesky factor of S_y."""
    A = obs.basis_matrix(model.mesh)
    W = model.covariance_columns(np.asarray(A.T.todense()))
    S = np.asarray(A @ W)
    Sy = 0.5 * (S + S.T) + obs.sigma_e**2 * np.eye(obs.n)
    return W, Sy, cho_factor(Sy, lower=True)


def kriging_covariance_form(model: FieldModel, obs: ObservationSet) -> PosteriorSummary:
    """Covariance-form predictor Sigma A' (A Sigma A' + sigma^2 I)^{-1} y;
    the dense oracle route, algebraically equal to the GMRF form."""
    W, _, factor = _observation_covariance(model, obs)
    mean = W @ cho_solve(factor, obs.matrix)
    if obs.values.ndim == 1:
        mean = mean[:, 0]
    return PosteriorSummary(mean=mean)


# -- marginal likelihood -------------------------------------------------------------


@dataclass
class LikelihoodGradient:
    """Derivatives of the log-likelihood with respect to log kappa and log tau
    at the mesh nodes and to log sigma_e, with beta held at its value."""

    log_kappa: np.ndarray
    log_tau: np.ndarray
    log_sigma_e: float


def log_likelihood(model: FieldModel, obs: ObservationSet, beta=None, design=None,
                   gradient: bool = False):
    """Exact Gaussian marginal log-likelihood of the observations.

    design is the fixed-effects matrix F at the observation locations; when
    beta is None and a design is given, beta is profiled out by generalized
    least squares.  Replicates contribute independent terms.  Returns
    (loglik, beta), or (loglik, beta, LikelihoodGradient) with gradient=True.

    The gradient reuses the stacked factor.  With Z = Qpost^{-1}, mu_r the
    stacked posterior mean of replicate r's residual e_r, u_r = t sum_i mu_ir,
    rho_r = Sigma_y^{-1} e_r and Zb = sum_{i,k} Z_ik (over block pairs) read on
    A'A's pattern,

        d(-2 loglik) / dQ_i = R (Z_ii - Q_i^{-1}) + sum_r mu_ir mu_ir',
        d(-2 loglik) / dlog tau_j = -(2 R / sigma_e^2) rowsum_j(Zb o B'B)
                                    + 2 sum_r u_jr (A' rho_r)_j,
        d loglik / dlog sigma_e = R (<Zb, B'B> / sigma_e^2 - n) + sigma_e^2 sum_r |rho_r|^2,

    the quadratic terms by the envelope theorem on the quadratic form's
    minimization over the field (and over beta when it is profiled).  Z is
    read on Qpost's pattern from one selected inversion of the stacked
    factor, and Q_i^{-1} from FieldModel.block_inverses.
    """
    memo, st, Fq, t, BtB = _stacked_system(model, obs)
    K, N, n = st.K, model.N, obs.n
    s2, Y = obs.sigma_e**2, obs.matrix
    R = Y.shape[1]
    logdet_sy = Fq.logdet() - sum(f.logdet() for f in model.block_factors()) + n * math.log(s2)

    if design is not None:
        Fd = np.asarray(design, float)
        if Fd.ndim == 1:
            Fd = Fd[:, None]
        if beta is None:
            SiF = _stacked_solve(Fq, K, memo, t, Fd, s2)[2]
            M = Fd.T @ SiF
            rhs = SiF.T @ Y.sum(axis=1)
            beta = np.atleast_1d(np.linalg.solve(R * M, rhs))
        else:
            beta = np.atleast_1d(beta)
        resid = Y - (Fd @ beta)[:, None]
    else:
        beta = None
        resid = Y
    mu, u, Siresid = _stacked_solve(Fq, K, memo, t, resid, s2)
    quad = float(np.sum(resid * Siresid))
    ll = -0.5 * (R * n * math.log(2 * math.pi) + R * logdet_sy + quad)
    if not gradient:
        return ll, beta

    rows = np.repeat(np.arange(K * N), np.diff(st.indptr))
    Z = Fq.selected_inverse(rows, st.indices)
    # the weights of the blocks' entries, concatenated, then split per block
    q_rows, q_cols = rows[st.q_slots], st.indices[st.q_slots]
    v = R * Z[st.q_slots] + np.einsum("ij,ij->i", mu[q_rows], mu[q_cols]) \
        - R * np.concatenate(model.block_inverses())
    weights = np.split(v, np.cumsum([Q.nnz for Q in model.precision_blocks()])[:-1])
    # np.sum and np.bincount, not BLAS dots, whose last bits follow the thread count
    zbb = Z[st.b_slots].reshape(K * K, -1).sum(axis=0) * BtB  # Zb o B'B
    AtA_rows = np.repeat(np.arange(N), np.diff(memo.AtA.indptr))
    d_tau = R / s2 * np.bincount(AtA_rows, zbb, minlength=N) \
        - np.sum(u * (memo.At @ Siresid), axis=1)
    d_sigma = R * (float(np.sum(zbb)) / s2 - n) + s2 * float(np.sum(Siresid**2))
    return ll, beta, LikelihoodGradient(log_kappa=-0.5 * model._kappa_gradient(weights),
                                        log_tau=d_tau, log_sigma_e=d_sigma)


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

    def free(self, prefix: str) -> list:
        """Names of the estimated entries: prefix_intercept, then prefix_slope<j>."""
        return ([f"{prefix}_intercept"] if self.intercept is None else []) + \
            [f"{prefix}_slope{j}" for j, s in enumerate(self.slopes) if s is None]

    def nodes(self, prefix: str, theta: dict, covariates, n: int) -> np.ndarray:
        """exp(log f) at n nodes, the estimated entries read from theta by the
        names of free(prefix); the terms are summed in covariate order."""
        eta = np.full(n, theta.get(f"{prefix}_intercept", self.intercept), dtype=float)
        for j, s in enumerate(self.slopes):
            eta += theta.get(f"{prefix}_slope{j}", s) * np.asarray(covariates[j], float)
        return np.exp(eta)

    def gradient(self, d: np.ndarray, covariates) -> list:
        """Derivatives in the estimated entries, in free() order, of a function
        whose derivative in log f at the nodes is d.  np.sum, not a BLAS dot,
        whose last bits follow the thread count."""
        return ([np.sum(d)] if self.intercept is None else []) + \
            [np.sum(d * np.asarray(covariates[j], float))
             for j, s in enumerate(self.slopes) if s is None]


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
        """The spec of a model-spec JSON object.  An unknown key, a value that
        is neither a finite number nor "estimate", a fixed alpha outside
        (1/2, 3] or a fixed sigma_e or sigma0 <= 0, covariates that are not a
        list of strings, a null tau without variance_stationary, or more
        slopes than covariates is an InferenceError naming the key."""
        covariates = list(covariates or [])

        def keys(obj, allowed, where):
            if not isinstance(obj, dict):
                raise InferenceError(f"model spec: {where} must be a JSON object, got {obj!r}")
            for key in obj:
                if key not in allowed:
                    raise InferenceError(f"model spec: unknown key {key!r} in {where}")

        def value(v, key, null_ok=True, above=-math.inf, at_most=math.inf):
            if v == "estimate" or (v is None and null_ok):
                return None
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
                raise InferenceError(f'model spec: {key} must be a finite number or '
                                     f'"estimate", got {v!r}')
            if not above < v <= at_most:
                bounds = f"exceed {above:g}" + (f" and be at most {at_most:g}"
                                                 if at_most < math.inf else "")
                raise InferenceError(f"model spec: a fixed {key} must {bounds}, got {v!r}")
            return float(v)

        def logreg(key):
            sub = d.get(key, {})
            if sub is None and key == "tau":
                return None
            keys(sub, ("intercept", "slopes"), key)
            slopes = sub.get("slopes", [])
            if not isinstance(slopes, list):
                raise InferenceError(f"model spec: {key}.slopes must be a list, got {slopes!r}")
            if len(slopes) > len(covariates):
                raise InferenceError(f"model spec: {key}.slopes has {len(slopes)} entries "
                                     f"for {len(covariates)} covariates")
            return LogRegression(value(sub.get("intercept", "estimate"), f"{key}.intercept"),
                                 [value(s, f"{key}.slopes[{j}]") for j, s in enumerate(slopes)])

        keys(d, ("alpha", "kappa", "tau", "sigma_e", "covariates", "variance_stationary",
                 "sigma0"), "the spec")
        cls.covariate_expressions(d)
        alpha = value(d.get("alpha", "estimate"), "alpha", null_ok=False, above=0.5,
                      at_most=3.0)
        sigma_e = value(d.get("sigma_e", "estimate"), "sigma_e", null_ok=False, above=0.0)
        variance_stationary = d.get("variance_stationary", False)
        if not isinstance(variance_stationary, bool):
            raise InferenceError("model spec: variance_stationary must be true or false, "
                                 f"got {variance_stationary!r}")
        kappa, tau = logreg("kappa"), logreg("tau")
        if tau is None and not variance_stationary:
            raise InferenceError('model spec: tau is null, which needs '
                                 '"variance_stationary": true')
        return cls(
            alpha="estimate" if alpha is None else alpha,
            kappa=kappa,
            tau=tau,
            sigma_e="estimate" if sigma_e is None else sigma_e,
            covariates=covariates,
            variance_stationary=variance_stationary,
            sigma0=value(d.get("sigma0"), "sigma0", above=0.0) if "sigma0" in d else 1.0,
        )

    @staticmethod
    def covariate_expressions(d) -> list:
        """The "covariates" entry of a model-spec JSON object, a list of
        expression strings ([] when absent, or when d is not an object)."""
        exprs = d.get("covariates", []) if isinstance(d, dict) else []
        if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
            raise InferenceError("model spec: covariates must be a list of expression "
                                 f"strings, got {exprs!r}")
        return exprs


@dataclass
class FitResult:
    params: dict
    beta: np.ndarray | None
    loglik: float
    converged: bool
    n_evaluations: int
    alpha: float
    model: FieldModel
    gradient_norm: float   # max |d(-loglik)/dx| at the returned parameters


_ALPHA_BOX = (0.55, 2.95)


def _collect_free(spec: ModelSpec):
    names = spec.kappa.free("kappa")
    if spec.variance_stationary:
        names += ["log_sigma0"] if spec.sigma0 is None else []
    else:
        names += spec.tau.free("tau")
    init = [0.0] * len(names)
    if spec.sigma_e == "estimate":
        names.append("log_sigma_e"); init.append(math.log(0.3))
    return names, np.array(init)


def _materialize(spec: ModelSpec, mesh: Mesh, alpha: float, theta: dict) -> FieldModel:
    kappa = spec.kappa.nodes("kappa", theta, spec.covariates, mesh.N)
    if spec.variance_stationary:
        sigma0 = math.exp(theta["log_sigma0"]) if spec.sigma0 is None else spec.sigma0
        return variance_stationary_model(mesh, kappa, alpha, sigma0)
    tau = spec.tau.nodes("tau", theta, spec.covariates, mesh.N)
    return FieldModel.build(mesh, alpha, kappa, tau)


def _sigma_e(spec: ModelSpec, theta: dict) -> float:
    return math.exp(theta["log_sigma_e"]) if spec.sigma_e == "estimate" \
        else float(spec.sigma_e)


def _negative_log_likelihood(spec: ModelSpec, names, mesh: Mesh, obs: ObservationSet,
                             design, alpha: float, x, gradient: bool = False):
    """-loglik at the free parameters x (in the order of names), and with
    gradient=True also its gradient in x, by the chain rule through
    log kappa = intercept + sum_j slope_j g_j (likewise log tau)."""
    if gradient and spec.variance_stationary:  # tau depends on kappa: g misses that chain
        raise InferenceError("a variance-stationary spec has no analytic gradient")
    theta = dict(zip(names, x))
    model = _materialize(spec, mesh, alpha, theta)
    out = log_likelihood(model, obs.with_sigma_e(_sigma_e(spec, theta)), design=design,
                         gradient=gradient)
    if not gradient:
        return -out[0]
    ll, _, g = out
    grad = spec.kappa.gradient(g.log_kappa, spec.covariates) + \
        spec.tau.gradient(g.log_tau, spec.covariates)
    if spec.sigma_e == "estimate":
        grad.append(g.log_sigma_e)
    return -ll, -np.array(grad)


def fit(spec: ModelSpec, mesh: Mesh, obs: ObservationSet, design=None,
        max_evaluations: int = 400, alpha_grid=None, x0=None,
        restarts: int = 1) -> FitResult:
    """Maximize the marginal likelihood by L-BFGS-B (restarted from its own
    optimum until it stops moving), with a coarse-then-fine grid for alpha
    when it is estimated.  x0 warm-starts the free parameters (in the order
    reported by the result's params).

    The gradient is analytic (see log_likelihood) and comes with each
    likelihood evaluation.  A variance-stationary spec has a tau that depends
    on kappa through the marginal variance, whose derivative no selected
    inverse gives in O(N); it runs the same L-BFGS-B on finite differences.
    A parameter point where the model cannot be built or factorized (also an
    alpha whose rational approximation fails) scores as infeasible.
    """
    names, x0_default = _collect_free(spec)
    x0 = x0_default if x0 is None else np.asarray(x0, float)
    evaluations = [0]
    obs.basis_matrix(mesh)  # every evaluation's copy of obs shares it

    def objective(x, alpha, gradient=False):
        evaluations[0] += 1
        try:
            return _negative_log_likelihood(spec, names, mesh, obs, design, alpha, x,
                                            gradient)
        except (np.linalg.LinAlgError, ValueError, OverflowError, RationalError):
            return (1e12, np.zeros(len(x))) if gradient else 1e12

    if spec.alpha == "estimate":
        grid = list(alpha_grid) if alpha_grid is not None else \
            list(np.arange(0.6, 2.45, 0.2))
        best = min(grid, key=lambda a: objective(x0, a))
        fine = [a for a in np.arange(best - 0.15, best + 0.16, 0.05)
                if _ALPHA_BOX[0] < a < _ALPHA_BOX[1]]
        alpha = min(fine, key=lambda a: objective(x0, a))
    else:
        alpha = float(spec.alpha)

    gradient_norm = 0.0
    if len(x0):
        from scipy.optimize import minimize  # imported here: scipy.optimize is slow to import

        analytic = not spec.variance_stationary
        xbest, success = x0, False
        for _ in range(max(1, restarts + 1)):
            res = minimize(objective, xbest, args=(alpha, analytic), method="L-BFGS-B",
                           jac=True if analytic else None,
                           options={"maxfun": max_evaluations, "ftol": 1e-10})
            # a restart that stays put confirms the optimum it started from; its
            # own line search may stop on rounding noise there, so keep the first
            if success and np.abs(res.x - xbest).max() < 1e-5:
                break
            xbest, success = res.x, bool(res.success)
            gradient_norm = float(np.abs(res.jac).max())
    else:
        objective(x0, alpha)
        xbest, success = x0, True
    theta = dict(zip(names, xbest))
    sigma_e = _sigma_e(spec, theta)
    model = _materialize(spec, mesh, alpha, theta)
    ll, beta = log_likelihood(model, obs.with_sigma_e(sigma_e), design=design)
    params = dict(theta)
    params["alpha"] = alpha
    params["sigma_e"] = sigma_e
    return FitResult(params=params, beta=beta, loglik=ll, converged=success,
                     n_evaluations=evaluations[0], alpha=alpha, model=model,
                     gradient_norm=gradient_norm)


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
    GMRF form) with S_y = S + sigma^2 I, and conditions through whichever
    exact set is smaller: the kept observations J (a solve with S_y,JJ), or
    the removed ball B, whose values given the rest have covariance P_BB^{-1}
    and mean e_B - P_BB^{-1} (P e)_B with P = S_y^{-1}, from S_y's one
    Cholesky factor.  For R = 0 that is the closed-form leave-one-out of
    Rasmussen & Williams (2006, sec. 5.4.2).  Per radius, the locations of
    one ball size form a group whose gathered (g, b, b) systems, b the size
    of the set conditioned on, take one np.linalg.solve, split so that no
    batch holds more than n^2 entries, the size of P.  A location whose ball
    holds every observation is skipped.  The trend design @ beta is
    subtracted first; give both or neither.  A radius must be a number >= 0.
    """
    if (design is None) != (beta is None):
        raise InferenceError("leave_radius_out_cv takes design and beta together")
    for R in radii:
        if not R >= 0:
            raise InferenceError(f"cv radius must be a number >= 0, got {R}")
    _, Sy, factor = _observation_covariance(model, obs)
    n = obs.n
    P = cho_solve(factor, np.eye(n))
    P = 0.5 * (P + P.T)
    D = model.mesh.graph.geodesic_matrix(obs.points)
    E = obs.matrix
    if design is not None:
        E = E - (np.asarray(design, float) @ np.atleast_1d(beta))[:, None]
    PE = P @ E
    out = []
    for R in radii:
        inside = D <= R
        size = np.count_nonzero(inside, axis=1)
        used = size < n
        err, var = np.empty_like(E), np.empty(n)
        for k in np.unique(size[used]):
            ball = k <= n - k
            b = k if ball else n - k
            group = np.flatnonzero(size == k)
            step = max(1, n * n // (b * b))
            for loc in (group[s:s + step] for s in range(0, group.size, step)):
                sets = np.nonzero(inside[loc] if ball else ~inside[loc])[1].reshape(loc.size, b)
                block = (P if ball else Sy)[sets[:, :, None], sets[:, None, :]]
                if ball:
                    # the prediction error e_i - mean is (P_BB^{-1} (P e)_B)_i
                    unit = sets == loc[:, None]
                    sol = np.linalg.solve(block, np.concatenate(
                        [PE[sets], unit[:, :, None]], axis=2))[unit]
                    err[loc], var[loc] = sol[:, :-1], sol[:, -1]
                else:
                    c = Sy[loc[:, None], sets]
                    sol = np.linalg.solve(block, np.concatenate([E[sets], c[:, :, None]], axis=2))
                    err[loc] = E[loc] - np.einsum("gj,gjp->gp", c, sol[:, :, :-1])
                    var[loc] = Sy[loc, loc] - np.einsum("gj,gj->g", c, sol[:, :, -1])
        n_used = int(np.count_nonzero(used))
        e2, v = err[used] ** 2, var[used, None]
        nls = 0.5 * (np.log(2 * np.pi * v) + e2 / v)
        out.append(CVRecord(radius=float(R),
                            mse=float(np.mean(e2)) if n_used else float("nan"),
                            nls=float(np.mean(nls)) if n_used else float("nan"),
                            n_used=n_used, n_skipped=n - n_used))
    return out


def write_cv_csv(records, path):
    import csv as _csv
    with open(path, "w", newline="") as f:
        w = _csv.writer(f)
        w.writerow(["radius", "mse", "nls", "n_used", "n_skipped"])
        for r in records:
            w.writerow([f"{r.radius:.17g}", f"{r.mse:.17g}", f"{r.nls:.17g}",
                        r.n_used, r.n_skipped])
