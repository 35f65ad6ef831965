import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from graphfield.cholesky import Analysis
from graphfield.field import FieldModel, variance_stationary_model
from graphfield.graph import GraphPoint, interval_graph, star_graph, tadpole_graph
from graphfield.inference import (InferenceError, LogRegression, ModelSpec,
                                  ObservationSet, _collect_free,
                                  _negative_log_likelihood, covariate_from_observations,
                                  fit, kriging, kriging_covariance_form,
                                  leave_radius_out_cv, log_likelihood)
from graphfield.mesh import build_mesh

from strategies import random_meshes


@pytest.fixture(scope="module")
def tadpole_model():
    mesh = build_mesh(tadpole_graph(), 0.08)
    return FieldModel.build(mesh, 0.75, 2.0, 1.0, m=2)


def random_obs(model, n, seed, sigma=0.3, replicates=None):
    rng = np.random.default_rng(seed)
    g = model.mesh.graph
    pts = []
    for _ in range(n):
        eid = int(rng.integers(0, g.n_edges))
        pts.append(GraphPoint(eid, rng.uniform(0, g.edges[eid].length)))
    shape = (n,) if replicates is None else (n, replicates)
    return ObservationSet(pts, rng.standard_normal(shape), sigma)


def test_gmrf_equals_covariance_form(tadpole_model):
    # n = N makes the covariance columns Sigma A' square
    for n, seed in [(10, 0), (10, 1), (10, 2), (10, 3), (10, 4), (tadpole_model.N, 5)]:
        obs = random_obs(tadpole_model, n, seed)
        a = kriging(tadpole_model, obs).mean
        b = kriging_covariance_form(tadpole_model, obs).mean
        assert np.abs(a - b).max() < 1e-8


def test_noiseless_interpolation(tadpole_model):
    mesh = tadpole_model.mesh
    node = 5
    obs = ObservationSet([mesh.node_points()[node]], np.array([2.5]), 1e-8)
    post = kriging(tadpole_model, obs)
    assert abs(post.mean[node] - 2.5) < 1e-6


def test_zero_observations_zero_posterior(tadpole_model):
    obs = random_obs(tadpole_model, 8, 3)
    obs = ObservationSet(obs.points, np.zeros(8), 0.5)
    assert np.abs(kriging(tadpole_model, obs).mean).max() == 0.0


def test_kriging_permutation_invariant(tadpole_model):
    obs = random_obs(tadpole_model, 12, 4)
    perm = np.random.default_rng(0).permutation(12)
    shuffled = ObservationSet([obs.points[i] for i in perm], obs.values[perm],
                              obs.sigma_e)
    a = kriging(tadpole_model, obs).mean
    b = kriging(tadpole_model, shuffled).mean
    assert np.abs(a - b).max() < 1e-10


def test_kriging_posterior_variance_vs_dense(tadpole_model):
    obs = random_obs(tadpole_model, 9, 5)
    post = kriging(tadpole_model, obs, compute_variance=True)
    A = tadpole_model.mesh.basis_matrix(obs.points).toarray()
    S = tadpole_model.covariance()
    Sobs = A @ S @ A.T + obs.sigma_e**2 * np.eye(obs.n)
    dense = S - S @ A.T @ np.linalg.solve(Sobs, A @ S)
    assert np.abs(post.variance - np.diag(dense)).max() < 1e-9


def test_replicates_kriged_independently(tadpole_model):
    obs = random_obs(tadpole_model, 7, 6, replicates=3)
    post = kriging(tadpole_model, obs)
    for r in range(3):
        single = ObservationSet(obs.points, obs.values[:, r], obs.sigma_e)
        assert np.abs(post.mean[:, r] - kriging(tadpole_model, single).mean).max() < 1e-12


def test_loglik_matches_dense(tadpole_model):
    S = tadpole_model.covariance()
    for n in range(1, 11):
        obs = random_obs(tadpole_model, n, 10 + n, sigma=0.4)
        ll, _ = log_likelihood(tadpole_model, obs)
        A = tadpole_model.mesh.basis_matrix(obs.points).toarray()
        Sy = A @ S @ A.T + 0.16 * np.eye(n)
        _, ld = np.linalg.slogdet(Sy)
        y = obs.values
        want = -0.5 * (n * math.log(2 * math.pi) + ld + y @ np.linalg.solve(Sy, y))
        assert ll == pytest.approx(want, abs=1e-8)


def test_loglik_large_noise_limit(tadpole_model):
    # sigma_e -> large: the prior washes out, observations become iid
    obs = random_obs(tadpole_model, 6, 21, sigma=3e3)
    ll, _ = log_likelihood(tadpole_model, obs)
    want = sum(-0.5 * (math.log(2 * math.pi * 9e6) + y**2 / 9e6) for y in obs.values)
    assert ll == pytest.approx(want, rel=1e-6)


def test_loglik_quadratic_in_y(tadpole_model):
    # three-point parabola test along random y-directions
    rng = np.random.default_rng(12)
    obs = random_obs(tadpole_model, 8, 13)
    y0 = obs.values
    for _ in range(3):
        d = rng.standard_normal(8)

        def ll_at(t):
            o = ObservationSet(obs.points, y0 + t * d, obs.sigma_e)
            return log_likelihood(tadpole_model, o)[0]

        lm, l0, lp = ll_at(-1.0), ll_at(0.0), ll_at(1.0)
        l2 = ll_at(2.0)
        # quadratic: third finite difference vanishes
        third = (l2 - 3 * lp + 3 * l0 - lm)
        assert abs(third) < 1e-7 * max(1.0, abs(l0))


def test_covariate_from_observations(tadpole_model):
    mesh = tadpole_model.mesh
    rng = np.random.default_rng(14)
    pts = [GraphPoint(1, t) for t in rng.uniform(0, 2, 15)]
    z = 2.0 + 0.3 * rng.standard_normal(15)
    obs = ObservationSet(pts, z, 0.2)
    cov, beta0 = covariate_from_observations(mesh, obs, alpha=1.0, kappa=2.0)
    assert np.isfinite(cov).all()
    assert abs(beta0 - 2.0) < 0.5
    std, _ = covariate_from_observations(mesh, obs, alpha=1.0, kappa=2.0,
                                         standardize=True)
    assert abs(std.mean()) < 1e-12
    assert std.std() == pytest.approx(1.0, abs=1e-12)


def test_covariate_beta0_zero_reproduces_kriging(tadpole_model):
    mesh = tadpole_model.mesh
    rng = np.random.default_rng(15)
    pts = [GraphPoint(1, t) for t in rng.uniform(0, 2, 10)]
    z = rng.standard_normal(10)
    obs = ObservationSet(pts, z, 0.3)
    cov, _ = covariate_from_observations(mesh, obs, alpha=1.0, kappa=2.0, beta0=0.0)
    aux = FieldModel.build(mesh, 1.0, 2.0, 1.0)
    want = kriging(aux, obs).mean
    assert np.abs(cov - want).max() < 1e-10


def test_covariate_shrinks_to_beta0_far_away():
    # constant observations on the tail tip with tiny noise: covariate near
    # the data approaches the value, far away it approaches beta0
    mesh = build_mesh(tadpole_graph(), 0.05)
    pts = [GraphPoint(0, t) for t in (0.0, 0.05, 0.1)]
    obs = ObservationSet(pts, np.array([3.0, 3.0, 3.0]), 1e-4)
    cov, _ = covariate_from_observations(mesh, obs, alpha=1.0, kappa=6.0, beta0=1.0)
    near, far = mesh.basis_matrix([GraphPoint(0, 0.05), GraphPoint(1, 1.0)]) @ cov
    assert abs(near - 3.0) < 1e-2
    assert abs(far - 1.0) < 1e-2


@pytest.fixture(scope="module")
def recovery_setup():
    rng = np.random.default_rng(42)
    g = interval_graph(3.0)
    mesh = build_mesh(g, 0.05)
    model = FieldModel.build(mesh, 1.0, 3.0, 0.8)
    u = model.sample(10, seed=99)
    pts = [GraphPoint(0, t) for t in rng.uniform(0, 3, 200)]
    A = mesh.basis_matrix(pts).toarray()
    Y = A @ u.T + 0.1 * rng.standard_normal((200, 10))
    return mesh, ObservationSet(pts, Y, 0.1)


def test_fit_recovers_parameters(recovery_setup):
    mesh, obs = recovery_setup
    spec = ModelSpec(alpha=1.0, kappa=LogRegression(None, []),
                     tau=LogRegression(None, []), sigma_e=0.1)
    res = fit(spec, mesh, obs)
    xstar = np.array([res.params["kappa_intercept"], res.params["tau_intercept"]])

    def nll(x):
        m = FieldModel.build(mesh, 1.0, math.exp(x[0]), math.exp(x[1]))
        return -log_likelihood(m, obs)[0]

    # standard errors from the numerical Hessian at the optimum
    eps = 1e-3
    H = np.zeros((2, 2))
    for i in range(2):
        for j in range(i, 2):
            ei, ej = np.eye(2)[i] * eps, np.eye(2)[j] * eps
            H[i, j] = H[j, i] = (nll(xstar + ei + ej) - nll(xstar + ei - ej)
                                 - nll(xstar - ei + ej) + nll(xstar - ei - ej)) / (4 * eps**2)
    se = np.sqrt(np.diag(np.linalg.inv(H)))
    z = (xstar - [math.log(3.0), math.log(0.8)]) / se
    assert np.abs(z).max() < 3.0

    # local-max sanity: likelihood at the fit beats random perturbations
    rng = np.random.default_rng(5)
    best = -nll(xstar)
    for _ in range(20):
        assert -nll(xstar + rng.uniform(-0.5, 0.5, 2)) <= best + 1e-9


def test_fit_slopes_near_zero_on_stationary_data(recovery_setup):
    mesh, obs = recovery_setup
    xs = np.array([p.t for p in mesh.node_points()]) / 3.0
    spec = ModelSpec(alpha=1.0, kappa=LogRegression(None, [None]),
                     tau=LogRegression(None, [None]), sigma_e=0.1,
                     covariates=[xs])
    res = fit(spec, mesh, obs, max_evaluations=800, restarts=2)
    names = ["kappa_slope0", "tau_slope0"]
    xstar = np.array([res.params[n] for n in
                      ["kappa_intercept", "kappa_slope0", "tau_intercept", "tau_slope0"]])

    def nll(x):
        m = FieldModel.build(mesh, 1.0, np.exp(x[0] + x[1] * xs), np.exp(x[2] + x[3] * xs))
        return -log_likelihood(m, obs)[0]

    eps = 1e-3
    for pos, name in ((1, names[0]), (3, names[1])):
        e = np.zeros(4)
        e[pos] = eps
        h = (nll(xstar + e) - 2 * nll(xstar) + nll(xstar - e)) / eps**2
        se = 1.0 / math.sqrt(max(h, 1e-12))
        assert abs(res.params[name]) < 3 * se + 0.05


def test_cv_r0_minimal_and_monotone(tadpole_model):
    rng = np.random.default_rng(33)
    model = tadpole_model
    u = model.sample(4, seed=17)
    pts = []
    g = model.mesh.graph
    for _ in range(60):
        eid = int(rng.integers(0, 2))
        pts.append(GraphPoint(eid, rng.uniform(0, g.edges[eid].length)))
    A = model.mesh.basis_matrix(pts).toarray()
    Y = A @ u.T + 0.05 * rng.standard_normal((60, 4))
    obs = ObservationSet(pts, Y, 0.05)
    radii = (0.0, 0.3, 0.6, 1.0)
    recs = leave_radius_out_cv(model, obs, radii)
    mses = np.array([r.mse for r in recs])
    assert mses.argmin() == 0
    # nondecreasing after isotonic smoothing
    iso = np.maximum.accumulate(mses)
    assert np.abs(iso - mses).max() < 0.25 * mses.max()


def test_cv_skips_when_everything_excluded(tadpole_model):
    obs = random_obs(tadpole_model, 5, 50)
    recs = leave_radius_out_cv(tadpole_model, obs, [100.0])
    assert recs[0].n_skipped == 5
    assert math.isnan(recs[0].mse)


def test_nls_proper_scoring(tadpole_model):
    # inflating the predictive variance (via an inflated-noise model) must not
    # beat the true model's NLS on data it generated
    model = tadpole_model
    rng = np.random.default_rng(60)
    u = model.sample(6, seed=44)
    g = model.mesh.graph
    pts = []
    for _ in range(50):
        eid = int(rng.integers(0, 2))
        pts.append(GraphPoint(eid, rng.uniform(0, g.edges[eid].length)))
    A = model.mesh.basis_matrix(pts).toarray()
    Y = A @ u.T + 0.1 * rng.standard_normal((50, 6))
    true_obs = ObservationSet(pts, Y, 0.1)
    fat_obs = ObservationSet(pts, Y, 1.5)
    nls_true = leave_radius_out_cv(model, true_obs, [0.0])[0].nls
    nls_fat = leave_radius_out_cv(model, fat_obs, [0.0])[0].nls
    assert nls_true <= nls_fat


def test_observation_validation():
    for sigma_e in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InferenceError, match=f"positive and finite, got {sigma_e}"):
            ObservationSet([GraphPoint(0, 0.1)], np.array([1.0]), sigma_e)
    with pytest.raises(InferenceError):
        ObservationSet([GraphPoint(0, 0.1)], np.array([1.0, 2.0]), 0.1)


def test_fit_variance_stationary_model():
    mesh = build_mesh(star_graph(4), 0.05)
    truth = variance_stationary_model(mesh, 2.5, alpha=1.0, sigma0=1.5)
    u = truth.sample(8, seed=3)
    rng = np.random.default_rng(9)
    g = mesh.graph
    pts = []
    for _ in range(150):
        eid = int(rng.integers(0, g.n_edges))
        pts.append(GraphPoint(eid, rng.uniform(0, g.edges[eid].length)))
    A = mesh.basis_matrix(pts).toarray()
    Y = A @ u.T + 0.05 * rng.standard_normal((150, 8))
    obs = ObservationSet(pts, Y, 0.05)
    spec = ModelSpec(alpha=1.0, kappa=LogRegression(None, []), tau=None,
                     sigma_e=0.05, variance_stationary=True, sigma0=None)
    res = fit(spec, mesh, obs, max_evaluations=300)
    assert abs(res.params["kappa_intercept"] - math.log(2.5)) < 0.3
    assert abs(res.params["log_sigma0"] - math.log(1.5)) < 0.15
    # the fitted model is itself variance stationary
    assert np.ptp(res.model.marginal_variance()) < 1e-10


def test_shared_observation_structure_changes_no_bit():
    """Models of several patterns and noise levels through one observation
    set (and its with_sigma_e copies) give exactly what a fresh set gives."""
    mesh = build_mesh(tadpole_graph(), 0.08)
    rng = np.random.default_rng(8)
    tau = np.exp(0.2 * rng.standard_normal(mesh.N))
    shared = random_obs(FieldModel.build(mesh, 1.0, 2.0, 1.0), 25, 4, replicates=2)
    design = np.column_stack([np.ones(shared.n), np.linspace(-1, 1, shared.n)])
    runs = [(alpha, kappa, sigma) for _ in range(2)
            for alpha in (1.0, 0.9, 1.4) for kappa in (2.0, 3.5) for sigma in (0.3, 0.7)]
    for alpha, kappa, sigma in runs:
        model = FieldModel.build(mesh, alpha, kappa, tau, m=2 if alpha % 1 else None)
        obs = shared.with_sigma_e(sigma)
        fresh = ObservationSet(shared.points, shared.values, sigma)
        ll, beta = log_likelihood(model, obs, design=design)
        ll_ref, beta_ref = log_likelihood(model, fresh, design=design)
        assert ll == ll_ref and np.array_equal(beta, beta_ref)
        fresh = ObservationSet(shared.points, shared.values, sigma)
        got, want = kriging(model, obs, True), kriging(model, fresh, True)
        assert np.array_equal(got.mean, want.mean)
        assert np.array_equal(got.variance, want.variance)
        assert obs.basis_matrix(mesh) is shared.basis_matrix(mesh)


def test_fit_orders_each_pattern_once(monkeypatch):
    import graphfield.cholesky as cholesky

    calls = []
    rcm = cholesky.reverse_cuthill_mckee

    def counting(*args, **kwargs):
        calls.append(1)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(cholesky, "reverse_cuthill_mckee", counting)
    mesh = build_mesh(star_graph(4), 0.1)
    obs = random_obs(FieldModel.build(mesh, 1.0, 2.0, 1.0), 40, 6, replicates=2)
    spec = ModelSpec(alpha=1.0, kappa=LogRegression(None, []),
                     tau=LogRegression(None, []), sigma_e="estimate")
    design = np.ones(obs.n)
    res = fit(spec, mesh, obs, design=design, max_evaluations=100, restarts=0)
    assert res.converged
    # 100 more likelihood-plus-gradient evaluations over varied parameters
    rng = np.random.default_rng(1)
    for kappa, tau, sigma in np.exp(rng.uniform(-0.5, 0.5, (100, 3))):
        model = FieldModel.build(mesh, 1.0, 2.0 * kappa, tau)
        log_likelihood(model, obs.with_sigma_e(0.3 * sigma), design=design, gradient=True)
    assert len(calls) <= 4


@pytest.mark.parametrize("alpha, h, m", [(0.75, 0.02, 2), (1.0, 0.08, 0), (1.4, 0.08, 3),
                                         (2.0, 0.08, 0), (2.5, 0.08, 3), (3.0, 0.08, 0)])
def test_likelihood_gradient_matches_central_differences(alpha, h, m):
    """Analytic gradient of -loglik in the fit's parameters (a covariate on
    kappa and on tau, sigma_e, beta profiled, 2 replicates) against a
    five-point central difference; h sets the calibrated rational order m."""
    mesh = build_mesh(tadpole_graph(), h)
    rng = np.random.default_rng(3)
    covariate = rng.standard_normal(mesh.N)  # kappa's smallest node is unique
    obs = random_obs(FieldModel.build(mesh, 1.0, 2.0, 1.0), 30, 7, replicates=2)
    obs = ObservationSet(obs.points, 1.0 + obs.values, 1.0)
    design = np.ones(obs.n)
    spec = ModelSpec(alpha=alpha, kappa=LogRegression(None, [None]),
                     tau=LogRegression(None, [None]), sigma_e="estimate",
                     covariates=[covariate])
    names, _ = _collect_free(spec)
    x = np.array([0.7, 0.15, -0.2, 0.1, math.log(0.4)])

    def f(x):
        return _negative_log_likelihood(spec, names, mesh, obs, design, alpha, x)

    value, grad = _negative_log_likelihood(spec, names, mesh, obs, design, alpha, x, True)
    assert value == f(x)
    step = 1e-3
    for k, e in enumerate(np.eye(len(x)) * step):
        fd = (f(x - 2 * e) - 8 * f(x - e) + 8 * f(x + e) - f(x + 2 * e)) / (12 * step)
        assert abs(grad[k] - fd) <= 1e-6 * abs(fd), (names[k], grad[k], fd)
    model = FieldModel.build(mesh, alpha, 2.0, 1.0)
    assert model.m == m


def test_fit_variance_stationary_runs_on_finite_differences(monkeypatch):
    import graphfield.inference as inference

    asked = []
    ll = inference.log_likelihood

    def recording(*args, gradient=False, **kwargs):
        asked.append(gradient)
        return ll(*args, gradient=gradient, **kwargs)

    monkeypatch.setattr(inference, "log_likelihood", recording)
    mesh = build_mesh(star_graph(4), 0.1)
    truth = variance_stationary_model(mesh, 2.5, alpha=1.0, sigma0=1.5)
    obs = random_obs(truth, 80, 12)
    A = mesh.basis_matrix(obs.points)
    Y = A @ truth.sample(4, seed=5).T + 0.1 * np.random.default_rng(2).standard_normal((80, 4))
    obs = ObservationSet(obs.points, Y, 0.1)
    spec = ModelSpec(alpha=1.0, kappa=LogRegression(None, []), tau=None,
                     sigma_e="estimate", variance_stationary=True, sigma0=None)
    res = fit(spec, mesh, obs, max_evaluations=300)
    assert asked and not any(asked)
    assert res.converged
    names, _ = _collect_free(spec)
    x = np.array([res.params[n] for n in names])
    h = 1e-4
    for e in np.eye(len(x)) * h:
        central = (_negative_log_likelihood(spec, names, mesh, obs, None, 1.0, x + e)
                   - _negative_log_likelihood(spec, names, mesh, obs, None, 1.0, x - e)) / (2 * h)
        assert abs(central) < 1e-2
    assert res.gradient_norm < 1e-1


def test_fit_scores_unbuildable_alpha_as_infeasible(monkeypatch):
    """A grid alpha whose rational approximation raises RationalError is
    skipped like any other infeasible point; the fit still completes."""
    import graphfield.field as field
    from graphfield.fractional import RationalError

    tried = []
    brasil = field.brasil

    def failing(alpha_frac, m, *args, **kwargs):
        tried.append(alpha_frac)
        if abs(alpha_frac - 0.5) < 1e-9:
            raise RationalError("complex poles")
        return brasil(alpha_frac, m, *args, **kwargs)

    monkeypatch.setattr(field, "brasil", failing)
    mesh = build_mesh(tadpole_graph(), 0.5)
    obs = random_obs(FieldModel.build(mesh, 1.0, 2.0, 1.0), 20, 31)
    spec = ModelSpec(alpha="estimate", kappa=LogRegression(None, []),
                     tau=LogRegression(None, []), sigma_e=0.3)
    res = fit(spec, mesh, obs, alpha_grid=[1.0, 1.5, 2.0], max_evaluations=50)
    assert any(abs(a - 0.5) < 1e-9 for a in tried)
    assert res.alpha != 1.5 and math.isfinite(res.loglik)


def _cv_by_kept_set(model, obs, radii):
    """Reference leave-radius-out CV: condition every location on the kept
    observations by a dense solve, (MSE, NLS, used) per radius."""
    A = model.mesh.basis_matrix(obs.points).toarray()
    S = A @ model.covariance() @ A.T
    D = model.mesh.graph.geodesic_matrix(obs.points)
    Y = obs.matrix
    out = []
    for R in radii:
        err2, nls = [], []
        for i in range(obs.n):
            keep = np.flatnonzero(D[i] > R)
            if keep.size == 0:
                continue
            K = S[np.ix_(keep, keep)] + obs.sigma_e**2 * np.eye(keep.size)
            w = np.linalg.solve(K, S[keep, i])
            var = S[i, i] - S[i, keep] @ w + obs.sigma_e**2
            e2 = (Y[i] - w @ Y[keep]) ** 2
            err2.extend(e2)
            nls.extend(0.5 * (np.log(2 * np.pi * var) + e2 / var))
        out.append((np.mean(err2), np.mean(nls), len(err2) // Y.shape[1]) if err2 else
                   (None, None, 0))
    return out


def test_cv_conditions_on_the_smaller_set(tadpole_model, monkeypatch):
    """Both conditioning routes (the removed ball for small radii, the kept
    set for large ones) match the direct kept-set solve, duplicated
    locations included; R = 0 factorizes only the one n x n matrix."""
    import graphfield.inference as inference

    obs = random_obs(tadpole_model, 40, 41, replicates=3)
    points = obs.points + obs.points[:3]
    values = np.vstack([obs.values, obs.values[:3] + 0.1])
    dup = ObservationSet(points, values, 0.2)
    radii = (0.0, 0.2, 0.8, 1.5, 100.0)
    for got, want in zip(leave_radius_out_cv(tadpole_model, dup, radii),
                         _cv_by_kept_set(tadpole_model, dup, radii)):
        if want[2] == 0:
            assert got.n_used == 0 and math.isnan(got.mse)
            continue
        assert got.n_used == want[2]
        assert got.mse == pytest.approx(want[0], rel=1e-10)
        assert got.nls == pytest.approx(want[1], rel=1e-10)

    calls = []
    cho = inference.cho_factor
    monkeypatch.setattr(inference, "cho_factor", lambda *a, **k: calls.append(1) or cho(*a, **k))
    leave_radius_out_cv(tadpole_model, ObservationSet(obs.points, obs.values, 0.2), [0.0])
    assert len(calls) == 1


@pytest.mark.parametrize("radius", [-1.0, float("nan")])
def test_cv_rejects_a_negative_or_nan_radius(tadpole_model, radius):
    obs = random_obs(tadpole_model, 5, 50)
    with pytest.raises(InferenceError, match=f"cv radius must be a number >= 0, got {radius}"):
        leave_radius_out_cv(tadpole_model, obs, [0.0, radius])


def test_cv_takes_design_and_beta_together(tadpole_model):
    """A design without beta (or beta without a design) is refused rather
    than read as a zero trend; both together subtract design @ beta."""
    obs = random_obs(tadpole_model, 12, 42)
    design = np.column_stack([np.ones(obs.n), np.linspace(-1.0, 1.0, obs.n)])
    beta = np.array([0.5, -2.0])
    for kwargs in ({"design": design}, {"beta": beta}):
        with pytest.raises(InferenceError, match="design and beta together"):
            leave_radius_out_cv(tadpole_model, obs, [0.0], **kwargs)
    detrended = ObservationSet(obs.points, obs.values - design @ beta, obs.sigma_e)
    for got, want in zip(leave_radius_out_cv(tadpole_model, obs, [0.0, 0.5], design, beta),
                         leave_radius_out_cv(tadpole_model, detrended, [0.0, 0.5])):
        assert got.mse == pytest.approx(want.mse, rel=1e-12)
        assert got.nls == pytest.approx(want.nls, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(mesh=random_meshes(), case=st.sampled_from([(0.75, 1), (0.75, 3), (1.0, None),
                                                   (1.4, 2), (2.0, None)]),
       seed=st.integers(0, 2**32 - 1), replicates=st.integers(1, 2))
def test_stacked_posterior_matches_dense_on_random_graphs(mesh, case, seed, replicates):
    """On random graphs, kriging's mean and variance and the log-likelihood
    of the stacked K N system match the dense covariance-form posterior and
    Gaussian density, with non-constant kappa and tau and observations at
    vertices, inside edges and at one point twice; the node-major band is at
    most K (b + 1) - 1 wide, b the node pattern's RCM bandwidth."""
    alpha, m = case
    rng = np.random.default_rng(seed)
    N, graph = mesh.N, mesh.graph
    wave = np.sin(np.arange(N) * rng.uniform(0.1, 1.0))
    model = FieldModel.build(mesh, alpha, 2.0 * np.exp(0.3 * wave), np.exp(0.2 * wave), m=m)
    edges = rng.integers(graph.n_edges, size=12)
    points = [GraphPoint(int(e), graph.edges[e].length * t)
              for e, t in zip(edges, np.r_[0.0, 1.0, 0.0, rng.uniform(0.05, 0.95, 9)])]
    points.append(points[-1])
    n = len(points)
    values = rng.standard_normal((n, replicates) if replicates > 1 else n)
    obs = ObservationSet(points, values, float(rng.uniform(0.1, 1.0)))

    post = kriging(model, obs, compute_variance=True)
    ll, _ = log_likelihood(model, obs)
    S = model.covariance()
    A = obs.basis_matrix(mesh).toarray()
    Sy = A @ S @ A.T + obs.sigma_e**2 * np.eye(n)
    W = np.linalg.solve(Sy, A @ S)
    mean, var = W.T @ values, np.diag(S) - np.einsum("ij,ij->j", A @ S, W)
    assert np.abs(post.mean - mean).max() <= 1e-9 * np.abs(mean).max()
    assert np.abs(post.variance - var).max() <= 1e-9 * var.max()
    Y = obs.matrix
    want = -0.5 * (replicates * (n * math.log(2 * math.pi) + np.linalg.slogdet(Sy)[1])
                   + np.sum(Y * np.linalg.solve(Sy, Y)))
    assert ll == pytest.approx(want, rel=1e-10)

    blocks = model.precision_blocks() + [obs._memo.AtA]
    rows = np.concatenate([np.repeat(np.arange(N), np.diff(M.indptr)) for M in blocks])
    nodes = sparse.csr_matrix((np.ones(rows.size), (rows, np.concatenate(
        [M.indices for M in blocks]))), shape=(N, N))
    K, stacked = model.n_blocks, obs._memo.stacked.analysis
    node_order = Analysis(nodes)
    assert np.array_equal(stacked.perm[::K], node_order.perm)
    assert stacked.bw <= K * (node_order.bw + 1) - 1


@settings(max_examples=10, deadline=None)
@given(mesh=random_meshes(), alpha=st.sampled_from([0.75, 1.0, 1.4, 2.0]),
       seed=st.integers(0, 2**32 - 1), every_node=st.booleans())
def test_covariance_route_matches_dense_on_random_graphs(mesh, alpha, seed, every_node):
    """On random graphs with non-constant kappa and tau, the covariance
    applies match the dense covariance(): columns for a square non-identity
    right-hand side, the row at a node, and leave-radius-out CV against the
    dense kept-set solve, also with exactly N observations (so that the
    columns Sigma A' are square)."""
    rng = np.random.default_rng(seed)
    N, graph = mesh.N, mesh.graph
    wave = np.sin(np.arange(N) * rng.uniform(0.1, 1.0))
    model = FieldModel.build(mesh, alpha, 2.0 * np.exp(0.3 * wave), np.exp(0.2 * wave))
    S = model.covariance()
    R = rng.standard_normal((N, N))
    want = S @ R
    assert np.abs(model.covariance_columns(R) - want).max() <= 1e-12 * np.abs(want).max()
    node = int(rng.integers(N))
    row = model.covariance_row(mesh.node_points()[node])
    assert np.abs(row - S[:, node]).max() <= 1e-12 * np.abs(S[:, node]).max()

    n = N if every_node else 15
    edges = rng.integers(graph.n_edges, size=n)
    points = [GraphPoint(int(e), graph.edges[e].length * t)
              for e, t in zip(edges, rng.uniform(0.0, 1.0, n))]
    obs = ObservationSet(points, rng.standard_normal(n), float(rng.uniform(0.1, 1.0)))
    radii = (0.0,) if every_node else (0.0, 0.5)
    for got, want in zip(leave_radius_out_cv(model, obs, radii),
                         _cv_by_kept_set(model, obs, radii)):
        assert got.n_used == want[2]
        if want[2]:
            assert got.mse == pytest.approx(want[0], rel=1e-10)
            assert got.nls == pytest.approx(want[1], rel=1e-10)


@settings(max_examples=12, deadline=None)
@given(mesh=random_meshes(), case=st.sampled_from([(0.75, 2), (1.0, None), (1.4, 2),
                                                   (2.0, None)]),
       seed=st.integers(0, 2**32 - 1), replicates=st.integers(1, 2), profiled=st.booleans())
def test_likelihood_gradient_matches_central_differences_on_random_graphs(
        mesh, case, seed, replicates, profiled):
    """The full log_likelihood gradient (log kappa and log tau at the nodes,
    log sigma_e) against central differences on random graphs, with
    non-constant kappa and tau, a random sigma_e, observations at vertices,
    inside edges and at one point twice, and beta profiled or absent.  Each
    node group is checked at the node of smallest kappa (where the rational
    coefficients move with min kappa), at random nodes and along a random
    direction, within 1e-6 of the gradient's scale (for sigma_e, of n R, the
    size of its terms)."""
    alpha, m = case
    rng = np.random.default_rng(seed)
    N, graph = mesh.N, mesh.graph
    wave = np.sin(np.arange(N) * rng.uniform(0.1, 1.0))
    log_kappa = np.log(2.0) + 0.3 * wave
    lowest = int(rng.integers(N))
    log_kappa[lowest] = log_kappa.min() - 0.2  # stays the unique minimum under the steps
    log_tau = 0.2 * np.cos(np.arange(N) * rng.uniform(0.1, 1.0))
    edges = rng.integers(graph.n_edges, size=12)
    points = [GraphPoint(int(e), graph.edges[e].length * t)
              for e, t in zip(edges, np.r_[0.0, 1.0, 0.0, rng.uniform(0.05, 0.95, 9)])]
    points.append(points[-1])
    n = len(points)
    values = 0.5 + rng.standard_normal((n, replicates) if replicates > 1 else n)
    obs = ObservationSet(points, values, float(rng.uniform(0.1, 1.0)))
    design = np.ones(n) if profiled else None

    def loglik(log_kappa, log_tau, log_sigma=math.log(obs.sigma_e), gradient=False):
        model = FieldModel.build(mesh, alpha, np.exp(log_kappa), np.exp(log_tau), m=m)
        return log_likelihood(model, obs.with_sigma_e(math.exp(log_sigma)), design=design,
                              gradient=gradient)

    grad = loglik(log_kappa, log_tau, gradient=True)[2]
    step = 1e-4  # at 1e-5 rounding in the loglik reaches 6e-7 of the scale for alpha = 2

    def check(got, scale, plus, minus):
        fd = (plus[0] - minus[0]) / (2 * step)
        assert abs(got - fd) <= 1e-6 * scale, (got, fd, scale)

    for name, g in (("kappa", grad.log_kappa), ("tau", grad.log_tau)):
        directions = [np.eye(N)[a] for a in {lowest, *rng.choice(N, 2, replace=False)}]
        directions.append(rng.standard_normal(N))
        for d in directions:
            def shifted(sign):
                e = sign * step * d
                return loglik(log_kappa + e, log_tau) if name == "kappa" else \
                    loglik(log_kappa, log_tau + e)
            check(g @ d, np.abs(g).max() * np.abs(d).sum(), shifted(1), shifted(-1))
    log_sigma = math.log(obs.sigma_e)
    check(grad.log_sigma_e, n * replicates, loglik(log_kappa, log_tau, log_sigma + step),
          loglik(log_kappa, log_tau, log_sigma - step))
