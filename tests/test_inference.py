import math

import numpy as np
import pytest

from graphfield.field import FieldModel, variance_stationary_model
from graphfield.graph import GraphPoint, interval_graph, star_graph, tadpole_graph
from graphfield.inference import (InferenceError, LogRegression, ModelSpec,
                                  ObservationSet, covariate_from_observations,
                                  fit, kriging, kriging_covariance_form,
                                  leave_radius_out_cv, log_likelihood)
from graphfield.mesh import build_mesh


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
    for seed in range(5):
        obs = random_obs(tadpole_model, 10, seed)
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
    near = mesh.interpolate(cov, GraphPoint(0, 0.05))
    far = mesh.interpolate(cov, GraphPoint(1, 1.0))
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
    with pytest.raises(InferenceError):
        ObservationSet([GraphPoint(0, 0.1)], np.array([1.0]), 0.0)
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
    res = fit(spec, mesh, obs, design=np.ones(obs.n), max_evaluations=100, restarts=0)
    assert res.n_evaluations >= 100
    assert len(calls) <= 4
