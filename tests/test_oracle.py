import math

import mpmath as mp
import numpy as np
import pytest

from graphfield.assembly import operator_matrix
from graphfield.graph import GraphPoint, interval_graph
from graphfield.mesh import build_mesh
from graphfield.oracle import (MaternParams, bessel_kv, exact_covariance,
                               folded_circle, folded_interval, matern,
                               spectral_discrete_cov, tadpole_cov,
                               tadpole_cov_exact, tadpole_cov_mercer,
                               tadpole_eigenfunctions, wrapped_matern)

mp.mp.dps = 30


def closed_half_integer(nu, x):
    base = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    if nu == 0.5:
        return base
    if nu == 1.5:
        return base * (1 + 1 / x)
    if nu == 2.5:
        return base * (1 + 3 / x + 3 / x**2)
    raise ValueError(nu)


@pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
def test_bessel_half_integer_closed_forms(nu):
    xs = np.geomspace(1e-6, 20, 400)
    got = bessel_kv(nu, xs)
    want = np.array([closed_half_integer(nu, x) for x in xs])
    assert np.abs(got / want - 1).max() < 1e-12


def test_bessel_general_order_vs_high_precision():
    # independent oracle: 30-digit series/continued-fraction evaluation
    for nu in (0.0, 0.1, 0.6, 1.0, 1.3, 2.2):
        for x in (1e-6, 0.3, 1.0, 2.0, 2.5, 10.0, 40.0):
            want = float(mp.besselk(nu, mp.mpf(x)))
            assert bessel_kv(nu, x) == pytest.approx(want, rel=5e-14)


def test_bessel_nu_15_at_one():
    want = float(mp.besselk(mp.mpf("1.5"), mp.mpf(1)))
    assert bessel_kv(1.5, 1.0) == pytest.approx(want, rel=1e-13)


def test_bessel_kv_contract():
    xs = np.array([[0.0, 0.5], [2.0, 30.0]])
    got = bessel_kv(0.7, xs)
    assert isinstance(got, np.ndarray) and got.shape == (2, 2)
    assert got[0, 0] == math.inf and bessel_kv(0.7, 0.0) == math.inf
    assert np.array_equal(bessel_kv(-0.7, xs), got)  # K_{-nu} = K_nu
    scalar = bessel_kv(1.3, 2.0)
    assert type(scalar) is float
    assert scalar == bessel_kv(-1.3, np.array([2.0]))[0]
    for bad in (-1e-3, np.array([1.0, -2.0])):
        with pytest.raises(ValueError):
            bessel_kv(0.7, bad)


def test_matern_exponential_case():
    p = MaternParams(nu=0.5, kappa=2.0, tau=1.0)
    assert p.sigma2 == pytest.approx(0.25, abs=1e-15)  # 1/(2 tau^2 kappa)
    h = np.linspace(0, 4, 33)
    assert np.abs(matern(h, p) - 0.25 * np.exp(-2 * h)).max() < 1e-14


def test_matern_variance_at_zero():
    for nu, kappa, tau in ((0.25, 1.3, 0.8), (1.0, 2.0, 1.0), (1.5, 0.7, 2.0)):
        p = MaternParams(nu, kappa, tau)
        want = math.gamma(nu) / (tau**2 * kappa ** (2 * nu)
                                 * math.sqrt(4 * math.pi) * math.gamma(nu + 0.5))
        assert matern(0.0, p) == pytest.approx(want, rel=1e-13)


def test_matern_monotone_decreasing():
    p = MaternParams(1.2, 1.5)
    h = np.linspace(0, 5, 200)
    v = matern(h, p)
    assert np.all(np.diff(v) < 0)


def test_unit_variance_parameters():
    p = MaternParams.unit_variance(alpha=0.75, rho=0.5)
    assert p.sigma2 == pytest.approx(1.0, rel=1e-14)
    assert p.practical_range == pytest.approx(0.5)


def test_folded_interval_far_from_boundary():
    p = MaternParams(0.75, 8.0, 1.0)  # short range on a long interval
    v = folded_interval(5.0, 5.0, p, length=10.0)
    assert v == pytest.approx(p.sigma2, abs=1e-6 * p.sigma2)


def test_folded_interval_boundary_inflation():
    p = MaternParams(0.75, 8.0, 1.0)
    v = folded_interval(0.0, 0.0, p, length=10.0)
    assert v == pytest.approx(2 * p.sigma2, rel=1e-6)


def test_folded_interval_symmetry():
    p = MaternParams(0.6, 2.0, 1.1)
    for s1, s2 in ((0.1, 0.9), (0.0, 0.5), (0.3, 0.31)):
        a = folded_interval(s1, s2, p, 1.0)
        b = folded_interval(s2, s1, p, 1.0)
        assert abs(a - b) < 1e-14


def test_folded_sums_wrap_converged():
    p = MaternParams(0.75, 2.0, 1.0)
    z = np.linspace(-1, 2, 7)
    a = wrapped_matern(z, p, 2.0)
    b = wrapped_matern(z, p, 2.0, n_wraps=2 * 12 + 40)
    assert np.abs(a - b).max() < 1e-12 * p.sigma2


def test_folded_circle_stationary():
    p = MaternParams(0.75, 2.0, 1.0)
    var = [folded_circle(s, s, p, 2.0) for s in (0.0, 0.4, 1.0, 1.7)]
    assert np.ptp(var) < 1e-14
    a = folded_circle(0.0, 1.0, p, 2.0)
    b = folded_circle(0.4, 1.4, p, 2.0)
    assert a == pytest.approx(b, abs=1e-15)


def test_folded_circle_monotone_in_circle_distance():
    p = MaternParams(0.75, 2.0, 1.0)
    antipodal = folded_circle(0.0, 1.0, p, 2.0)
    quarter = folded_circle(0.0, 0.5, p, 2.0)
    assert antipodal < quarter


def test_tadpole_orthonormality():
    # composite midpoint quadrature integrates the trig eigenfunctions exactly
    nq = 2000
    pts = [GraphPoint(0, (i + 0.5) / nq) for i in range(nq)] + \
          [GraphPoint(1, 2 * (i + 0.5) / (2 * nq)) for i in range(2 * nq)]
    w = np.full(3 * nq, 1.0 / nq)
    E, lam = tadpole_eigenfunctions(pts, 20)
    gram = (E * w) @ E.T
    assert np.abs(gram - np.eye(len(E))).max() < 1e-10


def test_tadpole_eigen_identity():
    # -psi'' = lam psi away from vertices, via second difference quotients
    i = 2
    lam = (i * math.pi / 2) ** 2
    ts = np.linspace(0.2, 1.8, 9)
    h = 1e-5
    c = math.sqrt(2.0 / 3.0)
    psi = c * np.cos(i * math.pi * ts / 2)
    dd = (c * np.cos(i * math.pi * (ts + h) / 2) - 2 * psi
          + c * np.cos(i * math.pi * (ts - h) / 2)) / h**2
    assert np.abs(dd + lam * psi).max() < 1e-5


def test_tadpole_mercer_truncation_rate():
    # the series tail is Theta(K^{1-2 alpha}); at alpha=1.1 the K=500 vs
    # K=5000 difference sits near 3e-5 relative (frozen from measurement),
    # nowhere near machine precision
    s = GraphPoint(0, 0.0)
    v500 = tadpole_cov(s, s, 1.1, math.sqrt(8.0), 1.0, n_terms=500)
    v5000 = tadpole_cov(s, s, 1.1, math.sqrt(8.0), 1.0, n_terms=5000)
    rel = abs(v500 - v5000) / v5000
    assert 1e-6 < rel < 1e-3


def test_tadpole_mercer_converges_to_exact():
    rng = np.random.default_rng(0)
    pts = [GraphPoint(0, u) for u in rng.uniform(0, 1, 6)] + \
          [GraphPoint(1, u) for u in rng.uniform(0, 2, 8)]
    for alpha, tol in ((1.5, 5e-9), (2.0, 5e-13)):
        exact = tadpole_cov_exact(pts, alpha, 2.0, 1.3)
        merc = tadpole_cov_mercer(pts, alpha, 2.0, 1.3, n_terms=5000)
        assert np.abs(merc - exact).max() < tol
    # smaller alpha converges at its slower K^{1-2 alpha} rate
    exact = tadpole_cov_exact(pts, 0.75, 2.0, 1.0)
    errs = [np.abs(tadpole_cov_mercer(pts, 0.75, 2.0, 1.0, n_terms=K) - exact).max()
            for K in (400, 1600, 6400)]
    assert errs[2] < errs[1] < errs[0]
    rate = np.polyfit(np.log([400, 1600, 6400]), np.log(errs), 1)[0]
    assert rate == pytest.approx(1 - 2 * 0.75, abs=0.15)


def test_tadpole_exact_continuity_at_junction():
    # the junction is addressable three ways; the covariance must agree
    for alpha in (0.75, 1.3):
        ways = [GraphPoint(0, 1.0), GraphPoint(1, 0.0), GraphPoint(1, 2.0)]
        probe = GraphPoint(1, 0.7)
        vals = [tadpole_cov_exact([wq, probe], alpha, 2.0, 1.0)[0, 1] for wq in ways]
        assert np.ptp(vals) < 1e-12


def test_tadpole_tip_variance_doubles_junction_reduces():
    # short-range field: tip variance ~ 2 sigma^2, junction ~ (2/3) sigma^2
    p = MaternParams.from_alpha(1.5, 12.0)
    S = tadpole_cov_exact([GraphPoint(0, 0.0), GraphPoint(1, 0.0), GraphPoint(1, 1.0)],
                          1.5, 12.0, 1.0)
    assert S[0, 0] == pytest.approx(2 * p.sigma2, rel=1e-3)
    assert S[1, 1] == pytest.approx(2 * p.sigma2 / 3, rel=1e-3)
    assert S[2, 2] == pytest.approx(p.sigma2, rel=1e-3)


def test_spectral_discrete_integer_powers():
    mesh = build_mesh(interval_graph(1.0), 1 / 32)
    L, c = operator_matrix(mesh, 2.0)
    tau = np.full(mesh.N, 1.3)
    Ld = L.toarray()
    S1 = spectral_discrete_cov(L, c, tau, 1.0)
    want1 = np.linalg.inv(Ld) / 1.3**2
    assert np.abs(S1 - want1).max() < 1e-10
    S2 = spectral_discrete_cov(L, c, tau, 2.0)
    want2 = np.linalg.inv(Ld) @ np.diag(c) @ np.linalg.inv(Ld) / 1.3**2
    assert np.abs(S2 - want2).max() < 1e-10


def test_spectral_eigenvalue_lower_bound():
    mesh = build_mesh(interval_graph(1.0), 1 / 16)
    L, c = operator_matrix(mesh, 1.7)
    s = 1 / np.sqrt(c)
    lam = np.linalg.eigvalsh(s[:, None] * L.toarray() * s[None, :])
    assert lam.min() >= 1.7**2 * (1 - 1e-12)


def test_exact_covariance_psd():
    mesh = build_mesh(interval_graph(1.0), 1 / 16)
    pts = mesh.node_points()
    S = exact_covariance("interval", pts, 0.75, 2.0, 1.0, 1.0)
    assert np.allclose(S, S.T)
    lam = np.linalg.eigvalsh(S)
    assert lam.min() > -1e-12 * lam.max()


def test_exact_covariance_rejects_unknown_kind():
    with pytest.raises(ValueError):
        exact_covariance("star", [GraphPoint(0, 0.0)], 1.0, 1.0, 1.0)


def test_folded_interval_explicit_wraps_match_spec_rule():
    # the default wrap rule leaves no visible tail against many more wraps
    p = MaternParams(0.75, 2.0, 1.0)
    a = folded_interval(0.3, 0.4, p, 1.0)
    b = folded_interval(0.3, 0.4, p, 1.0, n_wraps=60)
    assert abs(a - b) < 1e-12 * p.sigma2
