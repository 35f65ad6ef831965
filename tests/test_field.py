import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.sparse import diags
from scipy.sparse.csgraph import reverse_cuthill_mckee

from graphfield.assembly import lump_mass, assemble_mass
from graphfield.field import (FieldModel, FieldError, log_regression_coefficients,
                              variance_stationary_model)
from graphfield.fractional import ORDER_CAP
from graphfield.graph import GraphPoint, circle_graph, interval_graph, star_graph, tadpole_graph
from graphfield.mesh import build_mesh
from graphfield.oracle import spectral_discrete_cov


@pytest.fixture
def interval_mesh_65():
    return build_mesh(interval_graph(1.0), 1 / 64)


def test_integer_alpha_two_single_block(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 2.0, 2.0, 1.0)
    blocks = model.precision_blocks()
    assert len(blocks) == 1
    L = model.L.toarray()
    want = L @ np.diag(1.0 / model.c_diag) @ L
    assert np.abs(blocks[0].toarray() - want).max() < 1e-15 * np.abs(want).max()


def test_integer_alpha_one_block_is_operator(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 1.0, 2.0, 1.0)
    assert np.abs(model.precision_blocks()[0].toarray() - model.L.toarray()).max() == 0.0


def test_fractional_blocks_all_spd(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=2)
    blocks = model.precision_blocks()
    assert len(blocks) == 3
    model.block_factors()  # raises FieldError if any block fails Cholesky


def test_two_path_covariance_equivalence(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=3)
    assert np.abs(model.covariance() - model.covariance_from_blocks()).max() < 1e-9


def test_integer_alpha_covariance_closed_form(interval_mesh_65):
    tau = 1.4
    model = FieldModel.build(interval_mesh_65, 2.0, 2.0, tau)
    Linv = np.linalg.inv(model.L.toarray())
    want = Linv @ np.diag(model.c_diag) @ Linv / tau**2
    assert np.abs(model.covariance() - want).max() < 1e-12


def test_rational_converges_to_spectral_oracle(interval_mesh_65):
    tau = np.full(interval_mesh_65.N, 1.0)
    for alpha in (0.6, 0.75, 1.3):
        model1 = FieldModel.build(interval_mesh_65, alpha, 2.0, 1.0, m=1)
        ref = spectral_discrete_cov(model1.L, model1.c_diag, tau, alpha)
        errs = []
        for m in (1, 2, 3, 4, 5):
            model = FieldModel.build(interval_mesh_65, alpha, 2.0, 1.0, m=m)
            errs.append(np.abs(model.covariance() - ref).max())
        assert all(a > b for a, b in zip(errs, errs[1:])), (alpha, errs)


def test_integer_alpha_matches_spectral_to_1e10(interval_mesh_65):
    for alpha in (1.0, 2.0):
        model = FieldModel.build(interval_mesh_65, alpha, 2.0, 1.0)
        ref = spectral_discrete_cov(model.L, model.c_diag,
                                    np.ones(interval_mesh_65.N), alpha)
        assert np.abs(model.covariance() - ref).max() < 1e-10


def test_k0_form_resolved_by_spectral_oracle(interval_mesh_65):
    # the constant spectral function k maps to the weight covariance k V V'
    # with V' C V = I, i.e. exactly k C^{-1} and nothing like k C
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=5)
    c = model.c_diag
    s = 1.0 / np.sqrt(c)
    M = s[:, None] * model.L.toarray() * s[None, :]
    _, U = np.linalg.eigh(0.5 * (M + M.T))
    V = U * s[:, None]
    VVt = V @ V.T
    assert np.abs(VVt - np.diag(1.0 / c)).max() < 1e-10
    assert np.abs(VVt - np.diag(c)).max() > 1.0
    # end to end: the implemented k C^{-1} tail term tracks the spectral
    # covariance strictly better than the transcribed k C at every order
    ref = spectral_discrete_cov(model.L, model.c_diag,
                                np.ones(interval_mesh_65.N), 0.75)
    for m in (2, 3, 5):
        mod = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=m)
        good = mod.covariance()
        k = mod.rational.k
        bad = good - np.diag(k / c) + np.diag(k * c)
        assert np.abs(bad - ref).max() > 2 * np.abs(good - ref).max()


def test_covariance_row(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=2)
    S = model.covariance()
    i = 10
    row = model.covariance_row(interval_mesh_65.node_points()[i])
    assert np.abs(row - S[i]).max() < 1e-10
    # symmetry through two off-node points
    s0 = GraphPoint(0, 0.23)
    s1 = GraphPoint(0, 0.71)
    r0 = model.covariance_row(s0)
    r1 = model.covariance_row(s1)
    v01 = interval_mesh_65.interpolate(r0, s1)
    v10 = interval_mesh_65.interpolate(r1, s0)
    assert v01 == pytest.approx(v10, abs=1e-10)
    # at a node the row's own value is the marginal variance there
    assert row[i] == pytest.approx(model.marginal_variance()[i], abs=1e-10)


def test_marginal_std_takahashi_matches_dense(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=3)
    d_tak = model.marginal_variance()
    d_dense = np.diag(model.covariance_from_blocks())
    assert np.abs(d_tak - d_dense).max() < 1e-9
    assert np.all(d_tak > 0)


def test_star_variance_higher_at_tips():
    g = star_graph(3, 1.0)
    mesh = build_mesh(g, 0.05)
    model = FieldModel.build(mesh, 1.0, 2.0, 0.5)
    v = model.marginal_variance()
    tip = v[mesh.vertex_node(1)]
    center = v[mesh.vertex_node(0)]
    assert tip > center


def test_sampling_matches_covariance(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=2)
    S = model.covariance()
    n = 20_000
    u = model.sample(n, seed=123)
    emp = u.T @ u / n
    se = np.sqrt((S**2 + np.outer(np.diag(S), np.diag(S))) / n)
    frac_ok = np.mean(np.abs(emp - S) <= 4 * se)
    assert frac_ok >= 0.95


def test_sampling_deterministic(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=2)
    a = model.sample(3, seed=7)
    b = model.sample(3, seed=7)
    assert np.array_equal(a, b)
    c = model.sample(3, seed=8)
    assert not np.array_equal(a, c)


def test_sampling_matches_dense_rcm_cholesky():
    """Draws are G^{-T} z per block, with G the Cholesky factor of the block
    in reverse Cuthill-McKee order and z the block's Philox stream."""
    mesh = build_mesh(tadpole_graph(), 0.05)
    t = np.linspace(0.0, 1.0, mesh.N)
    model = FieldModel.build(mesh, 1.4, 2.0 + np.sin(3 * t), 1.0 + 0.5 * t, m=3)
    want = np.zeros((mesh.N, 4))
    for i, Q in enumerate(model.precision_blocks()):
        perm = reverse_cuthill_mckee(Q, symmetric_mode=True)
        G = np.linalg.cholesky(Q.toarray()[perm][:, perm])
        rng = np.random.Generator(np.random.Philox(key=np.array([11, i], dtype=np.uint64)))
        want[perm] += solve_triangular(G, rng.standard_normal((mesh.N, 4)), lower=True,
                                       trans="T")
    got = model.sample(4, seed=11).T
    assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()


def test_sampling_tau_scaling_exact(interval_mesh_65):
    m1 = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=2)
    m2 = FieldModel.build(interval_mesh_65, 0.75, 2.0, 2.0, m=2)
    a = m1.sample(2, seed=5)
    b = m2.sample(2, seed=5)
    assert np.array_equal(b, a / 2.0)


@pytest.mark.parametrize("builder,alpha", [
    (lambda: interval_graph(1.0), 1.0),
    (lambda: interval_graph(1.0), 1.5),
    (lambda: interval_graph(1.0), 2.0),
    (lambda: star_graph(4), 1.5),
    (lambda: tadpole_graph(), 1.5),
])
def test_variance_stationary(builder, alpha):
    mesh = build_mesh(builder(), 0.05)
    model = variance_stationary_model(mesh, 2.0, alpha, sigma0=1.3)
    v = model.marginal_variance()
    assert np.abs(v - 1.3**2).max() < 1e-8


def test_variance_stationary_flattens_star():
    mesh = build_mesh(star_graph(3), 0.05)
    before = FieldModel.build(mesh, 1.0, 2.0, 1.0).marginal_variance()
    assert before[mesh.vertex_node(1)] > before[mesh.vertex_node(0)]  # tips inflate
    after = variance_stationary_model(mesh, 2.0, 1.0, 1.0).marginal_variance()
    assert np.ptp(after) < 1e-8


def test_variance_stationary_circle_constant_tau():
    mesh = build_mesh(circle_graph(2.0), 0.05)
    model = variance_stationary_model(mesh, 2.0, 1.0, sigma0=1.0)
    assert np.ptp(model.tau_nodes) < 1e-10  # circle symmetry


def test_log_regression_intercepts_only():
    mesh = build_mesh(interval_graph(1.0), 0.25)
    tau, kappa = log_regression_coefficients(mesh, [], [0.7], [-0.2])
    assert np.allclose(tau, np.exp(0.7))
    assert np.allclose(kappa, np.exp(-0.2))


def test_log_regression_logo_example():
    # tau(s) = exp(0.05 (x - y)), kappa(s) = exp(0.1 (x - y)) from the
    # coordinate covariate with theta = (0, 0.05) and (0, 0.1)
    mesh = build_mesh(star_graph(4), 0.2)
    xy = mesh.node_xy()
    g = xy[:, 0] - xy[:, 1]
    tau, kappa = log_regression_coefficients(mesh, [g], [0.0, 0.05], [0.0, 0.1])
    assert np.allclose(tau, np.exp(0.05 * g), rtol=1e-14)
    assert np.allclose(kappa, np.exp(0.1 * g), rtol=1e-14)


def test_log_regression_monotone_in_theta():
    mesh = build_mesh(interval_graph(1.0), 0.25)
    g = np.linspace(0.1, 1.0, mesh.N)
    tau1, _ = log_regression_coefficients(mesh, [g], [0.0, 0.5], [0.0, 0.0])
    tau2, _ = log_regression_coefficients(mesh, [g], [0.0, 0.9], [0.0, 0.0])
    assert np.all(tau2 > tau1)


def test_alpha_bounds():
    mesh = build_mesh(interval_graph(1.0), 0.25)
    with pytest.raises(FieldError):
        FieldModel.build(mesh, 0.5, 1.0, 1.0)
    with pytest.raises(FieldError):
        FieldModel.build(mesh, 3.2, 1.0, 1.0)


def test_covariance_psd(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=3)
    S = model.covariance()
    lam = np.linalg.eigvalsh(S)
    assert lam.min() >= -1e-9 * lam.max()


def test_fractional_requires_positive_m(interval_mesh_65):
    with pytest.raises(FieldError):
        FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=0)


def test_order_above_cap_rejected_before_minimax(interval_mesh_65, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("minimax solve reached")

    monkeypatch.setattr("graphfield.field.brasil", no_solve)
    with pytest.raises(FieldError, match=f"cap {ORDER_CAP}"):
        FieldModel.build(interval_mesh_65, 0.75, 2.0, 1.0, m=ORDER_CAP + 1)
