import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import reverse_cuthill_mckee

from graphfield.assembly import lump_mass, assemble_mass
from graphfield.cholesky import SparseCholesky
from graphfield.exprs import CoefficientExpression
from graphfield.field import (FieldModel, FieldError, _sym, log_regression_coefficients,
                              variance_stationary_model)
from graphfield.fractional import ORDER_CAP
from graphfield.graph import GraphPoint, circle_graph, interval_graph, star_graph, tadpole_graph
from graphfield.inference import ObservationSet, log_likelihood
from graphfield.mesh import build_mesh
from graphfield.oracle import spectral_discrete_cov

from strategies import random_meshes


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


# -- tau applied as a diagonal scaling of tau-free blocks ------------------------------


@pytest.mark.parametrize("builder", [lambda: interval_graph(1.0), lambda: star_graph(4),
                                     tadpole_graph])
@pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
def test_variance_stationary_covariance_diagonal(builder, alpha):
    """The variance-stationary model's marginal variance is sigma0^2 by
    construction, so check it on the shifted-operator route, which does not
    use the block factors."""
    mesh = build_mesh(builder(), 0.05)
    model = variance_stationary_model(mesh, 2.0, alpha, sigma0=1.0)
    assert np.abs(np.diag(model.covariance()) - 1.0).max() < 1e-8


@pytest.fixture(scope="module")
def tau_case():
    mesh = build_mesh(tadpole_graph(), 0.08)
    t = np.linspace(0.0, 1.0, mesh.N)
    return mesh, 2.0 + np.sin(3 * t), 0.6 + 0.8 * t**2


@pytest.mark.parametrize("alpha,m", [(0.75, 2), (1.4, 3), (2.0, None)])
def test_tau_scales_the_tau_free_model(tau_case, alpha, m):
    mesh, kappa, tau = tau_case
    one = FieldModel.build(mesh, alpha, kappa, 1.0, m=m)
    model = FieldModel.build(mesh, alpha, kappa, tau, m=m)
    T = diags(tau)
    for Q, Q1 in zip(model.precision_blocks(), one.precision_blocks()):
        want = (T @ Q1 @ T).toarray()
        assert np.abs(Q.toarray() - want).max() <= 1e-14 * np.abs(want).max()
    S = model.covariance()
    assert np.abs(model.covariance_from_blocks() - S).max() < 1e-9
    assert np.array_equal(model.sample(3, seed=4), one.sample(3, seed=4) / tau)

    rng = np.random.default_rng(5)
    pts = [GraphPoint(int(e), rng.uniform(0.0, mesh.graph.edges[e].length))
           for e in rng.integers(0, mesh.graph.n_edges, 12)]
    obs = ObservationSet(pts, rng.standard_normal(12), 0.3)
    A = mesh.basis_matrix(pts).toarray()
    Sy = A @ S @ A.T + 0.3**2 * np.eye(12)
    _, logdet = np.linalg.slogdet(Sy)
    want = -0.5 * (12 * np.log(2 * np.pi) + logdet + obs.values @ np.linalg.solve(Sy, obs.values))
    got, _ = log_likelihood(model, obs)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_variance_stationary_shares_the_base_factors(monkeypatch):
    made = []

    class Counting(SparseCholesky):
        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("graphfield.field.SparseCholesky", Counting)
    mesh = build_mesh(tadpole_graph(), 0.08)
    model = variance_stationary_model(mesh, 2.0, 1.4, sigma0=1.0, m=3)
    model.marginal_std()
    assert len(made) == model.n_blocks == 4


def test_hardest_benchmark_input_within_tolerance():
    """Tadpole, N = 1500, alpha = 1.4 (m = 16), at the kappa where the
    variance-stationary and marginal-variance checks sit closest to 1e-8."""
    mesh = build_mesh(tadpole_graph(), 0.002)
    kappa = CoefficientExpression("3.30211*exp(0.111581*sin(2*t))").node_values(mesh)
    std = variance_stationary_model(mesh, kappa, 1.4, sigma0=1.0).marginal_std()
    assert np.abs(std - 1.0).max() < 1e-8
    base = FieldModel.build(mesh, 1.4, kappa, 1.0)
    assert base.m == 16 and mesh.N == 1500
    want = np.diag(base.covariance())
    assert np.abs(base.marginal_variance() - want).max() < 1e-8 * np.abs(want).max()


def assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


def reference_sym(M):
    """The symmetrization (M + M^T) / 2 as scipy forms it."""
    M = csr_matrix(M)
    return ((M + M.T) * 0.5).tocsr()


@settings(max_examples=15, deadline=None)
@given(mesh=random_meshes(), k0=st.floats(0.5, 5.0), alpha=st.sampled_from([0.6, 0.75, 0.9]))
def test_first_order_blocks_bit_identical_to_sparse_route(mesh, k0, alpha):
    kappa = k0 * np.exp(0.2 * np.cos(np.arange(mesh.N)))
    model = FieldModel.build(mesh, alpha, kappa, 1.0, m=3)
    Cd = diags(model.c_diag)
    blocks = model.precision_blocks()
    for Q, r, p in zip(blocks, model.rational.residues, model.rational.poles):
        assert_same_csr(Q, reference_sym((model.L - p * Cd).tocsr()) / r)
    assert_same_csr(blocks[-1], reference_sym(Cd / model.rational.k))


def test_integer_alpha_one_block_is_the_operator():
    mesh = build_mesh(tadpole_graph(), 0.05)
    model = FieldModel.build(mesh, 1.0, 2.0, 1.0)
    (Q,) = model.precision_blocks()
    assert_same_csr(Q, reference_sym(model.L))


def test_sym_keeps_symmetric_input_and_checks_the_rest():
    M = csr_matrix(np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -0.5], [0.0, -0.5, 1.0]]))
    assert _sym(M) is M
    near = M.toarray()
    near[0, 1] += 1e-12
    near = csr_matrix(near)
    assert_same_csr(_sym(near), reference_sym(near))
    stored_zero = csr_matrix((np.array([1.0, 0.0, 0.0, 1.0]), np.array([0, 1, 0, 1]),
                              np.array([0, 2, 4])), shape=(2, 2))
    assert_same_csr(_sym(stored_zero), reference_sym(stored_zero))
    asym = M.toarray()
    asym[0, 1] = -0.9
    with pytest.raises(FieldError, match="asymmetric"):
        _sym(csr_matrix(asym))


def count_orderings(monkeypatch):
    import graphfield.cholesky as cholesky

    calls = []
    rcm = cholesky.reverse_cuthill_mckee

    def counting(*args, **kwargs):
        calls.append(1)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(cholesky, "reverse_cuthill_mckee", counting)
    return calls


def test_blocks_sharing_a_pattern_share_one_ordering(monkeypatch):
    calls = count_orderings(monkeypatch)
    mesh = build_mesh(tadpole_graph(), 0.02)
    model = variance_stationary_model(mesh, 2.0, 1.4, sigma0=1.0, m=16)
    model.marginal_std()
    assert model.n_blocks == 17
    assert len(calls) <= 2
    factors = model.block_factors()
    assert all(F.analysis is factors[0].analysis for F in factors[:16])
