import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.sparse import csr_matrix, diags
from scipy.sparse.csgraph import reverse_cuthill_mckee

from graphfield.assembly import lump_mass, assemble_mass
from graphfield.cholesky import SparseCholesky, same_pattern
from graphfield.exprs import CoefficientExpression
from graphfield.field import FieldModel, FieldError, variance_stationary_model
from graphfield.fractional import ORDER_CAP, PartialFractions
from graphfield.graph import GraphPoint, circle_graph, interval_graph, star_graph, tadpole_graph
from graphfield.inference import LogRegression, ObservationSet, log_likelihood
from graphfield.mesh import build_mesh
from graphfield.oracle import spectral_discrete_cov

from child import run_python
from strategies import random_meshes


@pytest.fixture
def interval_mesh_65():
    return build_mesh(interval_graph(1.0), 1 / 64)


def test_integer_alpha_two_single_block(interval_mesh_65):
    model = FieldModel.build(interval_mesh_65, 2.0, 2.0, 1.0)
    # x^0 = 1 exactly: no terms and k = 1
    assert model.rational == PartialFractions((), (), 1.0, 0.0, 1.0)
    assert model.m == 0 and model.n_blocks == 1
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
    v01 = (interval_mesh_65.basis_matrix([s1]) @ r0)[0]
    v10 = (interval_mesh_65.basis_matrix([s0]) @ r1)[0]
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
    """Draws are T^{-1} sum_i G_i^{-T} z_i, with G_i the Cholesky factor of the
    tau-free block i in reverse Cuthill-McKee order and z_i its Philox stream."""
    mesh = build_mesh(tadpole_graph(), 0.05)
    t = np.linspace(0.0, 1.0, mesh.N)
    tau = 1.0 + 0.5 * t
    model = FieldModel.build(mesh, 1.4, 2.0 + np.sin(3 * t), tau, m=3)
    want = np.zeros((mesh.N, 4))
    for i, Q in enumerate(model.precision_blocks()):
        perm = reverse_cuthill_mckee(Q, symmetric_mode=True)
        G = np.linalg.cholesky(Q.toarray()[perm][:, perm])
        rng = np.random.Generator(np.random.Philox(key=np.array([11, i], dtype=np.uint64)))
        want[perm] += solve_triangular(G, rng.standard_normal((mesh.N, 4)), lower=True,
                                       trans="T")
    want /= tau[:, None]
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
    tau = LogRegression(0.7).nodes("tau", {}, [], mesh.N)
    kappa = LogRegression(None).nodes("kappa", {"kappa_intercept": -0.2}, [], mesh.N)
    assert np.allclose(tau, np.exp(0.7))
    assert np.allclose(kappa, np.exp(-0.2))


def test_log_regression_logo_example():
    # tau(s) = exp(0.05 (x - y)), kappa(s) = exp(0.1 (x - y)) from the
    # coordinate covariate with (intercept, slope) = (0, 0.05) and (0, 0.1)
    mesh = build_mesh(star_graph(4), 0.2)
    xy = mesh.node_xy()
    g = xy[:, 0] - xy[:, 1]
    tau = LogRegression(0.0, [None]).nodes("tau", {"tau_slope0": 0.05}, [g], mesh.N)
    kappa = LogRegression(None, [0.1]).nodes("kappa", {"kappa_intercept": 0.0}, [g], mesh.N)
    assert np.allclose(tau, np.exp(0.05 * g), rtol=1e-14)
    assert np.allclose(kappa, np.exp(0.1 * g), rtol=1e-14)


def test_log_regression_monotone_in_theta():
    mesh = build_mesh(interval_graph(1.0), 0.25)
    g = np.linspace(0.1, 1.0, mesh.N)
    tau1 = LogRegression(0.0, [0.5]).nodes("tau", {}, [g], mesh.N)
    tau2 = LogRegression(0.0, [0.9]).nodes("tau", {}, [g], mesh.N)
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
    for Q, Q1 in zip(model.precision_blocks(), one.precision_blocks(), strict=True):
        assert_same_csr(Q, Q1)  # the blocks are tau-free
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


@settings(max_examples=10, deadline=None)
@given(mesh=random_meshes(), k0=st.floats(0.5, 5.0), alpha=st.sampled_from([1.4, 2.5, 3.0]))
def test_product_blocks_bit_identical_to_sparse_route(mesh, k0, alpha):
    """The raw products (L - p_i C) S^n, and L S^{n-1} for n >= 2, are
    symmetric to 1e-13 relative, as L is for any kappa; the blocks are their
    sparse (M + M^T) / 2 with sorted indices, over r_i.  The tail is L / k
    for n = 1, and for n >= 2 it is L S^{n-1} scaled by 1 / k, then
    symmetrized (alpha = 3 has no shifted blocks, only that tail)."""
    kappa = k0 * np.exp(0.2 * np.cos(np.arange(mesh.N)))
    model = FieldModel.build(mesh, alpha, kappa, 1.0, m=3)
    n, rat, L = int(alpha), model.rational, model.L
    S = diags(1.0 / model.c_diag) @ L
    Sn = S if n == 1 else S @ S
    blocks = model.precision_blocks()

    def symmetric(P):
        assert abs(P - P.T).max() <= 1e-13 * abs(P).max()
        return P

    for Q, r, p in zip(blocks, rat.residues, rat.poles):
        product = symmetric((L - p * diags(model.c_diag)).tocsr() @ Sn)
        assert_same_csr(Q, reference_sym(product.sorted_indices()) / r)
    if n == 1:
        assert_same_csr(blocks[-1], L * (1 / rat.k))
    else:
        LS = symmetric(L @ (S if n == 2 else Sn))
        tail = csr_matrix((LS.data * (1 / rat.k), LS.indices, LS.indptr), shape=LS.shape)
        assert_same_csr(blocks[-1], reference_sym(tail.sorted_indices()))


@settings(max_examples=20, deadline=None)
@given(mesh=random_meshes(), alpha=st.sampled_from([0.75, 1.0, 1.4, 2.0, 2.5]),
       seed=st.integers(0, 2**32 - 1))
def test_marginal_variance_matches_dense_covariance_on_random_graphs(mesh, alpha, seed):
    """marginal_variance (selected inversion of the block factors) against the
    diagonal of the dense covariance() (the shifted-operator route), with
    non-constant kappa and tau."""
    wave = np.sin(np.arange(mesh.N) * np.random.default_rng(seed).uniform(0.1, 1.0))
    model = FieldModel.build(mesh, alpha, 2.0 * np.exp(0.3 * wave), np.exp(0.2 * wave))
    want = np.diag(model.covariance())
    assert np.abs(model.marginal_variance() - want).max() <= 1e-9 * np.abs(want).max()


@settings(max_examples=12, deadline=None)
@given(mesh=random_meshes(), alpha=st.sampled_from([0.75, 1.4, 2.0, 2.5]),
       seed=st.integers(0, 2**32 - 1))
def test_kappa_gradient_matches_central_differences_of_the_blocks(mesh, alpha, seed):
    """_kappa_gradient on random weights V_i against central differences in
    log kappa of sum_i <V_i, Q_i(kappa)>, at random nodes and at the node of
    smallest kappa, where the rational coefficients move with
    b = 1 / min(kappa)^2."""
    rng = np.random.default_rng(seed)
    log_kappa = np.log(2.0) + 0.3 * rng.standard_normal(mesh.N)
    lowest = int(rng.integers(mesh.N))
    log_kappa[lowest] = log_kappa.min() - 0.2  # stays the unique minimum under the steps

    def blocks(log_kappa):
        return FieldModel.build(mesh, alpha, np.exp(log_kappa), 1.0, m=3).precision_blocks()

    base = blocks(log_kappa)
    weights = [rng.standard_normal(Q.nnz) for Q in base]

    def objective(log_kappa):
        total = 0.0
        for Q, P, v in zip(blocks(log_kappa), base, weights):
            assert same_pattern(Q, P.indptr, P.indices)
            total += np.sum(v * Q.data)
        return total

    grad = FieldModel.build(mesh, alpha, np.exp(log_kappa), 1.0, m=3)._kappa_gradient(weights)
    step = 1e-5
    for a in {lowest, *rng.choice(mesh.N, 4, replace=False)}:
        e = np.zeros(mesh.N)
        e[a] = step
        fd = (objective(log_kappa + e) - objective(log_kappa - e)) / (2 * step)
        assert abs(grad[a] - fd) <= 1e-6 * np.abs(grad).max(), (a, a == lowest, grad[a], fd)


def test_integer_alpha_one_block_is_the_operator():
    mesh = build_mesh(tadpole_graph(), 0.05)
    model = FieldModel.build(mesh, 1.0, 2.0, 1.0)
    (Q,) = model.precision_blocks()
    assert_same_csr(Q, reference_sym(model.L))


def test_variance_and_likelihood_gradient_same_bits_with_one_or_two_blas_threads(tmp_path):
    """marginal_variance (tadpole, N = 12000, alpha = 1.4, m = 16), and the
    log-likelihood with its gradient, draws, the kriging mean and variance
    (tadpole, N = 3000, alpha = 1.4, m = 8, non-constant tau, 300
    observations; the stacked band is wider than 32) and a short fit on that
    mesh (a kappa covariate, a few evaluations) give the same bits whatever
    the OpenBLAS thread count.  The gradient's b-term sums over
    nnz(Q_i) > 10000 entries, where a BLAS dot splits the sum between
    threads."""
    code = ("import sys, numpy as np\n"
            "from graphfield.field import FieldModel\n"
            "from graphfield.graph import GraphPoint, tadpole_graph\n"
            "from graphfield.inference import (LogRegression, ModelSpec, ObservationSet,\n"
            "                                  fit, kriging, log_likelihood)\n"
            "from graphfield.mesh import build_mesh\n"
            "graph = tadpole_graph()\n"
            "model = FieldModel.build(build_mesh(graph, 0.00025), 1.4, 3.0, 1.0)\n"
            "assert model.N == 12000 and model.m == 16\n"
            "mesh = build_mesh(graph, 0.001)\n"
            "tau = 1 + 0.5 * np.sin(np.arange(mesh.N) / 100)\n"
            "small = FieldModel.build(mesh, 1.4, 3.0, tau, m=8)\n"
            "assert small.N == 3000\n"
            "rng = np.random.default_rng(3)\n"
            "edges = rng.integers(graph.n_edges, size=300)\n"
            "points = [GraphPoint(int(e), rng.uniform(0.02, 0.98) * graph.edges[e].length)\n"
            "          for e in edges]\n"
            "obs = ObservationSet(points, rng.standard_normal(300), 0.3)\n"
            "ll, _, grad = log_likelihood(small, obs, gradient=True)\n"
            "post = kriging(small, obs, compute_variance=True)\n"
            "assert obs._memo.stacked.analysis.bw > 32\n"
            "spec = ModelSpec(alpha=1.4, kappa=LogRegression(None, [None]),\n"
            "                 tau=LogRegression(None, []), sigma_e='estimate',\n"
            "                 covariates=[np.sin(np.arange(small.N) / 50.0)])\n"
            "result = fit(spec, small.mesh, obs, max_evaluations=3)\n"
            "assert result.model.rational is not None and result.n_evaluations < 20\n"
            "np.savez(sys.argv[1], variance=model.marginal_variance(), loglik=ll,\n"
            "         log_kappa=grad.log_kappa, log_tau=grad.log_tau,\n"
            "         log_sigma_e=grad.log_sigma_e, samples=small.sample(3, 5),\n"
            "         kriging_mean=post.mean, kriging_variance=post.variance,\n"
            "         fit_params=[result.params[k] for k in sorted(result.params)],\n"
            "         fit_loglik=result.loglik)\n")
    runs = []
    for threads in ("1", "2"):
        path = tmp_path / f"outputs{threads}.npz"
        child = run_python(code, path, env=dict(OPENBLAS_NUM_THREADS=threads,
                                                OMP_NUM_THREADS=threads))
        assert child.exit_code == 0, child.stderr
        runs.append(np.load(path))
    for name in runs[0].files:
        assert np.array_equal(runs[0][name], runs[1][name]), name


def test_marginal_variance_peak_memory_stays_below_the_bands():
    """The sweep buffers a span of band columns and keeps only the diagonals,
    never whole bands of the inverses: marginal_variance's peak allocation
    (tadpole, N = 12000, alpha = 1.4, 17 blocks) stays below 0.6 x the bytes
    of the block factors' bands."""
    import tracemalloc

    model = FieldModel.build(build_mesh(tadpole_graph(), 0.00025), 1.4, 3.0, 1.0)
    bands = sum(8 * (F.bw + 1) * F.n for F in model.block_factors())
    tracemalloc.start()
    try:
        model.marginal_variance()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * bands, (peak / 2**20, bands / 2**20)


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
