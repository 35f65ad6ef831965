import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

from graphfield.assembly import (AssumptionError, assemble_mass,
                                 assemble_stiffness, dump_coordinate_format,
                                 kappa_mass_diagonal, lump_mass, operator_matrix)
from graphfield.graph import GraphPoint, circle_graph, interval_graph, star_graph, tadpole_graph
from graphfield.mesh import build_mesh

from strategies import random_meshes


@pytest.fixture
def unit_interval_mesh():
    return build_mesh(interval_graph(1.0), 0.5)


def edge_order(mesh, eid=0):
    """Global node indices in left-to-right order along an edge (the ordering
    the closed-form element matrices are written in)."""
    n = mesh.edge_meshes[eid].n_segments
    return [mesh.edge_node(eid, j) for j in range(n + 1)]


def test_mass_matrix_hand_values(unit_interval_mesh):
    idx = edge_order(unit_interval_mesh)
    C = assemble_mass(unit_interval_mesh).toarray()[np.ix_(idx, idx)]
    want = np.array([[1 / 6, 1 / 12, 0], [1 / 12, 1 / 3, 1 / 12], [0, 1 / 12, 1 / 6]])
    assert np.allclose(C, want, rtol=0, atol=1e-16)


def test_mass_row_sums(unit_interval_mesh):
    C = assemble_mass(unit_interval_mesh)
    assert np.allclose(lump_mass(C)[edge_order(unit_interval_mesh)],
                       [0.25, 0.5, 0.25], atol=1e-16)


@pytest.mark.parametrize("graph", [interval_graph(1.0), tadpole_graph(), star_graph(5, 0.7)])
def test_mass_total_equals_graph_length(graph):
    mesh = build_mesh(graph, 0.21)
    C = assemble_mass(mesh)
    assert C.sum() == pytest.approx(graph.total_length, rel=1e-14)
    assert lump_mass(C).sum() == pytest.approx(graph.total_length, rel=1e-14)


def test_lumped_degree_three_vertex():
    # three incident segments of length h at a star center: entry 3h/2
    g = star_graph(3, 1.0)
    mesh = build_mesh(g, 0.25)
    h = mesh.edge_meshes[0].h
    d = lump_mass(assemble_mass(mesh))
    assert d[mesh.vertex_node(0)] == pytest.approx(3 * h / 2)


def test_stiffness_hand_values(unit_interval_mesh):
    idx = edge_order(unit_interval_mesh)
    G = assemble_stiffness(unit_interval_mesh).toarray()[np.ix_(idx, idx)]
    want = np.array([[2.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 2.0]])
    assert np.array_equal(G, want)


@pytest.mark.parametrize("graph", [interval_graph(2.0), tadpole_graph(), circle_graph(2.0)])
def test_stiffness_annihilates_constants(graph):
    mesh = build_mesh(graph, 0.17)
    G = assemble_stiffness(mesh)
    assert np.abs(G @ np.ones(mesh.N)).max() < 1e-12


def test_circle_stiffness_circulant():
    mesh = build_mesh(circle_graph(2.0), 0.5)  # 4 segments
    G = assemble_stiffness(mesh).toarray()
    # hand assembly: ring of 4 segments of length 1/2
    w = 1 / 0.5
    want = np.array([
        [2 * w, -w, 0, -w],
        [-w, 2 * w, -w, 0],
        [0, -w, 2 * w, -w],
        [-w, 0, -w, 2 * w],
    ])
    assert np.allclose(G, want, atol=1e-14)
    assert np.abs(G.sum(axis=1)).max() < 1e-14


def test_assembled_matrices_symmetric():
    mesh = build_mesh(tadpole_graph(), 0.11)
    for M in (assemble_mass(mesh), assemble_stiffness(mesh)):
        d = abs(M - M.T)
        assert d.nnz == 0 or d.max() == 0.0


def test_mass_positive_definite():
    for g in (interval_graph(1.0), tadpole_graph(), star_graph(4)):
        mesh = build_mesh(g, 0.19)
        C = assemble_mass(mesh).toarray()
        np.linalg.cholesky(C)


def test_kappa_mass_constant(unit_interval_mesh):
    d = kappa_mass_diagonal(unit_interval_mesh, 2.0)[edge_order(unit_interval_mesh)]
    assert np.allclose(d, [1.0, 2.0, 1.0], atol=1e-15)


def test_kappa_zero_rejected(unit_interval_mesh):
    with pytest.raises(AssumptionError, match="Assumption 1"):
        kappa_mass_diagonal(unit_interval_mesh, 0.0)
    with pytest.raises(AssumptionError):
        operator_matrix(unit_interval_mesh, lambda p: p.t)  # zero at t=0


def test_kappa_mass_monotone_bounds():
    # kappa(s) = exp(0.1 x(s)) on the embedded interval: every entry bounded
    # by the extreme values of kappa^2 scaling the plain mass entries
    g = interval_graph(2.0)
    mesh = build_mesh(g, 0.1)
    xs = np.array([g.point_xy(p)[0] for p in mesh.node_points()])
    kappa = np.exp(0.1 * xs)
    d = kappa_mass_diagonal(mesh, kappa)
    ctil = lump_mass(assemble_mass(mesh))
    assert np.all(d >= np.exp(0.2 * xs.min()) * ctil * (1 - 1e-12))
    assert np.all(d <= np.exp(0.2 * xs.max()) * ctil * (1 + 1e-12))


def test_operator_hand_values(unit_interval_mesh):
    idx = edge_order(unit_interval_mesh)
    L, c = operator_matrix(unit_interval_mesh, 2.0)
    want = np.array([[3.0, -2.0, 0.0], [-2.0, 6.0, -2.0], [0.0, -2.0, 3.0]])
    assert np.allclose(L.toarray()[np.ix_(idx, idx)], want, atol=1e-15)
    assert np.allclose(c[idx], [0.25, 0.5, 0.25])


def test_operator_spd_lower_bound():
    mesh = build_mesh(tadpole_graph(), 0.13)
    kappa0 = 1.7
    L, c = operator_matrix(mesh, kappa0)
    lam_min = eigsh(L.asfptype(), k=1, which="SA", return_eigenvectors=False)[0]
    assert lam_min >= kappa0**2 * c.min() - 1e-10


def test_operator_constant_vector(unit_interval_mesh):
    L, c = operator_matrix(unit_interval_mesh, 2.0)
    ones = np.ones(3)
    assert np.allclose(L @ ones, 4.0 * c * ones, atol=1e-14)


def test_kirchhoff_flux_balance_converges():
    # solve L u = C~ f for smooth f; one-sided difference-quotient fluxes at
    # the star center must vanish as h -> 0
    g = star_graph(3, 1.0)
    fluxes = []
    for h in (0.05, 0.025, 0.0125):
        mesh = build_mesh(g, h)
        L, c = operator_matrix(mesh, 1.0)
        f = np.array([np.cos(2.0 * p.t) for p in mesh.node_points()])
        u = np.linalg.solve(L.toarray(), c * f)
        v = mesh.vertex_node(0)
        total = 0.0
        for eid in range(3):
            hseg = mesh.edge_meshes[eid].h
            first = mesh.edge_node(eid, 1)
            total += (u[first] - u[v]) / hseg  # outward from the center
        fluxes.append(abs(total))
    assert fluxes[2] < fluxes[0]
    assert fluxes[2] < 0.05


def test_dump_coordinate_format(tmp_path):
    mesh = build_mesh(interval_graph(1.0), 0.5)
    C = assemble_mass(mesh)
    path = tmp_path / "c.txt"
    dump_coordinate_format(C, path)
    rows = [line.split() for line in path.read_text().splitlines()]
    got = {(int(i), int(j)): float(v) for i, j, v in rows}
    for (i, j), v in got.items():
        assert v == C.toarray()[i, j]  # 17 significant digits round-trip


def per_segment_reference(mesh, local):
    """Dense matrix summed segment by segment, edge by edge, from edge_node;
    `local(h)` gives the element's (diagonal, off-diagonal) entries."""
    M = np.zeros((mesh.N, mesh.N))
    for eid, em in enumerate(mesh.edge_meshes):
        d, o = local(em.h)
        for j in range(em.n_segments):
            a, b = mesh.edge_node(eid, j), mesh.edge_node(eid, j + 1)
            M[a, a] += d
            M[b, b] += d
            M[a, b] += o
            M[b, a] += o
    return M


@settings(max_examples=60, deadline=None)
@given(mesh=random_meshes(), kappa0=st.floats(0.5, 5.0))
def test_assembly_matches_per_segment_reference(mesh, kappa0):
    C = assemble_mass(mesh)
    G = assemble_stiffness(mesh)
    kappa = kappa0 * (1.0 + mesh.node_t)
    L, c = operator_matrix(mesh, kappa)
    C_ref = per_segment_reference(mesh, lambda h: (h / 3.0, h / 6.0))
    G_ref = per_segment_reference(mesh, lambda h: (1.0 / h, -1.0 / h))
    c_ref = lump_mass(csr_matrix(C_ref))
    L_ref = G_ref + np.diag(kappa**2 * c_ref)
    assert np.array_equal(C.toarray(), C_ref)
    assert np.array_equal(G.toarray(), G_ref)
    assert np.array_equal(c, c_ref)
    assert np.array_equal(L.toarray(), L_ref)

    for i, (e, t) in enumerate(zip(mesh.node_edge, mesh.node_t)):
        assert mesh.eval_basis(GraphPoint(int(e), float(t))) == [(i, 1.0)]
    assert np.abs(G @ np.ones(mesh.N)).max() <= 1e-12 * np.abs(G.data).max()
    assert C.sum() == pytest.approx(mesh.graph.total_length, rel=1e-12)


def assert_same_csr(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@settings(max_examples=30, deadline=None)
@given(mesh=random_meshes(), k0=st.floats(0.3, 6.0))
def test_operator_matrix_bit_identical_to_sparse_sum(mesh, k0):
    kappa = k0 * np.exp(0.3 * np.sin(np.arange(mesh.N)))
    L, c = operator_matrix(mesh, kappa)
    c_ref = lump_mass(assemble_mass(mesh))
    d = kappa**2 * c_ref
    ref = (assemble_stiffness(mesh)
           + csr_matrix((d, (range(mesh.N), range(mesh.N))), shape=L.shape)).tocsr()
    assert_same_csr(L, ref)
    assert np.array_equal(c, c_ref)
    assert np.array_equal(kappa_mass_diagonal(mesh, kappa), d)
    # the lumped mass is computed once per mesh and cannot be changed in place
    assert operator_matrix(mesh, 1.0)[1] is c
    with pytest.raises(ValueError):
        c[0] = 1.0
