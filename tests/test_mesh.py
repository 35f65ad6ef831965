import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfield.graph import GraphPoint, interval_graph, star_graph, tadpole_graph
from graphfield.mesh import build_mesh


def test_interval_two_segments():
    mesh = build_mesh(interval_graph(1.0), 0.5)
    assert mesh.edge_meshes[0].n_segments == 2
    assert mesh.N == 3
    assert mesh.h == pytest.approx(0.5)


def test_tadpole_counts():
    mesh = build_mesh(tadpole_graph(), 1.0 / 3.0)
    assert [em.n_segments for em in mesh.edge_meshes] == [3, 6]
    # N = |V| + sum(n_e - 1) = 2 + 2 + 5
    assert mesh.N == 9


def test_minimum_two_segments():
    mesh = build_mesh(interval_graph(1.0), 10.0)
    assert mesh.edge_meshes[0].n_segments == 2


def test_vertex_nodes_shared():
    g = star_graph(3)
    mesh = build_mesh(g, 0.25)
    center = mesh.vertex_node(0)
    for eid in range(3):
        # spokes run center -> tip, so local node 0 is the shared center
        assert mesh.edge_node(eid, 0) == center
        assert mesh.eval_basis(GraphPoint(eid, 0.0)) == [(center, 1.0)]


def test_eval_basis_at_interior_node():
    mesh = build_mesh(interval_graph(1.0), 0.25)
    p = GraphPoint(0, 0.5)
    assert mesh.eval_basis(p) == [(mesh.edge_node(0, 2), 1.0)]


def test_eval_basis_midpoint():
    mesh = build_mesh(interval_graph(1.0), 0.5)
    w = dict(mesh.eval_basis(GraphPoint(0, 0.25)))
    assert w[mesh.edge_node(0, 0)] == pytest.approx(0.5)
    assert w[mesh.edge_node(0, 1)] == pytest.approx(0.5)


def test_partition_of_unity_bulk():
    g = tadpole_graph()
    mesh = build_mesh(g, 0.13)
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        eid = int(rng.integers(0, 2))
        t = rng.uniform(0, g.edges[eid].length)
        ws = mesh.eval_basis(GraphPoint(eid, t))
        assert abs(sum(w for _, w in ws) - 1.0) < 1e-12
        assert all(0.0 <= w <= 1.0 for _, w in ws)
        assert len(ws) <= 2


def test_projector_at_nodes_is_identity():
    mesh = build_mesh(star_graph(4), 0.3)
    A = mesh.basis_matrix(mesh.node_points()).toarray()
    assert np.array_equal(A, np.eye(mesh.N))


def test_refinement_bounds():
    g = tadpole_graph()
    for target in (0.4, 0.21, 0.13):
        m1 = build_mesh(g, target)
        m2 = build_mesh(g, target / 2)
        assert m1.h <= target + 1e-15
        assert m2.h <= target / 2 + 1e-15
    # integer-ratio meshes halve exactly
    m1 = build_mesh(g, 0.25)
    m2 = build_mesh(g, 0.125)
    assert m2.h == pytest.approx(m1.h / 2)


@settings(max_examples=150, deadline=None)
@given(t=st.floats(0, 2))
def test_interpolation_reproduces_linear_functions(t):
    mesh = build_mesh(interval_graph(2.0), 0.19)
    vals = np.array([3.0 * p.t - 1.0 for p in mesh.node_points()])
    got = (mesh.basis_matrix([GraphPoint(0, t)]) @ vals)[0]
    assert got == pytest.approx(3.0 * t - 1.0, abs=1e-9)


def test_node_points_cover_all_nodes():
    mesh = build_mesh(tadpole_graph(), 0.3)
    pts = mesh.node_points()
    assert len(pts) == mesh.N
    for i, p in enumerate(pts):
        assert mesh.eval_basis(p) == [(i, 1.0)]


def test_invalid_target_h():
    with pytest.raises(ValueError):
        build_mesh(interval_graph(1.0), 0.0)
