import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfield.graph import GraphPoint, interval_graph, star_graph, tadpole_graph
from graphfield.mesh import _SNAP, build_mesh

from strategies import random_meshes


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
    """A node's unit row, from the node itself, from points within _SNAP of
    it on either side (just outside its edge at an edge end), and from
    both ends of every edge."""
    mesh = build_mesh(star_graph(4), 0.3)
    A = mesh.basis_matrix(mesh.node_points()).toarray()
    assert np.array_equal(A, np.eye(mesh.N))
    points, nodes = [], []
    for i, p in enumerate(mesh.node_points()):
        d = 0.4 * _SNAP * mesh.edge_meshes[p.edge].h
        points += [GraphPoint(p.edge, p.t + d), GraphPoint(p.edge, p.t - d)]
        nodes += [i, i]
    for e, em in enumerate(mesh.edge_meshes):
        points += [GraphPoint(e, 0.0), GraphPoint(e, mesh.graph.edges[e].length)]
        nodes += [mesh.edge_node(e, 0), mesh.edge_node(e, em.n_segments)]
    assert np.array_equal(mesh.basis_matrix(points).toarray(), np.eye(mesh.N)[nodes])


def _basis_by_loop(mesh, points):
    """Reference projector: the hat weights of one point at a time."""
    A = np.zeros((len(points), mesh.N))
    for i, p in enumerate(points):
        p = mesh.graph.check_point(p)
        em = mesh.edge_meshes[p.edge]
        u = p.t / em.h
        j = min(math.floor(u), em.n_segments - 1)
        w = u - j
        if w <= _SNAP:
            A[i, mesh.edge_node(p.edge, j)] = 1.0
        elif w >= 1.0 - _SNAP:
            A[i, mesh.edge_node(p.edge, j + 1)] = 1.0
        else:
            A[i, mesh.edge_node(p.edge, j)] = 1.0 - w
            A[i, mesh.edge_node(p.edge, j + 1)] = w
    return A


@settings(max_examples=30, deadline=None)
@given(mesh=random_meshes(), seed=st.integers(0, 2**32 - 1))
def test_basis_matrix_matches_the_pointwise_loop(mesh, seed):
    """On random graphs, the vectorized projector equals the pointwise one
    bit for bit, at random points, at every node and within 2 _SNAP of it."""
    rng = np.random.default_rng(seed)
    graph = mesh.graph
    edges = rng.integers(graph.n_edges, size=40)
    points = [GraphPoint(int(e), graph.edges[e].length * t)
              for e, t in zip(edges, rng.uniform(0.0, 1.0, 40))]
    for p in mesh.node_points():
        d = rng.uniform(-2.0, 2.0) * _SNAP * mesh.edge_meshes[p.edge].h
        points += [p, GraphPoint(p.edge, min(max(p.t + d, 0.0), graph.edges[p.edge].length))]
    assert np.array_equal(mesh.basis_matrix(points).toarray(), _basis_by_loop(mesh, points))


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
