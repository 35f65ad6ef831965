import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfield.graph import (GraphError, GraphPoint, MetricGraph, builtin_graph,
                              interval_graph, star_graph, tadpole_graph, validate)
from graphfield.mesh import build_mesh
from strategies import random_meshes


def test_validate_tadpole():
    diag = validate(tadpole_graph())
    assert diag.ok
    assert diag.n_vertices == 2 and diag.n_edges == 2
    assert diag.total_length == pytest.approx(3.0)
    # tail tip has degree 1, junction degree 3 (loop counts twice)
    assert diag.degrees[0] == 1
    assert diag.degrees[1] == 3


def test_validate_rejects_zero_length():
    diag = validate({"vertices": [{"id": 0}, {"id": 1}],
                     "edges": [{"id": 0, "from": 0, "to": 1, "length": 0.0}]})
    assert not diag.ok
    assert any("length" in e for e in diag.errors)


def test_validate_rejects_disconnected():
    diag = validate({
        "vertices": [{"id": i} for i in range(4)],
        "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0},
                  {"id": 1, "from": 2, "to": 3, "length": 1.0}],
    })
    assert not diag.ok
    assert any("disconnected" in e for e in diag.errors)


def test_geodesic_tadpole_tail_to_loop():
    g = tadpole_graph()
    assert g.geodesic(GraphPoint(0, 0.0), GraphPoint(1, 0.5)) == pytest.approx(1.5)


def test_geodesic_loop_shortcut():
    g = tadpole_graph()
    # around the loop the short way: min(1.0, 2 - 1.0)
    assert g.geodesic(GraphPoint(1, 0.5), GraphPoint(1, 1.5)) == pytest.approx(1.0)


def test_geodesic_same_point_zero():
    g = tadpole_graph()
    assert g.geodesic(GraphPoint(1, 0.7), GraphPoint(1, 0.7)) == 0.0


def test_geodesic_parallel_edges_take_shortest():
    g = MetricGraph([0, 1], [(0, 1, 5.0), (0, 1, 1.0)])
    assert g.geodesic(GraphPoint(0, 0.0), GraphPoint(0, 5.0)) == pytest.approx(1.0)
    # midpoint of the long edge: leave via the closer endpoint and cross
    assert g.geodesic(GraphPoint(0, 2.5), GraphPoint(1, 0.5)) == pytest.approx(2.5 + 0.5)


def test_triangle_inequality_bulk():
    g = tadpole_graph()
    rng = np.random.default_rng(7)
    pts = []
    for _ in range(60):
        if rng.random() < 0.4:
            pts.append(GraphPoint(0, rng.uniform(0, 1)))
        else:
            pts.append(GraphPoint(1, rng.uniform(0, 2)))
    D = g.geodesic_matrix(pts)
    assert np.allclose(D, D.T, atol=1e-14)
    assert np.all(np.diag(D) == 0)
    # all (i, j, k) triples at once: > 1000 triples
    viol = D[:, :, None] > D[:, None, :] + D[None, :, :] + 1e-12
    assert not viol.any()


def test_geodesic_matrix_matches_pairwise():
    g = star_graph(4)
    rng = np.random.default_rng(1)
    pts = [GraphPoint(int(rng.integers(0, 4)), rng.uniform(0, 1)) for _ in range(12)]
    D = g.geodesic_matrix(pts)
    for i in range(12):
        for j in range(12):
            assert D[i, j] == pytest.approx(g.geodesic(pts[i], pts[j]), abs=1e-12)


def _geodesic_by_endpoints(g, a, b):
    """Scalar reference: leave each point through either end of its edge,
    or go directly along a shared edge."""
    a, b = g.check_point(a), g.check_point(b)
    D = g.vertex_distances()
    ea, eb = g.edges[a.edge], g.edges[b.edge]
    ia = (g._vid_index[ea.u], g._vid_index[ea.v])
    ib = (g._vid_index[eb.u], g._vid_index[eb.v])
    da, db = (a.t, ea.length - a.t), (b.t, eb.length - b.t)
    best = min(da[i] + D[ia[i], ib[j]] + db[j] for i in range(2) for j in range(2))
    return min(best, abs(a.t - b.t)) if a.edge == b.edge else best


@settings(max_examples=25, deadline=None)
@given(mesh=random_meshes(), data=st.data())
def test_geodesic_is_two_point_geodesic_matrix(mesh, data):
    g = mesh.graph
    pts = mesh.node_points()[::max(1, mesh.N // 12)]
    for e in data.draw(st.lists(st.integers(0, g.n_edges - 1), min_size=1, max_size=4)):
        pts += [GraphPoint(e, data.draw(st.floats(0, g.edges[e].length))) for _ in range(2)]
    D = g.geodesic_matrix(pts)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert g.geodesic(a, b) == D[i, j] == _geodesic_by_endpoints(g, a, b)


@settings(max_examples=200, deadline=None)
@given(ta=st.floats(0, 2), tb=st.floats(0, 2))
def test_same_edge_distance_bounded_by_direct_path(ta, tb):
    g = tadpole_graph()
    d = g.geodesic(GraphPoint(1, ta), GraphPoint(1, tb))
    assert d <= abs(ta - tb) + 1e-12


def test_serialization_round_trip_bit_exact(tmp_path):
    g = MetricGraph(
        [(0, 0.0, 0.0), (1, 1.5, 0.25), (2, -0.5, 1.0)],
        [(0, 1, 1.8027756377319946), (1, 2, 2.1360009363293826,
          [[1.5, 0.25], [0.3, 0.9], [-0.5, 1.0]]), (2, 0, 1.118033988749895)],
    )
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    g.save(p1)
    MetricGraph.load(p1).save(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_point_validation():
    g = interval_graph(1.0)
    with pytest.raises(GraphError):
        g.geodesic(GraphPoint(0, 0.0), GraphPoint(0, 1.5))
    with pytest.raises(GraphError):
        g.geodesic(GraphPoint(3, 0.0), GraphPoint(0, 0.5))


def test_point_xy_interpolates():
    g = interval_graph(2.0)
    x, y = g.point_xy(GraphPoint(0, 0.5))
    assert (x, y) == pytest.approx((0.5, 0.0))


def test_edge_xy_matches_point_xy():
    # edge 0 is a polyline with a repeated (zero-length) corner, edge 1 straight
    g = MetricGraph([(0, 0.0, 0.0), (1, 1.0, 1.0), (2, 3.0, 0.0)],
                    [(0, 1, 2.0, [(0, 0), (1, 0), (1, 0), (1, 1)]), (1, 2, 2.5)])
    for edge, want in [(0, [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.5), (1.0, 1.0)]),
                       (1, [(1.0, 1.0), (1.5, 0.75), (2.0, 0.5), (2.5, 0.25), (3.0, 0.0)])]:
        t = np.linspace(0.0, g.edges[edge].length, 5)
        xy = g.edge_xy(edge, t)
        assert xy == pytest.approx(np.array(want), abs=1e-15)
        assert np.array_equal(xy, [g.point_xy(GraphPoint(edge, v)) for v in t])
    with pytest.raises(GraphError):
        g.edge_xy(1, [0.0, 2.6])
    mesh = build_mesh(g, 0.07)
    assert np.array_equal(mesh.node_xy(), [g.point_xy(p) for p in mesh.node_points()])


def test_builtin_graphs():
    assert builtin_graph("interval:3").total_length == 3.0
    assert builtin_graph("circle:2").n_vertices == 1
    assert builtin_graph("star:5").n_edges == 5
    with pytest.raises(GraphError):
        builtin_graph("moebius")


def test_graph_file_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"vertices": [{"id": 0}], "edges": [{"id": 0, "from": 0}]}))
    with pytest.raises(GraphError, match="missing field"):
        MetricGraph.load(p)
