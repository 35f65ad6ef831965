"""FEM refinement of a metric graph and hat-basis bookkeeping.

Each edge is subdivided into ``n_e = max(2, ceil(length/target_h))`` uniform
segments.  Global node numbering puts the original vertices first (one node
per vertex, shared by all incident edges), then the interior nodes edge by
edge.  The basis is the standard piecewise-linear hat system: interior hats
supported on two segments, vertex hats decaying into the first segment of
every incident edge.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from .graph import GraphError, GraphPoint, MetricGraph

# points closer than this (relative to a segment) to a mesh node snap to it;
# hat "tips" are not differentiable, so boundary points resolve to the node
_SNAP = 1e-12


@dataclass(frozen=True)
class EdgeMesh:
    n_segments: int
    h: float  # segment length, length / n_segments


class Mesh:
    """Uniform per-edge refinement of a metric graph.

    Arrays built once, in edge order:

    - ``seg_nodes`` (n_segments, 2), ``seg_h``: every segment's two global
      nodes and its length;
    - ``node_edge``, ``node_t``: every global node's canonical location
      (edge, t) with ``t = j * h`` for local node j of that edge.
    """

    def __init__(self, graph: MetricGraph, target_h: float):
        if not (target_h > 0):
            raise GraphError(f"mesh width h must be positive, got {target_h!r}")
        self.graph = graph
        self.target_h = float(target_h)
        self.edge_meshes: list[EdgeMesh] = []
        for e in graph.edges:
            n = max(2, math.ceil(e.length / target_h - 1e-12))
            self.edge_meshes.append(EdgeMesh(n, e.length / n))
        self.h = max(em.h for em in self.edge_meshes)

        nv = graph.n_vertices
        self._vnode = {vid: i for i, vid in enumerate(graph.vertex_ids)}
        # global node of every local node j = 0..n_segments, edge by edge
        self._edge_nodes: list[list[int]] = []
        start = nv
        for e, em in zip(graph.edges, self.edge_meshes):
            self._edge_nodes.append([self._vnode[e.u], *range(start, start + em.n_segments - 1),
                                     self._vnode[e.v]])
            start += em.n_segments - 1
        self.n_nodes = start
        self.matrix_cache: dict = {}  # assembled matrices, keyed by assembler

        seq = np.fromiter(itertools.chain.from_iterable(self._edge_nodes), dtype=np.int64)
        n_seg = np.array([em.n_segments for em in self.edge_meshes])
        edge_h = np.array([em.h for em in self.edge_meshes])
        counts = n_seg + 1  # local nodes per edge
        seq_edge = np.repeat(np.arange(graph.n_edges), counts)
        seq_j = np.arange(seq.size) - (np.cumsum(counts) - counts)[seq_edge]
        inner = (seq_j < n_seg[seq_edge])[:-1]  # seq[k] and seq[k + 1] share an edge
        self.seg_nodes = np.column_stack((seq[:-1][inner], seq[1:][inner]))
        self.seg_h = np.repeat(edge_h, n_seg)
        # a node's canonical location is its first local node in edge order,
        # so a vertex maps to an end of its lowest-index incident edge
        _, first = np.unique(seq, return_index=True)
        self.node_edge = seq_edge[first]
        self.node_t = seq_j[first] * edge_h[self.node_edge]

    @property
    def N(self) -> int:
        return self.n_nodes

    def vertex_node(self, vid) -> int:
        return self._vnode[vid]

    def edge_node(self, edge_id: int, j: int) -> int:
        """Global index of local node j on an edge (j = 0..n_segments)."""
        return self._edge_nodes[edge_id][j]

    def node_points(self) -> list[GraphPoint]:
        """Canonical GraphPoint (node_edge, node_t) for every global node.

        Vertex nodes map to an endpoint of their lowest-index incident edge.
        """
        return list(map(GraphPoint, self.node_edge.tolist(), self.node_t.tolist()))

    def node_xy(self) -> np.ndarray:
        """Planar coordinates for every node (requires graph coordinates)."""
        order = np.argsort(self.node_edge, kind="stable")
        bounds = np.searchsorted(self.node_edge[order], np.arange(self.graph.n_edges + 1))
        xy = np.empty((self.n_nodes, 2))
        for e in range(self.graph.n_edges):
            nodes = order[bounds[e]:bounds[e + 1]]
            xy[nodes] = self.graph.edge_xy(e, self.node_t[nodes])
        return xy

    def eval_basis(self, s: GraphPoint) -> list[tuple[int, float]]:
        """Hat-basis weights at a point: at most two (node, weight) pairs.

        Weights are in [0,1] and sum to 1; a point exactly on a mesh node
        returns that single node with weight 1.
        """
        s = self.graph.check_point(s)
        em = self.edge_meshes[s.edge]
        u = s.t / em.h
        j = int(math.floor(u))
        if j >= em.n_segments:
            j = em.n_segments - 1
        w = u - j
        if w <= _SNAP:
            return [(self.edge_node(s.edge, j), 1.0)]
        if w >= 1.0 - _SNAP:
            return [(self.edge_node(s.edge, j + 1), 1.0)]
        return [(self.edge_node(s.edge, j), 1.0 - w), (self.edge_node(s.edge, j + 1), w)]

    def basis_matrix(self, points: list[GraphPoint]) -> csr_matrix:
        """Projector A with A[i, j] = psi_j(points[i])."""
        rows, cols, vals = [], [], []
        for i, p in enumerate(points):
            for node, w in self.eval_basis(p):
                rows.append(i)
                cols.append(node)
                vals.append(w)
        return csr_matrix((vals, (rows, cols)), shape=(len(points), self.n_nodes))


def build_mesh(graph: MetricGraph, target_h: float) -> Mesh:
    """Refine a metric graph with uniform per-edge segments of size <= target_h
    (every edge gets at least 2 segments)."""
    return Mesh(graph, target_h)
