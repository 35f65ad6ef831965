"""Metric graph topology, point addressing, and geodesic distance.

A metric graph is a finite collection of undirected edges with positive
lengths, glued at shared vertices.  Points live *on* the edges: a location is
a pair ``(edge, t)`` with ``t`` the arc-length coordinate measured from the
edge's ``from``-vertex.  Self-loops and parallel edges are allowed (the
circle and tadpole graphs need them).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


class GraphError(ValueError):
    """Raised for invalid graph definitions or invalid points."""


@dataclass(frozen=True)
class GraphPoint:
    """A location ``s = (edge, t)`` on a metric graph."""

    edge: int
    t: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise GraphError(f"non-finite arc-length coordinate t={self.t}")


@dataclass(frozen=True)
class Edge:
    id: int
    u: int
    v: int
    length: float
    geometry: tuple[tuple[float, float], ...] | None = None


class MetricGraph:
    """Immutable metric graph: vertices, edges with lengths, adjacency.

    Parameters
    ----------
    vertices : list of vertex ids (ints) or of (id, x, y) tuples
        Planar coordinates are optional metadata used for plotting and for
        coordinate-based coefficient functions.
    edges : list of (u, v, length) or (u, v, length, geometry)
        ``u`` and ``v`` are vertex ids; ``length`` must be positive.
        Self-loops (``u == v``) and parallel edges are permitted.
    """

    def __init__(self, vertices, edges):
        vids = []
        coords = {}
        for k, v in enumerate(vertices):
            entry = v if isinstance(v, (tuple, list)) else (v,)
            try:
                vid = int(entry[0])
            except (TypeError, ValueError):
                raise GraphError(f"vertex {k} of the list: id {entry[0]!r} is not an "
                                 "integer") from None
            vids.append(vid)
            if len(entry) >= 3 and entry[1] is not None and entry[2] is not None:
                try:
                    coords[vid] = (float(entry[1]), float(entry[2]))
                except (TypeError, ValueError):
                    raise GraphError(f"vertex {vid}: coordinates ({entry[1]!r}, "
                                     f"{entry[2]!r}) are not numbers") from None
        if len(set(vids)) != len(vids):
            raise GraphError("duplicate vertex ids")
        self._vid_index = {vid: i for i, vid in enumerate(sorted(vids))}
        self.vertex_ids = sorted(vids)
        self.vertex_coords = coords

        self.edges: list[Edge] = []
        for k, e in enumerate(edges):
            u, v = e[0], e[1]
            try:
                length = float(e[2])
            except (TypeError, ValueError):
                raise GraphError(f"edge {k}: length {e[2]!r} is not a number") from None
            geom = None
            if len(e) > 3 and e[3] is not None:
                try:
                    geom = tuple((float(p[0]), float(p[1])) for p in e[3])
                except (TypeError, ValueError, IndexError):
                    raise GraphError(f"edge {k}: geometry must be a list of [x, y] "
                                     f"number pairs, got {e[3]!r}") from None
            if not (length > 0.0 and math.isfinite(length)):
                raise GraphError(f"edge {k}: nonpositive length {length}")
            if u not in self._vid_index or v not in self._vid_index:
                raise GraphError(f"edge {k}: unknown endpoint vertex")
            self.edges.append(Edge(k, int(u), int(v), length, geom))
        if not self.edges:
            raise GraphError("graph has no edges")

        self._lengths = np.array([e.length for e in self.edges])
        self._ends = np.array([(self._vid_index[e.u], self._vid_index[e.v]) for e in self.edges])
        self._check_connected()
        self._vertex_dist: np.ndarray | None = None

    # -- basic queries -----------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_ids)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_length(self) -> float:
        return float(sum(e.length for e in self.edges))

    def degree(self, vid) -> int:
        """Vertex degree; a self-loop counts twice."""
        d = 0
        for e in self.edges:
            d += (e.u == vid) + (e.v == vid)
        return d

    def check_point(self, p: GraphPoint) -> GraphPoint:
        if not (0 <= p.edge < self.n_edges):
            raise GraphError(f"edge id {p.edge} out of range")
        ell = self.edges[p.edge].length
        if not (-1e-12 * ell <= p.t <= ell * (1 + 1e-12)):
            raise GraphError(f"t={p.t} outside [0, {ell}] on edge {p.edge}")
        return GraphPoint(p.edge, min(max(p.t, 0.0), ell))

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Edge ids and arc lengths of points as arrays, each checked and
        clamped to its edge as check_point does; the first point that
        check_point rejects raises its error."""
        n = len(points)
        edge = np.fromiter((p.edge for p in points), np.int64, n)
        t = np.fromiter((p.t for p in points), float, n)
        ok = (0 <= edge) & (edge < self.n_edges)
        ell = self._lengths[np.where(ok, edge, 0)]
        ok &= (-1e-12 * ell <= t) & (t <= ell * (1 + 1e-12))
        if not ok.all():
            self.check_point(points[int(np.argmin(ok))])
        return edge, np.minimum(np.maximum(t, 0.0), ell)

    def _check_connected(self):
        n = self.n_vertices
        if n == 1:
            return
        rows = [self._vid_index[e.u] for e in self.edges]
        cols = [self._vid_index[e.v] for e in self.edges]
        adj = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
        ncomp, _ = connected_components(adj, directed=False)
        if ncomp != 1:
            raise GraphError(f"graph is disconnected ({ncomp} components)")

    # -- geodesic distance -------------------------------------------------

    def vertex_distances(self) -> np.ndarray:
        """All-pairs shortest vertex-to-vertex distances (cached)."""
        if self._vertex_dist is None:
            n = self.n_vertices
            # parallel edges: keep the shortest (coo->csr would SUM duplicates)
            shortest = {}
            for e in self.edges:
                i, j = self._vid_index[e.u], self._vid_index[e.v]
                if i != j:
                    key = (min(i, j), max(i, j))
                    shortest[key] = min(shortest.get(key, math.inf), e.length)
            rows = [k[0] for k in shortest]
            cols = [k[1] for k in shortest]
            vals = [shortest[k] for k in shortest]
            adj = coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
            self._vertex_dist = dijkstra(adj, directed=False)
        return self._vertex_dist

    def geodesic(self, a: GraphPoint, b: GraphPoint) -> float:
        """Shortest-path (geodesic) distance between two points."""
        return float(self.geodesic_matrix([a, b])[0, 1])

    def geodesic_matrix(self, points: list[GraphPoint]) -> np.ndarray:
        """Pairwise geodesic distances for a list of points (vectorized)."""
        D = self.vertex_distances()
        eids, ts = self.locate(points)
        ends = self._ends[eids]
        offs = np.column_stack((ts, self._lengths[eids] - ts))
        n = ts.size
        out = np.full((n, n), np.inf)
        for i in range(2):
            for j in range(2):
                cand = offs[:, i][:, None] + D[ends[:, i]][:, ends[:, j]] + offs[:, j][None, :]
                np.minimum(out, cand, out=out)
        same = eids[:, None] == eids[None, :]
        direct = np.abs(ts[:, None] - ts[None, :])
        out[same] = np.minimum(out[same], direct[same])
        return out

    # -- coordinates (metadata) ---------------------------------------------

    def point_xy(self, p: GraphPoint) -> tuple[float, float]:
        """Planar coordinates of a point (see edge_xy)."""
        p = self.check_point(p)
        x, y = self.edge_xy(p.edge, [p.t])[0]
        return float(x), float(y)

    def edge_xy(self, edge: int, t) -> np.ndarray:
        """Planar coordinates, shape (len(t), 2), of the points at arc lengths
        t on one edge, interpolated along it.

        Uses the polyline geometry when present, otherwise the straight
        segment between endpoint coordinates.  Raises if coordinates are
        unavailable.
        """
        t = np.asarray(t, dtype=float)
        if t.size:
            for v in (t.min(), t.max()):
                self.check_point(GraphPoint(edge, float(v)))
        e = self.edges[edge]
        t = np.clip(t, 0.0, e.length)
        if e.geometry:
            pts = np.asarray(e.geometry)
            seg = np.hypot(*np.diff(pts, axis=0).T)
            cum = np.concatenate([[0.0], np.cumsum(seg)])
            if cum[-1] <= 0:
                raise GraphError(f"edge {e.id}: degenerate geometry")
            s = t / e.length * cum[-1]
            i = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
            with np.errstate(divide="ignore", invalid="ignore"):
                w = np.where(seg[i] == 0, 0.0, (s - cum[i]) / seg[i])[:, None]
            return pts[i] * (1 - w) + pts[i + 1] * w
        try:
            p0 = np.array(self.vertex_coords[e.u])
            p1 = np.array(self.vertex_coords[e.v])
        except KeyError:
            raise GraphError("vertex coordinates unavailable for point_xy") from None
        w = (t / e.length)[:, None]
        return p0 * (1 - w) + p1 * w

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        verts = []
        for vid in self.vertex_ids:
            d = {"id": vid}
            if vid in self.vertex_coords:
                d["x"], d["y"] = self.vertex_coords[vid]
            verts.append(d)
        edges = []
        for e in self.edges:
            d = {"id": e.id, "from": e.u, "to": e.v, "length": e.length}
            if e.geometry:
                d["geometry"] = [list(p) for p in e.geometry]
            edges.append(d)
        return {"vertices": verts, "edges": edges}

    @classmethod
    def from_dict(cls, d: dict) -> "MetricGraph":
        try:
            verts = [(v["id"], v.get("x"), v.get("y")) for v in d["vertices"]]
            eds = []
            for e in sorted(d["edges"], key=lambda e: e["id"]):
                eds.append((e["from"], e["to"], e["length"], e.get("geometry")))
        except KeyError as k:
            raise GraphError(f"graph file missing field {k}") from None
        return cls(verts, eds)

    def save(self, path):
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=1)

    @classmethod
    def load(cls, path) -> "MetricGraph":
        with open(path) as f:
            return cls.from_dict(json.load(f))


# -- validation ----------------------------------------------------------------


@dataclass
class GraphDiagnostics:
    ok: bool
    n_vertices: int = 0
    n_edges: int = 0
    total_length: float = 0.0
    degrees: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def validate(graph_or_dict) -> GraphDiagnostics:
    """Validate a graph (or raw dict), reporting connectivity and degrees."""
    try:
        g = graph_or_dict
        if isinstance(g, dict):
            g = MetricGraph.from_dict(g)
    except GraphError as err:
        return GraphDiagnostics(ok=False, errors=[str(err)])
    return GraphDiagnostics(
        ok=True,
        n_vertices=g.n_vertices,
        n_edges=g.n_edges,
        total_length=g.total_length,
        degrees={vid: g.degree(vid) for vid in g.vertex_ids},
    )


# -- builders ------------------------------------------------------------------


def interval_graph(length: float = 1.0) -> MetricGraph:
    """Single edge [0, length] with degree-1 endpoints."""
    return MetricGraph([(0, 0.0, 0.0), (1, length, 0.0)], [(0, 1, length)])


def circle_graph(circumference: float = 2.0) -> MetricGraph:
    """Single loop edge of the given total circumference."""
    r = circumference / (2 * math.pi)
    return MetricGraph([(0, r, 0.0)], [(0, 0, circumference)])


def tadpole_graph() -> MetricGraph:
    """Tail of length 1 joined to a loop of length 2.

    The tail edge 0 runs from the free tip (t=0) to the junction (t=1); the
    loop edge 1 starts and ends at the junction.
    """
    return MetricGraph(
        [(0, -1.0, 0.0), (1, 0.0, 0.0)],
        [(0, 1, 1.0), (1, 1, 2.0)],
    )


def star_graph(k: int = 3, spoke_length: float = 1.0) -> MetricGraph:
    """k unit spokes radiating from a central vertex."""
    if k < 2:
        raise GraphError("star graph needs k >= 2 spokes")
    verts = [(0, 0.0, 0.0)]
    edges = []
    for i in range(k):
        ang = 2 * math.pi * i / k
        verts.append((i + 1, spoke_length * math.cos(ang), spoke_length * math.sin(ang)))
        edges.append((0, i + 1, spoke_length))
    return MetricGraph(verts, edges)


def builtin_graph(spec: str) -> MetricGraph:
    """Parse a builtin graph spec: interval:L, circle:L, tadpole, star:k."""
    name, _, arg = spec.partition(":")
    if name == "interval":
        return interval_graph(float(arg) if arg else 1.0)
    if name == "circle":
        return circle_graph(float(arg) if arg else 2.0)
    if name == "tadpole":
        return tadpole_graph()
    if name == "star":
        return star_graph(int(arg) if arg else 3)
    raise GraphError(f"unknown builtin graph {spec!r}")

