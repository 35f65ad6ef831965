"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from graphfield.graph import MetricGraph
from graphfield.mesh import build_mesh


@st.composite
def random_meshes(draw):
    """Meshes of random connected metric graphs: a hub of degree 5-12 plus
    extra edges that close cycles (self-loops and parallel edges included)."""
    hub = draw(st.integers(5, 12))
    lengths = st.floats(0.2, 1.5)
    edges = [(0, v, draw(lengths)) for v in range(1, hub + 1)]
    for _ in range(draw(st.integers(1, 6))):
        u, v = draw(st.integers(0, hub)), draw(st.integers(0, hub))
        edges.append((u, v, draw(lengths)))
    return build_mesh(MetricGraph(list(range(hub + 1)), edges), draw(st.floats(0.1, 0.3)))
