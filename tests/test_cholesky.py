import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.lapack import dpotrf

from graphfield.assembly import operator_matrix
from graphfield.cholesky import NotSPDError, SparseCholesky
from graphfield.graph import MetricGraph, tadpole_graph
from graphfield.mesh import build_mesh


@pytest.fixture
def operator():
    mesh = build_mesh(tadpole_graph(), 0.05)
    L, c = operator_matrix(mesh, 2.0)
    return L


def test_solve_matches_dense(operator):
    rng = np.random.default_rng(0)
    F = SparseCholesky(operator)
    b = rng.standard_normal(operator.shape[0])
    x = F.solve(b)
    assert np.allclose(operator @ x, b, atol=1e-10)
    B = rng.standard_normal((operator.shape[0], 4))
    assert np.allclose(operator @ F.solve(B), B, atol=1e-10)


def test_logdet(operator):
    F = SparseCholesky(operator)
    _, ld = np.linalg.slogdet(operator.toarray())
    assert F.logdet() == pytest.approx(ld, rel=1e-12)


def test_selected_inverse_diag(operator):
    F = SparseCholesky(operator)
    dense = np.diag(np.linalg.inv(operator.toarray()))
    assert np.abs(F.selected_inverse_diag() - dense).max() < 1e-12


def test_selected_inverse_matches_dense_on_pattern():
    rng = np.random.default_rng(2)
    A = sparse.random(50, 50, density=0.08, random_state=rng)
    A = sparse.csr_matrix(A + A.T + 30 * sparse.eye(50))
    F = SparseCholesky(A)
    Z = F.selected_inverse()
    inv = np.linalg.inv(A.toarray())[F.perm][:, F.perm]
    assert Z.shape == (F.bw + 1, 50)
    for d in range(F.bw + 1):
        assert np.abs(Z[d, :50 - d] - np.diagonal(inv, -d)).max() < 1e-12


def test_inverse_entries_with_forced_pattern(operator):
    n = operator.shape[0]
    rows = np.array([0, 1, 2])
    cols = np.array([n - 1, n - 2, n - 3])
    F = SparseCholesky(operator, extra_pattern=(rows, cols))
    inv = np.linalg.inv(operator.toarray())
    got = F.inverse_entries(rows, cols)
    assert np.allclose(got, inv[rows, cols], atol=1e-13)


def test_inverse_entries_outside_band_raise(operator):
    F = SparseCholesky(operator)
    assert F.bw < operator.shape[0] - 1
    first, last = F.perm[0], F.perm[-1]
    with pytest.raises(ValueError, match="outside the computed band"):
        F.inverse_entries([first, first], [first, last])


def test_not_spd_raises():
    A = sparse.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotSPDError):
        SparseCholesky(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_pivot_raises(bad):
    A = np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
    A[1, 1] = bad
    with pytest.raises(NotSPDError) as err:
        SparseCholesky(sparse.csr_matrix(A))
    assert err.value.pivot_index == 1


def test_sampling_backsolve_covariance():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((6, 6))
    A = sparse.csr_matrix(M @ M.T + 6 * np.eye(6))
    F = SparseCholesky(A)
    Z = rng.standard_normal((6, 400_000))
    X = F.sample_backsolve(Z)
    emp = X @ X.T / Z.shape[1]
    assert np.abs(emp - np.linalg.inv(A.toarray())).max() < 5e-3


@st.composite
def graph_operators(draw):
    """Operator matrices on random connected metric graphs: a hub of degree
    5-12 plus extra edges that close cycles (self-loops and parallel edges
    included)."""
    hub = draw(st.integers(5, 12))
    lengths = st.floats(0.2, 1.5)
    edges = [(0, v, draw(lengths)) for v in range(1, hub + 1)]
    for _ in range(draw(st.integers(1, 6))):
        u, v = draw(st.integers(0, hub)), draw(st.integers(0, hub))
        edges.append((u, v, draw(lengths)))
    mesh = build_mesh(MetricGraph(list(range(hub + 1)), edges), draw(st.floats(0.1, 0.3)))
    L, _ = operator_matrix(mesh, draw(st.floats(0.5, 5.0)))
    return L


@settings(max_examples=40, deadline=None)
@given(A=graph_operators(), flip=st.floats(0, 1))
def test_factor_properties_on_random_graphs(A, flip):
    n = A.shape[0]
    dense = A.toarray()
    F = SparseCholesky(A)
    b = np.linspace(-1.0, 1.0, n)
    assert np.abs(dense @ F.solve(b) - b).max() < 1e-10
    assert F.logdet() == pytest.approx(np.linalg.slogdet(dense)[1], rel=1e-12, abs=1e-12 * n)
    inv = np.linalg.inv(dense)
    Zp = inv[F.perm][:, F.perm]
    Z = F.selected_inverse()
    for d in range(F.bw + 1):
        assert np.abs(Z[d, :n - d] - np.diagonal(Zp, -d)).max() < 1e-12 * np.abs(inv).max()

    # a negated diagonal entry makes the first nonpositive pivot exactly its
    # position in the ordering; the dense Cholesky of P A P^T agrees
    j = min(int(flip * n), n - 1)
    B = A.tolil()
    B[j, j] = -B[j, j]
    with pytest.raises(NotSPDError) as err:
        SparseCholesky(B.tocsr())
    k = int(np.flatnonzero(F.perm == j)[0])
    assert err.value.pivot_index == k
    assert err.value.row == j
    assert f"row {j})" in str(err.value)
    _, info = dpotrf(B.toarray()[F.perm][:, F.perm], lower=1)
    assert info - 1 == k
