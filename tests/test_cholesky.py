import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.lapack import dpotrf

from graphfield.assembly import operator_matrix, shift_diagonal
from graphfield.cholesky import Analysis, NotSPDError, SparseCholesky
from graphfield.graph import tadpole_graph
from graphfield.mesh import build_mesh

from strategies import random_meshes


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
    """Operator matrices on random connected metric graphs."""
    L, _ = operator_matrix(draw(random_meshes()), draw(st.floats(0.5, 5.0)))
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


def assert_same_factor(got, want):
    """Bit-for-bit equality of two factors and of what they compute."""
    assert got.bw == want.bw
    assert np.array_equal(got.perm, want.perm)
    assert np.array_equal(got._G, want._G)
    b = np.linspace(-1.0, 1.0, want.n)
    assert np.array_equal(got.solve(b), want.solve(b))
    assert got.logdet() == want.logdet()
    assert np.array_equal(got.selected_inverse(), want.selected_inverse())


@settings(max_examples=25, deadline=None)
@given(mesh=random_meshes(), kappa=st.floats(0.5, 5.0), shift=st.floats(0.1, 10.0))
def test_reused_analysis_gives_the_fresh_factor(mesh, kappa, shift):
    L, c = operator_matrix(mesh, kappa)
    first = SparseCholesky(L)
    A = shift_diagonal(mesh, L, shift * c)  # L's pattern, other values
    reused = SparseCholesky(A, analysis=first.analysis)
    assert reused.analysis is first.analysis
    assert_same_factor(reused, SparseCholesky(A))
    # a pattern held in fresh (equal, not identical) index arrays is reused too
    B = sparse.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)
    assert SparseCholesky(B, analysis=first.analysis).analysis is first.analysis
    # the same holds with forced pairs
    n = L.shape[0]
    extra = (np.array([0, 1]), np.array([n - 1, n - 2]))
    forced = SparseCholesky(L, extra_pattern=extra)
    reused = SparseCholesky(A, extra_pattern=(extra[0].copy(), extra[1].copy()),
                            analysis=forced.analysis)
    assert reused.analysis is forced.analysis
    assert_same_factor(reused, SparseCholesky(A, extra_pattern=extra))
    assert np.array_equal(reused.inverse_entries(*extra),
                          SparseCholesky(A, extra_pattern=extra).inverse_entries(*extra))


@settings(max_examples=25, deadline=None)
@given(mesh=random_meshes(), kappa=st.floats(0.5, 5.0))
def test_other_pattern_is_analysed_afresh(mesh, kappa):
    L, c = operator_matrix(mesh, kappa)
    analysis = SparseCholesky(L).analysis
    n = L.shape[0]
    # a wider pattern, the same pattern renumbered, a pattern with one
    # off-diagonal pair dropped, and L's pattern with other forced pairs
    wider = sparse.csr_matrix(L @ sparse.diags(1.0 / c) @ L)
    order = np.random.default_rng(n).permutation(n)
    renumbered = sparse.csr_matrix(L[order][:, order])
    dropped = L.tolil()
    i, j = mesh.seg_nodes[0]
    if i != j:
        dropped[i, j] = dropped[j, i] = 0.0
    dropped = sparse.csr_matrix(dropped)
    dropped.eliminate_zeros()
    for A, extra in ((wider, None), (renumbered, None), (dropped, None),
                     (L, ([0], [n - 1]))):
        F = SparseCholesky(A, extra_pattern=extra, analysis=analysis)
        assert F.analysis is not analysis
        assert_same_factor(F, SparseCholesky(A, extra_pattern=extra))
        assert np.abs(A @ F.solve(np.ones(n)) - 1.0).max() < 1e-8


def test_analysis_without_values_matches_the_factor(operator):
    an = Analysis(operator)
    F = SparseCholesky(operator)
    assert an.bw == F.bw and np.array_equal(an.perm, F.perm)
    assert SparseCholesky(operator, analysis=an).analysis is an


def test_duplicate_entries_are_summed_on_reuse():
    A = sparse.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    # the (1, 1) entry stored twice, as 3 + 1
    dup = sparse.csr_matrix((np.array([4.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0, 4.0]),
                             np.array([0, 1, 0, 1, 1, 2, 1, 2]),
                             np.array([0, 2, 6, 8])), shape=(3, 3))
    assert_same_factor(SparseCholesky(dup), SparseCholesky(A))
    first = SparseCholesky(dup)
    assert_same_factor(SparseCholesky(dup, analysis=first.analysis), SparseCholesky(A))


def test_analysis_survives_in_place_sorting_of_the_matrix(operator):
    # the same matrix stored with each row's indices reversed (not sorted)
    A = operator
    rows = [slice(A.indptr[i], A.indptr[i + 1]) for i in range(A.shape[0])]
    order = np.concatenate([np.arange(r.start, r.stop)[::-1] for r in rows])
    B = sparse.csr_matrix((A.data[order], A.indices[order], A.indptr.copy()), shape=A.shape)
    first = SparseCholesky(B)
    B.sort_indices()  # in place: B's index arrays now hold A's pattern
    F = SparseCholesky(B, analysis=first.analysis)
    assert F.analysis is not first.analysis
    assert_same_factor(F, SparseCholesky(A))
