from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg.lapack import dpotrf

from graphfield.assembly import operator_matrix, shift_diagonal
from graphfield import cholesky
from graphfield.cholesky import Analysis, NotSPDError, SparseCholesky, selected_inverses
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


def band_pairs(F):
    """(rows, cols): every pair (perm[j + d], perm[j]) within F's band,
    d = 0..bw, in the factored matrix's numbering."""
    d = np.concatenate([np.full(F.n - k, k) for k in range(F.bw + 1)])
    j = np.concatenate([np.arange(F.n - k) for k in range(F.bw + 1)])
    return F.perm[j + d], F.perm[j]


def test_selected_inverse_diag(operator):
    F = SparseCholesky(operator)
    dense = np.diag(np.linalg.inv(operator.toarray()))
    diag = np.empty_like(dense)
    diag[F.perm] = F.selected_inverse(F.perm, F.perm)
    assert np.abs(diag - dense).max() < 1e-12


def test_selected_inverse_matches_dense_on_pattern():
    rng = np.random.default_rng(2)
    A = sparse.random(50, 50, density=0.08, random_state=rng)
    A = sparse.csr_matrix(A + A.T + 30 * sparse.eye(50))
    F = SparseCholesky(A)
    rows, cols = band_pairs(F)
    got = F.selected_inverse(rows, cols)
    inv = np.linalg.inv(A.toarray())
    assert got.shape == rows.shape
    assert np.abs(got - inv[rows, cols]).max() < 1e-12


def test_selected_inverse_outside_band_raises(operator):
    """The error names the first pair outside the band and the bandwidth of
    the factor it was asked of, also when that is the second of a stack."""
    F = SparseCholesky(operator)
    assert F.bw < operator.shape[0] - 1
    first, last = F.perm[0], F.perm[-1]
    message = rf"entry \({first}, {last}\) lies outside the computed band \(bandwidth {F.bw}\)"
    with pytest.raises(ValueError, match=message):
        F.selected_inverse([first, first], [first, last])
    nodes = np.arange(F.n)
    with pytest.raises(ValueError, match=message):
        selected_inverses([SparseCholesky(operator), F],
                          [(nodes, nodes), ([first, first, last], [first, last, first])])


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
    rows, cols = band_pairs(F)
    assert np.abs(F.selected_inverse(rows, cols) - inv[rows, cols]).max() \
        < 1e-12 * np.abs(inv).max()

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


def factor_stack(mesh, kappa, kinds, shift=1.0):
    """Matrices of one mesh and their factors, of mixed bandwidths: the
    operator L, L + shift C, the wider S = L C^-1 L plus diag(S), and the
    diagonal C.  S alone is conditioned up to about 1e5 on these meshes,
    where no inverse, dense or selected, is good to 1e-12 relative; adding
    diag(S) keeps the comparison meaningful."""
    L, c = operator_matrix(mesh, kappa)
    S = sparse.csr_matrix(L @ sparse.diags(1.0 / c) @ L)
    make = {"L": lambda: L, "shift": lambda: shift_diagonal(mesh, L, shift * c),
            "square": lambda: sparse.csr_matrix(S + sparse.diags(S.diagonal())),
            "mass": lambda: sparse.diags(c).tocsr()}
    mats = [make[k]() for k in kinds]
    return mats, [SparseCholesky(A) for A in mats]


@st.composite
def factor_stacks(draw):
    kinds = draw(st.lists(st.sampled_from(["L", "shift", "square", "mass"]),
                          min_size=1, max_size=4))
    return factor_stack(draw(random_meshes()), draw(st.floats(0.5, 5.0)), kinds,
                        draw(st.floats(0.1, 10.0)))


@settings(max_examples=30, deadline=None)
@given(stack=factor_stacks(), small_span=st.booleans())
@example(stack=factor_stack(build_mesh(tadpole_graph(), 0.05), 2.0, ["L", "square", "mass"]),
         small_span=True)  # n = 60 in blocks of 22
def test_stacked_selected_inverses_match_dense_and_single(stack, small_span):
    """Every in-band entry of a stacked sweep matches the dense inverse and
    the stack of one, also when the stack is swept a block of columns at a
    time."""
    mats, factors = stack
    pairs = [band_pairs(F) for F in factors]
    with mock.patch.object(cholesky, "_SPAN", 1 if small_span else cholesky._SPAN):
        got = selected_inverses(factors, pairs)
    for A, F, (rows, cols), z in zip(mats, factors, pairs, got):
        inv = np.linalg.inv(A.toarray())
        tol = 1e-12 * np.abs(inv).max()
        assert z.shape == rows.shape
        assert np.abs(z - inv[rows, cols]).max() <= tol
        assert np.abs(z - F.selected_inverse(rows, cols)).max() <= tol


def test_factors_of_one_analysis_share_a_request(operator):
    """Factors of one analysis asked for the same arrays (as a model's block
    factors are for their diagonals) get what they get with arrays of their
    own."""
    F = SparseCholesky(operator)
    twice = SparseCholesky(sparse.csr_matrix((2.0 * operator.data, operator.indices,
                                              operator.indptr), shape=operator.shape),
                           analysis=F.analysis)
    assert twice.analysis is F.analysis
    stack = [F, twice, F]
    rows, cols = band_pairs(F)
    shared = selected_inverses(stack, [(rows, cols)] * 3)
    own = selected_inverses(stack, [band_pairs(G) for G in stack])
    for z, o in zip(shared, own):
        assert np.array_equal(z, o)
    inv = np.linalg.inv(operator.toarray())
    assert np.abs(2 * shared[1] - inv[rows, cols]).max() < 1e-12 * np.abs(inv).max()


def test_stacked_factors_must_share_their_order(operator):
    with pytest.raises(ValueError, match="equal order"):
        selected_inverses([SparseCholesky(operator), SparseCholesky(operator[1:, 1:])],
                          [([0], [0])] * 2)


def assert_same_factor(got, want):
    """Bit-for-bit equality of two factors and of what they compute."""
    assert got.bw == want.bw
    assert np.array_equal(got.perm, want.perm)
    assert np.array_equal(got._G, want._G)
    b = np.linspace(-1.0, 1.0, want.n)
    assert np.array_equal(got.solve(b), want.solve(b))
    assert got.logdet() == want.logdet()
    rows, cols = band_pairs(want)
    assert np.array_equal(got.selected_inverse(rows, cols), want.selected_inverse(rows, cols))


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


@settings(max_examples=25, deadline=None)
@given(mesh=random_meshes(), kappa=st.floats(0.5, 5.0))
def test_other_pattern_is_analysed_afresh(mesh, kappa):
    L, c = operator_matrix(mesh, kappa)
    analysis = SparseCholesky(L).analysis
    n = L.shape[0]
    # a wider pattern, the same pattern renumbered, and a pattern with one
    # off-diagonal pair dropped
    wider = sparse.csr_matrix(L @ sparse.diags(1.0 / c) @ L)
    order = np.random.default_rng(n).permutation(n)
    renumbered = sparse.csr_matrix(L[order][:, order])
    dropped = L.tolil()
    i, j = mesh.seg_nodes[0]
    if i != j:
        dropped[i, j] = dropped[j, i] = 0.0
    dropped = sparse.csr_matrix(dropped)
    dropped.eliminate_zeros()
    for A in (wider, renumbered, dropped):
        F = SparseCholesky(A, analysis=analysis)
        assert F.analysis is not analysis
        assert_same_factor(F, SparseCholesky(A))
        assert np.abs(A @ F.solve(np.ones(n)) - 1.0).max() < 1e-8


def test_analysis_without_values_matches_the_factor(operator):
    an = Analysis(operator)
    F = SparseCholesky(operator)
    assert an.bw == F.bw and np.array_equal(an.perm, F.perm)
    assert SparseCholesky(operator, analysis=an).analysis is an


def test_given_order_is_kept_and_factors_correctly(operator):
    """An analysis of a given order keeps it, and a factor of that analysis
    solves and inverts like the dense inverse, whatever the band width the
    order makes; a factor reusing it keeps the order too."""
    n = operator.shape[0]
    inv = np.linalg.inv(operator.toarray())
    b = np.linspace(-1.0, 1.0, n)
    for perm in (np.random.default_rng(5).permutation(n), np.arange(n)[::-1]):
        an = Analysis(operator, perm=perm)
        assert np.array_equal(an.perm, perm)
        F = SparseCholesky(operator, analysis=an)
        assert F.analysis is an and np.array_equal(F.perm, perm)
        assert np.abs(F.solve(b) - inv @ b).max() < 1e-12 * np.abs(inv @ b).max()
        rows, cols = band_pairs(F)
        assert np.abs(F.selected_inverse(rows, cols) - inv[rows, cols]).max() \
            < 1e-12 * np.abs(inv).max()


@pytest.mark.parametrize("perm", [[0, 1, 1], [0, 1], [1, 2, 3], [[0, 1, 2]], [0.0, 1.5, 2.0]])
def test_non_permutation_order_raises(perm):
    A = sparse.csr_matrix(np.array([[4.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 4.0]]))
    with pytest.raises(ValueError, match=r"not a permutation of range\(3\)"):
        Analysis(A, perm=perm)


def test_kriging_and_likelihood_share_one_node_major_analysis(monkeypatch):
    """Kriging (mean, then variance) and the likelihood with its gradient on
    one model (K = 3 blocks) and observation set build one analysis of the
    stacked K N system, in node-major order, and factor on it all three
    times."""
    from graphfield.field import FieldModel
    from graphfield.graph import GraphPoint
    from graphfield.inference import ObservationSet, kriging, log_likelihood

    mesh = build_mesh(tadpole_graph(), 0.05)
    model = FieldModel.build(mesh, 0.75, 2.0, 1.0, m=2)
    N, K = model.N, model.n_blocks
    assert K == 3
    rng = np.random.default_rng(7)
    graph = mesh.graph
    edges = rng.integers(graph.n_edges, size=30)
    obs = ObservationSet([GraphPoint(int(e), rng.uniform(0, graph.edges[e].length))
                          for e in edges], rng.standard_normal(30), 0.3)
    stacked, factors = [], []
    init, factor_init = Analysis.__init__, SparseCholesky.__init__

    def counting(self, A, *args, **kwargs):
        init(self, A, *args, **kwargs)
        if A.shape[0] == K * N:
            stacked.append(self)

    def recording(self, A, *args, **kwargs):
        factor_init(self, A, *args, **kwargs)
        if A.shape[0] == K * N:
            factors.append(self)

    monkeypatch.setattr(Analysis, "__init__", counting)
    monkeypatch.setattr(SparseCholesky, "__init__", recording)
    kriging(model, obs)
    kriging(model, obs, compute_variance=True)
    log_likelihood(model, obs, gradient=True)
    assert len(stacked) == 1 and len(factors) == 3
    assert all(F.analysis is stacked[0] for F in factors)
    # copy r of node order[p] sits at K p + r
    order = stacked[0].perm[::K]
    assert np.array_equal(stacked[0].perm, (order[:, None] + N * np.arange(K)).ravel())


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
