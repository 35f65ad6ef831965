"""Band Cholesky factorization in reverse Cuthill-McKee order, plus the
Takahashi recurrences for selected inversion.

The meshes of metric graphs are nearly 1-D, so reverse Cuthill-McKee (RCM)
brings their matrices to a small bandwidth bw.  The permuted matrix
P A P^T = G G^T is factored by LAPACK's band Cholesky (dpbtrf); G is lower
triangular with the same bandwidth, and solves and sampling are LAPACK band
triangular solves.

Selected inversion runs the Takahashi recurrences (Takahashi, Fagan & Chen
1973; Rue & Held 2005, sec. 2.4) for Z = (P A P^T)^{-1} over blocks of
s >= bw columns.  On such blocks G is block lower-bidiagonal, so

    Z_{k+1,k} = -Z_{k+1,k+1} G_{k+1,k} G_kk^{-1}
    Z_kk      = G_kk^{-T} G_kk^{-1} - Z_{k+1,k}^T G_{k+1,k} G_kk^{-1}

from the last block to the first, with G_kk^{-1} from LAPACK's triangular
inverse (dtrtri).  That is O(n s^2) work in BLAS and gives every entry of Z
within the band.  `selected_inverses` sweeps a stack of nf factors of one
order (the m+1 blocks of a field model; one factor is the stack of one) and
returns per factor only the entries asked for: the sweep buffers a span of
band columns of the stack and reads the requested entries out of each span
once it is done, so no band of Z is held whole.  Narrower bands are
zero-padded, the products are batched matmuls over the stack, and the block
size is s = max(bw, round(32 / nf^(1/3))), so that a step's O(nf s^3) work
stays near that of one 32-column block of one factor.

Factorization is split into a symbolic and a numeric step, as in CHOLMOD's
analyse/factorize (Chen, Davis, Hager & Rajamanickam 2008).  `Analysis`
depends on the sparsity pattern only: it takes the RCM order (or an order
the caller gives, such as the node-major order of a stacked system) and
computes bw and the band slot of every stored entry.  The numeric step in
`SparseCholesky` scatters the values into the band and runs dpbtrf.  A
factor built with the analysis of an earlier one reuses it, order included,
when the pattern (indptr and indices) is equal, and analyses afresh
otherwise, so matrices that share a pattern (the blocks of one model, one
likelihood evaluation after another) pay for the ordering once.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dtbtrs, dtrtri
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

# A step of the selected-inverse sweep over nf factors does O(nf s^3) work on
# blocks of s columns; s is chosen so that this stays about _BLOCK^3, the work
# below which the per-step Python overhead outweighs what smaller blocks save.
_BLOCK = 32
# Entries of the stacked bands held at once by the sweep (0.5 MiB each for
# the factors and for their inverses).
_SPAN = 1 << 16


class NotSPDError(np.linalg.LinAlgError):
    """Factorization failed at position `pivot_index` of the RCM ordering,
    which is row `row` of the matrix as given."""

    def __init__(self, k, row):
        super().__init__(f"matrix is not positive definite (pivot {k} <= 0, row {row})")
        self.pivot_index = k
        self.row = row


class Analysis:
    """Symbolic analysis of the pattern of a square CSR matrix A: the order
    perm (row perm[k] of A is row k of P A P^T; the RCM order unless a
    permutation of range(n) is given), the bandwidth bw of the permuted
    pattern, and the LAPACK lower band slot of every stored entry in the
    lower triangle.  Holds no values."""

    def __init__(self, A, perm=None):
        n = A.shape[0]
        self.n = n
        # copies: an in-place change to A's structure (sort_indices) must not
        # change the pattern this analysis claims to describe
        self.indptr, self.indices = A.indptr.copy(), A.indices.copy()
        if perm is None:
            perm = reverse_cuthill_mckee(A, symmetric_mode=True) if n else np.arange(0)
        elif not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"perm is not a permutation of range({n})")
        self.perm = np.asarray(perm, dtype=np.int64)
        self.iperm = np.empty(n, dtype=np.int64)
        self.iperm[self.perm] = np.arange(n)

        rows = np.repeat(np.arange(n), np.diff(A.indptr))
        i, j = self.iperm[rows], self.iperm[A.indices]
        self.bw = int(np.abs(i - j).max()) if i.size else 0
        self.low = np.flatnonzero(i >= j)  # stored entries in the lower band
        # [d, col] of the (bw + 1, n) Fortran-ordered band is element
        # col * (bw + 1) + d of its memory
        self.slots = j[self.low] * (self.bw + 1) + (i - j)[self.low]
        self._summed = not A.has_canonical_format and \
            np.unique(self.slots).size < self.slots.size

    def fits(self, A) -> bool:
        """Whether A (CSR) has the analysed pattern."""
        return A.shape[0] == self.n and same_pattern(A, self.indptr, self.indices)

    def band(self, data) -> np.ndarray:
        """The lower band storage of the permuted matrix with stored values
        `data` (duplicates summed in storage order)."""
        ab = np.zeros((self.bw + 1, self.n), order="F")
        flat = ab.ravel(order="F")  # a view of the Fortran-ordered band
        if self._summed:
            np.add.at(flat, self.slots, data[self.low])
        else:
            flat[self.slots] = data[self.low]
        return ab


def _same(a, b) -> bool:
    return a is b or np.array_equal(a, b)


def same_pattern(A, indptr, indices) -> bool:
    """Whether the CSR matrix A has the pattern (indptr, indices)."""
    return _same(A.indptr, indptr) and _same(A.indices, indices)


class SparseCholesky:
    """P A P^T = G G^T with G lower triangular of bandwidth bw.

    Parameters
    ----------
    A : sparse matrix, symmetric positive definite
    analysis : optional Analysis, e.g. an earlier factor's `analysis`
        Reused, with its order, when A has the pattern it was made for;
        otherwise the pattern is analysed afresh in RCM order.  The factor
        is the same as a fresh one of the same order either way.
    """

    def __init__(self, A, analysis=None):
        A = A if isinstance(A, csr_matrix) else csr_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if analysis is None or not analysis.fits(A):
            analysis = Analysis(A)
        self.analysis = analysis
        self.n, self.bw, self.perm = analysis.n, analysis.bw, analysis.perm
        self._iperm = analysis.iperm
        perm = self.perm
        self._G, info = dpbtrf(analysis.band(A.data), lower=1, overwrite_ab=1)
        if info > 0:
            raise NotSPDError(info - 1, int(perm[info - 1]))
        bad = np.flatnonzero(~np.isfinite(self._G[0]))
        if bad.size:
            raise NotSPDError(int(bad[0]), int(perm[bad[0]]))

    # -- solves ---------------------------------------------------------------

    def _unpermute(self, y):
        out = np.empty_like(y)
        out[self.perm] = y
        return out

    def solve(self, b):
        """A^{-1} b for a vector or a dense matrix of right-hand sides."""
        b = np.asarray(b, dtype=float)
        if not b.size:  # LAPACK is not called with zero columns
            return b.copy()
        x, _ = dpbtrs(self._G, b[self.perm], lower=1)
        return self._unpermute(x)

    def sample_backsolve(self, z):
        """x = P^T G^{-T} z, so that Cov(x) = A^{-1} for z ~ N(0, I)."""
        z = np.asarray(z, dtype=float)
        if not z.size:  # dtbtrs corrupts the heap when given zero columns
            return z.copy()
        x, _ = dtbtrs(self._G, z, uplo="L", trans="T")
        return self._unpermute(x)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(self._G[0])))

    # -- selected inversion (Takahashi equations) -----------------------------

    def selected_inverse(self, rows, cols) -> np.ndarray:
        """Entries (rows[t], cols[t]) of A^{-1}: `selected_inverses` on the
        stack of one."""
        return selected_inverses([self], [(rows, cols)])[0]


def selected_inverses(factors, pairs) -> list[np.ndarray]:
    """For each factor F (of a matrix A) of the stack and its (rows, cols) in
    pairs, the entries (rows[t], cols[t]) of A^{-1}, shaped like rows, all
    from one Takahashi sweep over the stack (see the module docstring).  The
    factors must have one order n, and every pair must lie within its
    factor's band: A's own pattern does, and so does any pair that the
    factor's order puts at most bw apart."""
    n = factors[0].n
    if any(F.n != n for F in factors):
        raise ValueError("stacked factors must have equal order")
    nf, bw = len(factors), max(F.bw for F in factors)
    # factors of one analysis that ask for the same arrays share one plan
    plans, plan = {}, []
    for F, (r, c) in zip(factors, pairs):
        ident = (id(F.analysis), id(r), id(c))
        if ident not in plans:
            plans[ident] = _plan(F, r, c, bw)
        plan.append(plans[ident])
    out = [np.empty(order.size) for order, _ in plan]
    s = max(bw, round(_BLOCK / nf ** (1 / 3)), 1)
    span = max(1, min(n, s * max(1, _SPAN // (nf * (bw + 1) * s))))
    G_buf = np.zeros((nf, bw + 1, span))
    Z_buf = np.empty((nf, span, bw + 1))  # [f, j, d]: factor f's Z[lo + j + d, lo + j]
    a, diag_row, diag_in, sub_row, sub_in, rows = _tables(s, bw)
    Z_next = None  # Z_{k+1,k+1}
    for lo in range((n - 1) // span * span, -1, -span):  # band columns [lo, lo + width)
        width = min(span, n - lo)
        G, Z = G_buf[:, :, :width], Z_buf[:, :width]
        for g, F in zip(G, factors):
            g[:F.bw + 1] = F._G[:, lo:lo + width]
        for c0 in range(lo + (width - 1) // s * s, lo - 1, -s):
            w = min(s, n - c0)       # width of this block
            h = min(s, n - c0 - w)   # height of the block below it
            cols = c0 - lo + a[:w]
            inv = np.where(diag_in[:w, :w], G[:, diag_row[:w, :w], cols], 0.0)  # G_kk
            for g in inv:
                g[:], _ = dtrtri(g, lower=1)  # now G_kk^{-1}
            Z_kk = inv.transpose(0, 2, 1) @ inv
            column = np.zeros((nf, w + s, w))  # [Z_kk; Z_{k+1,k}; zero padding]
            if h:
                G_sub = np.where(sub_in[:h, :w], G[:, sub_row[:h, :w], cols], 0.0)
                W = G_sub @ inv  # G_{k+1,k} G_kk^{-1}
                Z_sub = -(Z_next @ W)
                Z_kk -= Z_sub.transpose(0, 2, 1) @ W
                column[:, w:w + h] = Z_sub
            Z_kk = 0.5 * (Z_kk + Z_kk.transpose(0, 2, 1))
            column[:, :w] = Z_kk
            Z[:, cols] = column[:, rows[:w], a[:w, None]]
            Z_next = Z_kk
        first = lo * (bw + 1)  # the key of Z[lo, lo]; z.ravel()[t] has key first + t
        for z, (order, key), o in zip(Z, plan, out):  # the entries in these columns
            start, stop = key.searchsorted((first, first + width * (bw + 1)))
            o[order[start:stop]] = z.ravel()[key[start:stop] - first]
    return [o.reshape(np.shape(r)) for o, (r, _) in zip(out, pairs)]


@functools.lru_cache(maxsize=16)
def _tables(s, bw):
    """Index tables of a block step, for blocks of s columns and bandwidth bw;
    the last maps [j, d] to row j + d of a column block."""
    a = np.arange(s)
    # G[c0 + r + i, c0 + j] sits in band row r + i - j of column c0 + j, with
    # r = 0 for the diagonal block and r = s for the one below it (masked
    # where outside the band, so any row index will do there)
    d = a[:, None] - a
    return (a, d % (bw + 1), (d >= 0) & (d <= bw), (d + s) % (bw + 1), d + s <= bw,
            a[:, None] + np.arange(bw + 1))


def _plan(F, rows, cols, bw):
    """(order, key): the keys j * (bw + 1) + d of the pairs (rows, cols), the
    entries Z[j + d, j] of F's permuted inverse, sorted; pair order[t] has key[t]."""
    rows, cols = np.ravel(rows), np.ravel(cols)
    i, j = F._iperm[rows], F._iperm[cols]
    key = np.abs(i - j, out=i - j)  # in place where it can be: pairs may be many
    if key.max(initial=0) > F.bw:
        t = np.flatnonzero(key > F.bw)[0]
        raise ValueError(f"entry ({rows[t]}, {cols[t]}) lies outside the "
                         f"computed band (bandwidth {F.bw})")
    np.minimum(i, j, out=i)
    i *= bw + 1
    key += i
    del i, j
    order = np.argsort(key)
    return order, key[order]
