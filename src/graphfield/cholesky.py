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

from the last block to the first.  That is O(n s^2) work in BLAS and
O(n bw) memory, and gives every entry of Z within the band.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotri, dtbtrs, dtrtrs
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee

# Smallest column block of the selected-inverse sweep: below it the per-block
# Python overhead outweighs the O(s^2) work saved per column.
_MIN_BLOCK = 32


class NotSPDError(np.linalg.LinAlgError):
    def __init__(self, k):
        super().__init__(f"matrix is not positive definite (pivot {k} <= 0)")
        self.pivot_index = k


class SparseCholesky:
    """P A P^T = G G^T with G lower triangular of bandwidth bw.

    Parameters
    ----------
    A : sparse matrix, symmetric positive definite
    order : "rcm" | "natural"
        Bandwidth-reducing permutation (reverse Cuthill-McKee by default).
    extra_pattern : optional (rows, cols) arrays
        Structural zeros added to A's pattern before ordering, so that the
        pairs lie within the band and `inverse_entries` can return them.
    """

    def __init__(self, A, order: str = "rcm", extra_pattern=None):
        A = csr_matrix(A)
        n = A.shape[0]
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        if extra_pattern is not None:
            r = np.asarray(extra_pattern[0], dtype=np.int64)
            c = np.asarray(extra_pattern[1], dtype=np.int64)
            co = A.tocoo()
            A = coo_matrix(
                (
                    np.concatenate([co.data, np.zeros(2 * len(r))]),
                    (
                        np.concatenate([co.row, r, c]),
                        np.concatenate([co.col, c, r]),
                    ),
                ),
                shape=A.shape,
            ).tocsr()  # sums duplicates, keeps structural zeros
        self.n = n
        if order == "rcm" and n > 1:
            perm = np.asarray(reverse_cuthill_mckee(A, symmetric_mode=True))
        else:
            perm = np.arange(n)
        self.perm = perm
        self._iperm = np.empty(n, dtype=np.int64)
        self._iperm[perm] = np.arange(n)

        co = A.tocoo()
        co.sum_duplicates()
        i, j = self._iperm[co.row], self._iperm[co.col]
        self.bw = int(np.abs(i - j).max()) if co.nnz else 0
        low = i >= j
        ab = np.zeros((self.bw + 1, n), order="F")
        ab[i[low] - j[low], j[low]] = co.data[low]  # LAPACK lower band storage
        self._G, info = dpbtrf(ab, lower=1, overwrite_ab=1)
        if info > 0:
            raise NotSPDError(info - 1)
        bad = np.flatnonzero(~np.isfinite(self._G[0]))
        if bad.size:
            raise NotSPDError(int(bad[0]))

    # -- solves ---------------------------------------------------------------

    def _unpermute(self, y):
        out = np.empty_like(y)
        out[self.perm] = y
        return out

    def solve(self, b):
        """A^{-1} b for a vector or a dense matrix of right-hand sides."""
        b = np.asarray(b, dtype=float)
        x, _ = dpbtrs(self._G, b[self.perm], lower=1)
        return self._unpermute(x)

    def sample_backsolve(self, z):
        """x = P^T G^{-T} z, so that Cov(x) = A^{-1} for z ~ N(0, I)."""
        x, _ = dtbtrs(self._G, np.asarray(z, dtype=float), uplo="L", trans="T")
        return self._unpermute(x)

    def logdet(self) -> float:
        return 2.0 * float(np.sum(np.log(self._G[0])))

    # -- selected inversion (Takahashi equations) -----------------------------

    def selected_inverse(self) -> np.ndarray:
        """The band of Z = (P A P^T)^{-1}, in the factor's band storage.

        Returns a (bw + 1, n) array whose entry [d, j] is Z[j + d, j] (zero
        where j + d >= n); Z is symmetric, so this is every entry of Z with
        |i - j| <= bw.  `inverse_entries` maps back to A's numbering.
        """
        n, bw, G = self.n, self.bw, self._G
        s = max(bw, _MIN_BLOCK)
        a = np.arange(s)
        # G[c0 + r + i, c0 + j] sits in band row r + i - j of column c0 + j,
        # with r = 0 for the diagonal block and r = s for the one below it
        d = a[:, None] - a
        diag_row, diag_in = np.clip(d, 0, bw), (d >= 0) & (d <= bw)
        sub_row, sub_in = np.clip(d + s, 0, bw), d + s <= bw
        rows = a + np.arange(bw + 1)[:, None]  # Z[j + d, j] within a column block
        Z = np.zeros((bw + 1, n))
        Z_next = None  # Z_{k+1,k+1}
        for c0 in range((n - 1) // s * s, -1, -s):
            w = min(s, n - c0)       # width of this block
            h = min(s, n - c0 - w)   # height of the block below it
            cols = c0 + a[:w]
            G_kk = np.where(diag_in[:w, :w], G[diag_row[:w, :w], cols], 0.0)
            inv, _ = dpotri(G_kk, lower=1)  # lower triangle of G_kk^{-T} G_kk^{-1}
            column = np.zeros((w + s, w))   # [Z_kk; Z_{k+1,k}; zero padding]
            column[:w] = inv + np.tril(inv, -1).T
            if h:
                G_sub = np.where(sub_in[:h, :w], G[sub_row[:h, :w], cols], 0.0)
                # W = G_{k+1,k} G_kk^{-1}, from G_kk^T W^T = G_{k+1,k}^T
                Wt, _ = dtrtrs(G_kk, G_sub.T, lower=1, trans=1)
                Z_sub = -Z_next @ Wt.T
                M = Z_sub.T @ Wt.T
                column[:w] -= 0.5 * (M + M.T)
                column[w:w + h] = Z_sub
            Z[:, c0:c0 + w] = column[rows[:, :w], a[:w]]
            Z_next = column[:w]
        return Z

    def selected_inverse_diag(self) -> np.ndarray:
        """diag(A^{-1}) via the Takahashi recurrences."""
        return self._unpermute(self.selected_inverse()[0])

    def inverse_entries(self, rows, cols) -> np.ndarray:
        """Entries (rows[t], cols[t]) of A^{-1}, all from one selected
        inversion.  Every pair must lie within the band: A's own pattern does,
        and extra_pattern at construction forces further pairs in."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        i, j = self._iperm[rows], self._iperm[cols]
        d = np.abs(i - j)
        outside = np.flatnonzero(d > self.bw)
        if outside.size:
            t = outside[0]
            raise ValueError(f"entry ({rows.flat[t]}, {cols.flat[t]}) lies outside the "
                             f"computed band (bandwidth {self.bw})")
        return self.selected_inverse()[d, np.minimum(i, j)]
