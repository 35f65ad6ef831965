"""Assembly of FEM matrices on a meshed metric graph.

All matrices are built from per-segment element contributions of the linear
hat basis.  Kirchhoff vertex conditions are the natural conditions of the
bilinear form: they are imposed implicitly by sharing one global node per
vertex and performing no boundary elimination.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix

from .mesh import Mesh


class AssumptionError(ValueError):
    """Coefficient function violates the positivity assumption."""


def _assemble(mesh: Mesh, diag: np.ndarray, off: np.ndarray) -> csr_matrix:
    """Symmetric CSR from per-segment element matrices [[diag, off], [off, diag]].

    Each diagonal entry sums its segments' terms in segment order.  An
    off-diagonal pair belongs to one segment, or to both segments of a
    2-segment self-loop, whose two-term sum does not depend on order.
    """
    n = mesh.N
    d = np.bincount(mesh.seg_nodes.ravel(), weights=np.repeat(diag, 2), minlength=n)
    i, j = mesh.seg_nodes.T
    rows = np.concatenate((np.arange(n), i, j))
    cols = np.concatenate((np.arange(n), j, i))
    return csr_matrix((np.concatenate((d, off, off)), (rows, cols)), shape=(n, n))


def assemble_mass(mesh: Mesh) -> csr_matrix:
    """Consistent mass matrix C with C_ij = (psi_i, psi_j).  Cached per mesh."""
    if "mass" not in mesh.matrix_cache:
        h = mesh.seg_h
        mesh.matrix_cache["mass"] = _assemble(mesh, h / 3.0, h / 6.0)
    return mesh.matrix_cache["mass"]


def assemble_stiffness(mesh: Mesh) -> csr_matrix:
    """Stiffness matrix G with G_ij = (psi_i', psi_j'); G @ 1 = 0.  Cached."""
    if "stiffness" not in mesh.matrix_cache:
        h = mesh.seg_h
        mesh.matrix_cache["stiffness"] = _assemble(mesh, 1.0 / h, -1.0 / h)
    return mesh.matrix_cache["stiffness"]


def lump_mass(C: csr_matrix) -> np.ndarray:
    """Lumped mass diagonal: row sums of C (the nodal control lengths)."""
    d = np.asarray(C.sum(axis=1)).ravel()
    if np.any(d <= 0):
        raise ValueError("lumped mass has nonpositive entries")
    return d


def coefficient_at_nodes(mesh: Mesh, func) -> np.ndarray:
    """Evaluate a coefficient (scalar, array of node values, or callable of
    GraphPoint) at all mesh nodes."""
    if callable(func):
        vals = np.array([func(p) for p in mesh.node_points()], dtype=float)
    else:
        vals = np.asarray(func, dtype=float)
        if vals.ndim == 0:
            vals = np.full(mesh.N, float(vals))
    if vals.shape != (mesh.N,):
        raise ValueError(f"coefficient has shape {vals.shape}, expected ({mesh.N},)")
    if not np.all(np.isfinite(vals)):
        raise AssumptionError("coefficient is not finite at every node")
    return vals


def positive_coefficient(mesh: Mesh, func, name: str) -> np.ndarray:
    vals = coefficient_at_nodes(mesh, func)
    if np.min(vals) <= 0:
        raise AssumptionError(
            f"Assumption 1 violated: {name} must be bounded below by a "
            f"positive constant (min sampled value {np.min(vals):g})"
        )
    return vals


def lumped_mass(mesh: Mesh) -> np.ndarray:
    """lump_mass(assemble_mass(mesh)), computed once per mesh (read-only)."""
    if "lumped_mass" not in mesh.matrix_cache:
        c = lump_mass(assemble_mass(mesh))
        c.flags.writeable = False
        mesh.matrix_cache["lumped_mass"] = c
    return mesh.matrix_cache["lumped_mass"]


def _diagonal_slots(mesh: Mesh) -> np.ndarray:
    """Positions of the diagonal entries in the stiffness matrix's data; G,
    and so every matrix on its pattern, stores every diagonal entry."""
    if "diagonal_slots" not in mesh.matrix_cache:
        G = assemble_stiffness(mesh)
        rows = np.repeat(np.arange(mesh.N), np.diff(G.indptr))
        mesh.matrix_cache["diagonal_slots"] = np.flatnonzero(G.indices == rows)
    return mesh.matrix_cache["diagonal_slots"]


def shift_diagonal(mesh: Mesh, M: csr_matrix, d: np.ndarray) -> csr_matrix:
    """M + diag(d) for M on the stiffness pattern of `mesh`, on that same
    pattern (index arrays shared with M): only the diagonal values change."""
    data = M.data.copy()
    data[_diagonal_slots(mesh)] += d
    return csr_matrix((data, M.indices, M.indptr), shape=M.shape)


def kappa_mass_diagonal(mesh: Mesh, kappa) -> np.ndarray:
    """Diagonal of the lumped kappa-weighted mass: kappa(s_i)^2 * Ctilde_ii."""
    k = positive_coefficient(mesh, kappa, "kappa")
    return k**2 * lumped_mass(mesh)


def operator_matrix(mesh: Mesh, kappa):
    """Discrete operator L = G + diag(kappa^2) Ctilde with Ctilde the lumped
    mass; returns (L, Ctilde diagonal as 1-D array).  L has G's pattern; the
    Ctilde diagonal is the mesh's cached, read-only array."""
    L = shift_diagonal(mesh, assemble_stiffness(mesh), kappa_mass_diagonal(mesh, kappa))
    return L, lumped_mass(mesh)

