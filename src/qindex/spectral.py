"""Eigenvalue solvers for the signless Laplacian Q = A + D and the
adjacency matrix A.

Largest eigenvalue: power iteration on the entrywise-nonnegative matrix,
per connected component (so the iteration always acts on a primitive
matrix and converges geometrically).  Convergence is certified by the
residual ||Mx - qx|| <= ``DEFAULT_TOL``; after ``DEFAULT_MAX_ITER`` steps
the solver falls back to a full LAPACK decomposition (``numpy.linalg.eigh``)
rather than failing silently; both are fixed module constants.  The whole
spectrum comes from LAPACK (``numpy.linalg.eigvalsh``), and so do the
annealing hunt's score of each proposal (``search.heuristic_max_q``) and
the exhaustive scans' screening scores (``search._screened_q``); every q a
report prints or decides by comes from ``q_index``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Unsupported
from .graphs import Graph, _bits

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10 ** 6


@dataclass(frozen=True)
class SpectralResult:
    """Largest eigenvalue with its certified eigenvector.

    value     largest eigenvalue of the requested matrix
    vector    unit eigenvector, zero outside the winning component
    residual  ||M @ vector - value * vector||_2 at return
    iterations  total power-iteration steps spent (all components)
    method    'iterative' if the winning component converged by power
              iteration, 'full' if it hit the iteration cap and was
              solved by LAPACK instead
    """

    value: float
    vector: np.ndarray
    residual: float
    iterations: int
    method: str


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in _bits(g.adj[u]):
            a[u, v] = 1.0
    return a


def q_matrix(g: Graph) -> np.ndarray:
    a = adjacency_matrix(g)
    return a + np.diag(a.sum(axis=1))


def _power_largest(m: np.ndarray, tol: float, max_iter: int):
    """Power iteration; returns (value, unit vector, residual, iters, converged)."""
    k = m.shape[0]
    x = np.full(k, 1.0 / np.sqrt(k))
    lam = 0.0
    res = np.inf
    it = 0
    while it < max_iter:
        it += 1
        y = m @ x
        lam = float(x @ y)
        res = float(np.linalg.norm(y - lam * x))
        if res <= tol:
            return lam, x, res, it, True
        norm = np.linalg.norm(y)
        if norm == 0.0:
            # x is in the nullspace and the matrix is nonnegative: 0 is top
            return 0.0, x, 0.0, it, True
        x = y / norm
    return lam, x, res, it, False


def _component_matrix(g: Graph, comp_mask: int, which: str) -> tuple[np.ndarray, list[int]]:
    verts = list(_bits(comp_mask))
    pos = {u: i for i, u in enumerate(verts)}
    k = len(verts)
    m = np.zeros((k, k))
    for u in verts:
        for w in _bits(g.adj[u] & comp_mask):
            m[pos[u], pos[w]] = 1.0
    if which == "Q":
        m += np.diag(m.sum(axis=1))
    return m, verts


def _largest_per_component(g: Graph, which: str) -> SpectralResult:
    best_val = 0.0
    best_vec = None
    best_verts: list[int] = [0]
    best_res = 0.0
    best_method = "iterative"
    total_iters = 0
    for comp in g.components():
        if comp.bit_count() == 1:
            continue  # isolated vertex contributes eigenvalue 0
        m, verts = _component_matrix(g, comp, which)
        shift = 0.0
        if which == "A":
            # make the matrix entrywise nonnegative with positive diagonal
            shift = float(m.sum(axis=1).max()) + 1.0
            m = m + shift * np.eye(len(verts))
        val, vec, res, iters, ok = _power_largest(m, DEFAULT_TOL, DEFAULT_MAX_ITER)
        total_iters += iters
        method = "iterative"
        if not ok:
            w, vmat = np.linalg.eigh(m)
            val = float(w[-1])
            vec = vmat[:, -1]
            if vec.sum() < 0:
                vec = -vec
            res = float(np.linalg.norm(m @ vec - val * vec))
            method = "full"
        val -= shift
        if best_vec is None or val > best_val:
            best_val, best_vec, best_verts, best_res, best_method = val, vec, verts, res, method
    n = g.n
    vector = np.zeros(n)
    if best_vec is None:
        vector[0] = 1.0  # edgeless graph: eigenvalue 0, any unit vector
    else:
        for i, u in enumerate(best_verts):
            vector[u] = best_vec[i]
    return SpectralResult(best_val, vector, best_res, total_iters, best_method)


def q_index(g: Graph) -> SpectralResult:
    """Largest eigenvalue of the signless Laplacian A + D."""
    return _largest_per_component(g, "Q")


def adjacency_radius(g: Graph) -> SpectralResult:
    """Largest eigenvalue (spectral radius) of the adjacency matrix."""
    return _largest_per_component(g, "A")


def full_spectrum(g: Graph, matrix: str = "Q") -> list[float]:
    """All n eigenvalues of Q or A, ascending, from LAPACK."""
    if matrix not in ("Q", "A"):
        raise Unsupported(f"matrix must be 'Q' or 'A', got {matrix!r}")
    m = q_matrix(g) if matrix == "Q" else adjacency_matrix(g)
    return np.linalg.eigvalsh(m).tolist()

