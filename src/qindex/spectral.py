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

One builder, ``_matrices``, makes every Q and A matrix from neighbor
bitmasks, for one graph or a stack of same-order graphs alike.

This is the only module that imports numpy, and it does so on first use
inside each function that needs it, so a ``qx`` command that computes no
spectrum (``free-check``, ``bounds``, ``ledger``) never loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import Unsupported
from .graphs import Graph, _bits

if TYPE_CHECKING:
    import numpy as np
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


def _matrices(masks, which: str = "Q") -> np.ndarray:
    """Float Q (or A) matrices, shape (..., n, n), from neighbor masks of shape (..., n)."""
    import numpy as np
    masks = np.asarray(masks, dtype=np.uint64)
    bits = np.arange(masks.shape[-1], dtype=np.uint64)
    m = (masks[..., None] >> bits & 1).astype(float)
    if which == "Q":
        m[..., bits, bits] = m.sum(axis=-1)
    return m


def _power_largest(m: np.ndarray, tol: float, max_iter: int):
    """Power iteration; returns (value, unit vector, residual, iters, converged)."""
    import numpy as np
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


def _largest_per_component(g: Graph, which: str) -> SpectralResult:
    import numpy as np
    full = _matrices(g.adj, which)
    # (value, vector, vertices, residual, method); edgeless: eigenvalue 0, any unit vector
    best = (0.0, np.ones(1), [0], 0.0, "iterative")
    total_iters = 0
    for comp in g.components():
        if comp.bit_count() == 1:
            continue  # isolated vertex contributes eigenvalue 0
        verts = list(_bits(comp))
        m = full[np.ix_(verts, verts)]  # no edge leaves a component
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
        if val > best[0]:  # a component with an edge has a positive top eigenvalue
            best = (val, vec, verts, res, method)
    val, vec, verts, res, method = best
    vector = np.zeros(g.n)
    vector[verts] = vec
    return SpectralResult(val, vector, res, total_iters, method)


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
    return _eigvalsh(_matrices(g.adj, matrix)).tolist()


def _eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix in ``m``, shape (..., n, n), from LAPACK."""
    import numpy as np
    return np.linalg.eigvalsh(m)

