"""Eigenvalue solvers for the signless Laplacian Q = A + D and the
adjacency matrix A, all from LAPACK through numpy.

Largest eigenvalue: ``_top`` takes the top eigenpair of each matrix in a
stack from one ``numpy.linalg.eigh`` call, its vector in absolute value and
certified by the residual ||Mx - qx|| <= ``DEFAULT_TOL`` (or
``InvariantViolated``).  ``q_index`` and ``adjacency_radius`` run it on a
stack of one, the exhaustive scans (``search``) on every graph they score,
so every q a report prints or decides by is certified, and the hunt on the
graphs whose deletions it bounds.  The whole spectrum
(``numpy.linalg.eigvalsh``) scores the hunt's other proposals.
One builder, ``_matrices``, makes every Q and A matrix from neighbor
bitmasks, for one graph or a stack of same-order graphs alike.

This is the only module that imports numpy, and it does so on first use
inside each function that needs it, so a ``qx`` command that computes no
spectrum never loads numpy.  ``--version``, ``free-check``, ``bounds``,
``ledger`` and ``construct`` (whose q is the closed-form root of its join's
equitable quotient) compute none, and ``cli`` imports this module only for
the commands that do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import InvalidParameter, InvariantViolated
from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np
DEFAULT_TOL = 1e-10


class SpectralResult(NamedTuple):
    """Largest eigenvalue with its certified eigenvector.

    value     largest eigenvalue of the requested matrix
    vector    nonnegative unit eigenvector of the whole matrix; on a
              disconnected graph its entries off the components attaining
              ``value`` are zero up to rounding, not necessarily exact zeros
    residual  ||M @ vector - value * vector||_2, at most ``DEFAULT_TOL``
    """

    value: float
    vector: np.ndarray
    residual: float
    # class constants, not fields: bench/spans.py reads them from every
    # result until ROADMAP item 1
    iterations = 0
    method = "lapack"


def _matrices(masks, which: str = "Q") -> np.ndarray:
    """Float Q (or A) matrices, shape (..., n, n), from neighbor masks of shape (..., n)."""
    import numpy as np
    masks = np.asarray(masks, dtype=np.uint64)
    bits = np.arange(masks.shape[-1], dtype=np.uint64)
    m = (masks[..., None] >> bits & 1).astype(float)
    if which == "Q":
        m[..., bits, bits] = m.sum(axis=-1)
    return m


def _top(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top eigenvalues, nonnegative eigenvectors and residuals of a stack ``m``
    of symmetric matrices, shape (..., n, n), from one ``eigh`` call; raises
    ``InvariantViolated`` if any residual exceeds ``DEFAULT_TOL``."""
    import numpy as np
    w, vecs = np.linalg.eigh(m)
    # a Perron vector is one-signed on its component; a tie between components
    # mixes one-signed vectors with disjoint supports, so abs stays an eigenvector
    values, x = w[..., -1], np.abs(vecs[..., -1:])
    residuals = np.linalg.norm(m @ x - values[..., None, None] * x, axis=(-2, -1))
    if residuals.max() > DEFAULT_TOL:
        raise InvariantViolated(f"eigenpair residual {residuals.max():.3g} exceeds {DEFAULT_TOL:g}")
    return values, x[..., 0], residuals


def _largest(g: Graph, which: str) -> SpectralResult:
    value, vector, residual = _top(_matrices(g.adj, which))
    return SpectralResult(float(value), vector, float(residual))


def q_index(g: Graph) -> SpectralResult:
    """Largest eigenvalue of the signless Laplacian A + D."""
    return _largest(g, "Q")


def adjacency_radius(g: Graph) -> SpectralResult:
    """Largest eigenvalue (spectral radius) of the adjacency matrix."""
    return _largest(g, "A")


def full_spectrum(g: Graph, matrix: str = "Q") -> list[float]:
    """All n eigenvalues of Q or A, ascending, from LAPACK."""
    if matrix not in ("Q", "A"):
        raise InvalidParameter(f"matrix must be 'Q' or 'A', got {matrix!r}")
    return _eigvalsh(_matrices(g.adj, matrix)).tolist()


def _eigvalsh(m) -> np.ndarray:
    """Ascending eigenvalues of each symmetric matrix in ``m``, shape (..., n, n), from LAPACK."""
    import numpy as np
    return np.linalg.eigvalsh(m)
