"""Exception types shared across the toolkit."""


class QxError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(QxError, ValueError):
    """Scalar or named parameter outside its allowed range."""


class InvariantViolated(QxError):
    """An internal consistency check failed; the result would be wrong."""


# graph construction / codecs

class InvalidEdge(QxError):
    """Loop edge (u, u) supplied where a simple edge is required."""


class IndexOutOfRange(QxError):
    """Vertex index outside 0..n-1."""


class OrderOverflow(QxError):
    """Requested graph order exceeds the supported ceiling of 62 vertices."""


class MalformedGraph6(QxError):
    """Input is not a well-formed graph6 line."""


class Unsupported(QxError):
    """Well-formed input using a feature outside the supported subset."""


class InvalidVertexSet(QxError):
    """Vertex set argument violates its precondition."""


# forbidden-subgraph detection

class PatternLargerThanGraph(QxError):
    """Pattern side exceeds the order of the host graph."""


# bounds

class HypothesisViolated(QxError):
    """Parameters fall outside the hypothesis a bound requires."""


class DiscriminantNegative(QxError):
    """Square-root argument of a closed-form bound came out negative."""


class NoEdges(QxError):
    """Operation requires a graph with at least one edge."""


class IsolatedVertex(QxError):
    """Operation requires a nonisolated vertex."""


# constructions

class InvalidOffsets(QxError):
    """Circulant connection set contains an offset outside 1..m//2."""


class NoRegularGraphExists(QxError):
    """No s-regular graph exists for the requested order (parity or size)."""


class GenerationFailed(QxError):
    """Random generation exceeded its restart cap."""


class CannotCertifyFreeness(QxError):
    """Every constructed join contained the forbidden pattern."""


# search

class UseStreamSource(QxError):
    """Builtin enumeration capped at order 9; supply a graph6 stream instead."""


class InvalidBudget(QxError):
    """Iteration budget must be positive."""
