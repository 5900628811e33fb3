"""Exception types shared across the toolkit.

Four kinds, one per distinction a caller makes: ``QxError`` is what the
``qx`` command line catches; ``InvalidParameter`` is every rejected input (its
message names the check); ``HypothesisViolated`` is the input a bound's
hypothesis excludes, which the scans and ``bound_report`` catch to mark
a bound inapplicable; ``InvariantViolated`` is an internal result that
failed its own certificate.
"""


class QxError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(QxError, ValueError):
    """An input the toolkit rejects: out of range, malformed or unsupported."""


class HypothesisViolated(InvalidParameter):
    """Parameters fall outside the hypothesis a bound requires."""


class InvariantViolated(QxError):
    """An internal consistency check failed; the result would be wrong."""
