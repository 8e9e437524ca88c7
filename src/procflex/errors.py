"""Error taxonomy shared by all modules.

Every domain failure raised by this package derives from :class:`ProcflexError`
so callers (and the CLI) can distinguish domain errors from programming errors.
"""


class ProcflexError(Exception):
    """Base class for all domain errors raised by procflex."""


class UnbalancedTotals(ProcflexError):
    """Total demand does not equal total supply."""


class NegativeRate(ProcflexError):
    """A demand or supply rate is negative."""


class EdgeOutOfRange(ProcflexError):
    """An edge references a vertex index outside [1, m] x [1, n]."""


class DuplicateEdge(ProcflexError):
    """The same edge appears more than once in the input."""


class Infeasible(ProcflexError):
    """The transportation polytope is empty."""


class ZeroVector(ProcflexError):
    """An operation requiring strictly positive rates got a zero entry."""


class SizeLimitExceeded(ProcflexError):
    """Instance too large for an exhaustive-enumeration operation."""


class TargetAboveDstarStar(ProcflexError):
    """Requested component count exceeds the maximum achievable one."""


class InternalMergeStuck(ProcflexError):
    """The merge loop found no valid swap; indicates an internal bug."""


class EdgeAlreadyPresent(ProcflexError):
    """Attempted to add an edge that is already in the graph."""


class IndexOutOfRange(ProcflexError):
    """A vertex index is outside the instance's index sets."""


class AlreadyCrp(ProcflexError):
    """The graph already pools completely; no single edge can help."""


class InvalidK(ProcflexError):
    """A cycle-step vector violates the schedule family constraints."""


class GapUndefined(ProcflexError):
    """The pooling gap is undefined for this instance."""


class IsolatedServer(ProcflexError):
    """A supply vertex has no edges; its capacity cannot be routed."""


class InvalidEpsilon(ProcflexError):
    """Heavy-traffic parameter outside (0, 1)."""


class VerificationFailed(ProcflexError):
    """Replaying a result document produced a different result."""


class InvariantViolation(ProcflexError):
    """An internal invariant failed; indicates a bug, not bad input."""
