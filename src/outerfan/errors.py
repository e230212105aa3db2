"""Exception types shared across the package."""


class GraphInputError(ValueError):
    """Malformed graph input: bad vertex id, self-loop, unparsable file."""


class StructuralError(ValueError):
    """A precondition on graph structure was violated (e.g. not biconnected)."""


class NotBiconnectedError(StructuralError):
    """The graph has fewer than three vertices, is disconnected or has a cut
    vertex: the SPQR builder's precondition fails."""


class SizeLimitError(ValueError):
    """Input exceeds the configured size cap of an exhaustive-search routine."""
