"""Shared error taxonomy and the one vertex-count size guard.

The CLI maps these onto exit codes: format and domain errors are input
errors (exit 1), size refusals exit 2, internal-bug signals exit 3.
Each vertex limit is a module constant, read when its function runs and
checked by check_vertex_limit; no function takes a limit to raise it.
"""


class GraphFormatError(ValueError):
    """Malformed input text (graph6, multigraph listing, interval data)."""


class DomainError(ValueError):
    """Operation called outside its stated precondition."""


class SizeLimitError(RuntimeError):
    """Instance exceeds a documented size guard. Limits may be lowered, never raised."""


class InternalBugError(AssertionError):
    """A proven invariant failed at runtime. Always a bug, never an input error."""


def check_vertex_limit(what, n, limit):
    """Refuse n vertices above limit, naming the guarded work."""
    if n > limit:
        raise SizeLimitError(f"{what} limited to {limit} vertices, got {n}")
