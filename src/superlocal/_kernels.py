"""Hot integer kernels over bitmasks and plain lists, in pure Python.

The maximum-matching subset DP, and the reader of the committed table
of isomorphism classes. Exact rational code elsewhere never goes
through here. Callers reach them as ``_kernels.<name>`` so that a
tracer can wrap these bindings.
"""

from __future__ import annotations

# the kernel implementation in use, recorded in benchmark fingerprints
ACTIVE = "pure"


def matching_dp(adj, dp):
    """Fill dp[mask] with the maximum matching size inside mask; adj holds bitmasks."""
    dp[0] = 0
    for mask in range(1, len(dp)):
        b = mask & -mask
        rest = mask ^ b
        best = dp[rest]
        m = adj[b.bit_length() - 1] & rest
        # dp[rest ^ u] <= dp[rest], so one neighbour u with equality
        # already gives the maximum, dp[rest] + 1
        while m:
            ub = m & -m
            if dp[rest ^ ub] == best:
                best += 1
                break
            m ^= ub
        dp[mask] = best


def orbit_representatives(n):
    """The graph6 lines of one graph per isomorphism class of n-vertex
    graphs, from the package's class table classes.g6.

    The table holds every class with 1 to 8 vertices, n ascending, and
    each n in increasing order of the classes' least edge masks (bit k
    is the pair of lexicographic rank k); tests/orderly.py generated it.
    A graph6 line's first byte is n + 63.
    """
    from importlib import resources

    first = chr(n + 63)
    text = resources.files(__package__).joinpath("classes.g6").read_text("ascii")
    return [line for line in text.splitlines() if line[0] == first]
