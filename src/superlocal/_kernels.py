"""Hot integer kernels over bitmasks and plain lists, in pure Python.

The memoised maximum-matching recursion, and the reader of the
committed table of isomorphism classes. Exact rational code elsewhere
never goes through here. Callers reach them as ``_kernels.<name>`` so
that a tracer can wrap these bindings.
"""

from __future__ import annotations

# the kernel implementation in use, recorded in benchmark fingerprints
ACTIVE = "pure"


def matching_dp(adj, mask):
    """A maximum matching inside mask as pairs (v, u), v < u, v ascending.

    With v the lowest vertex of mask and rest = mask - v, nu(mask) =
    nu(rest) unless a neighbour u of v in rest has nu(rest - u) =
    nu(rest); then the first such u is paired with v and nu(mask) =
    nu(rest) + 1. Memoised on the masks it reaches. At each of them all
    vertices below the lowest one left, L of them, are gone, and at most
    L of those above it: each of the at most L steps so far took out the
    lowest vertex and at most one other. Summed over L, with the empty
    mask, such masks number F(n + 2) (17,711 at n = 20), against 2^n
    for a full table.
    """
    memo = {0: ()}

    def rec(mask):
        pairs = memo.get(mask)
        if pairs is None:
            b = mask & -mask
            rest = mask ^ b
            pairs = rec(rest)
            m = adj[b.bit_length() - 1] & rest
            # nu(rest - u) <= nu(rest), so one neighbour u with equality
            # already gives the maximum, nu(rest) + 1
            while m:
                ub = m & -m
                sub = rec(rest ^ ub)
                if len(sub) == len(pairs):
                    pairs = ((b.bit_length() - 1, ub.bit_length() - 1),) + sub
                    break
                m ^= ub
            memo[mask] = pairs
        return pairs

    pairs = rec(mask)
    del rec  # rec refers to itself; this frees the memo without waiting for gc
    return pairs


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
