"""Hot integer kernels over bitmask arrays, in pure Python and numpy.

Three kernels: the maximum-matching subset DP, the isomorphism-class
orbit sweep, and brute-force edge-colouring feasibility. Exact rational
code elsewhere never goes through here. Callers reach them as
``_kernels.<name>`` so that a tracer can wrap these bindings.
"""

from __future__ import annotations

import numpy as np

# the kernel implementation in use, recorded in benchmark fingerprints
ACTIVE = "pure"


def matching_dp(adj, dp):
    """Fill dp[mask] with the maximum matching size inside mask; adj holds bitmasks."""
    dp[0] = 0
    for mask in range(1, dp.shape[0]):
        v = 0
        while not (mask >> v) & 1:
            v += 1
        rest = mask ^ (1 << v)
        best = dp[rest]
        m = adj[v] & rest
        while m:
            lb = m & (-m)
            u = 0
            while not (lb >> u) & 1:
                u += 1
            cand = dp[rest ^ (1 << u)] + 1
            if cand > best:
                best = cand
            m ^= lb
        dp[mask] = best


def orbit_representatives(perm_maps, e_bits):
    """Sorted minimum edge masks of the orbits of perm_maps on e_bits-bit masks."""
    # sweep masks in increasing order; an unvisited mask is its orbit's
    # minimum, so marking whole orbits yields canonical representatives.
    # The orbit of an unvisited mask lies at or above it, so the byte
    # pointer never needs to move backwards
    total = 1 << e_bits
    nbytes = (total + 7) >> 3
    visited = np.zeros(nbytes, np.uint8)
    pow2 = np.left_shift(np.int64(1), perm_maps.astype(np.int64))
    reps = []
    pos = 0
    chunk = 1 << 16
    while True:
        found = -1
        while pos < nbytes:
            seg = visited[pos : pos + chunk]
            idx = int(np.argmax(seg != 0xFF))
            if seg[idx] != 0xFF:
                found = pos + idx
                break
            pos += seg.shape[0]
        if found < 0:
            break
        pos = found
        byte = int(visited[pos])
        bit = 0
        while byte >> bit & 1:
            bit += 1
        mask = (pos << 3) | bit
        if mask >= total:
            break
        reps.append(mask)
        bits = [e for e in range(e_bits) if mask >> e & 1]
        if bits:
            pm = pow2[:, bits].sum(axis=1)
        else:
            pm = np.zeros(perm_maps.shape[0], np.int64)
        np.bitwise_or.at(
            visited, pm >> 3, np.left_shift(np.uint8(1), (pm & 7).astype(np.uint8))
        )
    return np.array(reps, np.int64)


def edge_colouring_feasible(eu, ev, k, n, cap):
    """1 if the edges colour with k colours, 0 if not, -1 past cap steps."""
    # backtracking over edges in listing order; an edge may only use a
    # colour at most one above the maximum used so far (symmetry cut)
    m = eu.shape[0]
    if m == 0:
        return 1
    vcol = np.zeros(n, np.int64)
    tried = np.zeros(m, np.int64)
    maxu = np.zeros(m + 1, np.int64)
    pos = 0
    steps = 0
    while True:
        steps += 1
        if steps > cap:
            return -1
        limit = maxu[pos] + 1
        if limit > k:
            limit = k
        c = tried[pos] + 1
        found = 0
        while c <= limit:
            if not (vcol[eu[pos]] >> c) & 1 and not (vcol[ev[pos]] >> c) & 1:
                found = 1
                break
            c += 1
        if found:
            tried[pos] = c
            vcol[eu[pos]] |= 1 << c
            vcol[ev[pos]] |= 1 << c
            if c > maxu[pos]:
                maxu[pos + 1] = c
            else:
                maxu[pos + 1] = maxu[pos]
            pos += 1
            if pos == m:
                return 1
            tried[pos] = 0
        else:
            tried[pos] = 0
            pos -= 1
            if pos < 0:
                return 0
            c = tried[pos]
            vcol[eu[pos]] &= ~(1 << c)
            vcol[ev[pos]] &= ~(1 << c)
