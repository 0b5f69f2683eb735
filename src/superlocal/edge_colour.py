"""Constructive edge colouring at the nine-expression bound.

Vizing-style machinery: partial colourings with per-vertex colour
bitmasks, maximal fans with witness chains, rotation, alternating-path
swaps, and the two-vertex fan sequence used when every relevant missing
set is pairwise disjoint. Situations the bound provably excludes raise
bug signals instead of being handled.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainError, InternalBugError
from .invariants import gamma_bar_ll


def _bits(mask):
    """Positions of the set bits of mask, ascending."""
    digits = bin(mask)[:1:-1]  # digits[c] is bit c
    c = digits.find("1")
    while c >= 0:
        yield c
        c = digits.find("1", c + 1)


def _lowest(mask):
    """Position of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


class PartialEdgeColouring:
    """Mutable proper partial colouring with per-vertex colour indexes.

    Each vertex w keeps three views of the colours at it: the index
    _at[w] (colour -> edge), the bitmask _present[w] (bit c set when
    colour c is at w) and _count[w], the number of coloured edges at w.
    A change checks only what it writes, at each endpoint: the colour's
    bit and index entry were clear (an assignment) or named this edge (a
    removal), and the count still equals the index size. None of this
    reads a whole mask or walks the incident edges. validate() rebuilds
    every vertex from the assignment once and compares all three views.
    """

    def __init__(self, mg, k):
        if k < 0:
            raise DomainError("colour count must be nonnegative")
        self.mg = mg
        self.k = k
        self._full = ((1 << k) - 1) << 1  # bits 1..k
        self._col = {}
        self._at = [dict() for _ in range(mg.n)]
        self._present = [0] * mg.n
        self._count = [0] * mg.n
        # how often each case of _resolve_hole fired on this colouring
        self.stats = dict.fromkeys(
            ("direct", "rotation", "kempe", "sequence_steps", "beta_swaps"), 0
        )

    @property
    def assignment(self):
        return dict(self._col)

    def colour_of(self, eid):
        self.mg.endpoints(eid)
        return self._col.get(eid)

    def missing_mask(self, w):
        """Bit c set for each colour c in 1..k that is not at w."""
        return self._full & ~self._present[w]

    def least_common_missing(self, u, v):
        """The lowest set bit of missing_mask(u) & missing_mask(v), or None.

        It reads the present masks, whose length is the highest colour
        at u or v, rather than k.
        """
        taken = self._present[u] | self._present[v] | 1  # bit 0 is no colour
        colour = (taken ^ (taken + 1)).bit_length() - 1  # lowest clear bit
        return colour if colour <= self.k else None

    def edge_at(self, w, colour):
        return self._at[w].get(colour)

    def assign(self, eid, colour):
        u, v = self.mg.endpoints(eid)
        if not 1 <= colour <= self.k:
            raise DomainError(f"colour {colour} outside 1..{self.k}")
        if eid in self._col:
            raise DomainError(f"edge {eid} already coloured")
        at_u, at_v = self._at[u], self._at[v]
        if colour in at_u or colour in at_v:
            raise DomainError(f"colour {colour} already present at an endpoint of edge {eid}")
        present, count = self._present, self._count
        if present[u] >> colour & 1 or present[v] >> colour & 1:
            w = u if present[u] >> colour & 1 else v
            raise InternalBugError(f"colour {colour} in the mask at vertex {w} but not in its index")
        self._col[eid] = colour
        bit = 1 << colour
        present[u] |= bit
        present[v] |= bit
        at_u[colour] = at_v[colour] = eid
        count[u] += 1
        count[v] += 1
        if count[u] != len(at_u) or count[v] != len(at_v):
            self._check_count(u)
            self._check_count(v)

    def unassign(self, eid):
        u, v = self.mg.endpoints(eid)
        if eid not in self._col:
            raise DomainError(f"edge {eid} is not coloured")
        colour = self._col.pop(eid)
        for w in (u, v):
            if self._at[w].pop(colour, None) != eid:
                raise InternalBugError(f"colour {colour} at vertex {w} was not on edge {eid}")
            present = self._present[w]
            if not present >> colour & 1:
                raise InternalBugError(
                    f"colour {colour} on edge {eid} missing from the mask at vertex {w}"
                )
            self._present[w] = present ^ (1 << colour)
            self._count[w] -= 1
            self._check_count(w)

    def is_complete(self):
        return len(self._col) == self.mg.edge_count

    def uncoloured(self):
        return tuple(e for e in range(self.mg.edge_count) if e not in self._col)

    def _check_count(self, w):
        if self._count[w] != len(self._at[w]):
            raise InternalBugError(
                f"colour index at vertex {w} holds {len(self._at[w])} colours, "
                f"its count {self._count[w]}"
            )

    def _check(self, w):
        """Rebuild vertex w's colour views from the assignment; mismatch is a bug."""
        rebuilt = {}
        for eid in self.mg.incident(w):
            colour = self._col.get(eid)
            if colour is None:
                continue
            if not 1 <= colour <= self.k:
                raise InternalBugError(f"edge {eid} carries colour {colour} outside 1..{self.k}")
            if colour in rebuilt:
                raise InternalBugError(
                    f"colour {colour} repeated at vertex {w} (edges {rebuilt[colour]} and {eid})"
                )
            rebuilt[colour] = eid
        if rebuilt != self._at[w]:
            raise InternalBugError(f"colour index at vertex {w} diverged from the assignment")
        self._check_count(w)
        if rebuilt.keys() != set(_bits(self._present[w])):
            raise InternalBugError(f"colour mask at vertex {w} diverged from the assignment")

    def validate(self):
        """Rebuild every vertex's colour views from the assignment; mismatch is a bug."""
        for eid in self._col:
            self.mg.endpoints(eid)
        for w in range(self.mg.n):
            self._check(w)
        return True


class Fan(NamedTuple):
    vertices: tuple  # distinct hinge neighbours; vertices[0] is the uncoloured edge's far endpoint
    edges: tuple  # edges[i] joins the hinge to vertices[i]; edges[0] is the uncoloured edge
    witnesses: tuple  # witnesses[i] = (j < i, colour of edges[i] missing at vertices[j])


def _other(mg, eid, v):
    a, b = mg.endpoints(eid)
    return b if a == v else a


def _assign_or_bug(c, eid, colour, context):
    try:
        c.assign(eid, colour)
    except DomainError as exc:
        raise InternalBugError(f"{context}: {exc}") from exc


def build_maximal_fan(mg, c, e, hinge):
    """Greedy maximal fan; deterministic by ascending colour scans.

    Each step takes the least colour missing at some fan vertex and
    present at the hinge whose hinge edge leads outside the fan; its
    witness is the earliest fan vertex missing that colour. Uncoloured
    edges other than e are treated as absent, so the fan lives in the
    already-inserted subgraph.
    """
    if c.colour_of(e) is not None:
        raise DomainError(f"edge {e} is already coloured")
    if hinge not in mg.endpoints(e):
        raise DomainError(f"vertex {hinge} is not an endpoint of edge {e}")
    v1 = _other(mg, e, hinge)
    vertices = [v1]
    edges = [e]
    witnesses = [None]
    in_fan = {v1}
    misses = [c.missing_mask(v1)]  # misses[i]: colours missing at vertices[i]
    pool = misses[0]  # colours missing at some fan vertex
    at_hinge = ~c.missing_mask(hinge)
    while True:
        for colour in _bits(pool & at_hinge):
            eid = c.edge_at(hinge, colour)
            if eid is None:
                raise InternalBugError(
                    f"colour {colour} in the mask at vertex {hinge} but not in its index"
                )
            w = _other(mg, eid, hinge)
            if w in in_fan:
                continue
            first = next(i for i, miss in enumerate(misses) if miss >> colour & 1)
            vertices.append(w)
            edges.append(eid)
            witnesses.append((first, colour))
            in_fan.add(w)
            misses.append(c.missing_mask(w))
            pool |= misses[-1]
            break
        else:
            break
    return Fan(
        vertices=tuple(vertices),
        edges=tuple(edges),
        witnesses=tuple(witnesses),
    )


def rotate_fan(c, fan, j):
    """Move the uncoloured slot to the hinge edge of fan vertex j (1-based), in c.

    Walks the witness chain from j back to the uncoloured edge; each
    hinge edge on the chain takes the witness colour of its successor.
    The hinge keeps the same present set.
    """
    if not 1 <= j <= len(fan.vertices):
        raise DomainError(f"rotation index {j} outside 1..{len(fan.vertices)}")
    if j == 1:
        return
    chain = [j - 1]
    while chain[-1] != 0:
        w = fan.witnesses[chain[-1]]
        if w is None:
            raise InternalBugError("witness chain broken: missing witness")
        chain.append(w[0])
    if c.colour_of(fan.edges[chain[0]]) != fan.witnesses[chain[0]][1]:
        raise InternalBugError("witness chain broken: stale witness colour")
    c.unassign(fan.edges[chain[0]])
    for m in range(len(chain) - 1):
        src, dst = chain[m], chain[m + 1]
        colour = fan.witnesses[src][1]
        if dst != 0:
            if c.colour_of(fan.edges[dst]) != fan.witnesses[dst][1]:
                raise InternalBugError("witness chain broken: stale witness colour")
            c.unassign(fan.edges[dst])
        _assign_or_bug(c, fan.edges[dst], colour, "witness chain broken")


def _walk_chain(c, a, b, start):
    """Vertices and edges of the maximal (a,b)-alternating path from start.

    start must miss at least one of the two colours, so the walk is a
    simple path; a revisited vertex means the colouring was broken.
    """
    follow = b if c.missing_mask(start) >> a & 1 else a
    vertices = [start]
    edges = []
    seen = {start}
    cur = start
    while True:
        eid = c.edge_at(cur, follow)
        if eid is None:
            return vertices, edges
        edges.append(eid)
        cur = _other(c.mg, eid, cur)
        if cur in seen:
            raise InternalBugError("alternating chain revisited a vertex")
        seen.add(cur)
        vertices.append(cur)
        follow = a if follow == b else b


def kempe_swap(c, a, b, start):
    """Exchange colours a and b along the alternating path from start, in c.

    A start that misses both colours has an empty path, and c stays as it is.
    """
    if a == b:
        raise DomainError("swap needs two distinct colours")
    for colour in (a, b):
        if not 1 <= colour <= c.k:
            raise DomainError(f"colour {colour} outside 1..{c.k}")
    if not 0 <= start < c.mg.n:
        raise DomainError(f"vertex {start} out of range")
    miss = c.missing_mask(start)
    if not miss >> a & 1 and not miss >> b & 1:
        raise DomainError(f"vertex {start} misses neither colour {a} nor {b}")
    _, edges = _walk_chain(c, a, b, start)
    swapped = [(eid, b if c.colour_of(eid) == a else a) for eid in edges]
    for eid in edges:
        c.unassign(eid)
    for eid, colour in swapped:
        _assign_or_bug(c, eid, colour, "alternating swap collided")


def _resolve_hole(mg, cur, hole):
    """Colour the hole edge in cur, possibly moving it first.

    Dispatch per state: direct colouring, fan rotation on a
    hinge/fan-vertex coincidence, alternating swap on a fan/fan
    coincidence, otherwise one fan-sequence transition. The step guard
    counts only the last three and turns any latent non-termination into
    a bug signal. Each case that fires is counted in cur.stats.
    """
    stats = cur.stats
    steps = 0
    seq = None  # fan-sequence memory: alphas, previous hole, hinge for rebuild
    while True:
        u, v = mg.edges[hole]  # the caller bounds the edge id
        colour = cur.least_common_missing(u, v)
        if colour is not None:
            _assign_or_bug(cur, hole, colour, "direct colouring collided")
            stats["direct"] += 1
            return
        steps += 1
        if steps > 4 * max(cur.k, 1) * mg.edge_count + 16:
            raise InternalBugError(
                f"insertion exceeded {steps - 1} steps at edge {hole}; "
                f"stats={stats}, uncoloured={cur.uncoloured()}"
            )

        hinge = seq["hinge"] if seq is not None else min(u, v)
        fan = build_maximal_fan(mg, cur, hole, hinge)
        ell = len(fan.vertices)
        if ell < 2:
            raise InternalBugError(
                f"maximal fan of size 1 at edge {hole}, hinge {hinge}: "
                "impossible at the nine-expression bound"
            )

        hinge_missing = cur.missing_mask(hinge)
        for j in range(2, ell + 1):
            inter = hinge_missing & cur.missing_mask(fan.vertices[j - 1])
            if inter:
                rotate_fan(cur, fan, j)
                _assign_or_bug(cur, fan.edges[j - 1], _lowest(inter), "rotation target collided")
                stats["rotation"] += 1
                return

        swap_pair = None
        for i in range(1, ell + 1):
            for j in range(i + 1, ell + 1):
                inter = cur.missing_mask(fan.vertices[i - 1])
                inter &= cur.missing_mask(fan.vertices[j - 1])
                if inter:
                    swap_pair = (fan.vertices[i - 1], fan.vertices[j - 1], _lowest(inter))
                    break
            if swap_pair:
                break
        if swap_pair:
            vi, vj, gamma = swap_pair
            a = _lowest(hinge_missing)
            chain_i, _ = _walk_chain(cur, a, gamma, vi)
            if hinge not in chain_i:
                kempe_swap(cur, a, gamma, vi)
            else:
                chain_j, _ = _walk_chain(cur, a, gamma, vj)
                if hinge in chain_j:
                    raise InternalBugError(
                        "both alternating chains reached the hinge; "
                        "chains of one colour pair must be vertex-disjoint"
                    )
                kempe_swap(cur, a, gamma, vj)
            stats["kempe"] += 1
            seq = None  # colours changed under the sequence's assumptions
            continue

        if ell > 2:
            raise InternalBugError(
                f"maximal fan of size {ell} with pairwise disjoint missing sets: "
                "impossible at the nine-expression bound"
            )

        # fan sequence: hole between v_prev and hinge, second fan vertex ahead
        v_prev = fan.vertices[0]
        v_next = fan.vertices[1]
        if seq is None:
            seq = {"alphas": [], "prev": None, "hinge": hinge}
        prev_missing = cur.missing_mask(v_prev)
        if len(seq["alphas"]) >= 2:
            alpha = seq["alphas"][-2]
            if not prev_missing >> alpha & 1:
                raise InternalBugError(
                    f"forced colour {alpha} not missing at fan vertex {v_prev}"
                )
        else:
            alpha = _lowest(prev_missing)

        eid_alpha = cur.edge_at(hinge, alpha)
        if eid_alpha is None:
            raise InternalBugError(f"colour {alpha} vanished from the hinge {hinge}")
        if _other(mg, eid_alpha, hinge) != v_next:
            raise InternalBugError(
                "the forced colour's hinge edge must end at the second fan vertex"
            )

        if seq["prev"] is not None and _try_beta_swap(
            mg, cur, hole, hinge, v_prev, v_next, alpha, eid_alpha, seq
        ):
            return

        cur.unassign(eid_alpha)
        _assign_or_bug(cur, hole, alpha, "fan sequence transition collided")
        seq["alphas"].append(alpha)
        seq["prev"] = (hole, alpha, v_prev)
        seq["hinge"] = v_next
        hole = eid_alpha
        stats["sequence_steps"] += 1


def _try_beta_swap(mg, cur, hole, hinge, v_prev, v_next, alpha, eid_alpha, seq):
    """Resolve by rolling back one transition and swapping a parallel edge.

    Needs a colour beta missing at the step-before vertex and at the
    vertex ahead, sitting on an edge parallel to the hole. Returns
    whether it finished the colouring.
    """
    prev_hole, prev_alpha, prev_v = seq["prev"]
    if v_next == prev_v:
        return False  # the swap ahead would collide with the colouring behind
    for beta in _bits(cur.missing_mask(prev_v)):
        if beta == alpha:
            continue
        eid_beta = cur.edge_at(hinge, beta)
        if eid_beta is None or _other(mg, eid_beta, hinge) != v_prev:
            continue
        if not cur.missing_mask(v_next) >> beta & 1:
            continue
        # roll back the previous transition
        cur.unassign(prev_hole)
        _assign_or_bug(cur, hole, prev_alpha, "rollback collided")
        # exchange the parallel beta edge with the forced-colour edge
        cur.unassign(eid_beta)
        cur.unassign(eid_alpha)
        _assign_or_bug(cur, eid_beta, alpha, "parallel swap collided")
        _assign_or_bug(cur, eid_alpha, beta, "parallel swap collided")
        _assign_or_bug(cur, prev_hole, beta, "freed colour collided")
        cur.stats["beta_swaps"] += 1
        return True
    return False


def edge_colour(mg):
    """Colour every edge with k equal to the nine-expression bound.

    Edges are inserted in listing order. Returns (k, colouring);
    colouring.stats counts how often each resolution case fired.
    """
    m = mg.edge_count
    if m == 0:
        raise DomainError("nothing to colour: the multigraph has no edges")
    k = gamma_bar_ll(mg)
    cur = PartialEdgeColouring(mg, k)
    for eid in range(m):
        _resolve_hole(mg, cur, eid)
    if not cur.is_complete():
        raise InternalBugError(f"edges left uncoloured: {cur.uncoloured()}")
    cur.validate()
    return k, cur
