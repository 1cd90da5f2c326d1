"""Roman domination functions: text forms, masks and minimality tests.

A function is a tuple of values in {0,1,2}, one per vertex.  Variants:

  rdf   every 0-vertex has a neighbor of value 2
  mrdf  rdf whose 0-set is not dominating ("maximal")
  trdf  rdf whose positive set induces no isolated vertex ("total")
  crdf  rdf whose positive set induces a connected subgraph ("connected")
  prdf  every 0-vertex has exactly one neighbor of value 2 ("perfect";
        predicate only, no minimality characterization here)

Minimality is with respect to the pointwise order on functions.  The
package decides each property on masks, per 2-set, in TwoSetContext; the
tests keep a definition-level predicate on tuples as their reference.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .graphs import (
    Graph,
    bit,
    bits,
    closed_neighborhood,
    is_connected_set,
    is_dominating,
    mask_of,
)


class Variant(Enum):
    RDF = "rdf"
    MRDF = "mrdf"
    TRDF = "trdf"
    CRDF = "crdf"
    PRDF = "prdf"


class UnsupportedRoute(ValueError):
    """No implemented computation applies to this (variant, graph class)."""


RomanFunction = tuple  # values 0/1/2 per vertex


def parse_function(text: str) -> RomanFunction:
    """Parse a digit string such as "2002"."""
    text = text.strip()
    values = []
    for ch in text:
        if ch not in "012":
            raise ValueError(f"invalid function digit {ch!r}")
        values.append(int(ch))
    return tuple(values)


def format_function(f: RomanFunction) -> str:
    return "".join(str(v) for v in f)


def pos_mask(f: RomanFunction) -> int:
    """Mask of vertices with positive value."""
    m = 0
    for v, val in enumerate(f):
        if val:
            m |= 1 << v
    return m


def two_mask(f: RomanFunction) -> int:
    m = 0
    for v, val in enumerate(f):
        if val == 2:
            m |= 1 << v
    return m


def valid_two_set(g: Graph, a: int) -> bool:
    """True iff every member of a keeps a private neighbor besides itself.

    Exactly these sets arise as 2-sets of minimal rdfs, and canonical_rdf is
    the bijection witnessing it.
    """
    for v in bits(a):
        others = closed_neighborhood(g, a & ~bit(v))
        if g.cadj[v] & ~others & ~bit(v):
            continue
        return False
    return True


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def function_from_masks(n: int, two: int, pos: int) -> RomanFunction:
    """The function on n vertices with 2-set `two` and positive set `pos`
    (`two` must lie inside `pos`)."""
    # one byte per vertex, 0 or 1, for each mask; added as big integers the
    # bytes hold the values, and no byte exceeds 2, so nothing carries
    p = int.from_bytes(f"{pos:0{n}b}".encode().translate(_BIT_BYTES), "big")
    t = int.from_bytes(f"{two:0{n}b}".encode().translate(_BIT_BYTES), "big")
    return tuple((p + t).to_bytes(n, "little"))


def canonical_rdf(g: Graph, a: int) -> RomanFunction:
    """The pointwise-least rdf whose 2-set is a: 2 on a, 1 outside N[a]."""
    return function_from_masks(g.n, a, a | (g.full & ~closed_neighborhood(g, a)))


class TwoSetContext:
    """What the minimality test needs to know about one 2-set A, computed once.

    Every function with 2-set A is given by its positive set pos, a superset
    of A.  The context holds

      pos0     the canonical positive set A + (V - N[A]); every completion of
               A raises some 0-vertices of it, so pos0 <= pos
      nbr      N(A), the vertices that may take value 0
      private  for each v in A, its private candidates N[v] - N[A - v] - {v};
               they all lie outside pos0, and v keeps an external private
               neighbor exactly when one of them stays 0

    For the rdf, mrdf, trdf or crdf variant, `droppable(pos)` is the one
    droppability rule: the 1-vertices next to A that can drop to 0 with the
    property kept, or None when the property fails.  `minimal(pos)` decides
    minimality from it and the private candidates.
    The private candidates of different members are disjoint (each is
    covered by its owner alone), and `valid()` is valid_two_set in O(|A|).
    """

    __slots__ = ("g", "a", "variant", "pos0", "nbr", "private")

    def __init__(self, g: Graph, a: int, variant: Variant):
        once = twice = nbr = 0
        for v in bits(a):
            twice |= once & g.cadj[v]
            once |= g.cadj[v]
            nbr |= g.adj[v]
        alone = once & ~twice  # covered by exactly one member of a
        self.g = g
        self.a = a
        self.variant = variant
        self.pos0 = a | (g.full & ~once)
        self.nbr = nbr
        self.private = {v: g.cadj[v] & alone & ~bit(v) for v in bits(a)}

    def valid(self) -> bool:
        """valid_two_set(g, a): every member of A has a private candidate."""
        return all(self.private.values())

    def private_ok(self, pos: int) -> bool:
        """Every member of A keeps a private candidate outside pos."""
        for p in self.private.values():
            if not p & ~pos:
                return False
        return True

    def droppable(self, pos: int) -> Optional[int]:
        """The 1-vertices next to A that can drop to 0 with the property
        kept, as a mask, or None when the function with 2-set A and
        positive set pos lacks the property of the context's variant.

        A 1-vertex v next to A that drops to 0 keeps a 2-neighbor, so the
        rdf part of the property holds after the drop; what remains is the
        variant's own condition on the 0-set or on G[pos - v].
        """
        g, a = self.g, self.a
        if g.full & ~pos & ~self.nbr:
            return None
        ones = pos & ~a & self.nbr
        if self.variant is Variant.MRDF:
            # the 0-set plus v must leave some vertex undominated
            undominated = g.full & ~closed_neighborhood(g, g.full & ~pos)
            if not undominated:
                return None
            return mask_of(v for v in bits(ones) if undominated & ~g.cadj[v])
        if self.variant is Variant.TRDF:
            # dropping v isolates exactly the positive vertices whose only
            # positive neighbor is v
            needed = 0
            for u in bits(pos):
                nb = g.adj[u] & pos
                if not nb:
                    return None
                if not nb & (nb - 1):
                    needed |= nb
            return ones & ~needed
        if self.variant is Variant.CRDF:
            if not is_connected_set(g, pos):
                return None
            return mask_of(v for v in bits(ones) if is_connected_set(g, pos & ~bit(v)))
        if self.variant is Variant.RDF:
            return ones
        raise ValueError(f"no minimality context for {self.variant}")

    def minimal(self, pos: int) -> bool:
        """Is the function with 2-set A and positive set pos a minimal
        function of the context's variant?

        Besides the property itself, no 2-vertex may lose all its external
        private neighbors, and no 1-vertex next to A may be droppable; a
        1-vertex outside N(A) cannot be dropped to 0 at all.  For an rdf
        every 1-vertex next to A is droppable, so for a valid A the one
        minimal function is the canonical one, pos == pos0.
        """
        return self.private_ok(pos) and self.droppable(pos) == 0


def valid_children(g: Graph, a: int, once: int, twice: int) -> int:
    """Mask of the v > max(a) for which a + v is a valid 2-set.

    once and twice hold the vertices that at least one and at least two
    members of a dominate.  In a + v, v's private candidates are
    N[v] - N[a] - {v}, and a member u keeps those of its candidates
    p_u = N[u] & (once - twice) - {u} that lie outside N[v].  Closed
    neighborhoods are symmetric, so the v with p_u <= N[v] are the
    intersection of N[w] over w in p_u.  An invalid a has no valid child.
    """
    cadj = g.cadj
    shift = a.bit_length()
    above = g.full >> shift << shift
    alone = once & ~twice
    members = a
    while members and above:
        u = members & -members
        members ^= u
        p = cadj[u.bit_length() - 1] & alone & ~u
        breakers = above
        while p and breakers:
            w = p & -p
            p ^= w
            breakers &= cadj[w.bit_length() - 1]
        above &= ~breakers
    # v's own private candidate is a neighbor outside N[a]
    children = 0
    while above:
        v = above & -above
        above ^= v
        if cadj[v.bit_length() - 1] & ~once & ~v:
            children |= v
    return children


def is_minimal_variant(g: Graph, f: RomanFunction, variant: Variant) -> bool:
    """Minimality among all functions with the given property.

    Every variant but prdf uses its per-vertex characterization (no 1-vertex
    can be dropped without a structural reason, every 2-vertex keeps an
    external private neighbor), evaluated by TwoSetContext; for rdf this is
    the 2-set bijection of canonical_rdf.
    """
    if variant is Variant.PRDF:
        raise UnsupportedRoute("no minimality characterization for prdf")
    if len(f) != g.n:
        raise ValueError("function length does not match graph order")
    return TwoSetContext(g, two_mask(f), variant).minimal(pos_mask(f))


# ------------------------------------------------------------- diagnostics


def minimality_report(g: Graph, f: RomanFunction, variant: Variant) -> tuple[bool, list[str]]:
    """Human-readable breakdown of the minimality conditions, for the CLI."""
    lines = []
    pos = pos_mask(f)
    m2 = two_mask(f)
    m0 = g.full & ~pos
    if variant is Variant.PRDF:
        holds = all((g.adj[v] & m2).bit_count() == 1 for v in bits(m0))
        lines.append(f"prdf: {'yes' if holds else 'no'} (predicate only, no minimality test)")
        return holds, lines
    ctx = TwoSetContext(g, m2, variant)
    uncovered = m0 & ~ctx.nbr
    ok = True
    if uncovered:
        lines.append(f"not an rdf: 0-vertices without a 2-neighbor: {sorted(bits(uncovered))}")
        ok = False
    else:
        lines.append("rdf: ok")
    if variant is Variant.MRDF:
        if is_dominating(g, m0):
            lines.append("0-set dominates the graph: not maximal")
            ok = False
        else:
            lines.append("0-set not dominating: ok")
    elif variant is Variant.TRDF:
        isolated = [v for v in bits(pos) if not g.adj[v] & pos]
        if isolated:
            lines.append(f"positive set has isolated vertices: {isolated}")
            ok = False
        else:
            lines.append("positive set has no isolated vertex: ok")
    elif variant is Variant.CRDF:
        if not is_connected_set(g, pos):
            lines.append("positive set is not connected")
            ok = False
        else:
            lines.append("positive set connected: ok")
    if not ok:
        lines.append(f"minimal {variant.value}: NO (property fails)")
        return False, lines
    bad_two = [v for v in bits(m2) if not ctx.private[v] & ~pos]
    if bad_two:
        lines.append(f"2-vertices without an external private neighbor: {bad_two}")
    else:
        lines.append("every 2-vertex keeps an external private neighbor: ok")
    droppable = ctx.droppable(pos)
    if variant is Variant.RDF:
        if droppable:
            lines.append("differs from the canonical rdf of its 2-set: some value is droppable")
        else:
            lines.append("equals the canonical rdf of its 2-set: ok")
    elif droppable:
        lines.append(f"droppable 1-vertices: {list(bits(droppable))}")
    else:
        lines.append("no droppable 1-vertex: ok")
    minimal = ctx.minimal(pos)
    lines.append(f"minimal {variant.value}: {'YES' if minimal else 'NO'}")
    return minimal, lines
