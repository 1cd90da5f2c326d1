"""Roman domination functions: predicates, minimality tests, extension checks.

A function is a tuple of values in {0,1,2}, one per vertex.  Variants:

  rdf   every 0-vertex has a neighbor of value 2
  mrdf  rdf whose 0-set is not dominating ("maximal")
  trdf  rdf whose positive set induces no isolated vertex ("total")
  crdf  rdf whose positive set induces a connected subgraph ("connected")
  prdf  every 0-vertex has exactly one neighbor of value 2 ("perfect";
        predicate only, no minimality characterization here)

Minimality is with respect to the pointwise order on functions.
"""

from __future__ import annotations

from enum import Enum

from .graphs import (
    Graph,
    bit,
    bits,
    closed_neighborhood,
    is_connected_set,
    is_dominating,
    open_neighborhood,
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


def weight(f: RomanFunction) -> int:
    return sum(f)


def leq(f: RomanFunction, g: RomanFunction) -> bool:
    """Pointwise order; errors on length mismatch."""
    if len(f) != len(g):
        raise ValueError("functions live on different vertex sets")
    return all(a <= b for a, b in zip(f, g))


def add_one(f: RomanFunction, mask: int) -> RomanFunction:
    """Raise every vertex of the mask by one."""
    out = list(f)
    for v in bits(mask):
        if out[v] >= 2:
            raise ValueError(f"vertex {v} already at value 2")
        out[v] += 1
    return tuple(out)


def sub_one(f: RomanFunction, mask: int) -> RomanFunction:
    """Lower every vertex of the mask by one."""
    out = list(f)
    for v in bits(mask):
        if out[v] <= 0:
            raise ValueError(f"vertex {v} already at value 0")
        out[v] -= 1
    return tuple(out)


# ------------------------------------------------------------- predicates


def is_variant(g: Graph, f: RomanFunction, variant: Variant) -> bool:
    if len(f) != g.n:
        raise ValueError("function length does not match graph order")
    pos = pos_mask(f)
    m2 = two_mask(f)
    m0 = g.full & ~pos
    covered = open_neighborhood(g, m2)
    if variant is Variant.PRDF:
        for v in bits(m0):
            two_nbrs = g.adj[v] & m2
            if two_nbrs == 0 or two_nbrs & (two_nbrs - 1):
                return False
        return True
    if m0 & ~covered:
        return False
    if variant is Variant.RDF:
        return True
    if variant is Variant.MRDF:
        return not is_dominating(g, m0)
    if variant is Variant.TRDF:
        for v in bits(pos):
            if not g.adj[v] & pos:
                return False
        return True
    if variant is Variant.CRDF:
        return is_connected_set(g, pos)
    raise ValueError(f"unknown variant {variant}")


def canonical_rdf(g: Graph, a: int) -> RomanFunction:
    """The pointwise-least rdf whose 2-set is a: 2 on a, 1 outside N[a]."""
    covered = closed_neighborhood(g, a)
    return tuple(2 if a >> v & 1 else (0 if covered >> v & 1 else 1) for v in range(g.n))


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

    and `minimal(pos)` decides minimality for the mrdf, trdf or crdf variant.
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

    def private_ok(self, pos: int) -> bool:
        """Every member of A keeps a private candidate outside pos."""
        for p in self.private.values():
            if not p & ~pos:
                return False
        return True

    def minimal(self, pos: int) -> bool:
        """Is the function with 2-set A and positive set pos a minimal
        function of the context's variant?

        Besides the property itself, no 2-vertex may lose all its external
        private neighbors, and no 1-vertex next to A may be droppable; a
        1-vertex outside N(A) cannot be dropped to 0 at all.
        """
        g, a = self.g, self.a
        if g.full & ~pos & ~self.nbr or not self.private_ok(pos):
            return False
        ones = pos & ~a & self.nbr
        if self.variant is Variant.MRDF:
            undominated = g.full & ~closed_neighborhood(g, g.full & ~pos)
            if not undominated:
                return False
            return all(not undominated & ~g.cadj[v] for v in bits(ones))
        if self.variant is Variant.TRDF:
            # dropping v must isolate some positive vertex, i.e. a vertex
            # whose only positive neighbor is v
            needed = 0
            for u in bits(pos):
                nb = g.adj[u] & pos
                if not nb:
                    return False
                if not nb & (nb - 1):
                    needed |= nb
            return not ones & ~needed
        if self.variant is Variant.CRDF:
            if not is_connected_set(g, pos):
                return False
            return not any(is_connected_set(g, pos & ~bit(v)) for v in bits(ones))
        raise ValueError(f"no minimality context for {self.variant}")


def is_minimal_variant(g: Graph, f: RomanFunction, variant: Variant) -> bool:
    """Minimality among all functions with the given property.

    rdf minimality goes through the 2-set bijection; the other variants use
    their per-vertex characterizations (no 1-vertex can be dropped without a
    structural reason, every 2-vertex keeps an external private neighbor),
    evaluated by TwoSetContext.
    """
    if variant is Variant.PRDF:
        raise UnsupportedRoute("no minimality characterization for prdf")
    if len(f) != g.n:
        raise ValueError("function length does not match graph order")
    a = two_mask(f)
    if variant is Variant.RDF:
        return valid_two_set(g, a) and f == canonical_rdf(g, a)
    return TwoSetContext(g, a, variant).minimal(pos_mask(f))


# --------------------------------------------- branching-framework conditions


def zero_raise_keeps_property(g: Graph, f: RomanFunction, v: int, variant: Variant) -> bool:
    """Raising a 0-vertex to 1 must preserve the property.

    Preconditions: f has the property and f(v) = 0.
    """
    if f[v] != 0:
        raise ValueError(f"vertex {v} does not have value 0")
    if not is_variant(g, f, variant):
        raise ValueError("function does not have the property")
    return is_variant(g, add_one(f, bit(v)), variant)


def two_drop_iff_no_private(g: Graph, f: RomanFunction, v: int, variant: Variant) -> bool:
    """Lowering a 2-vertex to 1 preserves the property exactly when the vertex
    has no private neighbor besides itself among the non-1 vertices.

    Preconditions: f has the property and f(v) = 2.  Returns True iff the
    biconditional holds at v.
    """
    if f[v] != 2:
        raise ValueError(f"vertex {v} does not have value 2")
    if not is_variant(g, f, variant):
        raise ValueError("function does not have the property")
    keeps = is_variant(g, sub_one(f, bit(v)), variant)
    no_external = not TwoSetContext(g, two_mask(f), variant).private[v] & ~pos_mask(f)
    return keeps == no_external


# ------------------------------------------------------------- extension


def extension_check(
    g: Graph,
    f: RomanFunction,
    variant: Variant,
    partition=None,
    model=None,
) -> bool:
    """Is there a minimal function of the variant that dominates f pointwise?

    Requires that no 1-vertex of f touch a 2-vertex; the answer then
    coincides with non-emptiness of the fixed-two-set completion at the
    2-set of f, computed by the matching solver.  The brute-force reference
    is oracle.exists_minimal_geq.
    """
    if len(f) != g.n:
        raise ValueError("function length does not match graph order")
    pos = pos_mask(f)
    m2 = two_mask(f)
    m1 = pos & ~m2
    if open_neighborhood(g, m1) & m2:
        raise UnsupportedRoute(
            "extension check requires that no 1-vertex touch a 2-vertex"
        )
    from . import fixed_two

    solver = fixed_two.solver_for(g, variant, partition=partition, model=model)
    return solver.first(m2) is not None


# ------------------------------------------------------------- diagnostics


def minimality_report(g: Graph, f: RomanFunction, variant: Variant) -> tuple[bool, list[str]]:
    """Human-readable breakdown of the minimality conditions, for the CLI."""
    lines = []
    pos = pos_mask(f)
    m2 = two_mask(f)
    m1 = pos & ~m2
    m0 = g.full & ~pos
    if variant is Variant.PRDF:
        holds = is_variant(g, f, variant)
        lines.append(f"prdf: {'yes' if holds else 'no'} (predicate only, no minimality test)")
        return holds, lines
    uncovered = m0 & ~open_neighborhood(g, m2)
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
    private = TwoSetContext(g, m2, variant).private
    bad_two = [v for v in bits(m2) if not private[v] & ~pos]
    if bad_two:
        lines.append(f"2-vertices without an external private neighbor: {bad_two}")
    else:
        lines.append("every 2-vertex keeps an external private neighbor: ok")
    if variant is Variant.RDF:
        if f != canonical_rdf(g, m2):
            lines.append("differs from the canonical rdf of its 2-set: some value is droppable")
        else:
            lines.append("equals the canonical rdf of its 2-set: ok")
    else:
        bad_one = [
            v for v in bits(m1)
            if g.adj[v] & m2 and is_variant(g, sub_one(f, bit(v)), variant)
        ]
        if bad_one:
            lines.append(f"droppable 1-vertices: {bad_one}")
        else:
            lines.append("no droppable 1-vertex: ok")
    minimal = is_minimal_variant(g, f, variant)
    lines.append(f"minimal {variant.value}: {'YES' if minimal else 'NO'}")
    return minimal, lines
