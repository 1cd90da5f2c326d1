"""Reduction gadget builders.

Four constructions that transport classic hard problems into fixed-2-set or
extension questions about minimal Roman domination variants:

  gadget_crdf_from_sat        monotone 3-SAT  ->  "is the connected-variant
                              completion set of A nonempty" on a bipartite,
                              2-degenerate, max-degree-4 graph;
  gadget_trdf_from_sat        monotone 3-SAT  ->  the same question for the
                              total variant on a bipartite max-degree-3 graph;
  gadget_maxrd_from_extds     minimal-dominating-set extension  ->  "does a
                              minimal maximal-variant function dominate f";
  gadget_split_from_hypergraph minimal transversal enumeration  ->  connected-
                              variant completions on a split graph, related
                              by an explicit bijection.

Each builder returns a GadgetInstance bundling the constructed graph, the
distinguished 2-set (or partial function), per-vertex role labels in a fixed
index layout, the source instance, and structural certificates checked at
build time.  The SAT builders accept hand-sized instances by default; strict
mode additionally enforces the exactly-(2,2) occurrence discipline together
with the degree/degeneracy bounds it buys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .graphs import (
    Graph,
    bipartition,
    bit,
    bits,
    has_universal_vertex,
    is_clique,
    mask_of,
    min_degree_peel,
)
from .oracle import CnfInstance, Hypergraph
from .roman import RomanFunction


class GadgetError(ValueError):
    """A source instance violates a construction's preconditions."""


@dataclass(frozen=True)
class GadgetInstance:
    """A built reduction instance.

    Exactly one of fixed_two / prefunction is set: non-emptiness gadgets
    carry the distinguished 2-set A, extension gadgets carry the partial
    function to dominate.  labels[v] names the role of vertex v using the
    source instance's own indexing; certificates holds the structural
    properties validated at build time.
    """

    graph: Graph
    fixed_two: Optional[int]
    prefunction: Optional[RomanFunction]
    labels: Tuple[str, ...]
    source: object
    certificates: dict = field(default_factory=dict)

    def vertex_named(self, label: str) -> int:
        return self.labels.index(label)


def _require_bipartite(g: Graph, what: str) -> tuple:
    sides = bipartition(g)
    if sides is None:
        raise GadgetError(f"{what}: constructed graph is not bipartite")
    return sides


def _sat_layout(c: CnfInstance, with_chain: bool):
    """Vertex indices: v_1..v_n, ~v_1..~v_n, w_1..w_n, p_1..p_m, then (when
    the chain is present) u_1..u_{n-1}, u'_1..u'_{n-1}."""
    n, m = c.num_vars, len(c.clauses)
    pos_v = lambda i: i - 1
    neg_v = lambda i: n + i - 1
    sel_w = lambda i: 2 * n + i - 1
    cls_p = lambda j: 3 * n + j - 1
    chn_u = lambda i: 3 * n + m + i - 1
    chn_up = lambda i: 3 * n + m + (n - 1) + i - 1

    edges = []
    for i in range(1, n + 1):
        edges.append((pos_v(i), sel_w(i)))
        edges.append((neg_v(i), sel_w(i)))
    for j, clause in enumerate(c.clauses, 1):
        for lit in clause:
            edges.append((pos_v(lit) if lit > 0 else neg_v(-lit), cls_p(j)))
    if with_chain:
        for i in range(1, n):
            edges.append((chn_u(i), sel_w(i)))
            edges.append((chn_u(i), sel_w(i + 1)))
            edges.append((chn_u(i), chn_up(i)))

    labels = (
        [f"v_{i}" for i in range(1, n + 1)]
        + [f"~v_{i}" for i in range(1, n + 1)]
        + [f"w_{i}" for i in range(1, n + 1)]
        + [f"p_{j}" for j in range(1, m + 1)]
    )
    if with_chain:
        labels += [f"u_{i}" for i in range(1, n)]
        labels += [f"u'_{i}" for i in range(1, n)]

    total = 3 * n + m + (2 * (n - 1) if with_chain else 0)
    g = Graph(total, edges)
    a = mask_of(sel_w(i) for i in range(1, n + 1))
    if with_chain:
        a |= mask_of(chn_u(i) for i in range(1, n))
    return g, a, tuple(labels)


def gadget_crdf_from_sat(c: CnfInstance, strict: bool = False) -> GadgetInstance:
    """Connected-variant non-emptiness gadget from a monotone CNF.

    Per variable i: vertices v_i, ~v_i and a selector w_i adjacent to both.
    Per clause j: a vertex p_j adjacent to the literal vertices it contains.
    A chain u_i (adjacent to w_i, w_{i+1}, and a pendant u'_i) ties the
    selector blocks together.  With A = all w's and u's, the completion set
    of A for the connected variant is nonempty exactly when the CNF is
    satisfiable: any completion must raise one literal vertex per variable to
    connect its selector, and connecting the clause vertices forces every
    clause to contain a raised (true) literal.
    """
    c.validate_monotone(strict=strict)
    g, a, labels = _sat_layout(c, with_chain=True)
    n, m = c.num_vars, len(c.clauses)
    if g.n != 3 * n + m + 2 * (n - 1):
        raise GadgetError("vertex count mismatch")
    sides = _require_bipartite(g, "crdf sat gadget")
    certificates = {
        "bipartition": sides,
        "vertex_count": g.n,
        "vertex_count_formula": "3n + m + 2(n-1)",
    }
    if strict:
        max_deg = max(g.degree(v) for v in range(g.n))
        if max_deg > 4:
            raise GadgetError(f"max degree {max_deg} exceeds 4")
        order, degeneracy = min_degree_peel(g)
        if degeneracy > 2:
            raise GadgetError(f"degeneracy {degeneracy} exceeds 2")
        certificates["max_degree"] = max_deg
        certificates["degeneracy"] = degeneracy
        certificates["elimination_order"] = order
    return GadgetInstance(g, a, None, labels, c, certificates)


def gadget_trdf_from_sat(c: CnfInstance, strict: bool = False) -> GadgetInstance:
    """Total-variant non-emptiness gadget from a monotone CNF.

    The chainless sibling of gadget_crdf_from_sat: variable blocks and clause
    vertices only, A = all selector w's.  The total-variant completion set of
    A is nonempty exactly when the CNF is satisfiable.  Under the strict
    occurrence discipline every clause vertex has degree 3 and every selector
    degree 2, so the graph has maximum degree 3.
    """
    c.validate_monotone(strict=strict)
    g, a, labels = _sat_layout(c, with_chain=False)
    n, m = c.num_vars, len(c.clauses)
    if g.n != 3 * n + m:
        raise GadgetError("vertex count mismatch")
    sides = _require_bipartite(g, "trdf sat gadget")
    certificates = {
        "bipartition": sides,
        "vertex_count": g.n,
        "vertex_count_formula": "3n + m",
    }
    if strict:
        max_deg = max(g.degree(v) for v in range(g.n))
        if max_deg > 3:
            raise GadgetError(f"max degree {max_deg} exceeds 3")
        certificates["max_degree"] = max_deg
    return GadgetInstance(g, a, None, labels, c, certificates)


def gadget_maxrd_from_extds(g: Graph, u: int) -> GadgetInstance:
    """Extension gadget: minimal dominating set containing U on g becomes
    domination of a partial function by a minimal maximal-variant function.

    The built graph has a pair w_v, x_v per vertex v of g, with w_v adjacent
    to x_u for every u in the closed neighborhood of v, every x_v adjacent to
    a hub q, and a pendant path q-r-s-t.  The partial function places 2 on s
    and on w_v for v in U, and 1 on q and t.  Some minimal dominating set of
    g contains U exactly when some minimal maximal-variant function on the
    gadget dominates the partial function pointwise.
    """
    if u & ~g.full:
        raise GadgetError("u contains vertices outside the graph")
    nv = g.n
    wv = lambda v: v
    xv = lambda v: nv + v
    q, r, s, t = 2 * nv, 2 * nv + 1, 2 * nv + 2, 2 * nv + 3
    edges = []
    for v in range(nv):
        for nb in bits(g.cadj[v]):
            edges.append((wv(v), xv(nb)))
    for v in range(nv):
        edges.append((xv(v), q))
    edges += [(q, r), (r, s), (s, t)]
    built = Graph(2 * nv + 4, edges)
    labels = tuple(
        [f"w_{v}" for v in range(nv)] + [f"x_{v}" for v in range(nv)] + ["q", "r", "s", "t"]
    )
    values = [0] * built.n
    values[s] = 2
    for v in bits(u):
        values[wv(v)] = 2
    values[q] = 1
    values[t] = 1
    prefunction = tuple(values)
    sides = _require_bipartite(built, "extension gadget")
    certificates = {
        "bipartition": sides,
        "vertex_count": built.n,
        "vertex_count_formula": "2|V| + 4",
    }
    return GadgetInstance(built, None, prefunction, labels, (g, u), certificates)


def gadget_split_from_hypergraph(h: Hypergraph, allow_universal: bool = False) -> GadgetInstance:
    """Split-graph gadget: minimal transversals of a hypergraph become
    connected-variant completions of A = {a}.

    Vertices a, b and one u_i per universe element form a clique; one w_j per
    hyperedge is adjacent to the u_i of its members.  The map sending a
    completion g to {i : g(u_i) = 1} is a bijection onto the minimal
    transversals.  Requires at least one hyperedge and, by default, no
    universal element (an element in every hyperedge makes its u_i a
    universal vertex, which the advertised graph class excludes; the
    completion/transversal bijection itself still holds, so allow_universal
    lifts the restriction for testing).
    """
    n, m = h.universe, len(h.edges)
    if m == 0:
        raise GadgetError("hypergraph has no edges")
    common = h.edges[0]
    for e in h.edges[1:]:
        common &= e
    if common and not allow_universal:
        raise GadgetError("hypergraph has a universal element")
    va, vb = 0, 1
    vu = lambda i: 2 + i
    vw = lambda j: 2 + n + j
    clique = [va, vb] + [vu(i) for i in range(n)]
    edges = [(p, q2) for k, p in enumerate(clique) for q2 in clique[k + 1 :]]
    for j, e in enumerate(h.edges):
        for i in bits(e):
            edges.append((vu(i), vw(j)))
    built = Graph(2 + n + m, edges)
    labels = tuple(["a", "b"] + [f"u_{i}" for i in range(n)] + [f"w_{j}" for j in range(m)])
    clique_mask = mask_of(clique)
    if not is_clique(built, clique_mask):
        raise GadgetError("clique side broken")
    for j in range(m):
        if built.adj[vw(j)] & mask_of(vw(k) for k in range(m)):
            raise GadgetError("independent side broken")
    if has_universal_vertex(built) and not allow_universal:
        raise GadgetError("constructed graph has a universal vertex")
    certificates = {
        "clique": clique_mask,
        "independent": mask_of(vw(j) for j in range(m)),
        "vertex_count": built.n,
        "vertex_count_formula": "2 + n + m",
    }
    return GadgetInstance(built, bit(va), None, labels, h, certificates)


def transversal_of(instance: GadgetInstance, f: RomanFunction) -> int:
    """Element set {i : f(u_i) = 1} for a split-gadget completion, as a mask
    over the source hypergraph's universe."""
    h = instance.source
    if not isinstance(h, Hypergraph):
        raise TypeError("not a split-from-hypergraph instance")
    out = 0
    for i in range(h.universe):
        if f[2 + i] == 1:
            out |= 1 << i
    return out
