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

The source instances, Hypergraph and CnfInstance, live here too, with their
text parsers parse_hypergraph and parse_dimacs, so `romanenum gadget` needs
no module beyond this one and the graph and function cores.  Each builder
checks its source instance and returns a GadgetInstance bundling the
constructed graph, the distinguished 2-set (or partial function) and
per-vertex role labels in a fixed index layout.  The SAT builders accept
hand-sized instances by default; strict mode additionally enforces the
exactly-(2,2) occurrence discipline, which buys the degree and degeneracy
bounds above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .graphs import Graph, GraphFormatError, bit, bits, mask_of, read_counted
from .roman import RomanFunction


class GadgetError(ValueError):
    """A source instance violates a construction's preconditions."""


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph on universe 0..universe-1 with edges as bitmasks."""

    universe: int
    edges: tuple[int, ...]

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError(f"hypergraph vertex count {self.universe} is negative")
        full = (1 << self.universe) - 1
        for i, e in enumerate(self.edges):
            if e == 0:
                raise ValueError(f"hyperedge {i} is empty")
            if e & ~full:
                raise ValueError(f"hyperedge {i} leaves the universe")


def parse_hypergraph(text: str) -> Hypergraph:
    """Text format: header "n m", then m lines listing each edge's members."""
    (n, _), edges = read_counted(text, "hypergraph", "n m", "edge", None)
    for members in edges:
        if any(not 0 <= v < n for v in members):  # a negative v must not reach 1 << v
            raise GraphFormatError(f"edge member out of range: {' '.join(map(str, members))}")
    return Hypergraph(n, tuple(mask_of(members) for members in edges))


@dataclass(frozen=True)
class CnfInstance:
    """CNF with DIMACS-style signed 1-based literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def validate_monotone(self, strict: bool = True):
        """Check the clause shape the reductions rely on.

        Always: every clause all-positive or all-negative with distinct
        literals.  strict additionally demands exactly 3 literals per clause
        and every variable occurring exactly twice positively and twice
        negatively.
        """
        pos_count = [0] * (self.num_vars + 1)
        neg_count = [0] * (self.num_vars + 1)
        for clause in self.clauses:
            if len(set(clause)) != len(clause):
                raise ValueError(f"repeated literal in clause {clause}")
            signs = {lit > 0 for lit in clause}
            if len(signs) != 1:
                raise ValueError(f"mixed clause {clause}")
            if strict and len(clause) != 3:
                raise ValueError(f"clause {clause} does not have 3 literals")
            if not strict and len(clause) > 3:
                raise ValueError(f"clause {clause} has more than 3 literals")
            for lit in clause:
                if lit > 0:
                    pos_count[lit] += 1
                else:
                    neg_count[-lit] += 1
        if strict:
            for x in range(1, self.num_vars + 1):
                if pos_count[x] != 2 or neg_count[x] != 2:
                    raise ValueError(
                        f"variable {x} occurs {pos_count[x]}+/{neg_count[x]}-, need 2/2"
                    )


def parse_dimacs(text: str) -> CnfInstance:
    """DIMACS CNF: one problem line "p cnf <variables> <clauses>", then
    0-terminated clauses; lines starting with "c" are comments.  A line
    starting with "%" ends the input, as in the SATLIB benchmark files,
    which follow it with a lone "0"."""
    header = None
    clauses = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        if line.startswith("p"):
            if header is not None:
                raise ValueError(f"second problem line: {line}")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line: {line}")
            try:
                header = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"bad problem line: {line}") from None
            continue
        try:
            literals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: clause literals must be integers") from None
        for lit in literals:
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if header is None:
        raise ValueError("missing problem line")
    if current:
        raise ValueError("last clause not terminated by 0")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise ValueError(f"expected {num_clauses} clauses, found {len(clauses)}")
    return CnfInstance(num_vars, tuple(clauses))


@dataclass(frozen=True)
class GadgetInstance:
    """A built reduction instance.

    Exactly one of fixed_two / prefunction is set: non-emptiness gadgets
    carry the distinguished 2-set A, extension gadgets carry the partial
    function to dominate.  labels[v] names the role of vertex v using the
    source instance's own indexing.
    """

    graph: Graph
    fixed_two: Optional[int]
    prefunction: Optional[RomanFunction]
    labels: Tuple[str, ...]


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
    return GadgetInstance(g, a, None, labels)


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
    return GadgetInstance(g, a, None, labels)


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
    return GadgetInstance(built, None, tuple(values), labels)


def gadget_split_from_hypergraph(h: Hypergraph) -> GadgetInstance:
    """Split-graph gadget: minimal transversals of a hypergraph become
    connected-variant completions of A = {a}.

    Vertices a, b and one u_i per universe element form a clique; one w_j per
    hyperedge is adjacent to the u_i of its members.  The map sending a
    completion g to {i : g(u_i) = 1} is a bijection onto the minimal
    transversals.  Requires at least one hyperedge and no universal element
    (an element in every hyperedge makes its u_i a universal vertex, which
    the advertised graph class excludes).
    """
    n, m = h.universe, len(h.edges)
    if m == 0:
        raise GadgetError("hypergraph has no edges")
    common = h.edges[0]
    for e in h.edges[1:]:
        common &= e
    if common:
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
    return GadgetInstance(built, bit(va), None, labels)

