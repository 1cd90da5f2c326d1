"""Fixed-2-set solvers.

For a variant P and a vertex set A, the completion set C(A) holds every
pointwise-minimal function with property P whose set of 2-values is exactly
A.  The enumeration engine walks candidate sets A and asks a solver for the
stream of C(A); solvers exist for

  rdf   on all graphs (C(A) is the canonical rdf of A, or empty),
  mrdf  on all graphs (at most n candidates),
  trdf / crdf on cobipartite graphs (at most n^2+n+1 candidates),
  crdf  on interval graphs (window DAG, polynomial delay).

Emptiness of C is monotone downward in A (a nonempty superset forces a
nonempty subset), which is what makes pruning in the engine sound.

The mrdf, trdf and crdf solvers build one roman.TwoSetContext per 2-set.
It holds the canonical positive set, N(A) and the private candidates of
each member of A, so each candidate is tested as a positive-set mask against
constants of A; a tuple is built only for a candidate that passes.

The interval solver's window tests are neighborhood masks: one breadth-first
search gives N(C) for a component C, and every vertex the window could add
next is read off a difference of three such masks (see WindowTables).
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterator, Optional

from .graphs import (
    Graph,
    IntervalModel,
    bit,
    bits,
    component_neighborhood,
    is_dominating,
    mask_of,
    recognize_cobipartite,
    same_component,  # noqa: F401  (not called here; perfbench/tracer.py swaps this name)
    validate_cobipartite,
    validate_interval_model,
)
from .roman import (
    RomanFunction,
    TwoSetContext,
    UnsupportedRoute,
    Variant,
    canonical_rdf,
    function_from_masks,
    is_minimal_variant,  # noqa: F401  (not called here; perfbench/tracer.py swaps this name)
    valid_two_set,
)


class FixedTwoSolver:
    """Base class: a solver is bound to one graph and one variant."""

    variant: Variant

    def __init__(self, g: Graph):
        self.graph = g

    def stream(self, a: int) -> Iterator[RomanFunction]:
        raise NotImplementedError

    def first(self, a: int) -> Optional[RomanFunction]:
        return next(iter(self.stream(a)), None)


class RdfSolver(FixedTwoSolver):
    """C(A) is {canonical rdf of A} when A is a valid 2-set, else empty."""

    variant = Variant.RDF

    def stream(self, a: int) -> Iterator[RomanFunction]:
        if valid_two_set(self.graph, a):
            yield canonical_rdf(self.graph, a)

    def first(self, a: int) -> Optional[RomanFunction]:
        if valid_two_set(self.graph, a):
            return canonical_rdf(self.graph, a)
        return None


class MrdfSolver(FixedTwoSolver):
    """Maximal-variant completions on arbitrary graphs.

    If the canonical rdf f of A is itself maximal it is the only member.
    Otherwise every member arises from f by raising the 0-neighbors of one
    vertex v outside A to 1, so at most n candidates need the minimality
    filter.
    """

    variant = Variant.MRDF

    def stream(self, a: int) -> Iterator[RomanFunction]:
        g = self.graph
        if not valid_two_set(g, a):
            return
        ctx = TwoSetContext(g, a, self.variant)
        m0 = g.full & ~ctx.pos0
        if not is_dominating(g, m0):
            yield function_from_masks(g.n, a, ctx.pos0)
            return
        seen = set()
        for v in range(g.n):
            if a >> v & 1:
                continue
            pos = ctx.pos0 | (m0 & g.cadj[v])
            if pos in seen:
                continue
            seen.add(pos)
            if ctx.minimal(pos):
                yield function_from_masks(g.n, a, pos)


class CobipartiteSolver(FixedTwoSolver):
    """Total/connected completions on cobipartite graphs.

    Members differ from the canonical rdf of A by raising at most two
    0-vertices, so the candidate space is quadratic and the minimality
    predicate does the filtering.
    """

    def __init__(self, g: Graph, variant: Variant, part=None):
        super().__init__(g)
        if variant not in (Variant.TRDF, Variant.CRDF):
            raise UnsupportedRoute(f"cobipartite solver handles trdf/crdf, not {variant.value}")
        if part is None:
            part = recognize_cobipartite(g)
            if part is None:
                raise UnsupportedRoute("graph is not cobipartite")
        elif not validate_cobipartite(g, part):
            raise ValueError("invalid cobipartite partition")
        self.part = part
        self.variant = variant

    def stream(self, a: int) -> Iterator[RomanFunction]:
        g = self.graph
        if not valid_two_set(g, a):
            return
        ctx = TwoSetContext(g, a, self.variant)
        pos0 = ctx.pos0
        zeros = [bit(v) for v in bits(g.full & ~pos0)]
        raised = chain([0], zeros, (v | u for v, u in combinations(zeros, 2)))
        for x in raised:
            if ctx.minimal(pos0 | x):
                yield function_from_masks(g.n, a, pos0 | x)


class WindowTables:
    """Window tests for connected completions on an interval order.

    Fix a 2-set a and its context, and let B be the canonical positive set
    ctx.pos0.  A candidate set X of 0-vertices of the canonical rdf completes
    a to a minimal connected rdf exactly when, reading X in interval order
    (left endpoint, right endpoint, index),

      - |X| <= 3: checked directly, or
      - |X| >= 4: the three smallest members pass the start test, the three
        largest pass the end test, and every four consecutive members pass
        the middle test.

    Each test combines a private-neighbor condition (the window must not
    take up all private candidates of any 2-vertex) with three connectivity
    probes on induced subgraphs: the window must connect its span, and
    dropping either middle element must break it.  s and t are the extremal
    positive vertices of B; probes from them detect whether X reaches the
    ends of the layout.

    The probes are answered by neighborhood masks.  Write C_r(S) for the
    component of r in G[S + r] and N(C) for every vertex adjacent to C.  A
    vertex z outside S + r joins C_r(S) in G[S + r + z] iff z lies in
    N(C_r(S)), so for a pair (u, v) the mask

      N(C_r(B + u + v)) - N(C_r(B + u)) - N(C_r(B + v))

    holds exactly the z whose three probes pass: root s with the pair (x, y)
    for the start window (x, y, z), root w with (x, y) for the middle window
    (w, x, y, z), and root t with (y, z) for the end window (x, y, z),
    probing x.  The rule holds on any graph, whatever the model.  N(C) is
    cached per (root, added vertices): a DAG node (w, x, y) costs one
    breadth-first search for its pair and at most two for the single
    vertices, which it shares with every node of the same root and middle
    member.  A pair in which u or v does not touch the root's component with
    the other added gives an empty mask without the pair search.  The
    private-neighbor condition runs only on the vertices a mask holds.

    The private-neighbor condition of the middle test is kept although no
    instance is known where dropping it changes an output: an exhaustive
    search over every interval model (up to endpoint order) of at most 8
    intervals and every proper one of at most 11 found none, although the
    condition did reject windows whose probes passed, and no argument shows
    that the start and end tests imply it.
    """

    def __init__(self, g: Graph, model: IntervalModel, ctx: TwoSetContext):
        self.g = g
        self.ctx = ctx
        self.base_pos = ctx.pos0
        if self.base_pos == 0:
            raise ValueError("no positive vertex to anchor the window tests")
        iv = model.intervals
        self.s = min(bits(self.base_pos), key=lambda v: (iv[v][0], iv[v][1], v))
        self.t = max(bits(self.base_pos), key=lambda v: (iv[v][1], iv[v][0], v))
        self._border: dict = {}

    def _touching(self, root: int, added: int) -> int:
        """N(C_root(B + added)), cached."""
        key = (root, added)
        got = self._border.get(key)
        if got is None:
            got = component_neighborhood(self.g, self.base_pos | added, root)
            self._border[key] = got
        return got

    def _needing_both(self, root: int, u: int, v: int) -> int:
        """The vertices that join root's component once u and v are added,
        but not with only one of them."""
        with_u = self._touching(root, bit(u))
        with_v = self._touching(root, bit(v))
        if not (with_u >> v & 1 and with_v >> u & 1):
            # one of the pair leaves the root's component as it is
            return 0
        return self._touching(root, bit(u) | bit(v)) & ~with_u & ~with_v

    def start_mask(self, x: int, y: int) -> int:
        """Every z whose window (x, y, z) passes the start probes."""
        return self._needing_both(self.s, x, y)

    def middle_mask(self, w: int, x: int, y: int) -> int:
        """Every z whose window (w, x, y, z) passes the middle probes."""
        return self._needing_both(w, x, y)

    def start_ok(self, x: int, y: int, z: int) -> bool:
        return bool(self.start_mask(x, y) >> z & 1) and self.ctx.private_ok(
            bit(x) | bit(y) | bit(z)
        )

    def end_ok(self, x: int, y: int, z: int) -> bool:
        return bool(self._needing_both(self.t, y, z) >> x & 1) and self.ctx.private_ok(
            bit(x) | bit(y) | bit(z)
        )

    def middle_ok(self, w: int, x: int, y: int, z: int) -> bool:
        return bool(self.middle_mask(w, x, y) >> z & 1) and self.ctx.private_ok(
            bit(w) | bit(x) | bit(y) | bit(z)
        )


def fewest_connectors(model: IntervalModel, pos: int, spare) -> Optional[int]:
    """Fewest intervals from `spare` whose addition makes the union of the
    intervals of `pos` one interval; None when no choice of them does.

    `spare` lists vertices in order of left endpoint.  A set of intervals
    induces a connected subgraph of the intersection graph iff its union has
    no gap, so on a graph the model realises no raised set smaller than this
    can make pos connected.  Greedy: at each gap, take the spare interval
    that starts inside the covered prefix and reaches furthest right.
    """
    iv = model.intervals
    spans = sorted(iv[v] for v in bits(pos))
    if not spans:
        return 0
    reach = spans[0][1]
    furthest = reach
    i = count = 0
    for lo, hi in spans[1:]:
        while lo > reach:
            while i < len(spare) and iv[spare[i]][0] <= reach:
                furthest = max(furthest, iv[spare[i]][1])
                i += 1
            if furthest <= reach:
                return None
            reach = furthest
            count += 1
        reach = max(reach, hi)
    return count


class IntervalConnectedSolver(FixedTwoSolver):
    """Connected completions on interval graphs with polynomial delay.

    The model must realize the graph: a model of the wrong size is a
    ValueError, any other mismatch an UnsupportedRoute, because the gap bound
    and the window DAG read connectivity off the intervals.  Per 2-set A,
    the solver first counts the fewest 0-vertex intervals that close every
    gap in the union of the canonical positive set's intervals
    (fewest_connectors); raised sets below that size cannot be connected and
    are never tested.  Completion sets of size at most 3 are then scanned
    directly against the 2-set's TwoSetContext.  Larger ones are
    source-to-sink paths in a DAG whose nodes are window-passing triples;
    restricting the walk to nodes that can reach a sink keeps the delay
    polynomial.  A node's successors are read off one WindowTables mask
    (at most three breadth-first searches per node, two of them shared), and
    the start nodes off one mask per pair of 0-vertices, taken in
    lexicographic order, so the walk reaches its first sink after a number
    of searches linear in the nodes it expands.  Both DAG walks use explicit
    stacks, so their depth, which grows with the number of raised vertices,
    is not bounded by Python's recursion limit.
    """

    variant = Variant.CRDF

    def __init__(self, g: Graph, model: IntervalModel):
        super().__init__(g)
        if len(model) != g.n:
            raise ValueError("interval model size does not match the graph")
        if not validate_interval_model(g, model):
            raise UnsupportedRoute("interval model does not realize the graph")
        self.model = model

    def stream(self, a: int) -> Iterator[RomanFunction]:
        g = self.graph
        if not valid_two_set(g, a):
            return
        ctx = TwoSetContext(g, a, self.variant)
        iv = self.model.intervals
        universe = sorted(bits(g.full & ~ctx.pos0), key=lambda v: (iv[v][0], iv[v][1], v))
        fewest = fewest_connectors(self.model, ctx.pos0, universe)
        if fewest is None:
            return
        for k in range(fewest, min(3, len(universe)) + 1):
            for combo in combinations(universe, k):
                pos = ctx.pos0 | mask_of(combo)
                if ctx.minimal(pos):
                    yield function_from_masks(g.n, a, pos)
        if len(universe) >= 4:
            yield from self._large_stream(ctx, universe, WindowTables(g, self.model, ctx))

    def _large_stream(self, ctx, universe, tables) -> Iterator[RomanFunction]:
        g = self.graph
        m = len(universe)
        rank = {v: r for r, v in enumerate(universe)}
        # later[k]: the members of universe after position k
        later = [0] * m
        for k in range(m - 2, -1, -1):
            later[k] = later[k + 1] | bit(universe[k + 1])
        succ_memo: dict = {}
        sink_memo: dict = {}
        reach_memo: dict = {}

        def in_order(mask):
            return sorted(rank[v] for v in bits(mask))

        def successors(node):
            got = succ_memo.get(node)
            if got is None:
                i, j, k = node
                w, x, y = universe[i], universe[j], universe[k]
                got = [
                    (j, k, l)
                    for l in in_order(tables.middle_mask(w, x, y) & later[k])
                    if tables.middle_ok(w, x, y, universe[l])
                ]
                succ_memo[node] = got
            return got

        def is_sink(node):
            got = sink_memo.get(node)
            if got is None:
                i, j, k = node
                got = tables.end_ok(universe[i], universe[j], universe[k])
                sink_memo[node] = got
            return got

        def reaches_sink(root):
            # depth-first with explicit stacks: the first sink found answers
            # True for every open node, a node whose successors all fail
            # answers False
            open_nodes = []
            todo = [iter((root,))]
            while todo:
                for node in todo[-1]:
                    got = reach_memo.get(node)
                    if got is None and not is_sink(node):
                        open_nodes.append(node)
                        todo.append(iter(successors(node)))
                        break
                    if got is not False:
                        for done in open_nodes + [node]:
                            reach_memo[done] = True
                        return True
                else:
                    todo.pop()
                    if open_nodes:
                        reach_memo[open_nodes.pop()] = False
            return False

        def walk(start):
            # every source-to-sink path from start, in successor order; a
            # path is output when it ends in a sink, then extended further
            raised = [ctx.pos0 | mask_of(universe[i] for i in start)]
            todo = [iter(successors(start))]
            while todo:
                for nxt in todo[-1]:
                    if reaches_sink(nxt):
                        pos = raised[-1] | bit(universe[nxt[2]])
                        if is_sink(nxt):
                            yield function_from_masks(g.n, ctx.a, pos)
                        raised.append(pos)
                        todo.append(iter(successors(nxt)))
                        break
                else:
                    raised.pop()
                    todo.pop()

        # start nodes in lexicographic order: each pair's mask gives every
        # third member at once
        for i, j in combinations(range(m), 2):
            x, y = universe[i], universe[j]
            for k in in_order(tables.start_mask(x, y) & later[j]):
                node = (i, j, k)
                if tables.start_ok(x, y, universe[k]) and reaches_sink(node):
                    yield from walk(node)


def solver_for(
    g: Graph,
    variant: Variant,
    partition=None,
    model: Optional[IntervalModel] = None,
    class_hint: str = "auto",
) -> FixedTwoSolver:
    """Pick the solver for a (variant, graph class) combination.

    auto routing: rdf/mrdf run on any graph; trdf tries the cobipartite
    recognizer; crdf tries cobipartite first, then interval when a model is
    supplied.  Raises UnsupportedRoute when nothing applies (for the
    connected/total variants on general graphs even deciding non-emptiness
    of a completion set is NP-complete).
    """
    if variant is Variant.RDF:
        if class_hint not in ("auto", "general"):
            raise UnsupportedRoute(f"rdf solver is general-graph; got class {class_hint}")
        return RdfSolver(g)
    if variant is Variant.MRDF:
        if class_hint not in ("auto", "general"):
            raise UnsupportedRoute(f"mrdf solver is general-graph; got class {class_hint}")
        return MrdfSolver(g)
    if variant is Variant.TRDF:
        if class_hint not in ("auto", "cobipartite"):
            raise UnsupportedRoute(
                "trdf enumeration is implemented for cobipartite graphs only"
            )
        return CobipartiteSolver(g, variant, partition)
    if variant is Variant.CRDF:
        if class_hint == "cobipartite":
            return CobipartiteSolver(g, variant, partition)
        if class_hint == "interval":
            if model is None:
                raise UnsupportedRoute("interval routing needs an interval model")
            return IntervalConnectedSolver(g, model)
        if class_hint == "auto":
            if partition is not None or recognize_cobipartite(g) is not None:
                return CobipartiteSolver(g, variant, partition)
            if model is not None:
                return IntervalConnectedSolver(g, model)
            raise UnsupportedRoute(
                "crdf enumeration needs a cobipartite graph or an interval model; "
                "on general graphs even non-emptiness is NP-complete"
            )
        raise UnsupportedRoute(f"no crdf solver for class {class_hint}")
    raise UnsupportedRoute(f"no enumeration solver for variant {variant.value}")
