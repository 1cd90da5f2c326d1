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
each member of A.  The mrdf and cobipartite solvers test each candidate with
its minimality rule as a positive-set mask against constants of A, and a
tuple is built only for a candidate that passes; the interval solver reads
only the positive set and the private candidates off it.

The interval solver's window tests are neighborhood masks in closed form.
With B the canonical positive set, the component of a root r in G[B + X] is
r's own component in G[B + r] joined with that of each added vertex x in
G[B + x] that the growing component touches, since x brings exactly the
components of G[B] next to it.  So every vertex a window could add next is
a difference of ORs of per-vertex masks, decided with a few bit tests and no
loop (see WindowTables).  The solver keeps the graph labelled in interval
order, where each component of G[B] is a run of consecutive members of B,
so one sweep over B finds the components and their neighborhoods, with no
search.  The same tables decide every size of raised set (see
IntervalConnectedSolver).  A start triple needs exactly one of its first two
members next to the first component, so only those pairs are tried.  The
window DAG's nodes are positions and its successors come sorted, and the
solver walks each source-to-sink path once, never entering a node again once
the node's subtree gave no sink.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterator, Optional

from .graphs import (
    Graph,
    IntervalModel,
    bit,
    bits,
    intersection_graph,
    recognize_cobipartite,
    same_component,  # noqa: F401  (not called here; perfbench/tracer.py swaps this name)
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
    """Base class: a solver is bound to one graph and one variant, and
    `stream(a)`, the completions of the 2-set a, is its whole protocol.
    Whoever needs only to know whether C(a) is empty peeks the stream.
    Every solver builds its functions through roman.function_from_masks
    (RdfSolver's through canonical_rdf, which calls it)."""

    variant: Variant

    def __init__(self, g: Graph):
        self.graph = g

    def stream(self, a: int) -> Iterator[RomanFunction]:
        raise NotImplementedError


class RdfSolver(FixedTwoSolver):
    """C(A) is {canonical rdf of A} when A is a valid 2-set, else empty."""

    variant = Variant.RDF

    def stream(self, a: int) -> Iterator[RomanFunction]:
        if valid_two_set(self.graph, a):
            yield canonical_rdf(self.graph, a)


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
        ctx = TwoSetContext(g, a, self.variant)
        if not ctx.valid():
            return
        m0 = g.full & ~ctx.pos0
        if ctx.minimal(ctx.pos0):
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

    def __init__(self, g: Graph, variant: Variant):
        super().__init__(g)
        if variant not in (Variant.TRDF, Variant.CRDF):
            raise UnsupportedRoute(f"cobipartite solver handles trdf/crdf, not {variant.value}")
        if recognize_cobipartite(g) is None:
            raise UnsupportedRoute("graph is not cobipartite")
        self.variant = variant

    def stream(self, a: int) -> Iterator[RomanFunction]:
        g = self.graph
        ctx = TwoSetContext(g, a, self.variant)
        if not ctx.valid():
            return
        pos0 = ctx.pos0
        zeros = [bit(v) for v in bits(g.full & ~pos0)]
        raised = chain([0], zeros, (v | u for v, u in combinations(zeros, 2)))
        for x in raised:
            if ctx.minimal(pos0 | x):
                yield function_from_masks(g.n, a, pos0 | x)


class WindowTables:
    """Window tests for connected completions on an interval order.

    Fix a valid 2-set a and its context, and let B be the canonical positive
    set ctx.pos0.  A candidate set X of 0-vertices of the canonical rdf
    completes a to a minimal connected rdf exactly when, reading X in
    interval order (left endpoint, right endpoint, index),

      - |X| <= 2: by the neighborhoods of the first and last components of
        G[B] (see IntervalConnectedSolver),
      - |X| = 3: X passes both the start test and the end test, or
      - |X| >= 4: the three smallest members pass the start test, the three
        largest pass the end test, and every four consecutive members pass
        the middle test.

    Each test combines a private-neighbor condition (the window must not
    take up all private candidates of any 2-vertex) with three connectivity
    probes on induced subgraphs: the window must connect its span, and
    dropping either middle element must break it.  The roots s and t are
    positive vertices of B whose intervals start first and end last; probes
    from them detect whether X reaches the ends of the layout.

    The probes are answered by neighborhood masks.  Write C_r(S) for the
    component of r in G[S + r] and N(C) for every vertex adjacent to C.  A
    vertex z outside S + r joins C_r(S) in G[S + r + z] iff z lies in
    N(C_r(S)), so for a pair (u, v) the mask

      N(C_r(B + u + v)) - N(C_r(B + u)) - N(C_r(B + v))

    holds exactly the z whose three probes pass: root s with the pair (x, y)
    for the start window (x, y, z), root w with (x, y) for the middle window
    (w, x, y, z), and root t with (y, z) for the end window (x, y, z),
    probing x.  The rule holds on any graph, whatever the model.

    No mask needs a search of its own.  Write N_v for N(C_v(B + v)).  An
    added 0-vertex x brings exactly the components of G[B] next to it, so
    C_r(B + X) is C_r(B + r) joined with C_x(B + x) for each x in X that the
    growing component touches, and N(C_r(B + X)) is N_r OR'd with N_x over
    those x.  For a pair (u, v) that gives a closed form: the mask is 0
    unless exactly one of u, v lies in N_r, say j, with k the other; then it
    is N_k - N_r - N_j if k lies in N_j, and 0 otherwise.  N_v is N(K) for v
    in the component K of G[B], and N(v) OR'd with N(K) of each component v
    touches for a 0-vertex v, so the tables need only the pairs (K, N(K)),
    which the caller passes in: the interval solver reads them off one sweep
    in interval order, and on any other graph a search finds them.  The
    closed form also means a start pair (x, y) has a nonzero mask only if
    exactly one of x, y lies in N_s, the 0-vertices next to s's component.

    The private candidates of the members of A are disjoint, so each vertex
    has at most one owner in A, and a window can take up every private
    candidate only of an owner of one of its members: the condition checks
    those owners, in O(window), through a table that maps each vertex to
    its owner's private candidates (_kept, which the interval solver also
    reads directly for its raised sets below four and its start and middle
    windows).

    The private-neighbor condition of the middle test is kept although no
    instance is known where dropping it changes an output: an exhaustive
    search over every interval model (up to endpoint order) of at most 8
    intervals and every proper one of at most 11 found none, although the
    condition did reject windows whose probes passed, and no argument shows
    that the start and end tests imply it.
    """

    def __init__(self, g: Graph, ctx: TwoSetContext, s: int, t: int, components: list):
        self.s = s
        self.t = t
        zeros = g.full & ~ctx.pos0
        border = list(g.adj)  # border[v] = N_v once the components are in
        for component, nb in components:
            while component:
                low = component & -component
                border[low.bit_length() - 1] = nb
                component ^= low
            joining = nb & zeros
            while joining:
                low = joining & -joining
                border[low.bit_length() - 1] |= nb
                joining ^= low
        self._border = border
        # kept[u]: the private candidates of the member of A that u is
        # private to, or a bit outside the graph if there is none
        kept = [g.full + 1] * g.n
        for candidates in ctx.private.values():
            rest = candidates
            while rest:
                low = rest & -rest
                kept[low.bit_length() - 1] = candidates
                rest ^= low
        self._kept = kept

    def _needing_both(self, root: int, u: int, v: int) -> int:
        """The vertices that join root's component once u and v are added,
        but not with only one of them."""
        border = self._border
        near = border[root]
        if near >> u & 1:
            if near >> v & 1:  # each joins alone, so none needs both
                return 0
            j, k = u, v
        elif near >> v & 1:
            j, k = v, u
        else:  # neither joins, so the component stays as it is
            return 0
        if not border[j] >> k & 1:  # k stays outside even after j joins
            return 0
        return border[k] & ~near & ~border[j]

    def start_mask(self, x: int, y: int) -> int:
        """Every z whose window (x, y, z) passes the start probes; the start
        test is that bit and the private-neighbor condition."""
        return self._needing_both(self.s, x, y)

    # middle_mask(w, x, y): every z whose window (w, x, y, z) passes the
    # middle probes, which root at w itself; the middle test is that bit and
    # the private-neighbor condition
    middle_mask = _needing_both

    def end_ok(self, x: int, y: int, z: int) -> bool:
        if not self._needing_both(self.t, y, z) >> x & 1:
            return False
        # the private-neighbor condition: no member's owner has all its
        # private candidates in the window
        kept, window = self._kept, 1 << x | 1 << y | 1 << z
        return bool(kept[x] & ~window and kept[y] & ~window and kept[z] & ~window)


def _relabel(mask: int, table) -> int:
    """The OR of table[v] over the members v of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


class IntervalConnectedSolver(FixedTwoSolver):
    """Connected completions on interval graphs with polynomial delay.

    The model must realize the graph: a model of the wrong size is a
    ValueError, and a model whose intersection graph differs from the graph
    an UnsupportedRoute, because the window tests read connectivity off the
    interval order.  The solver works on a copy of the graph labelled in
    interval order (left endpoint, right endpoint, index): position p is
    input vertex order[p].  Tables built once map a vertex to its position's
    bit, a position to its vertex's bit and a position to the component of
    the graph holding it, so every per-2-set step loops over the low bits of
    masks.

    Per 2-set A, the canonical positive set B must lie in one component of
    the graph.  One sweep in interval order finds the components K1 ... Kc
    of G[B] (_components), and WindowTables holds their neighborhoods, so no
    search runs per 2-set.  Every 0-vertex touches A, so a raised set X is
    minimal exactly when G[B + X] is connected, each member of X is a cut
    vertex of it, and X keeps a private candidate of each member of A.  With
    near and far the 0-vertices next to K1 and Kc, in interval order:

      - c = 1: no 0-vertex is a cut vertex, so X is empty;
      - |X| = 1: x in near and far;
      - |X| = 2: x in near only, y in far only and next to x or a component
        x meets (y in border[x]);
      - |X| = 3: a start window that also passes the end test;
      - |X| >= 4: source-to-sink paths in a DAG of window-passing triples.

    Outputs come by size, then lexicographically in interval order.  Only
    start pairs whose mask can be nonzero are tried, at most |near| times
    the spare vertices; they serve both the triples and the DAG's start
    nodes, and a start triple's end test, run only if y or z is in far, is
    kept for the walk.  The DAG is walked once depth-first: a path is output
    when it reaches a sink, and a node whose subtree gave no sink is marked
    dead and never entered again, so each dead subtree is explored once and
    the delay stays polynomial.  Output masks are built in input labels as
    the walk pushes each raised vertex, on an explicit stack, so the walk's
    depth is not bounded by Python's recursion limit.
    """

    variant = Variant.CRDF

    def __init__(self, g: Graph, model: IntervalModel):
        super().__init__(g)
        if len(model) != g.n:
            raise ValueError("interval model size does not match the graph")
        if intersection_graph(model) != g:
            raise UnsupportedRoute("interval model does not realize the graph")
        # a stable sort by interval keeps equal intervals in index order
        self.order = order = sorted(range(g.n), key=model.intervals.__getitem__)
        self._input_bit = [1 << v for v in order]
        self._position_bit = position_bit = [0] * g.n
        for p, v in enumerate(order):
            position_bit[v] = 1 << p
        rows = [_relabel(g.adj[v], position_bit) for v in order]
        # the components of g are runs of positions, and _run numbers them:
        # a component starts at each position with no earlier neighbor, as
        # every earlier interval then ends before that one starts, and no
        # later one starts before it
        self._run = run_of = []
        run = -1
        for p, row in enumerate(rows):
            run += not row & (1 << p) - 1
            run_of.append(run)
        self._graph = Graph.from_rows(rows)

    def stream(self, a: int) -> Iterator[RomanFunction]:
        h = self._graph
        ctx = TwoSetContext(h, _relabel(a, self._position_bit), self.variant)
        if not ctx.valid():
            return
        pos0 = ctx.pos0
        # members in two components of the graph: no raised set joins them
        if pos0 and self._run[(pos0 & -pos0).bit_length() - 1] != self._run[pos0.bit_length() - 1]:
            return
        n, input_bit = h.n, self._input_bit
        base = a | _relabel(pos0 & ~ctx.a, input_bit)
        components = self._components(pos0)
        if len(components) < 2:  # no 0-vertex can be a cut vertex
            yield function_from_masks(n, a, base)
            return
        spare = h.full & ~pos0
        # the intervals that end last lie in the last component, and any
        # member of a component roots it
        last = components[-1][0]
        tables = WindowTables(h, ctx, (pos0 & -pos0).bit_length() - 1,
                              (last & -last).bit_length() - 1, components)
        border, kept = tables._border, tables._kept
        near, far = components[0][1] & spare, components[-1][1] & spare
        for x in bits(near & far):
            if kept[x] & ~(1 << x):
                yield function_from_masks(n, a, base | input_bit[x])
        for x in bits(near & ~far):
            for y in bits(far & ~near & border[x]):
                window = 1 << x | 1 << y
                if kept[x] & ~window and kept[y] & ~window:
                    yield function_from_masks(n, a, base | input_bit[x] | input_bit[y])
        # start pairs in lexicographic order: each pair's mask gives every
        # third member at once, and a pair can have a nonzero mask only with
        # exactly one member x or y in near and, if x is, y in border[x]
        pairs, ends = [], {}
        xs = spare & (1 << near.bit_length()) - 1
        while xs:
            low_x = xs & -xs
            xs ^= low_x
            x = low_x.bit_length() - 1
            ys = (spare & ~near & border[x] if near & low_x else near) & -(low_x << 1)
            while ys:
                low_y = ys & -ys
                ys ^= low_y
                y = low_y.bit_length() - 1
                zs = tables.start_mask(x, y) & spare & -(low_y << 1)
                if not zs:
                    continue
                pairs.append((x, y, zs))
                # a start triple is a completion if it passes the end test,
                # which fails unless y or z is in far
                for z in bits(zs if low_y & far else zs & far):
                    window = low_x | low_y | 1 << z
                    if kept[x] & ~window and kept[y] & ~window and kept[z] & ~window:
                        ends[x, y, z] = sink = tables.end_ok(x, y, z)
                        if sink:
                            yield function_from_masks(
                                n, a, base | input_bit[x] | input_bit[y] | input_bit[z])
        if spare.bit_count() >= 4:
            yield from self._large_stream(a, base, spare, tables, pairs, ends)

    def _components(self, members: int) -> list:
        """(K, N(K)) for each component K of G[members], left to right.

        Intervals of different components are disjoint, so in interval
        order each component is a run of members, and a member joins the
        current run iff it is adjacent to the run: no later interval meets
        a run it starts after."""
        rows = self._graph.adj
        runs = []
        component = nb = 0
        while members:
            low = members & -members
            members ^= low
            if nb & low:
                component |= low
                nb |= rows[low.bit_length() - 1]
            else:
                if component:
                    runs.append((component, nb))
                component, nb = low, rows[low.bit_length() - 1]
        if component:
            runs.append((component, nb))
        return runs

    def _large_stream(self, a, base, spare, tables, pairs, ends) -> Iterator[RomanFunction]:
        """The DAG's paths from the start nodes of pairs, each (x, y, z mask)."""
        n, order, input_bit = self._graph.n, self.order, self._input_bit
        kept = tables._kept
        tested: dict = {}
        dead = set()

        def expand(node):
            # (is node a sink, its successors), worked out once per node:
            # the 0-vertices z after y in the middle mask whose window keeps
            # a private candidate of each owner, as in WindowTables.end_ok
            w, x, y = node
            taken = 1 << w | 1 << x | 1 << y
            after = []
            later = tables.middle_mask(w, x, y) & spare & -(2 << y)
            while later:
                low = later & -later
                later ^= low
                z = low.bit_length() - 1
                window = taken | low
                if kept[w] & ~window and kept[x] & ~window and kept[y] & ~window and kept[z] & ~window:
                    after.append((x, y, z))
            sink = ends[node] if node in ends else tables.end_ok(w, x, y)
            got = tested[node] = (sink, after)
            return got

        def walk(start, raised):
            # every path from start to a sink, in successor order, output
            # when it reaches the sink and then extended further.  A frame
            # holds the successors still to try, the node, the raised set of
            # the path to it, and whether a sink lay at or below it
            stack = [[iter((tested.get(start) or expand(start))[1]), start, raised, False]]
            while stack:
                top = stack[-1]
                for node in top[0]:
                    if node in dead:
                        continue
                    sink, after = tested.get(node) or expand(node)
                    raised = top[2] | 1 << order[node[2]]
                    if sink:
                        yield function_from_masks(n, a, raised)
                    stack.append([iter(after), node, raised, sink])
                    break
                else:
                    _, node, _, live = stack.pop()
                    if stack:  # node is not the start
                        if live:
                            stack[-1][3] = True
                        else:
                            dead.add(node)

        for x, y, zs in pairs:
            while zs:
                low_z = zs & -zs
                zs ^= low_z
                z = low_z.bit_length() - 1
                window = 1 << x | 1 << y | low_z
                if (
                    kept[x] & ~window and kept[y] & ~window and kept[z] & ~window
                    and (x, y, z) not in dead
                ):
                    raised = base | input_bit[x] | input_bit[y] | input_bit[z]
                    yield from walk((x, y, z), raised)


def _interval_solver(g: Graph, variant: Variant, model: Optional[IntervalModel]):
    if model is None:
        raise UnsupportedRoute("interval routing needs an interval model")
    return IntervalConnectedSolver(g, model)


# The routes: (graph class, variants, constructor(g, variant, model)), in
# the order the auto class tries them.
ROUTES = (
    ("general", (Variant.RDF,), lambda g, variant, model: RdfSolver(g)),
    ("general", (Variant.MRDF,), lambda g, variant, model: MrdfSolver(g)),
    ("cobipartite", (Variant.TRDF, Variant.CRDF),
     lambda g, variant, model: CobipartiteSolver(g, variant)),
    ("interval", (Variant.CRDF,), _interval_solver),
)


def solver_for(
    g: Graph,
    variant: Variant,
    model: Optional[IntervalModel] = None,
    class_hint: str = "auto",
) -> FixedTwoSolver:
    """The solver of the first route in ROUTES for the variant and class.

    A named class tries its one route and passes on its refusal.  The auto
    class tries each route of the variant in turn, and raises
    UnsupportedRoute with every route's reason when none applies.  trdf and
    crdf have no general-graph route: there even deciding non-emptiness of
    a completion set is NP-complete.
    """
    why = []
    for graph_class, variants, build in ROUTES:
        if variant in variants and class_hint in ("auto", graph_class):
            try:
                return build(g, variant, model)
            except UnsupportedRoute as exc:
                if class_hint != "auto":
                    raise
                why.append(str(exc))
    why = why or [f"no route for class {class_hint}"]
    if variant in (Variant.TRDF, Variant.CRDF):
        why.append("on general graphs even non-emptiness is NP-complete")
    raise UnsupportedRoute(f"no {variant.value} solver: " + "; ".join(why))
