"""Fixed-2-set solvers.

For a variant P and a vertex set A, the completion set C(A) holds every
pointwise-minimal function with property P whose set of 2-values is exactly
A.  The enumeration engine walks candidate sets A and asks a solver for the
stream of C(A); solvers exist for

  rdf   on all graphs (C(A) is the canonical rdf of A, or empty),
  mrdf  on all graphs (at most n candidates),
  trdf / crdf on cobipartite graphs (at most n^2+n+1 candidates),
  crdf  on interval graphs (sliding-window tables, polynomial delay).

Emptiness of C is monotone downward in A (a nonempty superset forces a
nonempty subset), which is what makes pruning in the engine sound.

The mrdf, trdf and crdf solvers build one roman.TwoSetContext per 2-set.
It holds the canonical positive set, N(A) and the private candidates of
each member of A, so each candidate is tested as a positive-set mask against
constants of A; a tuple is built only for a candidate that passes.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterator, Optional

from .graphs import (
    Graph,
    IntervalModel,
    bit,
    bits,
    is_dominating,
    mask_of,
    recognize_cobipartite,
    same_component,
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
    is_minimal_variant,
    valid_two_set,
)

# when set, every solver re-checks each yielded function against the
# minimality predicate (used by tests; off by default for speed)
VERIFY_YIELDS = False


def _checked(g: Graph, variant: Variant, f: RomanFunction) -> RomanFunction:
    if VERIFY_YIELDS:
        assert is_minimal_variant(g, f, variant), f
    return f


class FixedTwoSolver:
    """Base class: a solver is bound to one graph and one variant."""

    variant: Variant
    graph_class = "general"

    def __init__(self, g: Graph):
        self.graph = g

    def stream(self, a: int) -> Iterator[RomanFunction]:
        raise NotImplementedError

    def first(self, a: int) -> Optional[RomanFunction]:
        return next(iter(self.stream(a)), None)

    def cardinality_bound(self, n: int) -> Optional[int]:
        return None


class RdfSolver(FixedTwoSolver):
    """C(A) is {canonical rdf of A} when A is a valid 2-set, else empty."""

    variant = Variant.RDF

    def stream(self, a: int) -> Iterator[RomanFunction]:
        if valid_two_set(self.graph, a):
            yield _checked(self.graph, self.variant, canonical_rdf(self.graph, a))

    def first(self, a: int) -> Optional[RomanFunction]:
        if valid_two_set(self.graph, a):
            return canonical_rdf(self.graph, a)
        return None

    def cardinality_bound(self, n: int) -> int:
        return 1


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
            yield _checked(g, self.variant, function_from_masks(g.n, a, ctx.pos0))
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
                yield _checked(g, self.variant, function_from_masks(g.n, a, pos))

    def cardinality_bound(self, n: int) -> int:
        return n


class CobipartiteSolver(FixedTwoSolver):
    """Total/connected completions on cobipartite graphs.

    Members differ from the canonical rdf of A by raising at most two
    0-vertices, so the candidate space is quadratic and the minimality
    predicate does the filtering.
    """

    graph_class = "cobipartite"

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
                yield _checked(g, self.variant, function_from_masks(g.n, a, pos0 | x))

    def cardinality_bound(self, n: int) -> int:
        return n * n + n + 1


class WindowTables:
    """Sliding-window membership tables for connected completions on an
    interval order.

    Fix a 2-set a and its context.  A candidate set X of 0-vertices of the
    canonical rdf completes it to a minimal connected rdf exactly when,
    reading X in interval order (left endpoint, right endpoint, index),

      - |X| <= 3: checked directly, or
      - |X| >= 4: the three smallest members pass the start test, the three
        largest pass the end test, and every four consecutive members pass
        the middle test.

    Each test combines a private-neighbor condition (removing the window must
    not use up all private neighbors of any 2-vertex) with three connectivity
    probes on induced subgraphs: the window must connect its span, and
    dropping either middle element must break it.  s and t are the extremal
    positive vertices of the canonical rdf; probes from them detect whether
    X reaches the ends of the layout.
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
        self._start: dict = {}
        self._end: dict = {}
        self._middle: dict = {}

    def start_ok(self, x: int, y: int, z: int) -> bool:
        key = (x, y, z)
        hit = self._start.get(key)
        if hit is None:
            g, s, base = self.g, self.s, self.base_pos
            hit = (
                same_component(g, base | mask_of((x, y, z)), s, z)
                and not same_component(g, base | mask_of((x, z)), s, z)
                and not same_component(g, base | mask_of((y, z)), s, z)
                and self.ctx.private_ok(mask_of((x, y, z)))
            )
            self._start[key] = hit
        return hit

    def end_ok(self, x: int, y: int, z: int) -> bool:
        key = (x, y, z)
        hit = self._end.get(key)
        if hit is None:
            g, t, base = self.g, self.t, self.base_pos
            hit = (
                same_component(g, base | mask_of((x, y, z)), t, x)
                and not same_component(g, base | mask_of((x, z)), t, x)
                and not same_component(g, base | mask_of((x, y)), t, x)
                and self.ctx.private_ok(mask_of((x, y, z)))
            )
            self._end[key] = hit
        return hit

    def middle_ok(self, w: int, x: int, y: int, z: int) -> bool:
        key = (w, x, y, z)
        hit = self._middle.get(key)
        if hit is None:
            g, base = self.g, self.base_pos
            hit = (
                same_component(g, base | mask_of((w, x, y, z)), w, z)
                and not same_component(g, base | mask_of((w, x, z)), w, z)
                and not same_component(g, base | mask_of((w, y, z)), w, z)
                and self.ctx.private_ok(mask_of((w, x, y, z)))
            )
            self._middle[key] = hit
        return hit


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

    Per 2-set A, the solver first counts the fewest 0-vertex intervals that
    close every gap in the union of the canonical positive set's intervals
    (fewest_connectors); raised sets below that size cannot be connected and
    are never tested.  The bound is used only when every edge of the graph
    joins meeting intervals.  Completion sets of size at most 3 are then
    scanned directly against the 2-set's TwoSetContext.  Larger ones are
    source-to-sink paths in a DAG whose nodes are window-passing triples;
    restricting the walk to nodes that can reach a sink keeps the delay
    polynomial.  Both DAG walks use explicit stacks, so their depth, which
    grows with the number of raised vertices, is not bounded by Python's
    recursion limit.
    """

    graph_class = "interval"
    variant = Variant.CRDF

    def __init__(self, g: Graph, model: IntervalModel, validate: bool = True):
        super().__init__(g)
        if len(model) != g.n:
            raise ValueError("interval model size does not match the graph")
        if validate and not validate_interval_model(g, model):
            raise ValueError("interval model does not match the graph")
        self.model = model
        # the gap bound holds when every edge of g joins meeting intervals,
        # as in any model that realises g; an edge between disjoint
        # intervals can connect what the union of intervals leaves apart
        iv = model.intervals
        self.gap_bound = all(
            max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1]) for u, v in g.edges()
        )

    def stream(self, a: int) -> Iterator[RomanFunction]:
        g = self.graph
        if not valid_two_set(g, a):
            return
        ctx = TwoSetContext(g, a, self.variant)
        iv = self.model.intervals
        universe = sorted(bits(g.full & ~ctx.pos0), key=lambda v: (iv[v][0], iv[v][1], v))
        fewest = fewest_connectors(self.model, ctx.pos0, universe) if self.gap_bound else 0
        if fewest is None:
            return
        for k in range(fewest, min(3, len(universe)) + 1):
            for combo in combinations(universe, k):
                pos = ctx.pos0 | mask_of(combo)
                if ctx.minimal(pos):
                    yield _checked(g, self.variant, function_from_masks(g.n, a, pos))
        if len(universe) >= 4:
            yield from self._large_stream(ctx, universe, WindowTables(g, self.model, ctx))

    def _large_stream(self, ctx, universe, tables) -> Iterator[RomanFunction]:
        g = self.graph
        m = len(universe)
        succ_memo: dict = {}
        reach_memo: dict = {}

        def successors(node):
            got = succ_memo.get(node)
            if got is None:
                i, j, k = node
                got = [
                    (j, k, l)
                    for l in range(k + 1, m)
                    if tables.middle_ok(universe[i], universe[j], universe[k], universe[l])
                ]
                succ_memo[node] = got
            return got

        def is_sink(node):
            i, j, k = node
            return tables.end_ok(universe[i], universe[j], universe[k])

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
                            yield _checked(g, self.variant, function_from_masks(g.n, ctx.a, pos))
                        raised.append(pos)
                        todo.append(iter(successors(nxt)))
                        break
                else:
                    raised.pop()
                    todo.pop()

        for node in combinations(range(m), 3):
            i, j, k = node
            if tables.start_ok(universe[i], universe[j], universe[k]) and reaches_sink(node):
                yield from walk(node)

    def cardinality_bound(self, n: int) -> Optional[int]:
        return None


def solver_for(
    g: Graph,
    variant: Variant,
    partition=None,
    model: Optional[IntervalModel] = None,
    class_hint: str = "auto",
    validate_model: bool = True,
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
            return IntervalConnectedSolver(g, model, validate=validate_model)
        if class_hint == "auto":
            if partition is not None or recognize_cobipartite(g) is not None:
                return CobipartiteSolver(g, variant, partition)
            if model is not None:
                return IntervalConnectedSolver(g, model, validate=validate_model)
            raise UnsupportedRoute(
                "crdf enumeration needs a cobipartite graph or an interval model; "
                "on general graphs even non-emptiness is NP-complete"
            )
        raise UnsupportedRoute(f"no crdf solver for class {class_hint}")
    raise UnsupportedRoute(f"no enumeration solver for variant {variant.value}")
