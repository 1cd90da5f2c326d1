"""Brute-force references, generators and checkers that only the tests call.

The package keeps what its commands run; the independent answers the tests
check it against live here.  Each reference is the definition read off
directly: a full scan over functions, hitting sets, assignments or
dominating sets, or a resampling generator.  Where a reference scans all
3^n functions it reuses the oracle's vectorised tables.  `is_variant` is the
tests' definition-level predicate: it decides a property on the tuple
itself, with `open_neighborhood` and `sub_one` as its helpers, and shares no
code with the package's per-2-set rule, TwoSetContext.  The checkers of the
paper's two nice-property conditions and the solver-backed extension check
live here too, since no command runs them.

pytest does not collect this module (its name does not start with
`test_`); the test modules import it by name from this directory.
"""

from __future__ import annotations

import random
from itertools import combinations

from romanenum.families import random_split_graph
from romanenum.fixed_two import solver_for
from romanenum.gadgets import CnfInstance, Hypergraph
from romanenum.graphs import (
    CobipartitePartition,
    Graph,
    IntervalModel,
    bit,
    bits,
    closed_neighborhood,
    intersection_graph,
    is_connected,
    is_connected_set,
    is_dominating,
    mask_of,
)
from romanenum.oracle import (
    DEFAULT_CAP,
    CapExceeded,
    _check_cap,
    _digit_tables,
    _minimal_scan,
    _tuples_for_indices,
    _variant_flags,
)
from romanenum.roman import (
    RomanFunction,
    TwoSetContext,
    UnsupportedRoute,
    Variant,
    function_from_masks,
    pos_mask,
    two_mask,
)

# ------------------------------------------------------------- functions


def open_neighborhood(g: Graph, s: int) -> int:
    """N(s): union of open neighborhoods; may intersect s itself."""
    out = 0
    for v in bits(s):
        out |= g.adj[v]
    return out


def crdf_droppable_by_search(ctx: TwoSetContext, pos: int):
    """The crdf droppable mask of TwoSetContext.droppable for a positive set
    pos that is an rdf's, by one search of G[pos - v] per 1-vertex v next
    to A: None when G[pos] is disconnected, else each v whose removal keeps
    it connected."""
    g = ctx.g
    if not is_connected_set(g, pos):
        return None
    return mask_of(v for v in bits(pos & ~ctx.a & ctx.nbr) if is_connected_set(g, pos & ~bit(v)))


def is_variant(g: Graph, f: RomanFunction, variant: Variant) -> bool:
    """Does f have the variant's property?  The definition read off the
    tuple, sharing no code with TwoSetContext."""
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


def property_holders(g: Graph, variant: Variant, cap: int = DEFAULT_CAP) -> list[tuple]:
    """Every function with the property, in index order."""
    import numpy as np

    _check_cap(g, cap)
    pos, m2, wt = _digit_tables(g.n)
    flags = _variant_flags(g, variant, pos, m2)
    return _tuples_for_indices(np.flatnonzero(flags), g.n)


def oracle_fixed_two_slice(g: Graph, variant: Variant, a: int, cap: int = DEFAULT_CAP) -> set:
    """Minimal elements of {f : property holds, 2-set of f equals a}.

    Enumerated directly over the 2^(n-|a|) slice members in weight order.
    """
    _check_cap(g, cap)
    free = [v for v in range(g.n) if not a >> v & 1]
    base = [2 if a >> v & 1 else 0 for v in range(g.n)]
    minimal: list[int] = []
    out = set()
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            f = list(base)
            ones = 0
            for v in combo:
                f[v] = 1
                ones |= bit(v)
            if not is_variant(g, tuple(f), variant):
                continue
            if any(m & ~ones == 0 for m in minimal):
                continue
            minimal.append(ones)
            out.add(tuple(f))
    return out


def exists_minimal_geq(g: Graph, f: tuple, variant: Variant, cap: int = DEFAULT_CAP) -> bool:
    """Is some pointwise-minimal holder >= f?  Full-scan extension oracle."""
    minimal, pos, m2 = _minimal_scan(g, variant, cap)
    geq = ((pos_mask(f) & ~pos[minimal]) == 0) & ((two_mask(f) & ~m2[minimal]) == 0)
    return bool(geq.any())


# ------------------------------------------- the nice-property conditions


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


def extension_check(g: Graph, f: RomanFunction, variant: Variant, model=None) -> bool:
    """Is there a minimal function of the variant that dominates f pointwise?

    Requires that no 1-vertex of f touch a 2-vertex; the answer then
    coincides with non-emptiness of the fixed-two-set completion at the
    2-set of f, computed by the matching solver.  exists_minimal_geq is the
    full scan it is checked against.
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
    return next(solver_for(g, variant, model=model).stream(m2), None) is not None


# ------------------------------------------------------------- hypergraphs


def oracle_transversals(h: Hypergraph, cap: int = 20) -> set[int]:
    """All inclusion-minimal hitting sets, as masks, by subset scan."""
    if h.universe > cap:
        raise CapExceeded(f"transversal oracle capped at {cap}")
    out = set()
    for s in range(1 << h.universe):
        if any(not e & s for e in h.edges):
            continue
        if any(all((s & ~bit(x)) & e for e in h.edges) for x in bits(s)):
            continue
        out.add(s)
    return out


def transversal_of(h: Hypergraph, f: RomanFunction) -> int:
    """Element set {i : f(u_i) = 1} for a completion of the split gadget
    built from h, as a mask over h's universe."""
    out = 0
    for i in range(h.universe):
        if f[2 + i] == 1:
            out |= 1 << i
    return out


# ------------------------------------------------------------------- SAT


def oracle_sat(c: CnfInstance, cap: int = 20):
    """First satisfying assignment as a bool tuple, or None."""
    if c.num_vars > cap:
        raise CapExceeded(f"sat oracle capped at {cap} variables")
    for word in range(1 << c.num_vars):
        assignment = [(word >> i) & 1 == 1 for i in range(c.num_vars)]
        ok = True
        for clause in c.clauses:
            if not any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause):
                ok = False
                break
        if ok:
            return tuple(assignment)
    return None


# --------------------------------------------------------- dominating sets


def exists_minimal_dominating_superset(g: Graph, u: int, cap: int = 20) -> bool:
    """Is there an inclusion-minimal dominating set containing u?"""
    if g.n > cap:
        raise CapExceeded(f"dominating-set oracle capped at n={cap}")
    full = g.full
    free = full & ~u
    sub = free
    while True:
        d = u | sub
        if closed_neighborhood(g, d) == full:
            if all(closed_neighborhood(g, d & ~bit(v)) != full for v in bits(d)):
                return True
        if sub == 0:
            break
        sub = (sub - 1) & free
    return False


# ------------------------------------------------------------ connectivity


def component_neighborhood(g: Graph, s: int, v: int) -> int:
    """N(C) for C the component of v in G[s + v]: every vertex adjacent to
    some member of C.  A vertex z outside s + v joins v's component in
    G[s + v + z] exactly when it lies in this mask."""
    reach = frontier = bit(v)
    border = 0
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        border |= nxt
        frontier = nxt & s & ~reach
        reach |= frontier
    return border


def components_by_search(g: Graph, s: int) -> list[tuple[int, int]]:
    """(K, N(K)) for each component K of G[s], one breadth-first search
    each: what WindowTables takes, on any graph."""
    found = []
    rest = s
    while rest:
        v = (rest & -rest).bit_length() - 1
        nb = component_neighborhood(g, s, v)
        component = nb & s | bit(v)
        found.append((component, nb))
        rest &= ~component
    return found


def small_completions(g: Graph, a: int) -> set:
    """The connected completions of the 2-set a that raise at most three
    0-vertices of its canonical function, by direct scan: every such raised
    set that TwoSetContext.minimal accepts."""
    ctx = TwoSetContext(g, a, Variant.CRDF)
    if not ctx.valid():
        return set()
    spare = list(bits(g.full & ~ctx.pos0))
    return {
        function_from_masks(g.n, a, ctx.pos0 | mask_of(raised))
        for k in range(min(3, len(spare)) + 1)
        for raised in combinations(spare, k)
        if ctx.minimal(ctx.pos0 | mask_of(raised))
    }


def keeps_private(tables, window) -> bool:
    """The windows' private-neighbor condition as the interval solver asks
    it: `keeping` for each member in turn on top of the ones before it."""
    taken = 0
    for u in window:
        if not tables.keeping(taken, bit(u)):
            return False
        taken |= bit(u)
    return True


# ---------------------------------------------------------- graph classes


def is_clique(g: Graph, s: int) -> bool:
    for v in bits(s):
        if s & ~g.cadj[v]:
            return False
    return True


def has_universal_vertex(g: Graph) -> bool:
    return any(g.cadj[v] == g.full for v in range(g.n))


def validate_cobipartite(g: Graph, part: CobipartitePartition) -> bool:
    if part.c1 & part.c2 or (part.c1 | part.c2) != g.full:
        return False
    return is_clique(g, part.c1) and is_clique(g, part.c2)


def validate_interval_model(g: Graph, m: IntervalModel) -> bool:
    """True iff the intervals realize exactly the edges of g."""
    return intersection_graph(m) == g


# ---------------------------------------------------------------- families


def path_interval_model(n: int) -> IntervalModel:
    """Unit intervals [i, i+1]; consecutive ones touch at the shared endpoint."""
    return IntervalModel(tuple((i, i + 1) for i in range(n)))


def relabelled(values, perm):
    """values, one per vertex, with vertex v's value moved to perm[v]."""
    out = [None] * len(values)
    for v, value in enumerate(values):
        out[perm[v]] = value
    return tuple(out)


def two_point_instance(n: int, rng: random.Random) -> tuple[Graph, IntervalModel]:
    """A random interval model whose intervals each contain 10, 20 or both,
    and its graph: two cliques, so the graph is cobipartite too.  An
    interval holding one point reaches `reach` toward the other, so the
    cliques meet through a one-point interval only when reach is 5 or more;
    at most a tenth of the intervals hold both points."""
    reach, both = rng.randint(0, 9), rng.choice((0.0, 0.1))
    iv = []
    for _ in range(n):
        side = rng.random()
        if side < both:
            iv.append((rng.randint(0, 10), rng.randint(20, 30)))
        elif side < (1 + both) / 2:
            iv.append((rng.randint(0, 10), rng.randint(10, 10 + reach)))
        else:
            iv.append((rng.randint(20 - reach, 20), rng.randint(20, 30)))
    model = IntervalModel(tuple(iv))
    return intersection_graph(model), model


def stretched_model(model, rng):
    """The model with its endpoints moved apart by an order-preserving map:
    equal endpoints stay equal, so the graph stays the same."""
    ends = sorted({x for interval in model.intervals for x in interval})
    moved, at = {}, 0
    for x in ends:
        at += rng.randint(1, 5)
        moved[x] = at
    return IntervalModel(tuple((moved[lo], moved[hi]) for lo, hi in model.intervals))


def nested_twins(model: IntervalModel, rng: random.Random) -> IntervalModel:
    """A model of the same graph in which each group of equal intervals is
    reordered: the endpoints are scaled apart, and the members of a group,
    in a shuffled order, are widened by 0, 1, 2, ... at both ends, so they
    nest and sort in that order."""
    scale = 2 * len(model) + 1  # a widening of at most n - 1 meets no other endpoint
    groups = {}
    for v, interval in enumerate(model.intervals):
        groups.setdefault(interval, []).append(v)
    out = [None] * len(model)
    for (lo, hi), members in groups.items():
        rng.shuffle(members)
        for k, v in enumerate(members):
            out[v] = (lo * scale - k, hi * scale + k)
    return IntervalModel(tuple(out))


def interval_models(n: int):
    """Every interval model of n intervals up to endpoint order: the 2n
    endpoints are 0..2n-1, paired in each of the (2n-1)!! ways, the smaller
    of each pair the left end.  Listed by the interval of endpoint 0, then
    recursively."""

    def pairings(points):
        if not points:
            yield ()
            return
        first, rest = points[0], points[1:]
        for i, other in enumerate(rest):
            for more in pairings(rest[:i] + rest[i + 1:]):
                yield ((first, other), *more)

    for intervals in pairings(tuple(range(2 * n))):
        yield IntervalModel(intervals)


def random_split_connected_no_universal(n: int, rng: random.Random) -> Graph:
    """Connected split graph without a universal vertex (resampled).

    Needs n >= 4: with 3 vertices every connected split graph has a vertex
    adjacent to both others.
    """
    if n < 4:
        raise ValueError("no such split graph below 4 vertices")
    while True:
        g = random_split_graph(n, 0.4, rng)
        if is_connected(g) and not has_universal_vertex(g):
            return g
