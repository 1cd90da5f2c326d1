"""Completion solvers versus the oracle, routing, and structural bounds.

conftest wraps every solver's stream, so every function a solver emits is
also re-checked against the minimality predicate as it leaves the stream.
"""

import hashlib
import random
import sys
import time
from collections import defaultdict
from itertools import combinations, islice, permutations

import pytest

import romanenum.fixed_two as fixed_two
import romanenum.graphs as graph_core
from romanenum.engine import iter_minimal
from romanenum.families import (
    complete_graph,
    cycle_graph,
    double_link_chain,
    path_graph,
    random_cobipartite,
    random_graph,
    random_interval_instance,
)
from romanenum.fixed_two import (
    CobipartiteSolver,
    IntervalConnectedSolver,
    MrdfSolver,
    RdfSolver,
    WindowTables,
    solver_for,
)
from romanenum.graphs import (
    Graph,
    IntervalModel,
    bit,
    bits,
    intersection_graph,
    is_connected,
    is_connected_set,
    mask_of,
    same_component,
)
from romanenum.oracle import oracle_all_minimal, oracle_fixed_two
from romanenum.roman import (
    TwoSetContext,
    UnsupportedRoute,
    Variant,
    canonical_rdf,
    format_function,
    function_from_masks,
    pos_mask,
    two_mask,
)

from reference import (
    component_neighborhood,
    components_by_search,
    interval_models,
    keeps_private,
    path_interval_model,
    small_completions,
    validate_interval_model,
)


# the most completions one 2-set can have, per solver, on n vertices
CARDINALITY_BOUNDS = {
    RdfSolver: lambda n: 1,
    MrdfSolver: lambda n: n,
    CobipartiteSolver: lambda n: n * n + n + 1,
}


def stream_set(solver, a):
    out = list(solver.stream(a))
    assert len(out) == len(set(out)), "solver emitted a duplicate"
    bound = CARDINALITY_BOUNDS.get(type(solver))
    if bound is not None:
        assert len(out) <= bound(solver.graph.n)
    for f in out:
        assert two_mask(f) == a
    first = next(solver.stream(a), None)
    assert (first is None) == (not out)
    if out:
        assert first in out
    return set(out)


def test_yield_check_catches_a_wrong_yield(monkeypatch):
    # the conftest wrapper must reject a function that is not minimal: here
    # every built function has its first 0 raised to 1
    build = fixed_two.function_from_masks

    def corrupted(n, two, pos):
        f = list(build(n, two, pos))
        f[f.index(0)] = 1
        return tuple(f)

    monkeypatch.setattr(fixed_two, "function_from_masks", corrupted)
    with pytest.raises(AssertionError):
        list(MrdfSolver(path_graph(4)).stream(bit(0)))


# ----------------------------------------------------------------- routing


def test_routing_table():
    p5 = path_graph(5)  # interval, not cobipartite
    k4 = complete_graph(4)  # cobipartite
    model5 = path_interval_model(5)

    assert isinstance(solver_for(p5, Variant.RDF), RdfSolver)
    assert isinstance(solver_for(p5, Variant.RDF, class_hint="general"), RdfSolver)
    assert isinstance(solver_for(p5, Variant.MRDF), MrdfSolver)
    assert isinstance(solver_for(k4, Variant.TRDF), CobipartiteSolver)
    assert isinstance(solver_for(k4, Variant.CRDF), CobipartiteSolver)
    assert isinstance(solver_for(p5, Variant.CRDF, model=model5), IntervalConnectedSolver)

    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.RDF, class_hint="cobipartite")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.MRDF, class_hint="interval")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.TRDF)  # not cobipartite
    with pytest.raises(UnsupportedRoute):
        solver_for(k4, Variant.TRDF, class_hint="interval")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF)  # not cobipartite, no model
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF, class_hint="interval")  # model missing
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF, class_hint="cobipartite")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF, class_hint="chordal")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.PRDF)

    with pytest.raises(UnsupportedRoute):
        CobipartiteSolver(k4, Variant.RDF)
    with pytest.raises(UnsupportedRoute):
        CobipartiteSolver(p5, Variant.TRDF)


def test_auto_refusal_names_every_route_it_tried():
    # the auto class tries the cobipartite and then the interval route for
    # crdf; a named class passes on its one route's own refusal
    with pytest.raises(UnsupportedRoute) as exc:
        solver_for(path_graph(5), Variant.CRDF)
    assert str(exc.value) == (
        "no crdf solver: graph is not cobipartite; interval routing needs an interval "
        "model; on general graphs even non-emptiness is NP-complete"
    )
    with pytest.raises(UnsupportedRoute) as exc:
        solver_for(path_graph(5), Variant.CRDF, class_hint="interval")
    assert str(exc.value) == "interval routing needs an interval model"


# ------------------------------------------------- solver vs oracle, per route


def test_rdf_solver_matches_oracle():
    rng = random.Random(0x1234)
    for _ in range(100):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        a = rng.getrandbits(n)
        assert stream_set(RdfSolver(g), a) == oracle_fixed_two(g, Variant.RDF, a)


def test_mrdf_solver_matches_oracle():
    rng = random.Random(0x2345)
    graphs = [path_graph(4), cycle_graph(5), Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]
    graphs += [random_graph(rng.randint(1, 7), rng.uniform(0.1, 0.9), rng) for _ in range(100)]
    for g in graphs:
        for _ in range(3):
            a = rng.getrandbits(g.n)
            assert stream_set(MrdfSolver(g), a) == oracle_fixed_two(g, Variant.MRDF, a)


def test_cobipartite_solver_matches_oracle():
    rng = random.Random(0x3456)
    for _ in range(60):
        n = rng.randint(2, 7)
        g, _ = random_cobipartite(n, rng.uniform(0.0, 0.9), rng)
        for variant in (Variant.TRDF, Variant.CRDF):
            solver = CobipartiteSolver(g, variant)
            for _ in range(3):
                a = rng.getrandbits(n)
                assert stream_set(solver, a) == oracle_fixed_two(g, variant, a)


def test_interval_solver_matches_oracle():
    rng = random.Random(0x4567)
    for _ in range(50):
        n = rng.randint(2, 7)
        g, model = random_interval_instance(n, rng)
        solver = IntervalConnectedSolver(g, model)
        for _ in range(3):
            a = rng.getrandbits(n)
            assert stream_set(solver, a) == oracle_fixed_two(g, Variant.CRDF, a)


def test_interval_solver_covers_all_two_sets_on_paths():
    for n in range(1, 8):
        g = path_graph(n)
        solver = IntervalConnectedSolver(g, path_interval_model(n))
        union = set()
        for a in range(1 << n):
            union |= stream_set(solver, a)
        assert union == oracle_all_minimal(g, Variant.CRDF)


def sparse_interval_layout(n, rng):
    """Five short anchors spaced along a line; every gap between consecutive
    anchors gets one bridging interval, the other n - 9 go to random gaps.

    Connecting the positive set often takes one raised bridge per gap, so
    many completions have four raised vertices and go through the window
    DAG, unlike those of short random layouts.
    """
    out = [(4 * i, 4 * i + 1) for i in range(5)]
    gaps = list(range(4))
    while len(out) < n:
        i = gaps.pop(0) if gaps else rng.randrange(4)
        out.append((4 * i + 1, 4 * i + rng.choice((4, 5))))
    rng.shuffle(out)
    return IntervalModel(tuple(out))


def test_interval_solver_matches_oracle_on_long_sparse_layouts():
    rng = random.Random(0x4568)
    window_route = 0
    for _ in range(30):
        n = rng.randint(9, 11)
        model = sparse_interval_layout(n, rng)
        g = intersection_graph(model)
        solver = IntervalConnectedSolver(g, model)
        want = defaultdict(set)
        for f in oracle_all_minimal(g, Variant.CRDF, cap=11):
            want[two_mask(f)].add(f)
        for a in set(want) | {rng.getrandbits(n) for _ in range(20)}:
            got = stream_set(solver, a)
            assert got == want[a], (model, a)
            pos0 = TwoSetContext(g, a, Variant.CRDF).pos0
            window_route += sum((pos_mask(f) & ~pos0).bit_count() >= 4 for f in got)
    assert window_route >= 20


def test_no_raised_set_connects_a_positive_set_across_graph_components():
    # random sets on random layouts, and the anchors of chains, which need
    # one connector per gap: the solver refuses a positive set whose members
    # lie in two components of the graph by its run table, and exactly
    # there no choice of raised vertices connects it
    rng = random.Random(0x4569)
    instances = []
    for _ in range(300):
        n = rng.randint(1, 8)
        instances.append((*random_interval_instance(n, rng), rng.getrandbits(n)))
    for anchors in range(1, 7):
        g, model, _ = double_link_chain(anchors)
        instances.append((g, model, mask_of(range(anchors))))
    seen = set()
    for g, model, pos in instances:
        spare = list(bits(g.full & ~pos))
        connectable = any(
            is_connected_set(g, pos | mask_of(x))
            for k in range(len(spare) + 1)
            for x in combinations(spare, k)
        )
        solver = IntervalConnectedSolver(g, model)
        runs = {solver._run[p] for p, v in enumerate(solver.order) if pos >> v & 1}
        assert connectable == (len(runs) <= 1), (model, pos)
        seen.add(connectable)
    assert seen == {False, True}


def connector_chain_layout(rng):
    """2-4 anchors along a line, each gap bridged by a chain of 1-3
    connectors that must all be raised to cross it, and 1-2 long intervals
    that may bridge several gaps at once; at most 11 in all, shuffled."""
    anchors = rng.randint(2, 4)
    layout = [(10 * i, 10 * i + 3) for i in range(anchors)]
    for i in range(anchors - 1):
        links = rng.randint(1, 3)
        ends = [10 * i + 2 + 9 * j // links for j in range(links + 1)]
        layout += [(ends[j], ends[j + 1]) for j in range(links)]
    for _ in range(rng.randint(1, 2)):
        lo = rng.randint(0, 10 * anchors - 10)
        layout.append((lo, lo + rng.randint(8, 25)))
    rng.shuffle(layout)
    return IntervalModel(tuple(layout[:11]))


def test_small_raised_sets_match_the_direct_scan():
    # the completions raising at most three vertices, read off near, far,
    # the borders and the start and end tests, against a scan of every
    # raised set of at most three 0-vertices through TwoSetContext.minimal:
    # every valid 2-set of every model of at most five intervals (up to
    # endpoint order), and of connector-chain layouts
    models = [model for n in range(1, 6) for model in interval_models(n)]
    assert len(models) == 1069
    rng = random.Random(0x4573)
    models += [connector_chain_layout(rng) for _ in range(150)]
    sizes = defaultdict(int)
    for model in models:
        g = intersection_graph(model)
        solver = IntervalConnectedSolver(g, model)
        for a in range(1 << g.n):
            ctx = TwoSetContext(g, a, Variant.CRDF)
            if not ctx.valid():
                continue
            got = {f for f in solver.stream(a) if (pos_mask(f) & ~ctx.pos0).bit_count() <= 3}
            assert got == small_completions(g, a), (model, a)
            for f in got:
                sizes[(pos_mask(f) & ~ctx.pos0).bit_count()] += 1
    assert min(sizes[k] for k in range(4)) >= 200, dict(sizes)


def long_interval_layout(k, ends):
    """[0, 10k] over k short intervals, and with ends, one interval outside
    it at each end, each joined to it by one connector."""
    intervals = [(0, 10 * k)] + [(10 * i + 1, 10 * i + 2) for i in range(k)]
    if ends:
        intervals += [(-10, -5), (-6, 0), (10 * k, 10 * k + 6), (10 * k + 5, 10 * k + 10)]
    return IntervalModel(tuple(intervals))


@pytest.mark.parametrize("ends", (False, True))
def test_long_interval_streams_without_a_search(monkeypatch, window_tests, ends):
    # the 2-set {long}: every short interval is a 0-vertex, so a scan of
    # the raised sets of at most three of them tests C(k, 3) candidates,
    # one search per raised vertex each.  The window tables answer it with
    # no minimality call, no search, and window tests at most one per spare
    # vertex
    work = defaultdict(int)
    reach, minimal = graph_core._reach, TwoSetContext.minimal

    def counted_reach(*args):
        work["reach"] += 1
        return reach(*args)

    def counted_minimal(*args):
        work["minimal"] += 1
        return minimal(*args)

    monkeypatch.setattr(graph_core, "_reach", counted_reach)
    monkeypatch.setattr(TwoSetContext, "minimal", counted_minimal)
    for k in (20, 40, 80):
        model = long_interval_layout(k, ends)
        g = intersection_graph(model)
        solver = IntervalConnectedSolver(g, model)
        # the solver's own stream: the suite's yield check runs searches
        out = list(IntervalConnectedSolver.stream.__wrapped__(solver, bit(0)))
        assert dict(work) == {}, (k, dict(work))
        tests = sum(len(calls) for calls in window_tests.values())
        assert tests <= g.n - 1, (k, dict(window_tests))
        window_tests.clear()
        # every short interval stays 0, and with ends both connectors rise
        assert out == [function_from_masks(g.n, bit(0), g.full & ~mask_of(range(1, k + 1)))]


def probe_start(g, ctx, tables, x, y, z):
    s, base = tables.s, ctx.pos0
    return (
        same_component(g, base | mask_of((x, y, z)), s, z)
        and not same_component(g, base | mask_of((x, z)), s, z)
        and not same_component(g, base | mask_of((y, z)), s, z)
        and ctx.private_ok(mask_of((x, y, z)))
    )


def probe_end(g, ctx, tables, x, y, z):
    t, base = tables.t, ctx.pos0
    return (
        same_component(g, base | mask_of((x, y, z)), t, x)
        and not same_component(g, base | mask_of((x, z)), t, x)
        and not same_component(g, base | mask_of((x, y)), t, x)
        and ctx.private_ok(mask_of((x, y, z)))
    )


def probe_middle(g, ctx, w, x, y, z):
    base = ctx.pos0
    return (
        same_component(g, base | mask_of((w, x, y, z)), w, z)
        and not same_component(g, base | mask_of((w, x, z)), w, z)
        and not same_component(g, base | mask_of((w, y, z)), w, z)
        and ctx.private_ok(mask_of((w, x, y, z)))
    )


def test_window_masks_match_the_connectivity_probes():
    # the mask rule must agree with the three probes of each window on any
    # graph, including models that miss a chord of the graph.  Each window
    # test is read in one form, as the solver applies it: the mask bit or
    # end_ok, and the private-neighbor condition
    rng = random.Random(0x456A)
    checked = 0
    passed = defaultdict(int)
    for trial in range(60):
        if trial % 2 == 0:
            model = sparse_interval_layout(rng.randint(9, 10), rng)
            g = intersection_graph(model)
        else:
            g, model = random_interval_instance(rng.randint(5, 10), rng)
        if trial % 4 == 3:
            chords = {tuple(sorted(rng.sample(range(g.n), 2))) for _ in range(2)}
            g = Graph(g.n, sorted(set(g.edges()) | chords))
        for _ in range(4):
            ctx = TwoSetContext(g, mask_of(rng.sample(range(g.n), rng.randint(1, 2))), Variant.CRDF)
            universe = list(bits(g.full & ~ctx.pos0))
            # the tables are built for valid 2-sets only
            if not ctx.valid() or len(universe) > 8:
                continue
            iv = model.intervals
            s = min(bits(ctx.pos0), key=iv.__getitem__)
            t = max(bits(ctx.pos0), key=lambda v: iv[v][1])
            tables = WindowTables(g, ctx, s, t, components_by_search(g, ctx.pos0))
            for x, y, z in permutations(universe, 3):
                keeps = keeps_private(tables, (x, y, z))
                start_ok = bool(tables.start_mask(x, y) >> z & 1)
                for got, probe in ((start_ok, probe_start), (tables.end_ok(x, y, z), probe_end)):
                    want = probe(g, ctx, tables, x, y, z)
                    assert (got and keeps) == want, (model, g.edges(), ctx.a, x, y, z)
                    passed[probe] += want
                    checked += 1
            for w, x, y, z in permutations(universe, 4):
                want = probe_middle(g, ctx, w, x, y, z)
                got = bool(tables.middle_mask(w, x, y) >> z & 1) and keeps_private(tables, (w, x, y, z))
                assert got == want, (model, g.edges(), ctx.a, w, x, y, z)
                passed[probe_middle] += want
                checked += 1
    assert checked > 10000, checked
    assert min(passed[p] for p in (probe_start, probe_end, probe_middle)) >= 30, passed


def test_needing_both_is_three_component_probes():
    # the closed form against its definition, N(C_r(B + u + v)) less
    # N(C_r(B + u)) and N(C_r(B + v)), on random graphs: every root and
    # every ordered pair of 0-vertices other than the root
    rng = random.Random(0x4571)
    checked = nonzero = 0
    for _ in range(400):
        g = random_graph(rng.randint(1, 10), rng.uniform(0.1, 0.6), rng)
        a = mask_of(rng.sample(range(g.n), rng.randint(0, min(3, g.n))))
        ctx = TwoSetContext(g, a, Variant.CRDF)
        base = ctx.pos0
        root = next(bits(base))
        tables = WindowTables(g, ctx, root, root, components_by_search(g, base))
        zeros = list(bits(g.full & ~base))
        for r in range(g.n):
            for u, v in permutations([z for z in zeros if z != r], 2):
                want = (
                    component_neighborhood(g, base | bit(u) | bit(v), r)
                    & ~component_neighborhood(g, base | bit(u), r)
                    & ~component_neighborhood(g, base | bit(v), r)
                )
                assert tables._needing_both(r, u, v) == want, (g.edges(), ctx.a, r, u, v)
                checked += 1
                nonzero += want != 0
    assert checked > 8000 and nonzero > 400, (checked, nonzero)


def test_owner_indexed_private_test_matches_private_ok():
    # every window of at most four 0-vertices of valid 2-sets on random
    # graphs: for a window taken that keeps a private candidate of every
    # member of A, keeping(taken, zs) holds the z in zs for which taken + z
    # does too
    rng = random.Random(0x4572)
    seen = defaultdict(int)
    for _ in range(600):
        g = random_graph(rng.randint(2, 10), rng.uniform(0.1, 0.6), rng)
        a = mask_of(rng.sample(range(g.n), rng.randint(1, min(3, g.n))))
        ctx = TwoSetContext(g, a, Variant.CRDF)
        if not ctx.valid():
            continue
        root = next(bits(ctx.pos0))
        tables = WindowTables(g, ctx, root, root, components_by_search(g, ctx.pos0))
        zeros = g.full & ~ctx.pos0
        for k in range(4):
            for taken in map(mask_of, combinations(bits(zeros), k)):
                if not ctx.private_ok(taken):
                    continue
                rest = zeros & ~taken
                got = tables.keeping(taken, rest)
                assert got & ~rest == 0, (g.edges(), ctx.a, taken)
                for z in bits(rest):
                    want = ctx.private_ok(taken | bit(z))
                    assert bool(got >> z & 1) == want, (g.edges(), ctx.a, taken, z)
                    seen[want] += 1
    assert min(seen[True], seen[False]) >= 500, seen


# ------------------------------------------------------------ chain family


def test_double_link_chain_full_enumeration_matches_oracle():
    expected_totals = {2: 7, 3: 37}
    for n, total in expected_totals.items():
        g, model, _ = double_link_chain(n)
        solver = IntervalConnectedSolver(g, model)
        union = set()
        for a in range(1 << g.n):
            union |= stream_set(solver, a)
        assert union == oracle_all_minimal(g, Variant.CRDF)
        assert len(union) == total


def test_double_link_chain_seed_counts_double():
    for n in range(2, 7):
        g, model, seed = double_link_chain(n)
        solver = IntervalConnectedSolver(g, model)
        assert len(stream_set(solver, seed)) == 2 ** (n - 1)


def test_chain_layout_is_rejected_by_validation():
    # the chain is its layout's intersection graph, so the layout validates
    g, model, _ = double_link_chain(3)
    assert validate_interval_model(g, model)
    assert isinstance(solver_for(g, Variant.CRDF, model=model), IntervalConnectedSolver)
    # without the edge inside each connector pair the layout no longer
    # realizes the graph, and both the solver and the routing refuse it
    pairs = {(3 + 2 * gap, 4 + 2 * gap) for gap in range(2)}
    unpaired = Graph(g.n, [e for e in g.edges() if e not in pairs])
    assert unpaired.edge_count() == g.edge_count() - 2
    with pytest.raises(UnsupportedRoute):
        IntervalConnectedSolver(unpaired, model)
    with pytest.raises(UnsupportedRoute):
        solver_for(unpaired, Variant.CRDF, model=model, class_hint="interval")


def test_chord_the_model_does_not_show_still_connects():
    # the path layout misses the chord 0-4, which connects 0, 1, 2 and 4
    # with one raised vertex where the layout needs two; answers read off
    # that layout would be wrong, so the solver refuses it
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert (1, 1, 2, 0, 1) in oracle_fixed_two(g, Variant.CRDF, bit(2))
    with pytest.raises(UnsupportedRoute):
        IntervalConnectedSolver(g, path_interval_model(5))


def test_interval_order_graph_is_the_input_relabelled():
    # the constructor's model check, against the pairwise definition, on
    # models with equal and touching intervals: it accepts the intersection
    # graph, refuses it with any one pair toggled, and its position-labelled
    # copy maps back onto the input through order
    rng = random.Random(0x1D7)
    for _ in range(200):
        n = rng.randint(1, 12)
        iv = [(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(0, n) for _ in range(n))]
        if n >= 2:
            iv[rng.randrange(n)] = iv[rng.randrange(n)]
        model = IntervalModel(tuple(iv))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = {(u, v) for u, v in pairs if max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1])}
        solver = IntervalConnectedSolver(Graph(n, edges), model)
        order = solver.order
        for p, row in enumerate(solver._graph.adj):
            assert mask_of(order[q] for q in bits(row)) == solver.graph.adj[order[p]]
        if pairs:
            toggled = edges ^ {rng.choice(pairs)}
            with pytest.raises(UnsupportedRoute):
                IntervalConnectedSolver(Graph(n, toggled), model)
    # random (graph, model) pairs, a third of the graphs missing or gaining
    # one edge: the solver refuses exactly where the model does not realize
    # the graph
    seen = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        g, model = random_interval_instance(n, rng)
        if n >= 2 and rng.randrange(3) == 0:
            pair = rng.choice(list(combinations(range(n), 2)))
            g = Graph(n, set(g.edges()) ^ {pair})
        realized = validate_interval_model(g, model)
        if realized:
            IntervalConnectedSolver(g, model)
        else:
            with pytest.raises(UnsupportedRoute):
                IntervalConnectedSolver(g, model)
        seen.add(realized)
    assert seen == {False, True}


def test_window_tables_size_mismatch():
    # an input error (exit 1 in the CLI), not an unsupported route (exit 2)
    with pytest.raises(ValueError) as err:
        IntervalConnectedSolver(path_graph(4), path_interval_model(5))
    assert not isinstance(err.value, UnsupportedRoute)


# -------------------------------------------------------------- monotonicity


def test_nonempty_completions_are_downward_closed():
    rng = random.Random(0x9876)
    instances = []
    for _ in range(25):
        n = rng.randint(2, 7)
        instances.append(RdfSolver(random_graph(n, rng.uniform(0.2, 0.8), rng)))
        instances.append(MrdfSolver(random_graph(n, rng.uniform(0.2, 0.8), rng)))
        g, _ = random_cobipartite(n, rng.uniform(0.1, 0.8), rng)
        instances.append(CobipartiteSolver(g, rng.choice((Variant.TRDF, Variant.CRDF))))
        g, model = random_interval_instance(rng.randint(2, 6), rng)
        instances.append(IntervalConnectedSolver(g, model))
    for solver in instances:
        n = solver.graph.n
        for _ in range(6):
            b = rng.getrandbits(n)
            if next(solver.stream(b), None) is None:
                continue
            for v in bits(b):
                assert next(solver.stream(b & ~bit(v)), None) is not None, (
                    f"nonempty at {b:b} but empty after dropping {v}"
                )


# ---------------------------------------------------------------- edge cases


def test_empty_two_set_completions():
    p4 = path_graph(4)
    ones = (1, 1, 1, 1)
    assert list(RdfSolver(p4).stream(0)) == [ones]
    assert list(MrdfSolver(p4).stream(0)) == [ones]
    assert list(IntervalConnectedSolver(p4, path_interval_model(4)).stream(0)) == [ones]
    k4 = complete_graph(4)
    assert list(CobipartiteSolver(k4, Variant.TRDF).stream(0)) == [ones]

    # disconnected interval graph: no connected completion exists for the
    # empty 2-set
    split_model = IntervalModel(((0, 1), (5, 6)))
    g2 = intersection_graph(split_model)
    assert not is_connected(g2)
    assert list(IntervalConnectedSolver(g2, split_model).stream(0)) == []


def test_invalid_two_sets_stream_nothing():
    p3 = path_graph(3)
    a = mask_of([0, 2])  # both ends: neither keeps a private neighbor
    assert list(RdfSolver(p3).stream(a)) == []
    assert list(MrdfSolver(p3).stream(a)) == []
    assert list(IntervalConnectedSolver(p3, path_interval_model(3)).stream(a)) == []


def test_single_vertex_graph_completions():
    k1 = complete_graph(1)
    assert list(RdfSolver(k1).stream(0)) == [(1,)]
    assert list(RdfSolver(k1).stream(1)) == []  # a lone 2 lowers to a 1
    assert list(MrdfSolver(k1).stream(0)) == [(1,)]


def test_large_interval_completions_use_window_route():
    # the seed set of a 5-anchor chain forces one raised connector per gap:
    # completion sets of size 4, which go through the path-in-DAG route
    g, model, seed = double_link_chain(5)
    solver = IntervalConnectedSolver(g, model)
    out = stream_set(solver, seed)
    assert len(out) == 16
    base = canonical_rdf(g, seed)
    for f in out:
        raised = {v for v in range(g.n) if f[v] == 1 and base[v] == 0}
        assert len(raised) == 4
        for gap in range(4):
            pair = {5 + 2 * gap, 5 + 2 * gap + 1}
            assert len(pair & raised) == 1


def test_long_chain_first_output_is_fast():
    g, model, seed = double_link_chain(40)
    solver = IntervalConnectedSolver(g, model)
    t0 = time.perf_counter()
    first = next(solver.stream(seed), None)
    elapsed = time.perf_counter() - t0
    assert first is not None and two_mask(first) == seed
    assert elapsed < 1.0, f"first output took {elapsed:.2f}s"


def searches_to_first_output(monkeypatch, anchors):
    """Breadth-first searches from building a solver to building the first
    completion of a k-anchor chain's 2-set.  Every search in the package
    runs graphs._reach; the count is read when the solver builds its output,
    before the suite's yield check runs searches of its own."""
    searches = 0
    at_output = []
    reach, build = graph_core._reach, fixed_two.function_from_masks

    def counted(*args):
        nonlocal searches
        searches += 1
        return reach(*args)

    def built(*args):
        at_output.append(searches)
        return build(*args)

    monkeypatch.setattr(graph_core, "_reach", counted)
    monkeypatch.setattr(fixed_two, "function_from_masks", built)
    g, model, seed = double_link_chain(anchors)
    first = next(IntervalConnectedSolver(g, model).stream(seed), None)
    assert first is not None and two_mask(first) == seed
    return at_output[0]


def test_first_output_probe_count_grows_linearly(monkeypatch):
    # the sweep hands the window tables the components of the positive set,
    # and the window tests are closed forms, so the count is zero at every
    # length (it was one search per anchor)
    counts = [searches_to_first_output(monkeypatch, k) for k in (20, 40, 80, 160)]
    assert counts == [0, 0, 0, 0], counts


@pytest.mark.parametrize("anchors", (20, 40, 80, 160))
def test_first_output_searches_once_per_anchor(monkeypatch, anchors):
    # at most once per anchor, and in fact never: the interval route reads
    # every raised set off its window tables
    assert searches_to_first_output(monkeypatch, anchors) == 0


class CountedTables(WindowTables):
    """WindowTables that records the arguments of every window test."""

    tests = None  # test name -> list of argument tuples, set per test

    def start_mask(self, *args):
        self.tests["start"].append(args)
        return super().start_mask(*args)

    def middle_mask(self, *args):
        self.tests["middle"].append(args)
        return super().middle_mask(*args)

    def end_ok(self, *args):
        self.tests["end"].append(args)
        return super().end_ok(*args)


@pytest.fixture
def window_tests(monkeypatch):
    tests = defaultdict(list)
    monkeypatch.setattr(CountedTables, "tests", tests)
    monkeypatch.setattr(fixed_two, "WindowTables", CountedTables)
    return tests


@pytest.mark.parametrize("anchors", (20, 40, 80, 160))
def test_first_output_takes_two_window_tests_per_anchor(window_tests, anchors):
    g, model, seed = double_link_chain(anchors)
    first = next(IntervalConnectedSolver(g, model).stream(seed))
    assert two_mask(first) == seed
    count = sum(len(calls) for calls in window_tests.values())
    assert 0 < count <= 2 * anchors, dict(window_tests)


def test_full_stream_tests_each_dag_node_once(window_tests):
    g, model, seed = double_link_chain(8)
    assert len(list(IntervalConnectedSolver(g, model).stream(seed))) == 128
    # the DAG has 40 nodes, and each is tested once however many paths
    # enter it
    for name in ("middle", "end"):
        calls = window_tests[name]
        assert len(calls) == len(set(calls)) == 40, name


def spread_layout(n, rng):
    """n intervals [2i + U(0,3), that + U(1,7)], each moved left to the
    furthest right end before it where it would start a gap, so the graph
    is connected.  Its empty 2-sets have long runs of spare intervals."""
    intervals = []
    reach = 3
    for i in range(n):
        lo = min(2 * i + rng.randint(0, 3), reach)
        hi = lo + rng.randint(1, 7)
        reach = max(reach, hi)
        intervals.append((lo, hi))
    model = IntervalModel(tuple(intervals))
    return intersection_graph(model), model


class StartCountedTables(WindowTables):
    """WindowTables that counts its own start tests."""

    made = None  # every table built, set per test

    def __init__(self, g, ctx, *args):
        super().__init__(g, ctx, *args)
        self.graph, self.ctx = g, ctx
        self.starts = 0
        self.made.append(self)

    def start_mask(self, *args):
        self.starts += 1
        return super().start_mask(*args)


def test_start_pairs_grow_linearly_at_scale(monkeypatch):
    # the start pairs tried per 2-set over the engine's first 2,000 outputs
    # on spread layouts: only pairs with one member next to s's component,
    # found here by search, so the worst 2-set grows linearly in the layout
    # (it was every pair of spare vertices: 406 / 1,485 / 3,828 tests)
    monkeypatch.setattr(fixed_two, "WindowTables", StartCountedTables)
    worst = {}
    for n in (40, 80, 160):
        made = []
        monkeypatch.setattr(StartCountedTables, "made", made)
        g, model = spread_layout(n, random.Random(n))
        assert is_connected(g)
        solver = IntervalConnectedSolver(g, model)
        assert sum(1 for _ in islice(iter_minimal(g, Variant.CRDF, solver), 2000)) == 2000
        for tables in made:
            base = tables.ctx.pos0
            spare = tables.graph.full & ~base
            near = component_neighborhood(tables.graph, base, tables.s) & spare
            assert tables.starts <= near.bit_count() * spare.bit_count(), (n, tables.ctx.a)
        worst[n] = max(tables.starts for tables in made)
    assert worst[160] <= 4 * worst[40], worst


def chain_like_layout(rng):
    """3-7 anchors along a line, 1-3 jittered connectors per gap and up to 3
    random extra intervals, at most 22 in all, under a random labelling.

    Returns the intersection graph, the model and the anchors' labels.
    """
    anchors = rng.randint(3, 7)
    layout = [(10 * i + rng.randint(0, 2), 10 * i + rng.randint(5, 7)) for i in range(anchors)]
    for i in range(anchors - 1):
        # leave room for one connector in each later gap
        for _ in range(min(rng.randint(1, 3), 22 - len(layout) - (anchors - 2 - i))):
            layout.append((10 * i + rng.randint(4, 6), 10 * i + rng.randint(10, 12)))
    for _ in range(min(rng.randint(0, 3), 22 - len(layout))):
        lo = rng.randint(0, 10 * anchors)
        layout.append((lo, lo + rng.randint(0, 8)))
    perm = list(range(len(layout)))
    rng.shuffle(perm)
    intervals = [None] * len(layout)
    for old, new in enumerate(perm):
        intervals[new] = layout[old]
    model = IntervalModel(tuple(intervals))
    return intersection_graph(model), model, perm[:anchors]


# recorded before the window walk was rewritten, so a change of output order
# fails here
ORDER_PINNED = "3c11a745edde98147979f4b59a80ee5dd72dd07860a93b8d522df8b6557b5c64"


def test_interval_output_order_is_pinned():
    # one digest over the ordered outputs of 40 random 2-sets (about half
    # the anchors, sometimes one more vertex) on each of 200 layouts; 1,647
    # of the 4,224 outputs raise four or more vertices, so come from the
    # window DAG
    digest = hashlib.sha256()
    outputs = window_route = 0
    for seed in range(200):
        rng = random.Random(f"order-pin/{seed}")
        g, model, anchors = chain_like_layout(rng)
        solver = IntervalConnectedSolver(g, model)
        for _ in range(40):
            a = mask_of(v for v in anchors if rng.random() < 0.5)
            if rng.random() < 0.25:
                a |= bit(rng.randrange(g.n))
            digest.update(f"{seed} {a}\n".encode())
            pos0 = TwoSetContext(g, a, Variant.CRDF).pos0
            for f in solver.stream(a):
                digest.update(format_function(f).encode() + b"\n")
                outputs += 1
                window_route += (pos_mask(f) & ~pos0).bit_count() >= 4
    assert (outputs, window_route) == (4224, 1647)
    assert digest.hexdigest() == ORDER_PINNED


# recorded before the window tests took their closed form and the start
# pairs were restricted, so a change of output order, or an output lost on a
# 2-set that streams nothing, fails here
EVERY_SET_PINNED = "3ee23ed50c220fa41265177c8733ba85c30d8aed505d9463d416806e2c1435ae"


def test_interval_output_order_is_pinned_on_every_two_set():
    # one digest over the ordered stream of every valid 2-set, empty ones
    # included, on 60 layouts of at most 12 intervals: random, sparse (many
    # completions through the window DAG) and chain-like
    digest = hashlib.sha256()
    sets = empty = outputs = window_route = 0
    for seed in range(60):
        rng = random.Random(f"every-set/{seed}")
        if seed % 3 == 0:
            g, model = random_interval_instance(rng.randint(8, 12), rng)
        elif seed % 3 == 1:
            model = sparse_interval_layout(rng.randint(9, 12), rng)
            g = intersection_graph(model)
        else:
            g, model, _ = chain_like_layout(rng)
            while g.n > 12:
                g, model, _ = chain_like_layout(rng)
        solver = IntervalConnectedSolver(g, model)
        for a in range(1 << g.n):
            ctx = TwoSetContext(g, a, Variant.CRDF)
            if not ctx.valid():
                continue
            sets += 1
            digest.update(f"{seed} {a}\n".encode())
            got = 0
            for f in solver.stream(a):
                digest.update(format_function(f).encode() + b"\n")
                got += 1
                window_route += (pos_mask(f) & ~ctx.pos0).bit_count() >= 4
            outputs += got
            empty += not got
    assert (sets, empty, outputs, window_route) == (4046, 2900, 2309, 205)
    assert digest.hexdigest() == EVERY_SET_PINNED


# recorded before the per-2-set set-up moved onto per-graph bit tables, so a
# change of output order deep in a long chain fails here
DEEP_CHAIN_PINNED = "d33495791fc4eb25149d198c53c30a63ae8b7d54252912840d5906d7d470287d"


def test_deep_chain_output_order_is_pinned():
    # the first 4,096 completions of a 300-anchor chain's 2-set: each raises
    # one connector in each of the 299 gaps, so each is a 297-node path in
    # the window DAG.  The suite's per-yield check grades every one of them
    # on these 898 vertices, with one cut-vertex pass each
    g, model, seed = double_link_chain(300)
    digest = hashlib.sha256()
    count = 0
    for f in islice(IntervalConnectedSolver(g, model).stream(seed), 4096):
        assert two_mask(f) == seed
        digest.update(format_function(f).encode() + b"\n")
        count += 1
    assert count == 4096 and digest.hexdigest() == DEEP_CHAIN_PINNED


def test_dead_subtrees_are_walked_once():
    # without one twin in the last gap, the last anchor's only private
    # candidate must be raised to connect it, so every one of the 2^(k-2)
    # window paths dies at the end; a walk that entered a dead node again
    # would try them all (about 8 s at 24 anchors)
    for anchors in (4, 24):
        _, model, seed = double_link_chain(anchors)
        model = IntervalModel(model.intervals[:-1])
        g = intersection_graph(model)
        if anchors == 4:
            assert oracle_fixed_two(g, Variant.CRDF, seed) == set()
        t0 = time.perf_counter()
        assert list(IntervalConnectedSolver(g, model).stream(seed)) == []
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"an empty stream took {elapsed:.2f}s"


def test_long_chain_streams_under_a_low_recursion_limit():
    # raised sets of 119 members: a recursive DAG walk would need a frame
    # per member
    g, model, seed = double_link_chain(120)
    solver = IntervalConnectedSolver(g, model)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        out = list(islice(solver.stream(seed), 50))
    finally:
        sys.setrecursionlimit(limit)
    assert len(set(out)) == 50
    for f in out:
        assert sum(f[120 + 2 * gap] + f[121 + 2 * gap] for gap in range(119)) == 119
