"""Completion solvers versus the oracle, routing, and structural bounds.

conftest wraps every solver's stream, so every function a solver emits is
also re-checked against the minimality predicate as it leaves the stream.
"""

import random
import sys
import time
from collections import defaultdict
from itertools import combinations, islice, permutations

import pytest

import romanenum.fixed_two as fixed_two
from romanenum.families import (
    complete_graph,
    cycle_graph,
    double_link_chain,
    path_graph,
    path_interval_model,
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
    fewest_connectors,
    solver_for,
)
from romanenum.graphs import (
    CobipartitePartition,
    Graph,
    IntervalModel,
    bit,
    bits,
    intersection_graph,
    is_connected,
    is_connected_set,
    mask_of,
    same_component,
    validate_interval_model,
)
from romanenum.oracle import oracle_all_minimal, oracle_fixed_two
from romanenum.roman import (
    TwoSetContext,
    UnsupportedRoute,
    Variant,
    canonical_rdf,
    pos_mask,
    two_mask,
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
    first = solver.first(a)
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
        solver_for(p5, Variant.CRDF)  # no partition, no model
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF, class_hint="interval")  # model missing
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF, class_hint="cobipartite")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.CRDF, class_hint="chordal")
    with pytest.raises(UnsupportedRoute):
        solver_for(p5, Variant.PRDF)

    part = CobipartitePartition(mask_of([0, 1]), mask_of([2, 3]))
    assert isinstance(solver_for(k4, Variant.TRDF, partition=part), CobipartiteSolver)
    bad = CobipartitePartition(mask_of([0, 2]), mask_of([1, 3]))
    with pytest.raises(ValueError):
        solver_for(path_graph(4), Variant.TRDF, partition=bad)
    with pytest.raises(UnsupportedRoute):
        CobipartiteSolver(k4, Variant.RDF)


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
        g, part = random_cobipartite(n, rng.uniform(0.0, 0.9), rng)
        for variant in (Variant.TRDF, Variant.CRDF):
            solver = CobipartiteSolver(g, variant, part)
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


def test_fewest_connectors_matches_brute_force():
    rng = random.Random(0x4569)
    for _ in range(300):
        n = rng.randint(1, 8)
        g, model = random_interval_instance(n, rng)
        pos = rng.getrandbits(n)
        spare = sorted(bits(g.full & ~pos), key=lambda v: model.intervals[v])
        fewest = next(
            (
                k
                for k in range(len(spare) + 1)
                if any(is_connected_set(g, pos | mask_of(x)) for x in combinations(spare, k))
            ),
            None,
        )
        assert fewest_connectors(model, pos, spare) == fewest, (model, pos)


def probe_start(tables, x, y, z):
    g, s, base = tables.g, tables.s, tables.base_pos
    return (
        same_component(g, base | mask_of((x, y, z)), s, z)
        and not same_component(g, base | mask_of((x, z)), s, z)
        and not same_component(g, base | mask_of((y, z)), s, z)
        and tables.ctx.private_ok(mask_of((x, y, z)))
    )


def probe_end(tables, x, y, z):
    g, t, base = tables.g, tables.t, tables.base_pos
    return (
        same_component(g, base | mask_of((x, y, z)), t, x)
        and not same_component(g, base | mask_of((x, z)), t, x)
        and not same_component(g, base | mask_of((x, y)), t, x)
        and tables.ctx.private_ok(mask_of((x, y, z)))
    )


def probe_middle(tables, w, x, y, z):
    g, base = tables.g, tables.base_pos
    return (
        same_component(g, base | mask_of((w, x, y, z)), w, z)
        and not same_component(g, base | mask_of((w, x, z)), w, z)
        and not same_component(g, base | mask_of((w, y, z)), w, z)
        and tables.ctx.private_ok(mask_of((w, x, y, z)))
    )


def test_window_masks_match_the_connectivity_probes():
    # the mask rule must agree with the three probes of each window on any
    # graph, including models that miss a chord of the graph
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
            if not ctx.pos0 or len(universe) > 8:
                continue
            tables = WindowTables(g, model, ctx)
            for x, y, z in permutations(universe, 3):
                for test, probe in ((tables.start_ok, probe_start), (tables.end_ok, probe_end)):
                    want = probe(tables, x, y, z)
                    assert test(x, y, z) == want, (model, g.edges(), ctx.a, x, y, z)
                    passed[probe] += want
                    checked += 1
            for w, x, y, z in permutations(universe, 4):
                want = probe_middle(tables, w, x, y, z)
                assert tables.middle_ok(w, x, y, z) == want, (model, g.edges(), ctx.a, w, x, y, z)
                passed[probe_middle] += want
                checked += 1
    assert checked > 10000, checked
    assert min(passed[p] for p in (probe_start, probe_end, probe_middle)) >= 30, passed


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
        g, part = random_cobipartite(n, rng.uniform(0.1, 0.8), rng)
        instances.append(CobipartiteSolver(g, rng.choice((Variant.TRDF, Variant.CRDF)), part))
        g, model = random_interval_instance(rng.randint(2, 6), rng)
        instances.append(IntervalConnectedSolver(g, model))
    for solver in instances:
        n = solver.graph.n
        for _ in range(6):
            b = rng.getrandbits(n)
            if solver.first(b) is None:
                continue
            for v in bits(b):
                assert solver.first(b & ~bit(v)) is not None, (
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
    part = CobipartitePartition(mask_of([0, 1]), mask_of([2, 3]))
    assert list(CobipartiteSolver(k4, Variant.TRDF, part).stream(0)) == [ones]

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
    first = solver.first(seed)
    elapsed = time.perf_counter() - t0
    assert first is not None and two_mask(first) == seed
    assert elapsed < 1.0, f"first output took {elapsed:.2f}s"


def test_first_output_probe_count_grows_linearly(monkeypatch):
    # breadth-first searches until the first completion of the chain's 2-set;
    # a window test per (DAG node, later vertex) would grow about 4x per
    # doubling of the chain, one neighborhood mask per node about 2x
    searches = 0
    reach = fixed_two.component_neighborhood

    def counted(*args):
        nonlocal searches
        searches += 1
        return reach(*args)

    monkeypatch.setattr(fixed_two, "component_neighborhood", counted)
    counts = []
    for anchors in (20, 40, 80, 160):
        g, model, seed = double_link_chain(anchors)
        searches = 0
        first = IntervalConnectedSolver(g, model).first(seed)
        assert first is not None and two_mask(first) == seed
        counts.append(searches)
    for small, large in zip(counts, counts[1:]):
        assert 0 < large <= 2.5 * small, counts


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
