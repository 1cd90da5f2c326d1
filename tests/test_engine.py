"""Engine behaviour: completeness, pruning, delay counters, budgets."""

import hashlib
import random
import sys
import time
from itertools import islice

import pytest

from romanenum.engine import EnumerationStats, iter_minimal, timed
from romanenum.families import (
    complete_graph,
    path_graph,
    random_cobipartite,
    random_graph,
    random_interval_instance,
)
from romanenum.fixed_two import (
    CobipartiteSolver,
    FixedTwoSolver,
    IntervalConnectedSolver,
    MrdfSolver,
    RdfSolver,
    solver_for,
)
from romanenum.graphs import Graph, IntervalModel, bit, intersection_graph, is_connected
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import (
    Variant,
    canonical_rdf,
    format_function,
    two_mask,
    valid_children,
    valid_two_set,
)

from reference import path_interval_model


def run_instances(rng):
    """A mixed bag of (graph, variant, solver) triples across all routes."""
    out = []
    for _ in range(12):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        out.append((g, Variant.RDF, RdfSolver(g)))
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        out.append((g, Variant.MRDF, MrdfSolver(g)))
        n = rng.randint(2, 6)
        g, _ = random_cobipartite(n, rng.uniform(0.1, 0.8), rng)
        variant = rng.choice((Variant.TRDF, Variant.CRDF))
        out.append((g, variant, solver_for(g, variant)))
        g, model = random_interval_instance(rng.randint(2, 6), rng)
        out.append((g, Variant.CRDF, IntervalConnectedSolver(g, model)))
    return out


def test_enumeration_is_complete_and_duplicate_free():
    rng = random.Random(0xE16)
    for g, variant, solver in run_instances(rng):
        pairs = list(iter_minimal(g, variant, solver))
        assert len(pairs) == len(set(pairs))
        for a, f in pairs:
            assert two_mask(f) == a
        assert {f for _a, f in pairs} == oracle_all_minimal(g, variant)


def test_pruning_changes_work_but_not_output():
    # pruned subtrees hold no output: the pruned run finds every function
    # the oracle finds, without looking at more than every subset of V
    rng = random.Random(0xE17)
    for g, variant, solver in run_instances(rng):
        st = EnumerationStats()
        found = [f for _a, f in iter_minimal(g, variant, solver, stats=st)]
        assert set(found) == oracle_all_minimal(g, variant)
        assert st.sets_explored <= 2**g.n
        assert st.outputs == len(found)


def test_delay_counters_stay_quadratic_with_pruning():
    rng = random.Random(0xE18)
    for g, variant, solver in run_instances(rng):
        st = EnumerationStats()
        for _pair in iter_minimal(g, variant, solver, stats=st):
            pass
        n = g.n
        assert st.max_consecutive_empty <= n * n
        assert st.max_inter_output_work <= n * n + 1
        assert st.empty_sets_explored <= st.sets_explored
        assert st.seconds >= 0.0


def test_stats_counters_are_consistent():
    g = path_graph(4)
    st = EnumerationStats()
    pairs = list(iter_minimal(g, Variant.RDF, RdfSolver(g), stats=st))
    assert st.outputs == len(pairs) == 7
    assert st.sets_explored == st.empty_sets_explored + 7  # one function per 2-set
    d = st.as_dict()
    assert d["outputs"] == 7
    assert set(d) == {
        "outputs",
        "sets_explored",
        "empty_sets_explored",
        "max_consecutive_empty",
        "max_inter_output_work",
        "seconds",
    }


def test_budget_semantics():
    g = path_graph(5)
    solver = RdfSolver(g)
    st_all = EnumerationStats()
    everything = list(iter_minimal(g, Variant.RDF, solver, stats=st_all))
    assert st_all.outputs == len(everything)
    assert len(everything) > 3

    # stopping early: take a prefix, then close the stream
    st = EnumerationStats()
    stream = iter_minimal(g, Variant.RDF, solver, stats=st)
    got = list(islice(stream, 3))
    stream.close()
    assert got == everything[:3]
    assert st.outputs == 3
    assert st.sets_explored <= st_all.sets_explored

    st_big = EnumerationStats()
    stream = iter_minimal(g, Variant.RDF, solver, stats=st_big)
    generous = list(islice(stream, 10**6))
    stream.close()
    assert generous == everything
    assert st_big.outputs == st_all.outputs


def test_zero_output_runs():
    k1 = complete_graph(1)
    st = EnumerationStats()
    assert list(iter_minimal(k1, Variant.TRDF, solver_for(k1, Variant.TRDF), stats=st)) == []
    assert st.outputs == 0
    assert st.sets_explored == 1  # the empty root kills the whole tree

    model = IntervalModel(((0, 1), (5, 6)))
    g = intersection_graph(model)
    solver = IntervalConnectedSolver(g, model)
    st = EnumerationStats()
    assert list(iter_minimal(g, Variant.CRDF, solver, stats=st)) == []
    assert st.outputs == 0
    assert st.sets_explored == 1


def test_solver_binding_is_checked():
    p4 = path_graph(4)
    p5 = path_graph(5)
    with pytest.raises(ValueError):
        next(iter_minimal(p5, Variant.RDF, RdfSolver(p4)))
    with pytest.raises(ValueError):
        next(iter_minimal(p4, Variant.MRDF, RdfSolver(p4)))


def test_external_stats_object_is_filled_in_place():
    g = path_graph(4)
    st = EnumerationStats()
    pairs = list(iter_minimal(g, Variant.RDF, RdfSolver(g), stats=st))
    assert st.outputs == len(pairs) == 7
    assert st.seconds > 0.0


def test_seconds_leave_out_the_consumer():
    g = path_graph(4)
    st = EnumerationStats()
    pause = 0.02
    pairs = 0
    for _pair in iter_minimal(g, Variant.RDF, RdfSolver(g), stats=st):
        pairs += 1
        time.sleep(pause)
    assert pairs == st.outputs == 7
    assert 0.0 < st.seconds < pairs * pause

    # closing the stream while it waits at an output stops the clock there too
    st = EnumerationStats()
    stream = iter_minimal(g, Variant.RDF, RdfSolver(g), stats=st)
    next(stream)
    time.sleep(0.05)
    stream.close()
    assert 0.0 < st.seconds < 0.05

    # fixed-two's clock is the same one around a single solver's stream: a
    # sleep at each output, then a close before the stream ends
    g = path_graph(7)
    solver = MrdfSolver(g)
    a = bit(1) | bit(5)
    assert len(list(solver.stream(a))) == 4
    st = EnumerationStats()
    stream = timed(solver.stream(a), st)
    taken = 0
    for _f in stream:
        taken += 1
        time.sleep(pause)
        if taken == 3:
            break
    stream.close()
    assert taken == st.outputs == 3
    assert 0.0 < st.seconds < taken * pause


def test_interval_route_on_paths_matches_oracle_through_engine():
    for n in range(1, 8):
        g = path_graph(n)
        solver = IntervalConnectedSolver(g, path_interval_model(n))
        found = {f for _a, f in iter_minimal(g, Variant.CRDF, solver)}
        assert found == oracle_all_minimal(g, Variant.CRDF)


def output_set(g, variant, solver):
    return {f for _a, f in iter_minimal(g, variant, solver)}


def two_point_instance(n, rng):
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


def test_cobipartite_and_interval_routes_agree_on_two_clique_interval_graphs():
    # above the oracle's cap, the two crdf routes check each other; a
    # disconnected graph has no connected rdf, and both routes give none
    rng = random.Random("two-point-cross-route")
    found = disconnected = 0
    for _ in range(24):
        g, model = two_point_instance(rng.randint(8, 22), rng)
        by_cliques = output_set(g, Variant.CRDF, CobipartiteSolver(g, Variant.CRDF))
        assert output_set(g, Variant.CRDF, IntervalConnectedSolver(g, model)) == by_cliques
        found += len(by_cliques)
        if not is_connected(g):
            assert by_cliques == set()
            disconnected += 1
    assert found > 0 and disconnected > 0


def relabelled(values, perm):
    """values, one per vertex, with vertex v's value moved to perm[v]."""
    out = [None] * len(values)
    for v, value in enumerate(values):
        out[perm[v]] = value
    return tuple(out)


def stretched_model(model, rng):
    """The model with its endpoints moved apart by an order-preserving map:
    equal endpoints stay equal, so the graph stays the same."""
    ends = sorted({x for interval in model.intervals for x in interval})
    moved, at = {}, 0
    for x in ends:
        at += rng.randint(1, 5)
        moved[x] = at
    return IntervalModel(tuple((moved[lo], moved[hi]) for lo, hi in model.intervals))


def test_output_sets_follow_a_relabelling_of_the_graph():
    # above the oracle's cap: relabelling the graph (and its interval model)
    # relabels every route's output set, and on the interval route a second
    # model of the same graph, stretched or mirrored, gives the same set
    rng = random.Random("relabel-routes")
    for _ in range(4):
        n = rng.randint(12, 16)
        perm = list(range(n))
        rng.shuffle(perm)
        general = random_graph(n, rng.uniform(0.3, 0.7), rng)
        cobipartite, _ = random_cobipartite(n, rng.uniform(0.1, 0.5), rng)
        interval, model = random_interval_instance(n, rng)
        moved = IntervalModel(relabelled(model.intervals, perm))
        runs = [
            (general, Variant.RDF, "general"),
            (general, Variant.MRDF, "general"),
            (cobipartite, Variant.TRDF, "cobipartite"),
            (cobipartite, Variant.CRDF, "cobipartite"),
            (interval, Variant.CRDF, "interval"),
        ]
        for g, variant, route in runs:
            want = output_set(g, variant, solver_for(g, variant, model, route))
            h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
            got = output_set(h, variant, solver_for(h, variant, moved, route))
            assert got == {relabelled(f, perm) for f in want}
        mirrored = IntervalModel(tuple((-hi, -lo) for lo, hi in model.intervals))
        for other in (stretched_model(model, rng), mirrored):
            assert output_set(interval, Variant.CRDF, IntervalConnectedSolver(interval, other)) == (
                output_set(interval, Variant.CRDF, IntervalConnectedSolver(interval, model))
            )


# recorded before the engine learnt to skip invalid children, so a change of
# output order on any engine route fails here
ENGINE_ORDER_PINNED = "8a715b4ab0a815ae8da03bf9f9abe1db437ca86382be7ca7d3394e0eecb2e7a2"


def pinned_runs():
    """(label, graph, variant, solver) for the engine order pin: rdf and
    mrdf on 100 random graphs, trdf and crdf on 50 cobipartite graphs, crdf
    on 50 interval models."""
    rng = random.Random("engine-order-pin")
    for seed in range(100):
        g = random_graph(rng.randint(1, 12), rng.uniform(0.1, 0.9), rng)
        yield f"general {seed}", g, Variant.RDF, RdfSolver(g)
        yield f"general {seed}", g, Variant.MRDF, MrdfSolver(g)
    for seed in range(50):
        g, _ = random_cobipartite(rng.randint(2, 10), rng.uniform(0.0, 0.8), rng)
        for variant in (Variant.TRDF, Variant.CRDF):
            yield f"cobipartite {seed}", g, variant, solver_for(g, variant)
    for seed in range(50):
        g, model = random_interval_instance(rng.randint(2, 10), rng)
        yield f"interval {seed}", g, Variant.CRDF, IntervalConnectedSolver(g, model)


class StreamOnly:
    """A solver seen through its protocol alone: graph, variant and stream,
    with no other attribute to fall back on."""

    __slots__ = ("graph", "variant", "stream")

    def __init__(self, solver):
        self.graph = solver.graph
        self.variant = solver.variant
        self.stream = solver.stream


def test_engine_output_order_is_pinned():
    # one digest over every route's ordered stream: a line per run, then a
    # line per output with its 2-set mask and the formatted function; the
    # engine reaches each solver through stream alone
    digest = hashlib.sha256()
    outputs = 0
    for label, g, variant, solver in pinned_runs():
        digest.update(f"{label} {variant.value}\n".encode())
        for a, f in iter_minimal(g, variant, StreamOnly(solver)):
            digest.update(f"{a} {format_function(f)}\n".encode())
            outputs += 1
    assert outputs == 11922
    assert digest.hexdigest() == ENGINE_ORDER_PINNED


def test_child_mask_is_exactly_the_valid_children():
    rng = random.Random(0xE19)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.9), rng)
        for a in range(1 << g.n):
            once = twice = 0
            for w in range(g.n):
                dominators = (g.cadj[w] & a).bit_count()
                once |= (dominators >= 1) << w
                twice |= (dominators >= 2) << w
            want = 0
            for v in range(a.bit_length(), g.n):
                if valid_two_set(g, a | bit(v)):
                    want |= bit(v)
            if not valid_two_set(g, a):
                assert want == 0
            assert valid_children(g, a, once, twice) == want, (g, a)


class Counted(FixedTwoSolver):
    """Passes stream through, and records every 2-set asked for that is not
    a valid 2-set."""

    def __init__(self, inner):
        super().__init__(inner.graph)
        self.variant = inner.variant
        self.inner = inner
        self.invalid = []

    def _check(self, a):
        if not valid_two_set(self.graph, a):
            self.invalid.append(a)

    def stream(self, a):
        self._check(a)
        return self.inner.stream(a)


def test_the_solver_never_sees_an_invalid_two_set():
    rng = random.Random(0xE1A)
    for g, variant, solver in run_instances(rng):
        counted = Counted(solver)
        st = EnumerationStats()
        for _pair in iter_minimal(g, variant, counted, stats=st):
            pass
        assert counted.invalid == []
        if variant is Variant.RDF:
            # every valid 2-set has its canonical rdf: an output per set
            assert st.empty_sets_explored == 0
            assert st.max_inter_output_work <= 1
            assert st.sets_explored == st.outputs


def test_deep_walk_under_a_low_recursion_limit():
    # the first branch of a long path is {0, 3, 4, 7, 8, ...}: within the
    # first 200 outputs the 2-sets reach 152 members, so a recursive walk
    # would need more frames than the limit allows
    g = path_graph(304)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        out = list(islice(iter_minimal(g, Variant.RDF, RdfSolver(g)), 200))
    finally:
        sys.setrecursionlimit(limit)
    assert len(set(out)) == 200
    assert max(a.bit_count() for a, _f in out) == 152
    for a, f in out:
        assert two_mask(f) == a
        assert f == canonical_rdf(g, a)
