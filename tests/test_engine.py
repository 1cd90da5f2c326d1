"""Engine behaviour: completeness, pruning, delay counters, budgets."""

import random
import time
from itertools import islice

import pytest

from romanenum.engine import EnumerationStats, iter_minimal
from romanenum.families import (
    complete_graph,
    path_graph,
    random_cobipartite,
    random_graph,
    random_interval_instance,
)
from romanenum.fixed_two import IntervalConnectedSolver, MrdfSolver, RdfSolver, solver_for
from romanenum.graphs import IntervalModel, intersection_graph
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import Variant, two_mask

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


def test_interval_route_on_paths_matches_oracle_through_engine():
    for n in range(1, 8):
        g = path_graph(n)
        solver = IntervalConnectedSolver(g, path_interval_model(n))
        found = {f for _a, f in iter_minimal(g, Variant.CRDF, solver)}
        assert found == oracle_all_minimal(g, Variant.CRDF)
