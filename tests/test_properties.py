"""Property test: on every route, the engine's output set is the oracle's.

Examples are drawn deterministically (derandomize=True), so the suite stays
reproducible, and their number is bounded to keep it quick.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from romanenum.engine import iter_minimal
from romanenum.families import random_interval_instance
from romanenum.fixed_two import CobipartiteSolver, IntervalConnectedSolver, MrdfSolver, RdfSolver
from romanenum.graphs import CobipartitePartition, Graph, mask_of
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import Variant

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def some_of(draw, items):
    keep = draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return [x for x, kept in zip(items, keep) if kept]


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    return Graph(n, some_of(draw, list(combinations(range(n), 2))))


@st.composite
def cobipartite_graphs(draw, max_n=8):
    # cliques on 0..k-1 and k..n-1, and any edges between them
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    cliques = [(u, v) for u, v in combinations(range(n), 2) if v < k or u >= k]
    cross = [(u, v) for u in range(k) for v in range(k, n)]
    g = Graph(n, cliques + some_of(draw, cross))
    return g, CobipartitePartition(mask_of(range(k)), mask_of(range(k, n)))


def engine_matches_oracle(g, variant, solver):
    found = [f for _a, f in iter_minimal(g, variant, solver)]
    assert len(found) == len(set(found))
    assert set(found) == oracle_all_minimal(g, variant)


@PROPERTY
@given(graphs(), st.sampled_from((Variant.RDF, Variant.MRDF)))
def test_general_routes_match_the_oracle(g, variant):
    solver = RdfSolver(g) if variant is Variant.RDF else MrdfSolver(g)
    engine_matches_oracle(g, variant, solver)


@PROPERTY
@given(cobipartite_graphs(), st.sampled_from((Variant.TRDF, Variant.CRDF)))
def test_cobipartite_routes_match_the_oracle(instance, variant):
    g, part = instance
    engine_matches_oracle(g, variant, CobipartiteSolver(g, variant, part))


@PROPERTY
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_interval_route_matches_the_oracle(n, rng):
    g, model = random_interval_instance(n, rng)
    engine_matches_oracle(g, Variant.CRDF, IntervalConnectedSolver(g, model))
