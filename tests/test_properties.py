"""Property tests: on every route, the engine's output set is the oracle's,
and above the oracle's cap the interval route's completions do not depend on
how the graph is labelled or its model laid out, and on graphs that are both
cobipartite and interval the two crdf routes complete each 2-set alike.

Examples are drawn deterministically (derandomize=True), so the suite stays
reproducible, and their number is bounded to keep it quick.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from romanenum.engine import iter_minimal
from romanenum.families import double_link_chain, random_interval_instance
from romanenum.fixed_two import CobipartiteSolver, IntervalConnectedSolver, MrdfSolver, RdfSolver
from romanenum.graphs import Graph, IntervalModel, bits, closed_neighborhood, intersection_graph, mask_of
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import Variant, pos_mask

from reference import is_variant, nested_twins, relabelled, stretched_model, two_point_instance

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
    return Graph(n, cliques + some_of(draw, cross))


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
def test_cobipartite_routes_match_the_oracle(g, variant):
    engine_matches_oracle(g, variant, CobipartiteSolver(g, variant))


@PROPERTY
@given(st.integers(1, 9), st.randoms(use_true_random=False))
def test_interval_route_matches_the_oracle(n, rng):
    g, model = random_interval_instance(n, rng)
    engine_matches_oracle(g, Variant.CRDF, IntervalConnectedSolver(g, model))


@st.composite
def interval_cases(draw):
    """(graph, model, 2-set) above the oracle's cap: a double-link chain of
    6 to 10 anchors (16 to 28 intervals) with some of its odd anchors, or a
    random layout of 16 to 30 intervals with at most 3 members."""
    if draw(st.booleans()):
        g, model, odd_anchors = double_link_chain(draw(st.integers(6, 10)))
        return g, model, mask_of(some_of(draw, list(bits(odd_anchors))))
    g, model = random_interval_instance(draw(st.integers(16, 30)), draw(st.randoms(use_true_random=False)))
    return g, model, mask_of(draw(st.lists(st.integers(0, g.n - 1), max_size=3)))


def completions(g, model, a):
    return set(IntervalConnectedSolver(g, model).stream(a))


def test_interval_completions_survive_relabelling_and_other_models_of_the_graph():
    # relabelling the graph with its model relabels one 2-set's completions;
    # reordering equal intervals, stretching the endpoints or mirroring the
    # model keeps them.  One 2-set's stream per example, not a whole
    # enumeration, bounds the cost
    most_raised = []

    @PROPERTY
    @given(interval_cases(), st.randoms(use_true_random=False))
    def check(case, rng):
        g, model, a = case
        want = completions(g, model, a)
        assert all(is_variant(g, f, Variant.CRDF) for f in want)
        # raised: the 1-vertices next to A, which the canonical function has at 0
        next_to_a = closed_neighborhood(g, a) & ~a
        most_raised.append(max(((pos_mask(f) & next_to_a).bit_count() for f in want), default=0))

        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        moved = IntervalModel(relabelled(model.intervals, perm))
        assert completions(h, moved, mask_of(perm[v] for v in bits(a))) == {relabelled(f, perm) for f in want}

        mirrored = IntervalModel(tuple((-hi, -lo) for lo, hi in model.intervals))
        for other in (nested_twins(model, rng), stretched_model(model, rng), mirrored):
            assert intersection_graph(other) == g
            assert completions(g, other, a) == want

    check()
    assert max(most_raised) >= 4  # some example reached the window DAG


def test_two_crdf_routes_complete_each_two_set_alike():
    # two-point graphs of 16 to 30 intervals, above the oracle's cap: every
    # interval holds 10 or 20, so the graph is two cliques and interval
    # too, and for each drawn 2-set the cobipartite route and the interval
    # route stream the same completions
    found = []

    @PROPERTY
    @given(st.integers(16, 30), st.randoms(use_true_random=False), st.data())
    def check(n, rng, data):
        g, model = two_point_instance(n, rng)
        a = mask_of(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2)))
        want = set(CobipartiteSolver(g, Variant.CRDF).stream(a))
        assert set(IntervalConnectedSolver(g, model).stream(a)) == want, (model.intervals, a)
        found.append(len(want))

    check()
    assert sum(map(bool, found)) >= 40 and max(found) >= 10, found
