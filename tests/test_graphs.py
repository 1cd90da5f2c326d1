"""Graph core: construction, neighborhoods, recognition, file formats."""

import random

import pytest

from romanenum.graphs import (
    CobipartitePartition,
    Graph,
    GraphFormatError,
    IntervalModel,
    bipartition,
    bit,
    bits,
    closed_neighborhood,
    component_neighborhood,
    format_graph,
    format_intervals,
    format_vertex_set,
    has_universal_vertex,
    induced_subgraph,
    intersection_graph,
    is_clique,
    is_connected,
    is_connected_set,
    is_dominating,
    mask_of,
    min_degree_peel,
    open_neighborhood,
    parse_graph,
    parse_intervals,
    parse_vertex_set,
    private_neighbors,
    recognize_cobipartite,
    same_component,
    validate_cobipartite,
    validate_interval_model,
)
from romanenum.families import complete_graph, cycle_graph, path_graph


def test_mask_helpers_round_trip():
    assert bit(0) == 1 and bit(3) == 8
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert list(bits(0)) == []
    assert parse_vertex_set("0,3", 4) == 0b1001
    assert parse_vertex_set(" 2 , 1 ", 4) == 0b110
    assert parse_vertex_set("", 4) == 0
    assert format_vertex_set(0b1001) == "0,3"
    assert format_vertex_set(0) == ""


def test_parse_vertex_set_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_vertex_set("4", 4)
    with pytest.raises(ValueError):
        parse_vertex_set("-1", 4)
    with pytest.raises(ValueError):
        parse_vertex_set("a", 4)


def test_graph_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
    assert g.degree(1) == 2 and g.degree(0) == 1
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.adj[1] == 0b0101
    assert g.cadj[1] == 0b0111
    assert g.full == 0b1111


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 0)])
    c = Graph(3, [(0, 2)])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_neighborhoods_on_path():
    p4 = path_graph(4)
    assert closed_neighborhood(p4, mask_of([0])) == 0b0011
    assert closed_neighborhood(p4, mask_of([1, 2])) == 0b1111
    assert closed_neighborhood(p4, 0) == 0
    assert open_neighborhood(p4, mask_of([1])) == 0b0101
    assert open_neighborhood(p4, mask_of([0, 1])) == 0b0111


def test_private_neighbors_on_path():
    p4 = path_graph(4)
    # vertex 0 within {0,3}: nothing else in the set reaches 0 or 1
    assert private_neighbors(p4, mask_of([0, 3]), 0) == 0b0011
    # vertex 0 within {0,2}: 1 is covered by 2, leaving only 0 itself
    assert private_neighbors(p4, mask_of([0, 2]), 0) == 0b0001
    with pytest.raises(ValueError):
        private_neighbors(p4, mask_of([0, 2]), 1)


def test_induced_subgraph_remaps_indices():
    p4 = path_graph(4)
    sub, old = induced_subgraph(p4, mask_of([0, 2, 3]))
    assert old == (0, 2, 3)
    assert sub.n == 3
    assert sorted(sub.edges()) == [(1, 2)]


def test_domination_predicate():
    p4 = path_graph(4)
    assert is_dominating(p4, mask_of([1, 2]))
    assert is_dominating(p4, mask_of([1, 3]))
    assert not is_dominating(p4, mask_of([0]))
    assert not is_dominating(p4, 0)
    assert is_dominating(Graph(0, []), 0)


def test_connectivity_predicates():
    p4 = path_graph(4)
    assert is_connected_set(p4, 0)  # empty set counts as connected
    assert is_connected_set(p4, mask_of([2]))
    assert is_connected_set(p4, mask_of([1, 2, 3]))
    assert not is_connected_set(p4, mask_of([0, 2]))
    assert same_component(p4, mask_of([0, 1, 3]), 0, 1)
    assert not same_component(p4, mask_of([0, 1, 3]), 0, 3)
    assert is_connected(p4)
    assert not is_connected(Graph(2, []))
    assert is_connected(Graph(1, []))


def test_component_neighborhood_is_what_joins_the_component():
    rng = random.Random(0x6A)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3])
        s = rng.getrandbits(n)
        v = rng.randrange(n)
        border = component_neighborhood(g, s, v)
        for z in range(n):
            if not (s | bit(v)) >> z & 1:
                assert bool(border >> z & 1) == same_component(g, s | bit(v) | bit(z), v, z)


def test_clique_and_universal():
    k4 = complete_graph(4)
    assert is_clique(k4, mask_of([0, 1, 3]))
    assert has_universal_vertex(k4)
    p4 = path_graph(4)
    assert not is_clique(p4, mask_of([0, 1, 2]))
    assert is_clique(p4, mask_of([1, 2]))
    assert not has_universal_vertex(p4)


def test_bipartition_even_cycle_yes_odd_no():
    assert bipartition(cycle_graph(6)) is not None
    assert bipartition(cycle_graph(5)) is None
    sides = bipartition(path_graph(4))
    assert sides is not None and (sides[0] | sides[1]) == 0b1111
    assert sides[0] & sides[1] == 0


def test_cobipartite_recognition():
    p4 = path_graph(4)
    part = recognize_cobipartite(p4)
    assert part is not None
    assert validate_cobipartite(p4, part)
    assert recognize_cobipartite(cycle_graph(5)) is None
    k4 = complete_graph(4)
    part = recognize_cobipartite(k4)
    assert part is not None and validate_cobipartite(k4, part)
    assert validate_cobipartite(p4, CobipartitePartition(0b0011, 0b1100))
    assert not validate_cobipartite(p4, CobipartitePartition(0b0101, 0b1010))
    assert not validate_cobipartite(p4, CobipartitePartition(0b0011, 0b0100))


def test_interval_model_validation():
    p3 = path_graph(3)
    good = IntervalModel(((0, 2), (1, 4), (3, 6)))
    assert validate_interval_model(p3, good)
    bad = IntervalModel(((0, 2), (1, 4), (0, 6)))  # extra overlap 0-2
    assert not validate_interval_model(p3, bad)
    assert not validate_interval_model(path_graph(4), good)  # size mismatch
    with pytest.raises(ValueError):
        IntervalModel(((2, 1),))


def test_interval_model_equality_hash_and_len():
    m = IntervalModel(((0, 2), (1, 4)))
    same = IntervalModel(((0, 2), (1, 4)))
    other = IntervalModel(((0, 2), (1, 5)))
    assert m == same and hash(m) == hash(same)
    assert m != other
    assert m != ((0, 2), (1, 4))  # a model is not its tuple of intervals
    assert len({m, same, other}) == 2
    assert len(m) == 2 and len(IntervalModel(())) == 0


def test_intersection_graph_matches_model():
    m = IntervalModel(((0, 2), (1, 4), (3, 6), (7, 8)))
    g = intersection_graph(m)
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert validate_interval_model(g, m)


def test_min_degree_peel_degeneracy():
    order, degeneracy = min_degree_peel(path_graph(6))
    assert sorted(order) == list(range(6))
    assert degeneracy == 1
    assert min_degree_peel(complete_graph(4))[1] == 3
    assert min_degree_peel(Graph(3, []))[1] == 0


def test_graph_file_round_trip():
    g = Graph(5, [(0, 1), (1, 4), (2, 3)])
    assert parse_graph(format_graph(g)) == g
    text = "# comment\n3 1\n\n0 2\n"
    assert parse_graph(text) == Graph(3, [(0, 2)])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",  # count mismatch
        "3 1\n0 3\n",  # vertex out of range
        "3 1\n0 0\n",  # self loop
        "3 2\n0 1\n0 1\n",  # duplicate
        "x y\n",
        "3 1\n0 1 2\n",
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_interval_file_round_trip():
    m = IntervalModel(((0, 2), (1, 4), (3, 6)))
    assert parse_intervals(format_intervals(m)) == m
    with pytest.raises(GraphFormatError):
        parse_intervals("2\n0 1\n")  # count mismatch
    with pytest.raises(GraphFormatError):
        parse_intervals("1\n5 2\n")  # reversed endpoints


def test_random_round_trips_seeded():
    rng = random.Random(4242)
    for _ in range(50):
        n = rng.randint(0, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph(n, edges)
        assert parse_graph(format_graph(g)) == g
        sub, old = induced_subgraph(g, rng.getrandbits(n) if n else 0)
        assert sub.n == len(old)
        for i, u in enumerate(old):
            for j, v in enumerate(old):
                assert sub.has_edge(i, j) == g.has_edge(u, v)
