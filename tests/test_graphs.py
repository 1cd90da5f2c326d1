"""Graph core: construction, neighborhoods, recognition, file formats."""

import random

import pytest

from romanenum.graphs import (
    CobipartitePartition,
    Graph,
    GraphFormatError,
    IntervalModel,
    bit,
    bits,
    closed_neighborhood,
    cut_vertices,
    format_graph,
    format_intervals,
    format_vertex_set,
    intersection_graph,
    is_connected,
    is_connected_set,
    is_dominating,
    mask_of,
    parse_graph,
    parse_intervals,
    parse_vertex_set,
    recognize_cobipartite,
    same_component,
)
from romanenum.cli import main
from romanenum.families import complete_graph, cycle_graph, path_graph
from romanenum.gadgets import parse_hypergraph

from reference import (
    component_neighborhood,
    has_universal_vertex,
    is_clique,
    open_neighborhood,
    validate_cobipartite,
    validate_interval_model,
)


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
    for text, entry in (("a", "'a'"), ("1,,2", "''"), ("1, 2.5", "'2.5'")):
        with pytest.raises(ValueError, match=f"vertex set entry {entry} is not an integer"):
            parse_vertex_set(text, 4)


def test_graph_construction_and_accessors():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4
    assert g.edge_count() == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (2, 3)]
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


def test_cut_vertices_are_the_vertices_whose_removal_disconnects():
    # every vertex set of random graphs from sparse to complete: None iff
    # G[s] is disconnected, else each v whose removal disconnects G[s]
    rng = random.Random(0xC07)
    seen = {"disconnected": 0, "cut": 0, "no cut": 0}
    for _ in range(300):
        n = rng.randint(0, 8)
        p = rng.choice((0.2, 0.4, 0.7, 1.0))
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for s in range(1 << n):
            got = cut_vertices(g, s)
            if not is_connected_set(g, s):
                assert got is None, (g.edges(), s)
                seen["disconnected"] += 1
                continue
            want = mask_of(v for v in bits(s) if not is_connected_set(g, s & ~bit(v)))
            assert got == want, (g.edges(), s)
            seen["cut" if want else "no cut"] += 1
    assert min(seen.values()) >= 2000, seen
    # a long path: the search keeps its own stack, not Python's
    path = path_graph(3000)
    assert cut_vertices(path, path.full) == path.full & ~bit(0) & ~bit(2999)


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


def test_cobipartite_recognition():
    p4 = path_graph(4)
    part = recognize_cobipartite(p4)
    assert part is not None
    assert validate_cobipartite(p4, part)
    # the complement of C5 is C5, an odd cycle, which does not two-colour
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


def test_intersection_graph_matches_pairwise_meeting():
    # the endpoint sweep against the definition, on models with equal
    # intervals and intervals that share one endpoint
    rng = random.Random(0x1D6)
    equal = touching = 0
    for _ in range(300):
        n = rng.randint(0, 14)
        iv = [(lo, lo + rng.randint(0, 3)) for lo in (rng.randint(0, n) for _ in range(n))]
        if n >= 2:
            iv[rng.randrange(n)] = iv[rng.randrange(n)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        want = Graph(n, [(u, v) for u, v in pairs if max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1])])
        assert intersection_graph(IntervalModel(tuple(iv))) == want, iv
        equal += sum(iv[u] == iv[v] for u, v in pairs)
        touching += sum(iv[u][1] == iv[v][0] or iv[v][1] == iv[u][0] for u, v in pairs)
    assert equal >= 300 and touching >= 1000, (equal, touching)


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


# each counted format: its parser, and the argv that reads a file of it
# (given the file and a valid graph file)
COUNTED = {
    "graph": (parse_graph, lambda path, graph: ["enumerate", "--graph", path]),
    "intervals": (
        parse_intervals,
        lambda path, graph: ["enumerate", "--graph", graph, "--variant", "crdf", "--intervals", path],
    ),
    "hypergraph": (
        parse_hypergraph,
        lambda path, graph: ["gadget", "--kind", "split-transversal", "--hypergraph", path],
    ),
}


@pytest.mark.parametrize(
    "kind, text, refusal",
    [
        ("graph", "", "empty graph file"),
        ("graph", "# only a comment\n\n", "empty graph file"),
        ("graph", "3 1 0\n0 1\n", "line 1: header must be 'n m'"),
        ("graph", "3 1\n0 x\n", "line 2: edge line must be 'u v'"),
        ("graph", "3 1\n\n0 1 2  # one too many\n", "line 3: edge line must be 'u v'"),
        ("graph", "3 2\n0 1\n", "expected 2 edges, found 1"),
        ("intervals", "", "empty interval file"),
        ("intervals", "2 2\n0 1\n1 2\n", "line 1: header must be 'n'"),
        ("intervals", "2\n0 1\n1 y\n", "line 3: interval line must be 'lo hi'"),
        ("intervals", "2\n0 1\n1\n", "line 3: interval line must be 'lo hi'"),
        ("intervals", "3\n0 1\n", "expected 3 intervals, found 1"),
        ("hypergraph", "", "empty hypergraph file"),
        ("hypergraph", "3\n0 1\n", "line 1: header must be 'n m'"),
        ("hypergraph", "3 1\n0 z\n", "line 2: edge line must be integers"),
        ("hypergraph", "3 2\n0 1\n", "expected 2 edges, found 1"),
    ],
)
def test_counted_files_refuse_malformed_text(kind, text, refusal, tmp_path, capsys):
    # one reader refuses every counted format the same way, naming the line
    # at fault; the command that reads the file exits 1 with no output
    parse, argv = COUNTED[kind]
    with pytest.raises(GraphFormatError) as exc:
        parse(text)
    assert str(exc.value) == refusal
    (tmp_path / "input").write_text(text)
    (tmp_path / "g.graph").write_text("2 1\n0 1\n")
    assert main(argv(str(tmp_path / "input"), str(tmp_path / "g.graph"))) == 1
    assert capsys.readouterr() == ("", f"error: {refusal}\n")


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
