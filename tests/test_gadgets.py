"""Reduction gadgets: layouts, graph properties, and source/target equivalences.

Every equivalence is checked with the exhaustive oracle on hand-sized
instances: satisfiability against completion non-emptiness, dominating-set
extension against pointwise domination, minimal transversals against the
completion bijection.
"""

import random

import pytest

from romanenum.families import complete_graph, path_graph, random_graph
from romanenum.gadgets import (
    GadgetError,
    gadget_crdf_from_sat,
    gadget_maxrd_from_extds,
    gadget_split_from_hypergraph,
    gadget_trdf_from_sat,
)
from romanenum.graphs import Graph, bit, bits, mask_of
from romanenum.oracle import CnfInstance, Hypergraph, oracle_fixed_two
from romanenum.roman import Variant

from reference import (
    exists_minimal_dominating_superset,
    exists_minimal_geq,
    has_universal_vertex,
    is_clique,
    oracle_sat,
    oracle_transversals,
    transversal_of,
)

SAT_SMALL = [
    CnfInstance(1, ((1,),)),
    CnfInstance(1, ((1,), (-1,))),
    CnfInstance(2, ((1, 2), (-1, -2))),
    CnfInstance(2, ((1,), (2,), (-1, -2))),
]

STRICT_22 = CnfInstance(
    6,
    (
        (1, 2, 3),
        (4, 5, 6),
        (1, 2, 3),
        (4, 5, 6),
        (-1, -2, -3),
        (-4, -5, -6),
        (-1, -2, -3),
        (-4, -5, -6),
    ),
)


def assert_sides(inst, left):
    """Every edge joins a vertex whose label starts with a prefix in `left`
    to one whose label does not, so the labels name a bipartition."""
    side = mask_of(v for v, name in enumerate(inst.labels) if name.split("_")[0] in left)
    for u, v in inst.graph.edges():
        assert (side >> u & 1) != (side >> v & 1), (inst.labels[u], inst.labels[v])


SAT_LEFT = ("v", "~v", "u")  # literals and chain u's; selectors, clauses, pendants opposite


def max_degree(g):
    return max(row.bit_count() for row in g.adj)


def degeneracy(g):
    """The largest degree seen when a vertex of least degree is removed
    again and again."""
    alive, worst = g.full, 0
    while alive:
        d, v = min(((g.adj[v] & alive).bit_count(), v) for v in bits(alive))
        worst = max(worst, d)
        alive &= ~bit(v)
    return worst


# ------------------------------------------------------------- SAT gadgets


def test_crdf_sat_gadget_layout():
    c = CnfInstance(2, ((1, 2), (-1, -2)))
    inst = gadget_crdf_from_sat(c)
    g = inst.graph
    assert g.n == 3 * 2 + 2 + 2 * 1
    assert inst.labels == (
        "v_1", "v_2", "~v_1", "~v_2", "w_1", "w_2", "p_1", "p_2", "u_1", "u'_1",
    )
    assert inst.fixed_two == mask_of([inst.labels.index("w_1"), inst.labels.index("w_2"), inst.labels.index("u_1")])
    assert inst.prefunction is None
    assert_sides(inst, SAT_LEFT)
    # selectors see exactly their two literal vertices (plus chain)
    w1 = inst.labels.index("w_1")
    assert g.adj[w1] & mask_of([inst.labels.index("v_1"), inst.labels.index("~v_1")]) == mask_of(
        [inst.labels.index("v_1"), inst.labels.index("~v_1")]
    )
    # clause vertex p_1 sees its literals v_1, v_2
    p1 = inst.labels.index("p_1")
    assert g.adj[p1] == mask_of([inst.labels.index("v_1"), inst.labels.index("v_2")])


def test_crdf_sat_gadget_equivalence():
    for c in SAT_SMALL:
        inst = gadget_crdf_from_sat(c)
        assert inst.graph.n == 3 * c.num_vars + len(c.clauses) + 2 * (c.num_vars - 1)
        assert_sides(inst, SAT_LEFT)
        cap = inst.graph.n
        completions = oracle_fixed_two(inst.graph, Variant.CRDF, inst.fixed_two, cap=cap)
        assert bool(completions) == (oracle_sat(c) is not None), c


def test_trdf_sat_gadget_equivalence():
    extra = [CnfInstance(3, ((1, 2, 3), (-1, -2), (-3,)))]
    for c in SAT_SMALL + extra:
        inst = gadget_trdf_from_sat(c)
        assert inst.graph.n == 3 * c.num_vars + len(c.clauses)
        assert_sides(inst, SAT_LEFT)
        cap = inst.graph.n
        completions = oracle_fixed_two(inst.graph, Variant.TRDF, inst.fixed_two, cap=cap)
        assert bool(completions) == (oracle_sat(c) is not None), c


def test_trdf_sat_gadget_layout_has_no_chain():
    c = CnfInstance(2, ((1, 2), (-1, -2)))
    inst = gadget_trdf_from_sat(c)
    assert inst.labels == ("v_1", "v_2", "~v_1", "~v_2", "w_1", "w_2", "p_1", "p_2")
    assert inst.fixed_two == mask_of([inst.labels.index("w_1"), inst.labels.index("w_2")])


def test_strict_mode_certificates():
    STRICT_22.validate_monotone(strict=True)  # the fixture really is (2,2)
    crdf = gadget_crdf_from_sat(STRICT_22, strict=True)
    assert crdf.graph.n == 36
    assert_sides(crdf, SAT_LEFT)
    assert max_degree(crdf.graph) <= 4
    assert degeneracy(crdf.graph) <= 2

    trdf = gadget_trdf_from_sat(STRICT_22, strict=True)
    assert trdf.graph.n == 26
    assert_sides(trdf, SAT_LEFT)
    assert max_degree(trdf.graph) <= 3
    assert degeneracy(trdf.graph) <= 2
    # the peel itself, on graphs of known degeneracy
    assert [degeneracy(g) for g in (path_graph(6), complete_graph(4), Graph(3, []))] == [1, 3, 0]


def test_strict_mode_rejects_loose_instances():
    with pytest.raises(ValueError):
        gadget_crdf_from_sat(CnfInstance(3, ((1, 2, 3),)), strict=True)
    with pytest.raises(ValueError):
        gadget_trdf_from_sat(CnfInstance(2, ((1, 2),)), strict=True)
    with pytest.raises(ValueError):
        gadget_crdf_from_sat(CnfInstance(2, ((1, -2),)))  # mixed signs, any mode


def test_sat_gadget_empty_clause_list():
    c = CnfInstance(2, ())
    inst = gadget_trdf_from_sat(c)
    assert inst.graph.n == 6
    assert oracle_sat(c) is not None  # vacuously satisfiable
    assert oracle_fixed_two(inst.graph, Variant.TRDF, inst.fixed_two, cap=6)


# ------------------------------------------------------- extension gadget


def test_extension_gadget_layout_and_prefunction():
    p4 = path_graph(4)
    inst = gadget_maxrd_from_extds(p4, mask_of([1]))
    g = inst.graph
    assert g.n == 2 * 4 + 4
    assert inst.labels == (
        "w_0", "w_1", "w_2", "w_3", "x_0", "x_1", "x_2", "x_3", "q", "r", "s", "t",
    )
    assert inst.fixed_two is None
    f = inst.prefunction
    assert f[inst.labels.index("s")] == 2
    assert f[inst.labels.index("w_1")] == 2
    assert f[inst.labels.index("q")] == 1
    assert f[inst.labels.index("t")] == 1
    assert sum(f) == 6
    assert_sides(inst, ("w", "q", "s"))
    # w_v is adjacent to x over the closed neighborhood
    w1 = inst.labels.index("w_1")
    assert g.adj[w1] == mask_of([inst.labels.index("x_0"), inst.labels.index("x_1"), inst.labels.index("x_2")])


def test_extension_gadget_hand_cases():
    p4 = path_graph(4)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    for g, u, expect in [
        (p4, mask_of([1]), True),
        (p4, mask_of([0, 1]), False),
        (star, mask_of([1, 2]), True),
        (star, mask_of([0, 1]), False),
    ]:
        inst = gadget_maxrd_from_extds(g, u)
        got = exists_minimal_geq(inst.graph, inst.prefunction, Variant.MRDF, cap=inst.graph.n)
        assert got is expect


def test_extension_gadget_equivalence_random():
    rng = random.Random(0x6AD6)
    for _ in range(14):
        n = rng.randint(1, 4)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        u = rng.getrandbits(n)
        inst = gadget_maxrd_from_extds(g, u)
        assert_sides(inst, ("w", "q", "s"))
        expect = exists_minimal_dominating_superset(g, u)
        got = exists_minimal_geq(inst.graph, inst.prefunction, Variant.MRDF, cap=inst.graph.n)
        assert got is expect, (g, u)


def test_extension_gadget_rejects_stray_vertices():
    with pytest.raises(GadgetError):
        gadget_maxrd_from_extds(path_graph(3), bit(5))


# ------------------------------------------------------------ split gadget


def random_hypergraph_no_universal(rng):
    while True:
        n = rng.randint(2, 5)
        m = rng.randint(2, 4)
        edges = []
        for _ in range(m):
            e = 0
            while e == 0:
                e = rng.getrandbits(n)
            edges.append(e)
        common = edges[0]
        for e in edges[1:]:
            common &= e
        if common == 0:
            return Hypergraph(n, tuple(edges))


def assert_split_sides(inst):
    """a, b and the u's form a clique, the w's an independent set."""
    g = inst.graph
    independent = mask_of(v for v, name in enumerate(inst.labels) if name.startswith("w_"))
    assert is_clique(g, g.full & ~independent)
    for v in bits(independent):
        assert g.adj[v] & independent == 0


def test_split_gadget_layout_and_certificates():
    h = Hypergraph(3, (mask_of([0, 1]), mask_of([2])))
    inst = gadget_split_from_hypergraph(h)
    g = inst.graph
    assert g.n == 2 + 3 + 2
    assert inst.labels == ("a", "b", "u_0", "u_1", "u_2", "w_0", "w_1")
    assert inst.fixed_two == bit(0)
    assert_split_sides(inst)
    # w_0 sees exactly the u's of its edge
    w0 = inst.labels.index("w_0")
    assert g.adj[w0] == mask_of([inst.labels.index("u_0"), inst.labels.index("u_1")])


def test_split_gadget_bijection_random():
    rng = random.Random(0x5B17)
    for _ in range(14):
        h = random_hypergraph_no_universal(rng)
        inst = gadget_split_from_hypergraph(h)
        assert_split_sides(inst)
        assert not has_universal_vertex(inst.graph)
        completions = oracle_fixed_two(inst.graph, Variant.CRDF, inst.fixed_two, cap=inst.graph.n)
        images = [transversal_of(h, f) for f in completions]
        assert len(images) == len(set(images)), "bijection collapsed two completions"
        assert set(images) == oracle_transversals(h)


def test_split_gadget_universal_element_handling():
    nested = Hypergraph(3, (mask_of([0, 1]), mask_of([1, 2]), mask_of([1])))
    with pytest.raises(GadgetError):
        gadget_split_from_hypergraph(nested)
    single = Hypergraph(1, (bit(0),))
    with pytest.raises(GadgetError):
        gadget_split_from_hypergraph(single)


def test_split_gadget_rejects_edgeless_hypergraph():
    with pytest.raises(GadgetError):
        gadget_split_from_hypergraph(Hypergraph(3, ()))
