"""Ground-truth checks: the numpy oracle versus a plain-Python reference.

The reference implementation below re-derives variant membership and
pointwise minimality directly from the definitions with no shared code, so
agreement here is a genuine dual-route check.
"""

import random
from itertools import product

import pytest

from romanenum.families import complete_graph, path_graph, random_graph
from romanenum.graphs import Graph, GraphFormatError, bit, mask_of
from romanenum.oracle import (
    CapExceeded,
    CnfInstance,
    Hypergraph,
    oracle_all_minimal,
    oracle_fixed_two,
    parse_dimacs,
    parse_hypergraph,
)
from romanenum.roman import Variant, two_mask

from reference import (
    exists_minimal_dominating_superset,
    exists_minimal_geq,
    oracle_fixed_two_slice,
    oracle_sat,
    oracle_transversals,
    property_holders,
)

MINIMAL_VARIANTS = (Variant.RDF, Variant.MRDF, Variant.TRDF, Variant.CRDF)
ALL_VARIANTS = MINIMAL_VARIANTS + (Variant.PRDF,)


# ----------------------------------------------------- reference implementation


def reference_holds(g: Graph, f: tuple, variant: Variant) -> bool:
    """Variant membership straight from the definitions, no bit tricks."""
    n = g.n
    nbrs = [[u for u in range(n) if g.adj[v] >> u & 1] for v in range(n)]
    if variant is Variant.PRDF:
        return all(
            f[v] != 0 or sum(1 for u in nbrs[v] if f[u] == 2) == 1 for v in range(n)
        )
    if not all(f[v] != 0 or any(f[u] == 2 for u in nbrs[v]) for v in range(n)):
        return False
    if variant is Variant.RDF:
        return True
    if variant is Variant.MRDF:
        zero = {v for v in range(n) if f[v] == 0}
        return any(v not in zero and zero.isdisjoint(nbrs[v]) for v in range(n))
    pos = {v for v in range(n) if f[v] != 0}
    if variant is Variant.TRDF:
        return all(any(u in pos for u in nbrs[v]) for v in pos)
    if variant is Variant.CRDF:
        if not pos:
            return True
        stack = [next(iter(pos))]
        seen = set(stack)
        while stack:
            v = stack.pop()
            for u in nbrs[v]:
                if u in pos and u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen == pos
    raise AssertionError(variant)


def reference_minimal(g: Graph, variant: Variant) -> set:
    holders = [
        f for f in product((0, 1, 2), repeat=g.n) if reference_holds(g, f, variant)
    ]
    return {
        f
        for f in holders
        if not any(h != f and all(a <= b for a, b in zip(h, f)) for h in holders)
    }


def all_graphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


# ------------------------------------------------------------------ hand cases


def test_minimal_sets_on_tiny_complete_graphs():
    k1 = complete_graph(1)
    k2 = complete_graph(2)
    assert oracle_all_minimal(k1, Variant.RDF) == {(1,)}
    assert oracle_all_minimal(k1, Variant.MRDF) == {(1,)}
    assert oracle_all_minimal(k1, Variant.TRDF) == set()
    assert oracle_all_minimal(k1, Variant.CRDF) == {(1,)}
    assert oracle_all_minimal(k2, Variant.RDF) == {(0, 2), (2, 0), (1, 1)}
    assert oracle_all_minimal(k2, Variant.MRDF) == {(1, 1)}
    assert oracle_all_minimal(k2, Variant.TRDF) == {(1, 1)}
    assert oracle_all_minimal(k2, Variant.CRDF) == {(0, 2), (2, 0), (1, 1)}


def test_property_holders_on_single_vertex():
    k1 = complete_graph(1)
    assert property_holders(k1, Variant.RDF) == [(1,), (2,)]
    assert property_holders(k1, Variant.PRDF) == [(1,), (2,)]
    assert property_holders(k1, Variant.TRDF) == []


def test_oracle_matches_reference_exhaustively_small():
    for n in (1, 2, 3):
        for g in all_graphs(n):
            for variant in MINIMAL_VARIANTS:
                assert oracle_all_minimal(g, variant) == reference_minimal(g, variant)
            for variant in ALL_VARIANTS:
                expect = [
                    f
                    for f in product((0, 1, 2), repeat=n)
                    if reference_holds(g, f, variant)
                ]
                got = property_holders(g, variant)
                assert sorted(got) == sorted(expect)
                assert len(got) == len(set(got))


def test_oracle_matches_reference_random_n4():
    rng = random.Random(0xA11CE)
    for _ in range(25):
        g = random_graph(4, rng.uniform(0.1, 0.9), rng)
        for variant in MINIMAL_VARIANTS:
            assert oracle_all_minimal(g, variant) == reference_minimal(g, variant)


def test_exists_minimal_geq_matches_reference():
    rng = random.Random(0xBEE)
    for _ in range(40):
        g = random_graph(4, rng.uniform(0.2, 0.8), rng)
        variant = rng.choice(MINIMAL_VARIANTS)
        minimal = reference_minimal(g, variant)
        f = tuple(rng.choice((0, 0, 1, 2)) for _ in range(4))
        expect = any(all(a <= b for a, b in zip(f, h)) for h in minimal)
        assert exists_minimal_geq(g, f, variant) is expect


# ----------------------------------------------- fixed 2-set: global vs slice


def test_fixed_two_global_is_subset_of_slice():
    rng = random.Random(0xF1D0)
    for _ in range(60):
        n = rng.randint(2, 5)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        a = rng.getrandbits(n)
        variant = rng.choice(MINIMAL_VARIANTS)
        glob = oracle_fixed_two(g, variant, a)
        sli = oracle_fixed_two_slice(g, variant, a)
        assert glob <= sli
        assert all(two_mask(f) == a for f in sli)


def test_fixed_two_global_can_be_strictly_smaller():
    # On a 3-path with both ends forced to 2, the slice has a unique minimum
    # but no globally minimal function carries that 2-set: lowering one end
    # to 1 stays inside the property with a smaller 2-set.
    p3 = path_graph(3)
    a = mask_of([0, 2])
    assert oracle_fixed_two_slice(p3, Variant.RDF, a) == {(2, 0, 2)}
    assert oracle_fixed_two(p3, Variant.RDF, a) == set()


def test_fixed_two_partitions_all_minimal():
    rng = random.Random(0x5EED)
    for _ in range(10):
        g = random_graph(5, rng.uniform(0.2, 0.8), rng)
        variant = rng.choice(MINIMAL_VARIANTS)
        everything = oracle_all_minimal(g, variant)
        rebuilt = set()
        for a in range(1 << g.n):
            part = oracle_fixed_two(g, variant, a)
            assert all(two_mask(f) == a for f in part)
            rebuilt |= part
        assert rebuilt == everything


def test_cap_guard():
    g = path_graph(5)
    with pytest.raises(CapExceeded):
        oracle_all_minimal(g, Variant.RDF, cap=4)
    assert oracle_all_minimal(g, Variant.RDF, cap=5)
    with pytest.raises(CapExceeded):
        oracle_sat(CnfInstance(3, ((1, 2, 3),)), cap=2)
    with pytest.raises(CapExceeded):
        oracle_transversals(Hypergraph(4, (0b1111,)), cap=3)
    with pytest.raises(CapExceeded):
        exists_minimal_dominating_superset(g, 0, cap=4)


# -------------------------------------------------------------- hypergraphs


def test_transversal_oracle_hand_cases():
    h = Hypergraph(3, (mask_of([0, 1]), mask_of([1, 2])))
    assert oracle_transversals(h) == {mask_of([1]), mask_of([0, 2])}
    single = Hypergraph(2, (mask_of([0]),))
    assert oracle_transversals(single) == {mask_of([0])}
    nothing = Hypergraph(3, ())
    assert oracle_transversals(nothing) == {0}


def test_transversal_oracle_properties():
    rng = random.Random(0x7AB)
    for _ in range(30):
        n = rng.randint(1, 6)
        m = rng.randint(1, 5)
        edges = []
        for _ in range(m):
            e = 0
            while e == 0:
                e = rng.getrandbits(n)
            edges.append(e)
        h = Hypergraph(n, tuple(edges))
        trs = oracle_transversals(h)
        for s in trs:
            assert all(e & s for e in h.edges)
            for x in range(n):
                if s >> x & 1:
                    assert any(not e & (s & ~bit(x)) for e in h.edges)
        # antichain
        for s in trs:
            for t in trs:
                assert s == t or s & ~t


def test_hypergraph_validation_and_round_trip():
    with pytest.raises(ValueError):
        Hypergraph(3, (0,))
    with pytest.raises(ValueError):
        Hypergraph(2, (0b100,))
    h = Hypergraph(4, (0b0011, 0b1100, 0b0110))
    assert parse_hypergraph("4 3\n0 1\n2 3\n1 2\n") == h
    assert parse_hypergraph("2 1  # comment\n0 1\n") == Hypergraph(2, (0b11,))
    with pytest.raises(ValueError):
        parse_hypergraph("")
    with pytest.raises(ValueError):
        parse_hypergraph("2 2\n0 1\n")
    with pytest.raises(ValueError):
        parse_hypergraph("2 1\n0 5\n")
    # a header that is not two integers is refused by line, not by Python
    with pytest.raises(GraphFormatError, match="line 2: header"):
        parse_hypergraph("# three numbers\n3 2 1\n0 1\n1 2\n")
    with pytest.raises(GraphFormatError, match="line 1: header"):
        parse_hypergraph("x y\n0 1\n")
    with pytest.raises(GraphFormatError, match="line 2: edge"):
        parse_hypergraph("2 1\n0 x\n")


# --------------------------------------------------------------------- SAT


def test_sat_oracle_hand_cases():
    sat = CnfInstance(2, ((1, 2), (-1, -2)))
    model = oracle_sat(sat)
    assert model is not None
    assert model[0] != model[1]
    unsat = CnfInstance(1, ((1,), (-1,)))
    assert oracle_sat(unsat) is None


def test_monotone_validation():
    loose = CnfInstance(2, ((1, 2), (-1, -2)))
    loose.validate_monotone(strict=False)
    with pytest.raises(ValueError):
        loose.validate_monotone(strict=True)  # clauses are not 3 wide
    with pytest.raises(ValueError):
        CnfInstance(2, ((1, -2),)).validate_monotone(strict=False)  # mixed signs
    with pytest.raises(ValueError):
        CnfInstance(4, ((1, 2, 3, 4),)).validate_monotone(strict=False)  # too wide
    with pytest.raises(ValueError):
        CnfInstance(2, ((1, 1),)).validate_monotone(strict=False)  # repeat
    strict = CnfInstance(
        3, ((1, 2, 3), (1, 2, 3), (-1, -2, -3), (-1, -2, -3))
    )
    strict.validate_monotone(strict=True)
    assert oracle_sat(strict) is not None
    lopsided = CnfInstance(3, ((1, 2, 3), (1, 2, 3), (-1, -2, -3)))
    with pytest.raises(ValueError):
        lopsided.validate_monotone(strict=True)  # each variable needs 2 of each sign


def test_dimacs_validation_and_round_trip():
    c = CnfInstance(3, ((1, -2), (2, 3), (-3,)))
    assert parse_dimacs("p cnf 3 3\n1 -2 0\n2 3 0\n-3 0\n") == c
    text = "c header\np cnf 2 2\n1 2 0\n-1\n-2 0\n"
    assert parse_dimacs(text) == CnfInstance(2, ((1, 2), (-1, -2)))
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")  # no problem line
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause
    with pytest.raises(ValueError):
        parse_dimacs("p dnf 2 1\n1 2 0\n")
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n2 0\n")  # literal out of range
    with pytest.raises(ValueError, match="expected 5 clauses, found 2"):
        parse_dimacs("p cnf 3 5\n1 2 0\n-1 -3 0\n")
    with pytest.raises(ValueError, match="^line 3: clause literals must be integers$"):
        parse_dimacs("c x\np cnf 2 1\n1 2.0 0\n")
    with pytest.raises(ValueError, match="second problem line"):
        parse_dimacs("p cnf 2 2\np cnf 3 2\n1 2 0\n-1 -2 0\n")
    with pytest.raises(ValueError):
        CnfInstance(1, ((),))


# ---------------------------------------------------------- dominating sets


def test_minimal_dominating_superset_hand_cases():
    p4 = path_graph(4)
    for v in range(4):
        assert exists_minimal_dominating_superset(p4, bit(v))
    assert not exists_minimal_dominating_superset(p4, mask_of([0, 1]))
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert exists_minimal_dominating_superset(star, mask_of([1, 2]))
    assert not exists_minimal_dominating_superset(star, mask_of([0, 1]))
    assert exists_minimal_dominating_superset(p4, 0)  # empty seed: any minimal set


def test_minimal_dominating_superset_matches_brute_force():
    rng = random.Random(0xD0D0)
    for _ in range(30):
        n = rng.randint(2, 6)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        u = rng.getrandbits(n)
        full = g.full

        def closed(s):
            acc = s
            for v in range(n):
                if s >> v & 1:
                    acc |= g.adj[v]
            return acc

        doms = [d for d in range(1 << n) if closed(d) == full]
        minimal = [
            d
            for d in doms
            if all(closed(d & ~bit(v)) != full for v in range(n) if d >> v & 1)
        ]
        expect = any(d & u == u for d in minimal)
        assert exists_minimal_dominating_superset(g, u) is expect
