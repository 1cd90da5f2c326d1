"""Function predicates: variants, minimality, constraint probes, extension."""

import hashlib
import random
from collections import Counter
from itertools import combinations, islice, product

import pytest

from romanenum import graphs, roman
from romanenum.families import (
    complete_graph,
    cycle_graph,
    double_link_chain,
    path_graph,
    random_cobipartite,
    random_graph,
    random_interval_instance,
)
from romanenum.fixed_two import IntervalConnectedSolver
from romanenum.graphs import Graph, bit, bits, mask_of
from romanenum.oracle import oracle_all_minimal
from romanenum.roman import (
    TwoSetContext,
    UnsupportedRoute,
    Variant,
    canonical_rdf,
    format_function,
    function_from_masks,
    is_minimal_variant,
    minimality_report,
    parse_function,
    pos_mask,
    two_mask,
    valid_two_set,
)

from reference import (
    add_one,
    crdf_droppable_by_search,
    exists_minimal_geq,
    extension_check,
    is_variant,
    open_neighborhood,
    property_holders,
    sub_one,
    two_drop_iff_no_private,
    zero_raise_keeps_property,
)

ALL_MINIMAL_VARIANTS = (Variant.RDF, Variant.MRDF, Variant.TRDF, Variant.CRDF)


def test_function_text_round_trip():
    assert parse_function("2011") == (2, 0, 1, 1)
    assert format_function((2, 0, 1, 1)) == "2011"
    assert parse_function("") == ()
    with pytest.raises(ValueError):
        parse_function("2031")
    with pytest.raises(ValueError):
        parse_function("2 1")


def test_level_masks_and_weight():
    f = (2, 0, 1, 1, 2)
    assert ~pos_mask(f) & 0b11111 == 0b00010  # value 0
    assert pos_mask(f) & ~two_mask(f) == 0b01100  # value 1
    assert two_mask(f) == 0b10001  # value 2
    assert pos_mask(f) == 0b11101


def test_add_sub_one():
    assert add_one((0, 1, 0), 0b101) == (1, 1, 1)
    assert sub_one((2, 1, 2), 0b100) == (2, 1, 1)
    with pytest.raises(ValueError):
        add_one((2, 0), 0b01)
    with pytest.raises(ValueError):
        sub_one((0, 1), 0b01)


def test_rdf_predicate_basics():
    p4 = path_graph(4)
    assert is_variant(p4, (2, 0, 0, 2), Variant.RDF)
    assert is_variant(p4, (1, 1, 1, 1), Variant.RDF)
    assert not is_variant(p4, (2, 0, 0, 0), Variant.RDF)
    assert not is_variant(p4, (0, 1, 1, 1), Variant.RDF)
    assert is_variant(Graph(0, []), (), Variant.RDF)


def test_maximal_predicate():
    p4 = path_graph(4)
    # 0-set {1,2} dominates P4, so the rdf is not maximal
    assert not is_variant(p4, (2, 0, 0, 2), Variant.MRDF)
    assert is_variant(p4, (1, 1, 1, 1), Variant.MRDF)
    assert is_variant(p4, (2, 0, 1, 1), Variant.MRDF)


def test_total_and_connected_predicates():
    p4 = path_graph(4)
    assert is_variant(p4, (1, 1, 1, 1), Variant.TRDF)
    assert is_variant(p4, (1, 1, 1, 1), Variant.CRDF)
    # positive set {0,1} leaves 3... 2 has a 2-neighbor? no; use values carefully:
    # (2,1,0,0) is not even an rdf (3 undominated)
    assert not is_variant(p4, (2, 1, 0, 0), Variant.TRDF)
    # (2,0,0,2): both positives isolated in the induced graph
    assert not is_variant(p4, (2, 0, 0, 2), Variant.TRDF)
    assert not is_variant(p4, (2, 0, 0, 2), Variant.CRDF)
    # (2,1,0,2): positives {0,1,3}: 3 is isolated, and the set is disconnected
    assert not is_variant(p4, (2, 1, 0, 2), Variant.TRDF)
    assert not is_variant(p4, (2, 1, 0, 2), Variant.CRDF)
    # (2,1,1,2): induced path, together and connected
    assert is_variant(p4, (2, 1, 1, 2), Variant.TRDF)
    assert is_variant(p4, (2, 1, 1, 2), Variant.CRDF)
    # connectivity is strictly stronger than totality on C6
    c6 = cycle_graph(6)
    f = (1, 1, 0, 1, 1, 0)
    assert not is_variant(c6, f, Variant.RDF)  # 0s lack 2-neighbors
    f = (2, 1, 0, 2, 1, 0)
    assert is_variant(c6, f, Variant.TRDF)
    assert not is_variant(c6, f, Variant.CRDF)


def test_perfect_predicate():
    p3 = path_graph(3)
    assert is_variant(p3, (2, 0, 1), Variant.PRDF)
    # middle 0-vertex sees two 2s
    assert not is_variant(p3, (2, 0, 2), Variant.PRDF)
    assert is_variant(p3, (1, 1, 1), Variant.PRDF)


def test_canonical_rdf_and_valid_two_set():
    p4 = path_graph(4)
    assert canonical_rdf(p4, mask_of([1])) == (0, 2, 0, 1)
    assert canonical_rdf(p4, 0) == (1, 1, 1, 1)
    assert valid_two_set(p4, mask_of([1]))
    assert valid_two_set(p4, mask_of([0, 3]))
    assert valid_two_set(p4, 0)
    # adjacent pair on K2: each vertex's only private neighbor is itself
    k2 = complete_graph(2)
    assert not valid_two_set(k2, mask_of([0, 1]))
    assert valid_two_set(k2, mask_of([0]))
    # middle pair of P4: each keeps an outer private neighbor
    assert valid_two_set(p4, mask_of([1, 2]))
    # end plus its neighbor: N[0] is swallowed by N[1]
    assert not valid_two_set(p4, mask_of([0, 1]))


def test_context_validity_is_valid_two_set():
    # every 2-set of random graphs: the context's O(|A|) test against the
    # definition, and its rdf rule against the 2-set bijection that
    # RdfSolver yields from
    rng = random.Random(0x2C7)
    seen = {True: 0, False: 0}
    for _ in range(200):
        g = random_graph(rng.randint(0, 8), rng.uniform(0.1, 0.9), rng)
        for a in range(1 << g.n):
            want = valid_two_set(g, a)
            assert TwoSetContext(g, a, Variant.CRDF).valid() == want, (g.edges(), a)
            ctx = TwoSetContext(g, a, Variant.RDF)
            assert ctx.minimal(ctx.pos0) == want, (g.edges(), a)
            assert function_from_masks(g.n, a, ctx.pos0) == canonical_rdf(g, a), (g.edges(), a)
            seen[want] += 1
    assert min(seen.values()) >= 1000, seen


def test_droppable_is_the_definition():
    # every function whose 0-vertices lie in N(A), on random graphs: the
    # context's one droppability rule against the tuple predicate, which
    # shares no code with it
    rng = random.Random(0xD209)
    seen = {"fails": 0, "none": 0, "some": 0}
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        for a in range(1 << n):
            may_drop = open_neighborhood(g, a) & ~a
            for variant in ALL_MINIMAL_VARIANTS:
                ctx = TwoSetContext(g, a, variant)
                zeros = may_drop
                while True:
                    pos = g.full & ~zeros
                    f = function_from_masks(n, a, pos)
                    got = ctx.droppable(pos)
                    if not is_variant(g, f, variant):
                        assert got is None, (g.edges(), f, variant)
                        seen["fails"] += 1
                    else:
                        want = mask_of(
                            v for v in bits(pos & may_drop)
                            if is_variant(g, sub_one(f, bit(v)), variant)
                        )
                        assert got == want, (g.edges(), f, variant)
                        seen["some" if want else "none"] += 1
                    if not zeros:
                        break
                    zeros = (zeros - 1) & may_drop
    assert min(seen.values()) >= 1000, seen


def test_crdf_droppable_matches_one_search_per_vertex():
    # every valid A and every positive set pos >= pos0 of 400 random graphs
    # with n <= 9: the one cut-vertex pass against a search of G[pos - v]
    # per 1-vertex v, and the verdict that follows from each
    rng = random.Random(0xC0D)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.uniform(0.1, 0.7), rng)
        for a in range(1 << n):
            ctx = TwoSetContext(g, a, Variant.CRDF)
            if not ctx.valid():
                continue
            spare = raised = g.full & ~ctx.pos0
            while True:
                pos = ctx.pos0 | raised
                want = crdf_droppable_by_search(ctx, pos)
                assert ctx.droppable(pos) == want, (g.edges(), a, pos)
                verdict = ctx.private_ok(pos) and want == 0
                assert ctx.minimal(pos) == verdict, (g.edges(), a, pos)
                seen["disconnected" if want is None else verdict] += 1
                if not raised:
                    break
                raised = (raised - 1) & spare
    assert sum(seen.values()) > 100_000 and min(seen.values()) >= 1000, seen


def test_crdf_droppable_is_one_traversal(monkeypatch):
    # one cut-vertex pass of G[pos] per crdf droppable call and no other
    # search, on the first completions of a 300-anchor chain (898 vertices,
    # 299 raised connectors) and on every rdf of small graphs
    work = Counter()
    cut_vertices, reach = roman.cut_vertices, graphs._reach

    def counted_cut_vertices(*args):
        work["cut_vertices"] += 1
        return cut_vertices(*args)

    def counted_reach(*args):
        work["reach"] += 1
        return reach(*args)

    g, model, seed = double_link_chain(300)
    first = list(islice(IntervalConnectedSolver(g, model).stream(seed), 8))
    monkeypatch.setattr(roman, "cut_vertices", counted_cut_vertices)
    monkeypatch.setattr(graphs, "_reach", counted_reach)
    calls = 0
    for f in first:
        assert TwoSetContext(g, seed, Variant.CRDF).droppable(pos_mask(f)) == 0
        calls += 1
    for g in (path_graph(6), cycle_graph(6), complete_graph(5)):
        for a in range(1 << g.n):
            ctx = TwoSetContext(g, a, Variant.CRDF)
            for pos in range(1 << g.n):
                if pos & a == a and not g.full & ~pos & ~ctx.nbr:
                    ctx.droppable(pos)
                    calls += 1
    assert work == {"cut_vertices": calls}, (dict(work), calls)


def test_canonical_rdf_is_minimal_rdf_iff_valid():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        a = rng.getrandbits(n)
        f = canonical_rdf(g, a)
        assert is_variant(g, f, Variant.RDF)
        assert is_minimal_variant(g, f, Variant.RDF) == valid_two_set(g, a)


def test_is_minimal_variant_matches_oracle_small():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 5)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        for variant in ALL_MINIMAL_VARIANTS:
            minimal = oracle_all_minimal(g, variant)
            for f in property_holders(g, variant):
                assert is_minimal_variant(g, f, variant) == (f in minimal)


def test_is_minimal_variant_rejects_non_members():
    p4 = path_graph(4)
    assert not is_minimal_variant(p4, (2, 0, 0, 0), Variant.RDF)  # not an rdf
    assert not is_minimal_variant(p4, (2, 0, 0, 2), Variant.MRDF)  # not maximal
    assert not is_minimal_variant(p4, (2, 1, 0, 2), Variant.CRDF)  # not connected
    with pytest.raises(UnsupportedRoute):
        is_minimal_variant(p4, (1, 1, 1, 1), Variant.PRDF)


def test_is_minimal_variant_rejects_a_function_of_the_wrong_length():
    p3 = path_graph(3)
    for variant in Variant:
        for f in ((2, 0, 1, 0), (0, 2, 0, 2), (2, 0)):
            with pytest.raises(ValueError):
                is_minimal_variant(p3, f, variant)


def test_constraint_probes_preconditions():
    p4 = path_graph(4)
    with pytest.raises(ValueError):
        zero_raise_keeps_property(p4, (1, 1, 1, 1), 0, Variant.MRDF)
    with pytest.raises(ValueError):
        two_drop_iff_no_private(p4, (1, 1, 1, 1), 0, Variant.MRDF)
    with pytest.raises(ValueError):
        zero_raise_keeps_property(p4, (2, 0, 0, 0), 1, Variant.RDF)


def test_constraint_probes_hold_on_random_graphs():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 6)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        for variant in (Variant.MRDF, Variant.TRDF, Variant.CRDF):
            for f in property_holders(g, variant):
                for v in range(n):
                    if f[v] == 0:
                        assert zero_raise_keeps_property(g, f, v, variant)
                    elif f[v] == 2:
                        assert two_drop_iff_no_private(g, f, v, variant)


def test_perfect_variant_survives_zero_raise_not_two_drop():
    # raising a 0 to 1 changes no other 0-vertex's count of 2-neighbors, so
    # prdf survives it; lowering the center of a star to 1 leaves the leaves,
    # its external private neighbors, with no 2-neighbor, so prdf breaks
    p3 = path_graph(3)
    f = (2, 0, 1)
    assert is_variant(p3, f, Variant.PRDF)
    assert is_variant(p3, add_one(f, bit(1)), Variant.PRDF)
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    h = (2, 0, 0, 0)
    assert is_variant(star, h, Variant.PRDF)
    assert not is_variant(star, sub_one(h, bit(0)), Variant.PRDF)


def test_extension_check_fast_mode():
    p4 = path_graph(4)
    # prefunctions whose 1-set avoids 2-neighbors route through the solver
    assert extension_check(p4, (2, 0, 0, 2), Variant.MRDF) is False
    assert extension_check(p4, (2, 0, 0, 2), Variant.RDF) is True
    # 2011 is a minimal variant function sitting above 2000
    assert extension_check(p4, (2, 0, 0, 0), Variant.MRDF) is True
    assert extension_check(p4, (0, 2, 0, 0), Variant.MRDF) is True
    assert extension_check(p4, (0, 0, 0, 0), Variant.MRDF) is True
    assert extension_check(p4, (1, 1, 1, 1), Variant.MRDF) is True
    # a 1 next to a 2 is outside the route's guarantee
    with pytest.raises(UnsupportedRoute):
        extension_check(p4, (2, 1, 0, 0), Variant.MRDF)


def test_extension_check_fast_matches_oracle_where_defined():
    rng = random.Random(77)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        a = rng.getrandbits(n)
        f = canonical_rdf(g, a)
        # degrade some 1s to 0s so the prefunction is partial but keeps
        # the route's applicability (no 1 adjacent to a 2)
        f = tuple(0 if (f[v] == 1 and rng.random() < 0.5) else f[v] for v in range(n))
        for variant in (Variant.RDF, Variant.MRDF):
            assert extension_check(g, f, variant) == exists_minimal_geq(g, f, variant)
            checked += 1
    assert checked > 100


def test_extension_check_fast_routes_by_class():
    g, _ = random_cobipartite(6, 0.5, random.Random(3))
    f = canonical_rdf(g, 0)
    got = extension_check(g, f, Variant.TRDF)
    assert got == exists_minimal_geq(g, f, Variant.TRDF)
    gi, model = random_interval_instance(6, random.Random(3))
    f = canonical_rdf(gi, 0)
    got = extension_check(gi, f, Variant.CRDF, model=model)
    assert got == exists_minimal_geq(gi, f, Variant.CRDF)
    with pytest.raises(UnsupportedRoute):
        extension_check(path_graph(5), (0, 0, 2, 0, 0), Variant.CRDF)


def test_minimality_report_verdicts():
    p4 = path_graph(4)
    ok, lines = minimality_report(p4, (1, 1, 1, 1), Variant.MRDF)
    assert ok and any("YES" in ln for ln in lines)
    ok, lines = minimality_report(p4, (2, 0, 0, 2), Variant.MRDF)
    assert not ok and any("NO" in ln for ln in lines)
    ok, lines = minimality_report(p4, (1, 1, 1, 1), Variant.PRDF)
    assert ok and lines


def test_minimality_report_asks_droppable_once(monkeypatch):
    # one droppable call per report that gets past the property, none for
    # one that fails it, and the verdict is is_minimal_variant's
    calls = []
    droppable = TwoSetContext.droppable

    def counted(self, pos):
        calls.append(pos)
        return droppable(self, pos)

    g = cycle_graph(5)
    reports = []
    monkeypatch.setattr(TwoSetContext, "droppable", counted)
    for variant in ALL_MINIMAL_VARIANTS:
        for f in product(range(3), repeat=g.n):
            calls.clear()
            verdict, lines = minimality_report(g, f, variant)
            assert len(calls) == (lines[-1] != f"minimal {variant.value}: NO (property fails)")
            reports.append((f, variant, verdict))
    monkeypatch.undo()
    for f, variant, verdict in reports:
        assert verdict == is_minimal_variant(g, f, variant), (f, variant)


def report_digest(max_n):
    """(cases, sha256) of minimality_report's verdict and lines on every
    labelled graph with at most max_n vertices, every function and every
    variant."""
    digest = hashlib.sha256()
    cases = 0
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for edges in range(1 << len(pairs)):
            g = Graph(n, (e for i, e in enumerate(pairs) if edges >> i & 1))
            for f in product(range(3), repeat=n):
                for variant in Variant:
                    verdict, lines = minimality_report(g, f, variant)
                    digest.update(f"{n} {edges} {format_function(f)} {variant.value} {verdict}\n".encode())
                    digest.update("".join(line + "\n" for line in lines).encode())
                    cases += 1
    return cases, digest.hexdigest()


# recorded before minimality_report moved onto one TwoSetContext, so any
# change of a verdict or a line fails here
REPORT_PINNED = "b50161ffc51e88e4737f17a24a9f0f4ae0baf3a2d1871c016374cfa243f12e3a"


def test_minimality_report_is_pinned():
    assert report_digest(4) == (27110, REPORT_PINNED)
