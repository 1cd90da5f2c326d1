"""Acceptance gate: eleven end-to-end criteria with pinned budgets.

Each test prints exactly one `[acceptance] criterion NN ...: PASS/FAIL` line
(visible even without -s) and then asserts.  Engine runs go through
`tracked()`, which enforces the quadratic bound on consecutive empty
completion sets for every run in this module; criterion 7 audits the whole
registry at the end of the engine-heavy block.
"""

import random
import time
from itertools import product
from math import log2

import numpy as np

from romanenum.engine import EnumerationStats, iter_minimal
from romanenum.families import (
    complete_graph,
    cycle_graph,
    double_link_chain,
    path_graph,
    random_cobipartite,
    random_graph,
    random_interval_instance,
)
from romanenum.fixed_two import (
    CobipartiteSolver,
    IntervalConnectedSolver,
    MrdfSolver,
    RdfSolver,
)
from romanenum.gadgets import (
    gadget_crdf_from_sat,
    gadget_maxrd_from_extds,
    gadget_split_from_hypergraph,
    gadget_trdf_from_sat,
)
from romanenum.graphs import Graph, is_connected, mask_of
from romanenum.oracle import CnfInstance, Hypergraph, oracle_all_minimal, oracle_fixed_two
from romanenum.roman import (
    Variant,
    canonical_rdf,
    is_minimal_variant,
    valid_two_set,
)

from reference import (
    exists_minimal_dominating_superset,
    exists_minimal_geq,
    extension_check,
    oracle_sat,
    oracle_transversals,
    property_holders,
    random_split_connected_no_universal,
    transversal_of,
    two_drop_iff_no_private,
    zero_raise_keeps_property,
)

MINIMAL_VARIANTS = (Variant.RDF, Variant.MRDF, Variant.TRDF, Variant.CRDF)

# every tracked engine run lands here as (label, variant, n, stats)
RUNS = []


def tracked(label, g, variant, solver, sink=None):
    st = EnumerationStats()
    for _a, f in iter_minimal(g, variant, solver, stats=st):
        if sink is not None:
            sink(f)
    assert st.max_consecutive_empty <= g.n * g.n, (
        f"{label}: {st.max_consecutive_empty} consecutive empties on n={g.n}"
    )
    RUNS.append((label, variant, g.n, st))
    return st


def report(capfd, num, slug, ok, detail):
    with capfd.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"[acceptance] criterion {num:02d} ({slug}): {status} - {detail}")
    assert ok, f"criterion {num} ({slug}): {detail}"


def all_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_criterion_01_instant_no_instance_answers(capfd):
    g = path_graph(4)
    a = mask_of([0, 3])
    # warm up, then take the best of five timed repetitions
    assert extension_check(g, (2, 0, 0, 2), Variant.MRDF) is False
    assert list(MrdfSolver(g).stream(a)) == []
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        no_extension = extension_check(g, (2, 0, 0, 2), Variant.MRDF)
        empty = list(MrdfSolver(g).stream(a))
        best = min(best, time.perf_counter() - t0)
        assert no_extension is False and empty == []
    ok = best < 0.001
    report(capfd, 1, "instant no-instance answers", ok,
           f"best of 5: {best * 1e6:.1f}us (budget 1ms)")


def test_criterion_02_two_set_bijection_exhaustive_n5(capfd):
    t0 = time.perf_counter()
    graphs = 0
    for g in all_graphs(5):
        via_two_sets = {
            canonical_rdf(g, a) for a in range(32) if valid_two_set(g, a)
        }
        assert via_two_sets == oracle_all_minimal(g, Variant.RDF), g
        graphs += 1
    elapsed = time.perf_counter() - t0
    ok = graphs == 1024 and elapsed < 30.0
    report(capfd, 2, "2-set bijection, all n=5 graphs", ok,
           f"{graphs} graphs in {elapsed:.2f}s (budget 30s)")


def test_criterion_03_local_move_constraints(capfd):
    t0 = time.perf_counter()
    rng = random.Random(0xC3)
    checks = 0
    for _ in range(500):
        n = rng.randint(4, 6)
        g = random_graph(n, rng.uniform(0.15, 0.85), rng)
        for variant in (Variant.MRDF, Variant.TRDF, Variant.CRDF):
            for f in property_holders(g, variant):
                for v in range(n):
                    if f[v] == 0:
                        assert zero_raise_keeps_property(g, f, v, variant), (g, f, v)
                        checks += 1
                    elif f[v] == 2:
                        assert two_drop_iff_no_private(g, f, v, variant), (g, f, v)
                        checks += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(capfd, 3, "raise/drop local-move laws", ok,
           f"500 graphs, {checks} vertex checks in {elapsed:.1f}s (budget 60s)")


def test_criterion_04_minimality_predicate_vs_oracle(capfd):
    t0 = time.perf_counter()
    connected_counts = {1: 0, 2: 0, 3: 0, 4: 0, 5: 0}
    checks = 0
    for n in range(1, 6):
        for g in all_graphs(n):
            if not is_connected(g):
                continue
            connected_counts[n] += 1
            for variant in MINIMAL_VARIANTS:
                minimal = oracle_all_minimal(g, variant)
                for f in product((0, 1, 2), repeat=n):
                    assert is_minimal_variant(g, f, variant) == (f in minimal), (g, f)
                    checks += 1
    assert [connected_counts[n] for n in range(1, 6)] == [1, 1, 4, 38, 728]
    rng = random.Random(0xC4)
    samples = 0
    for _ in range(12):
        g = random_graph(6, rng.uniform(0.2, 0.8), rng)
        for variant in MINIMAL_VARIANTS:
            minimal = oracle_all_minimal(g, variant)
            for f in product((0, 1, 2), repeat=6):
                assert is_minimal_variant(g, f, variant) == (f in minimal), (g, f)
                samples += 1
    elapsed = time.perf_counter() - t0
    ok = samples >= 300 and elapsed < 60.0
    report(capfd, 4, "minimality predicate == oracle membership", ok,
           f"772 connected graphs (n<=5) exhaustive + {samples} n=6 checks "
           f"in {elapsed:.1f}s (budget 60s)")


def test_criterion_05_completion_cardinality_bounds(capfd):
    t0 = time.perf_counter()
    rng = random.Random(0xC5)
    worst_general = 0.0
    for _ in range(1000):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        a = rng.getrandbits(n)
        k = len(list(MrdfSolver(g).stream(a)))
        assert k <= n, (g, a, k)
        worst_general = max(worst_general, k / n)
    worst_cobip = 0.0
    for i in range(400):
        n = rng.randint(2, 9)
        g, _ = random_cobipartite(n, rng.uniform(0.0, 0.9), rng)
        variant = (Variant.TRDF, Variant.CRDF)[i % 2]
        solver = CobipartiteSolver(g, variant)
        a = rng.getrandbits(n)
        k = len(list(solver.stream(a)))
        bound = n * n + n + 1
        assert k <= bound, (g, a, k)
        worst_cobip = max(worst_cobip, k / bound)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(capfd, 5, "completion-set cardinality bounds", ok,
           f"1000 general pairs (peak {worst_general:.2f}n) + 400 cobipartite pairs "
           f"(peak {worst_cobip:.2f} of n^2+n+1) in {elapsed:.1f}s (budget 30s)")


def test_criterion_06_engine_completeness_all_routes(capfd):
    t0 = time.perf_counter()
    rng = random.Random(0xC6)
    runs = 0

    def check(label, g, variant, solver):
        nonlocal runs
        found = set()
        tracked(label, g, variant, solver, sink=found.add)
        assert found == oracle_all_minimal(g, variant), (label, g)
        runs += 1

    structured = [path_graph(k) for k in range(1, 9)]
    structured += [cycle_graph(k) for k in range(3, 9)]
    structured += [complete_graph(k) for k in range(1, 9)]
    for g in structured:
        check("rdf-structured", g, Variant.RDF, RdfSolver(g))
        check("mrdf-structured", g, Variant.MRDF, MrdfSolver(g))
    for _ in range(25):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        check("rdf-random", g, Variant.RDF, RdfSolver(g))
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        check("mrdf-random", g, Variant.MRDF, MrdfSolver(g))
    for _ in range(20):
        n = rng.randint(2, 8)
        g, _ = random_cobipartite(n, rng.uniform(0.0, 0.9), rng)
        for variant in (Variant.TRDF, Variant.CRDF):
            check("cobipartite", g, variant, CobipartiteSolver(g, variant))
    for _ in range(20):
        g, model = random_interval_instance(rng.randint(2, 7), rng)
        check("interval", g, Variant.CRDF, IntervalConnectedSolver(g, model))
    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    report(capfd, 6, "engine completeness on every route", ok,
           f"{runs} full enumerations == oracle in {elapsed:.1f}s (budget 120s)")


def test_criterion_07_delay_gap_bound_registry(capfd):
    # tracked() already asserts the bound per run; here the whole registry is
    # audited so a forgotten tracking path would fail loudly.  The engine
    # visits only valid 2-sets, and on rdf each of them has a completion, so
    # an rdf run meets no empty set at all.
    assert RUNS, "criterion 6 must have populated the registry"
    worst = 0.0
    rdf_runs = 0
    for label, variant, n, st in RUNS:
        assert st.max_consecutive_empty <= n * n
        if variant is Variant.RDF:
            assert st.max_consecutive_empty == 0, (label, n)
            rdf_runs += 1
        if n:
            worst = max(worst, st.max_consecutive_empty / (n * n))
    assert rdf_runs
    report(capfd, 7, "empty-run gap <= n^2 on every engine run, 0 on rdf", True,
           f"{len(RUNS)} runs audited ({rdf_runs} rdf), worst gap ratio {worst:.3f}")


def test_criterion_08_chain_family_doubling(capfd):
    t0 = time.perf_counter()
    details = []
    for n, expected in ((3, 4), (4, 8)):
        g, model, seed = double_link_chain(n)
        solver = IntervalConnectedSolver(g, model)
        got = set(solver.stream(seed))
        assert got == oracle_fixed_two(g, Variant.CRDF, seed, cap=g.n)
        assert len(got) == expected, (n, len(got))
        details.append(f"{n}:{len(got)}")
    for n, expected in ((5, 16), (6, 32)):
        g, model, seed = double_link_chain(n)
        solver = IntervalConnectedSolver(g, model)
        count = sum(1 for _ in solver.stream(seed))
        assert count == expected, (n, count)
        details.append(f"{n}:{count}")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(capfd, 8, "chain-family counts double", ok,
           f"sizes {', '.join(details)} (oracle-checked through 4 anchors) "
           f"in {elapsed:.1f}s (budget 30s)")


def random_monotone_cnf(rng, num_vars, max_clauses):
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        sign = rng.choice((1, -1))
        width = rng.randint(1, min(3, num_vars))
        chosen = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(sign * x for x in chosen))
    return CnfInstance(num_vars, tuple(clauses))


def random_small_hypergraph(rng):
    while True:
        n = rng.randint(2, 6)
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


def test_criterion_09_gadget_equivalences(capfd):
    t0 = time.perf_counter()
    rng = random.Random(0xC9)

    sat_checked = 0
    for _ in range(25):
        c = random_monotone_cnf(rng, rng.randint(1, 2), 3)
        inst = gadget_crdf_from_sat(c)
        assert inst.graph.n <= 14
        nonempty = bool(
            oracle_fixed_two(inst.graph, Variant.CRDF, inst.fixed_two, cap=14)
        )
        assert nonempty == (oracle_sat(c) is not None), c
        sat_checked += 1
    for _ in range(25):
        nv = rng.randint(2, 4)
        c = random_monotone_cnf(rng, nv, {2: 5, 3: 4, 4: 2}[nv])
        inst = gadget_trdf_from_sat(c)
        assert inst.graph.n <= 14
        nonempty = bool(
            oracle_fixed_two(inst.graph, Variant.TRDF, inst.fixed_two, cap=14)
        )
        assert nonempty == (oracle_sat(c) is not None), c
        sat_checked += 1

    ext_checked = 0
    for _ in range(30):
        n = rng.randint(1, 4)
        g = random_graph(n, rng.uniform(0.2, 0.8), rng)
        u = rng.getrandbits(n)
        inst = gadget_maxrd_from_extds(g, u)
        got = exists_minimal_geq(inst.graph, inst.prefunction, Variant.MRDF, cap=inst.graph.n)
        assert got is exists_minimal_dominating_superset(g, u), (g, u)
        ext_checked += 1

    hyp_checked = 0
    for _ in range(30):
        h = random_small_hypergraph(rng)
        inst = gadget_split_from_hypergraph(h)
        completions = oracle_fixed_two(inst.graph, Variant.CRDF, inst.fixed_two, cap=inst.graph.n)
        images = [transversal_of(h, f) for f in completions]
        assert len(images) == len(set(images))
        assert set(images) == oracle_transversals(h), h
        hyp_checked += 1

    elapsed = time.perf_counter() - t0
    ok = sat_checked == 50 and ext_checked == 30 and hyp_checked == 30 and elapsed < 120.0
    report(capfd, 9, "reduction gadget equivalences", ok,
           f"{sat_checked} sat + {ext_checked} extension + {hyp_checked} transversal "
           f"instances in {elapsed:.1f}s (budget 120s)")


def test_criterion_10_split_graph_variant_coincidence(capfd):
    t0 = time.perf_counter()
    rng = random.Random(0xCA)
    for _ in range(100):
        n = rng.randint(4, 8)
        g = random_split_connected_no_universal(n, rng)
        assert property_holders(g, Variant.TRDF) == property_holders(g, Variant.CRDF), g
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(capfd, 10, "total == connected on split graphs", ok,
           f"100 connected no-universal split graphs in {elapsed:.1f}s (budget 60s)")


def test_criterion_11_growth_slopes(capfd):
    ns = list(range(8, 17))
    families = {}

    sets_path, delay_path = [], []
    for n in ns:
        g = path_graph(n)
        st = tracked("bench-path", g, Variant.RDF, RdfSolver(g))
        sets_path.append(st.sets_explored)
        delay_path.append(st.max_inter_output_work)
    families["path/rdf"] = (sets_path, delay_path)

    sets_cb, delay_cb = [], []
    for n in ns:
        g, _ = random_cobipartite(n, 0.5, random.Random(1000 + n))
        st = tracked("bench-cobipartite", g, Variant.TRDF,
                     CobipartiteSolver(g, Variant.TRDF))
        sets_cb.append(st.sets_explored)
        delay_cb.append(st.max_inter_output_work)
    families["cobipartite/trdf"] = (sets_cb, delay_cb)

    details = []
    ok = True
    for name, (sets, delays) in families.items():
        slope = float(np.polyfit(ns, [log2(s) for s in sets], 1)[0])
        ok = ok and slope <= 1.1
        fit = np.polyfit(ns, delays, 4)
        resid = max(abs(np.polyval(fit, n) - d) for n, d in zip(ns, delays))
        details.append(
            f"{name}: log2(sets) slope {slope:.3f} (limit 1.1), "
            f"deg-4 delay fit residual {resid:.1f}"
        )
    report(capfd, 11, "polynomial growth of explored sets", ok, "; ".join(details))
