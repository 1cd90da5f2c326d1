"""Instance generators: fixed families and seeded random instances."""

from __future__ import annotations

import random

from .graphs import (
    CobipartitePartition,
    Graph,
    IntervalModel,
    bit,
    has_universal_vertex,
    intersection_graph,
    is_connected,
    mask_of,
)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_interval_model(n: int) -> IntervalModel:
    """Unit intervals [i, i+1]; consecutive ones touch at the shared endpoint."""
    return IntervalModel(tuple((i, i + 1) for i in range(n)))


def double_link_chain(n: int) -> tuple[Graph, IntervalModel, int]:
    """Chain of n anchors where consecutive anchors are joined through a pair
    of parallel connector vertices, as the intersection graph of its layout.

    Anchors occupy indices 0..n-1; the connector pair between anchors i and
    i+1 occupies indices n+2*i and n+2*i+1.  Anchor i sits at [10i+7, 10i+13]
    and both connectors of gap i at [10i+12, 10i+18], so each connector meets
    the two anchors it joins and its twin.  Also returns the layout and the
    seed set holding every even-position anchor.
    """
    if n < 1:
        raise ValueError("need at least one anchor")
    intervals = [(10 * (i + 1) - 3, 10 * (i + 1) + 3) for i in range(n)]
    for i in range(n - 1):
        iv = (10 * (i + 1) + 2, 10 * (i + 1) + 8)
        intervals.append(iv)
        intervals.append(iv)
    model = IntervalModel(tuple(intervals))
    a = mask_of(i for i in range(1, n, 2))
    return intersection_graph(model), model, a


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random graph conditioned on connectivity (resampled until connected)."""
    while True:
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g


def random_cobipartite(n: int, p_cross: float, rng: random.Random) -> tuple[Graph, CobipartitePartition]:
    k = rng.randint(1, n - 1) if n >= 2 else n
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(u, v) for u in range(k, n) for v in range(u + 1, n)]
    edges += [(u, v) for u in range(k) for v in range(k, n) if rng.random() < p_cross]
    part = CobipartitePartition(mask_of(range(k)), mask_of(range(k, n)))
    return Graph(n, edges), part


def random_interval_instance(n: int, rng: random.Random) -> tuple[Graph, IntervalModel]:
    span = 3 * n
    intervals = []
    for _ in range(n):
        lo = rng.randint(0, span)
        hi = lo + rng.randint(0, n + 2)
        intervals.append((lo, hi))
    model = IntervalModel(tuple(intervals))
    return intersection_graph(model), model


def random_split_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Split graph: a clique plus an independent set with random cross edges."""
    k = rng.randint(1, n - 1) if n >= 2 else n
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    for v in range(k, n):
        attached = False
        for u in range(k):
            if rng.random() < p:
                edges.append((u, v))
                attached = True
        if not attached:
            edges.append((rng.randrange(k), v))
    return Graph(n, edges)


def random_split_connected_no_universal(n: int, rng: random.Random) -> Graph:
    """Connected split graph without a universal vertex (resampled).

    Needs n >= 4: with 3 vertices every connected split graph has a vertex
    adjacent to both others.
    """
    if n < 4:
        raise ValueError("no such split graph below 4 vertices")
    while True:
        g = random_split_graph(n, 0.4, rng)
        if is_connected(g) and not has_universal_vertex(g):
            return g
