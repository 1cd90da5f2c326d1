"""Instance generators: fixed families and seeded random instances."""

from __future__ import annotations

import random

from .graphs import (
    CobipartitePartition,
    Graph,
    IntervalModel,
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


# draws random_connected_graph makes before it refuses
CONNECT_ATTEMPTS = 1000


def random_connected_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Random graph conditioned on connectivity: resampled until connected,
    refused with a ValueError after CONNECT_ATTEMPTS draws."""
    if p <= 0 and n >= 2:
        raise ValueError(f"no graph on {n} vertices with edge probability {p} is connected")
    for _ in range(CONNECT_ATTEMPTS):
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g
    raise ValueError(
        f"no connected graph in {CONNECT_ATTEMPTS} draws on {n} vertices with edge probability {p}"
    )


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

