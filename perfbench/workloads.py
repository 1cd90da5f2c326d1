"""Seeded input generators for the benchmark workloads.

Every instance is generated here, not through ``romanenum.families``, so an
edit to a family generator cannot silently change a workload.  The program
only ever receives the generated graph and interval text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class Instance:
    """One benchmark input, as the program would read it from files."""

    graph_text: str
    intervals_text: Optional[str]
    variant: str
    graph_class: str
    # stream the completions of this 2-set instead of running the engine
    two_set: Optional[Tuple[int, ...]] = None
    limit: int = 0
    # chain only: the connector pairs, exactly one of which is raised per gap
    gaps: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # instances per run: pooling several random graphs keeps the figures of
    # one seed close to those of another
    instances: int
    # full size for timing, and a size of at most 10 vertices for the oracle
    size: int
    oracle_size: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rdf-sparse",
            "rdf enumeration on a sparse tree-plus-chords graph: many cheap 2-sets, so engine DFS, "
            "valid_two_set/canonical_rdf and formatting carry the time",
            instances=12,
            size=16,
            oracle_size=10,
        ),
        Workload(
            "trdf-cobipartite",
            "trdf enumeration on a cobipartite graph: the n^2-candidate minimality scan per 2-set "
            "dominates and outputs come in bursts",
            instances=8,
            size=12,
            oracle_size=10,
        ),
        Workload(
            "crdf-interval-chain",
            "first 4096 completions of one 2-set on an 18-anchor double-link chain: first output "
            "pays the raised-set scan and window tables, then DAG-walk gaps",
            instances=1,
            size=18,
            oracle_size=4,
        ),
    )
}

CHAIN_LIMIT = 4096

# Output count and digest of the run's instances for --seed 0 at full size,
# taken from the seed code.  The chain has no pinned digest: it takes a
# prefix of 2^17 completions, which a change of output order may alter, so
# each of its outputs is checked against the structure of the full set.
PINNED = {
    "rdf-sparse": (15541, "87dae1f4fb9d990eed15766c0e53b3a45e577eb6557654c44890650e900d9c67"),
    "trdf-cobipartite": (3839, "17ddef1aebd7b5ad59ad773d16778bb99a2819ece6112d3e6eb8f047cf396d77"),
}


def _relabel(n: int, edges, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in edges]


def _graph_text(n: int, edges) -> str:
    edges = sorted((min(u, v), max(u, v)) for u, v in edges)
    return "".join([f"{n} {len(edges)}\n"] + [f"{u} {v}\n" for u, v in edges])


def _intervals_text(intervals) -> str:
    return "".join([f"{len(intervals)}\n"] + [f"{lo} {hi}\n" for lo, hi in intervals])


def _meets(a, b) -> bool:
    return max(a[0], b[0]) <= min(a[1], b[1])


def _intersection_edges(intervals):
    n = len(intervals)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if _meets(intervals[u], intervals[v])]


def sparse_instance(n: int, rng: random.Random) -> Instance:
    """Random recursive spanning tree plus n/4 chords, vertices relabelled."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 4:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    _, edges = _relabel(n, sorted(edges), rng)
    return Instance(_graph_text(n, edges), None, "rdf", "auto")


def cobipartite_instance(n: int, rng: random.Random) -> Instance:
    """Two cliques of n/2 with about half the cross edges, vertices
    relabelled.

    Every vertex has n/4 cross neighbours, rounded down: the cross edges
    start as a circulant pattern and are mixed by random degree-keeping
    swaps.  Independent coin flips per edge made the output count and the
    long gaps vary from one seed to the next by more than the timing
    itself did.
    """
    k = n // 2
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u < k) == (v < k)]
    cross = {(u, k + (u + j) % k) for u in range(k) for j in range(k // 2)}
    for _ in range(10 * len(cross)):
        (a, b), (c, d) = rng.sample(sorted(cross), 2)
        if (a, d) not in cross and (c, b) not in cross:
            cross -= {(a, b), (c, d)}
            cross |= {(a, d), (c, b)}
    edges += sorted(cross)
    _, edges = _relabel(n, edges, rng)
    return Instance(_graph_text(n, edges), None, "trdf", "auto")


def chain_instance(anchors: int, rng: random.Random) -> Instance:
    """Double-link chain laid out as intervals; the graph is the layout's own
    intersection graph, so the model is valid.

    Anchor i sits at [10i+7, 10i+13] and both connectors of gap i at
    [10i+12, 10i+18]; the 2-set is the odd anchors.  Its minimal connected
    completions raise exactly one connector of every gap, so there are
    2^(anchors-1) of them; the run takes the first CHAIN_LIMIT.
    """
    layout = [(10 * i + 7, 10 * i + 13) for i in range(anchors)]
    for i in range(anchors - 1):
        layout += [(10 * i + 12, 10 * i + 18)] * 2
    n = len(layout)
    perm, edges = _relabel(n, _intersection_edges(layout), rng)
    intervals = [None] * n
    for old, new in enumerate(perm):
        intervals[new] = layout[old]
    two_set = tuple(sorted(perm[i] for i in range(1, anchors, 2)))
    gaps = tuple(
        (perm[anchors + 2 * i], perm[anchors + 2 * i + 1]) for i in range(anchors - 1)
    )
    return Instance(
        _graph_text(n, edges), _intervals_text(intervals), "crdf", "interval",
        two_set=two_set, limit=min(CHAIN_LIMIT, 2 ** (anchors - 1)), gaps=gaps,
    )


_BUILDERS = {
    "rdf-sparse": sparse_instance,
    "trdf-cobipartite": cobipartite_instance,
    "crdf-interval-chain": chain_instance,
}


def make_instances(
    workload: str, seed: int, size: Optional[int] = None, count: Optional[int] = None
) -> List[Instance]:
    """The workload's inputs for this seed; the same seed gives the same text."""
    w = WORKLOADS[workload]
    return [
        _BUILDERS[workload](w.size if size is None else size, random.Random(f"{workload}/{seed}/{i}"))
        for i in range(w.instances if count is None else count)
    ]


def oracle_instance(workload: str, seed: int) -> Instance:
    """The same generator at the small size the brute-force oracle accepts."""
    w = WORKLOADS[workload]
    return _BUILDERS[workload](w.oracle_size, random.Random(f"{workload}/{seed}/oracle"))
