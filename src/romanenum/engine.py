"""Enumeration engine.

Walks the valid 2-sets A in depth-first lexicographic subset order (the
children of A extend it by a vertex larger than all of its members), peeks
the fixed-2-set solver's stream of each A's completions, streams them when
the peek finds one, and prunes a subtree as soon as its root has none —
sound because emptiness of the completion set is monotone downward.

A 2-set is valid when every member keeps a private neighbor besides itself.
Every solver's completion set is empty on an invalid set, so the engine
never asks about one: each stack frame carries the vertices its members
dominate once and twice, and roman.valid_children turns them into the mask
of the node's valid children, in O(sum |p_u| + n) mask operations.  On rdf
every valid 2-set has a completion, so the walk meets no empty set at all.
The delay between consecutive outputs stays polynomial: at most n^2
consecutive candidate sets can come up empty, and the per-set work of every
shipped solver is polynomial.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, List, Optional, Tuple

from .fixed_two import FixedTwoSolver
from .graphs import Graph
from .roman import RomanFunction, Variant, valid_children


class EnumerationStats:
    """Counters collected during one enumeration run.

    sets_explored counts every 2-set whose completion set was computed, all
    of them valid: the child mask rejects invalid 2-sets without counting
    them; max_consecutive_empty is the longest run of empty completion
    sets between nonempty ones; max_inter_output_work is the largest number
    of candidate sets examined between two consecutive outputs (or before
    the first / after the last); seconds is the producer's own time, without
    the time the consumer holds each output (see timed).
    """

    def __init__(self) -> None:
        self.outputs = 0
        self.sets_explored = 0
        self.empty_sets_explored = 0
        self.max_consecutive_empty = 0
        self.max_inter_output_work = 0
        self.seconds = 0.0

    def as_dict(self) -> dict:
        return {
            "outputs": self.outputs,
            "sets_explored": self.sets_explored,
            "empty_sets_explored": self.empty_sets_explored,
            "max_consecutive_empty": self.max_consecutive_empty,
            "max_inter_output_work": self.max_inter_output_work,
            "seconds": round(self.seconds, 6),
        }


def timed(items: Iterable, stats: EnumerationStats) -> Iterator:
    """Yield the items, counting each in stats.outputs and adding to
    stats.seconds only the time spent producing them: the time the consumer
    holds an item is left out, also when it closes the stream there."""
    clock = time.perf_counter
    busy = 0.0  # producer time up to the last suspension
    resumed = clock()
    try:
        for item in items:
            stats.outputs += 1
            busy += clock() - resumed
            try:
                yield item
            finally:  # also when the consumer closes the stream here
                resumed = clock()
    finally:
        stats.seconds += busy + clock() - resumed


def iter_minimal(
    g: Graph,
    variant: Variant,
    solver: FixedTwoSolver,
    *,
    stats: Optional[EnumerationStats] = None,
) -> Iterator[Tuple[int, RomanFunction]]:
    """Yield (two_set, function) pairs for every minimal function of the
    variant, grouped by 2-set, each exactly once."""
    if solver.graph is not g:
        raise ValueError("solver is bound to a different graph")
    if solver.variant is not variant:
        raise ValueError(
            f"solver enumerates {solver.variant.value}, asked for {variant.value}"
        )
    st = stats if stats is not None else EnumerationStats()
    return timed(_walk(g, solver, st), st)


def _walk(g: Graph, solver: FixedTwoSolver, st: EnumerationStats) -> Iterator[Tuple[int, RomanFunction]]:
    """iter_minimal's depth-first walk, with its 2-sets counted in st."""
    cadj = g.cadj
    work_since_output = consecutive_empty = 0
    # a frame holds a 2-set, the vertices its members dominate once and
    # twice, and its valid children not yet visited
    stack: List[List[int]] = []
    b = once = twice = 0  # the root, the empty 2-set
    while True:
        st.sets_explored += 1
        work_since_output += 1
        if next(solver.stream(b), None) is None:
            st.empty_sets_explored += 1
            consecutive_empty += 1
            if consecutive_empty > st.max_consecutive_empty:
                st.max_consecutive_empty = consecutive_empty
        else:
            consecutive_empty = 0
            for f in solver.stream(b):
                if work_since_output > st.max_inter_output_work:
                    st.max_inter_output_work = work_since_output
                work_since_output = 0
                yield b, f
            stack.append([b, once, twice, valid_children(g, b, once, twice)])
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            break
        frame = stack[-1]
        a, once, twice, children = frame
        low = children & -children
        frame[3] = children ^ low
        b = a | low
        nb = cadj[low.bit_length() - 1]
        once, twice = once | nb, twice | (once & nb)
    if work_since_output > st.max_inter_output_work:
        st.max_inter_output_work = work_since_output
