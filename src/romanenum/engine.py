"""Enumeration engine.

Walks candidate 2-sets A in depth-first lexicographic subset order (the
children of A extend it by a vertex larger than all of its members), asks
the fixed-2-set solver for each A's completions, and prunes a subtree as
soon as its root has none — sound because emptiness of the completion set
is monotone downward.  The delay between consecutive outputs stays
polynomial: at most n^2 consecutive candidate sets can come up empty, and
the per-set work of every shipped solver is polynomial.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Callable, Iterator, List, Optional, Tuple

from .fixed_two import FixedTwoSolver
from .graphs import Graph
from .roman import RomanFunction, Variant


class EnumerationStats:
    """Counters collected during one enumeration run.

    sets_explored counts every candidate 2-set whose completion set was
    computed; max_consecutive_empty is the longest run of empty completion
    sets between nonempty ones; max_inter_output_work is the largest number
    of candidate sets examined between two consecutive outputs (or before
    the first / after the last); seconds is the engine's own time, without
    the time the consumer holds each output.
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


def iter_minimal(
    g: Graph,
    variant: Variant,
    solver: FixedTwoSolver,
    *,
    prune: bool = True,
    stats: Optional[EnumerationStats] = None,
) -> Iterator[Tuple[int, RomanFunction]]:
    """Yield (two_set, function) pairs for every minimal function of the
    variant, grouped by 2-set, each exactly once.

    prune=False disables subtree pruning (every subset of V is considered);
    it exists so tests can confirm pruning loses nothing.
    """
    if solver.graph is not g:
        raise ValueError("solver is bound to a different graph")
    if solver.variant is not variant:
        raise ValueError(
            f"solver enumerates {solver.variant.value}, asked for {variant.value}"
        )
    st = stats if stats is not None else EnumerationStats()
    n = g.n
    clock = time.perf_counter
    busy = 0.0  # engine time up to the last suspension
    resumed = clock()
    work_since_output = 0
    consecutive_empty = 0

    def note(empty: bool) -> None:
        nonlocal work_since_output, consecutive_empty
        st.sets_explored += 1
        work_since_output += 1
        if empty:
            st.empty_sets_explored += 1
            consecutive_empty += 1
            if consecutive_empty > st.max_consecutive_empty:
                st.max_consecutive_empty = consecutive_empty
        else:
            consecutive_empty = 0

    def drain(a: int) -> Iterator[Tuple[int, RomanFunction]]:
        nonlocal work_since_output, busy, resumed
        for f in solver.stream(a):
            st.outputs += 1
            if work_since_output > st.max_inter_output_work:
                st.max_inter_output_work = work_since_output
            work_since_output = 0
            busy += clock() - resumed
            try:
                yield a, f
            finally:  # also when the consumer closes the stream here
                resumed = clock()

    try:
        root_first = solver.first(0)
        note(root_first is None)
        nonempty_root = root_first is not None
        if nonempty_root:
            yield from drain(0)
        if nonempty_root or not prune:
            stack: List[Tuple[int, int]] = [(0, 0)]
            while stack:
                a, nxt = stack[-1]
                if nxt >= n:
                    stack.pop()
                    continue
                stack[-1] = (a, nxt + 1)
                b = a | (1 << nxt)
                fb = solver.first(b)
                note(fb is None)
                if fb is not None:
                    yield from drain(b)
                    stack.append((b, nxt + 1))
                elif not prune:
                    stack.append((b, nxt + 1))
        if work_since_output > st.max_inter_output_work:
            st.max_inter_output_work = work_since_output
    finally:
        st.seconds = busy + clock() - resumed


def enumerate_minimal(
    g: Graph,
    variant: Variant,
    solver: FixedTwoSolver,
    sink: Optional[Callable[[RomanFunction], None]] = None,
    *,
    prune: bool = True,
) -> EnumerationStats:
    """Run the full enumeration, feeding each function to sink; returns stats."""
    st = EnumerationStats()
    for _a, f in iter_minimal(g, variant, solver, prune=prune, stats=st):
        if sink is not None:
            sink(f)
    return st


def enumerate_with_budget(
    g: Graph,
    variant: Variant,
    solver: FixedTwoSolver,
    limit: int,
    *,
    prune: bool = True,
) -> Tuple[List[RomanFunction], EnumerationStats]:
    """Collect at most limit functions (limit <= 0 means no cap)."""
    st = EnumerationStats()
    it = iter_minimal(g, variant, solver, prune=prune, stats=st)
    if limit > 0:
        pairs = list(islice(it, limit))
        it.close()
    else:
        pairs = list(it)
    return [f for _a, f in pairs], st
