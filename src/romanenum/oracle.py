"""Exhaustive ground truth, independent of the enumeration machinery.

This module is the full 3^n scan over all functions (vectorized with numpy)
behind `romanenum oracle`, and nothing else.  The scan exists to check the
polynomial-delay algorithms, so it deliberately avoids their theory: variant
membership is evaluated from the definitions and minimality by comparing
holders pointwise.  The other brute-force references (hitting sets, SAT,
dominating sets, the fixed-2-set slice and the extension oracle) only the
tests call, so they live in tests/reference.py.

numpy is imported inside the functions that use it, so importing the
package (and the command-line front end) does not load it.
"""

from __future__ import annotations

from .graphs import Graph
from .roman import Variant, two_mask

DEFAULT_CAP = 10


class CapExceeded(ValueError):
    pass


def _digit_tables(n: int):
    """pos/two bitmask and weight arrays for all 3^n functions.

    Function index i has digit (i // 3**v) % 3 at vertex v.
    """
    import numpy as np

    total = 3**n
    idx = np.arange(total, dtype=np.int64)
    pos = np.zeros(total, dtype=np.int64)
    m2 = np.zeros(total, dtype=np.int64)
    wt = np.zeros(total, dtype=np.int64)
    p = 1
    for v in range(n):
        d = (idx // p) % 3
        pos |= (d >= 1).astype(np.int64) << v
        m2 |= (d == 2).astype(np.int64) << v
        wt += d
        p *= 3
    return pos, m2, wt


def _neighborhood_union(rows, member_bits, n):
    """Union of the rows selected by each function's member bits."""
    import numpy as np

    acc = np.zeros_like(member_bits)
    for v in range(n):
        acc |= ((member_bits >> v) & 1) * rows[v]
    return acc


def _variant_flags(g: Graph, variant: Variant, pos, m2):
    import numpy as np

    n = g.n
    full = g.full
    adj = [np.int64(g.adj[v]) for v in range(n)]
    cadj = [np.int64(g.cadj[v]) for v in range(n)]
    m0 = ~pos & full
    if variant is Variant.PRDF:
        ok = np.ones(len(pos), dtype=bool)
        for v in range(n):
            two_nbrs = np.int64(g.adj[v]) & m2
            exactly_one = (two_nbrs != 0) & ((two_nbrs & (two_nbrs - 1)) == 0)
            ok &= (((m0 >> v) & 1) == 0) | exactly_one
        return ok
    nb2 = _neighborhood_union(adj, m2, n)
    flags = (m0 & ~nb2) == 0
    if variant is Variant.RDF:
        return flags
    if variant is Variant.MRDF:
        nb0 = _neighborhood_union(cadj, m0, n)
        return flags & (nb0 != full)
    if variant is Variant.TRDF:
        isolated = np.zeros(len(pos), dtype=bool)
        for v in range(n):
            isolated |= (((pos >> v) & 1) == 1) & ((pos & np.int64(g.adj[v])) == 0)
        return flags & ~isolated
    if variant is Variant.CRDF:
        reach = pos & -pos
        while True:
            grown = reach | (_neighborhood_union(adj, reach, n) & pos)
            if np.array_equal(grown, reach):
                break
            reach = grown
        return flags & (reach == pos)
    raise ValueError(f"unknown variant {variant}")


def _minimal_function_indices(flags, pos, m2, wt, n: int):
    """Indices of the pointwise-minimal holders among all flagged functions."""
    import numpy as np

    idx = np.flatnonzero(flags)
    if len(idx) == 0:
        return idx
    # discard anything with a one-step decrement that still holds; every
    # true minimal survives this
    locmin = np.ones(len(idx), dtype=bool)
    p = 1
    for v in range(n):
        d = (idx // p) % 3
        applicable = d >= 1
        dec_holds = np.zeros(len(idx), dtype=bool)
        dec_holds[applicable] = flags[idx[applicable] - p]
        locmin &= ~dec_holds
        p *= 3
    cand = idx[locmin]
    order = np.argsort(wt[cand], kind="stable")
    cand = cand[order]
    P = pos[cand]
    M = m2[cand]
    alive = np.ones(len(cand), dtype=bool)
    for i in range(len(cand)):
        if not alive[i]:
            continue
        dominated = ((P & ~P[i]) == 0) & ((M & ~M[i]) == 0)
        dominated[i] = False
        alive &= ~dominated
    return cand[alive]


def _tuples_for_indices(indices, n: int) -> list[tuple]:
    import numpy as np

    if len(indices) == 0:
        return []
    powers = 3 ** np.arange(n, dtype=np.int64)
    digits = (np.asarray(indices, dtype=np.int64)[:, None] // powers) % 3
    return [tuple(row) for row in digits.tolist()]


def _check_cap(g: Graph, cap: int):
    if g.n > cap:
        raise CapExceeded(f"oracle capped at n={cap}, graph has n={g.n}")


def _minimal_scan(g: Graph, variant: Variant, cap: int):
    """Indices of the pointwise-minimal holders, with the positive-set and
    2-set masks of all 3^n functions."""
    _check_cap(g, cap)
    pos, m2, wt = _digit_tables(g.n)
    flags = _variant_flags(g, variant, pos, m2)
    return _minimal_function_indices(flags, pos, m2, wt, g.n), pos, m2


def oracle_all_minimal(g: Graph, variant: Variant, cap: int = DEFAULT_CAP) -> set:
    """All pointwise-minimal functions with the property, by full scan."""
    minimal, _, _ = _minimal_scan(g, variant, cap)
    return set(_tuples_for_indices(minimal, g.n))


def oracle_fixed_two(g: Graph, variant: Variant, a: int, cap: int = DEFAULT_CAP) -> set:
    """Minimal functions with the property whose 2-set equals a.

    This filters the global minimal set.  The other reading, minimal within
    the fixed-2-set slice, can be strictly larger; its reference is in
    tests/reference.py.
    """
    return {f for f in oracle_all_minimal(g, variant, cap=cap) if two_mask(f) == a}
