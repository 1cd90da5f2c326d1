"""Exhaustive ground truth, independent of the enumeration machinery.

This module keeps only what the `oracle` and `gadget` commands run: the full
3^n scan over all functions (vectorized with numpy) behind `romanenum
oracle`, and the hypergraph and CNF types and parsers behind `romanenum
gadget`.  The scan exists to check the polynomial-delay algorithms, so it
deliberately avoids their theory: variant membership is evaluated from the
definitions and minimality by comparing holders pointwise.  The other
brute-force references (hitting sets, SAT, dominating sets, the fixed-2-set
slice and the extension oracle) only the tests call, so they live in
tests/reference.py.

numpy is imported inside the functions that use it, so importing the
package (and the command-line front end) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, GraphFormatError, mask_of, read_counted
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


# ------------------------------------------------------------- hypergraphs


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph on universe 0..universe-1 with edges as bitmasks."""

    universe: int
    edges: tuple[int, ...]

    def __post_init__(self):
        if self.universe < 0:
            raise ValueError(f"hypergraph vertex count {self.universe} is negative")
        full = (1 << self.universe) - 1
        for i, e in enumerate(self.edges):
            if e == 0:
                raise ValueError(f"hyperedge {i} is empty")
            if e & ~full:
                raise ValueError(f"hyperedge {i} leaves the universe")


def parse_hypergraph(text: str) -> Hypergraph:
    """Text format: header "n m", then m lines listing each edge's members."""
    (n, _), edges = read_counted(text, "hypergraph", "n m", "edge", None)
    for members in edges:
        if any(not 0 <= v < n for v in members):  # a negative v must not reach 1 << v
            raise GraphFormatError(f"edge member out of range: {' '.join(map(str, members))}")
    return Hypergraph(n, tuple(mask_of(members) for members in edges))


# ------------------------------------------------------------------- SAT


@dataclass(frozen=True)
class CnfInstance:
    """CNF with DIMACS-style signed 1-based literals."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for clause in self.clauses:
            if not clause:
                raise ValueError("empty clause")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")

    def validate_monotone(self, strict: bool = True):
        """Check the clause shape the reductions rely on.

        Always: every clause all-positive or all-negative with distinct
        literals.  strict additionally demands exactly 3 literals per clause
        and every variable occurring exactly twice positively and twice
        negatively.
        """
        pos_count = [0] * (self.num_vars + 1)
        neg_count = [0] * (self.num_vars + 1)
        for clause in self.clauses:
            if len(set(clause)) != len(clause):
                raise ValueError(f"repeated literal in clause {clause}")
            signs = {lit > 0 for lit in clause}
            if len(signs) != 1:
                raise ValueError(f"mixed clause {clause}")
            if strict and len(clause) != 3:
                raise ValueError(f"clause {clause} does not have 3 literals")
            if not strict and len(clause) > 3:
                raise ValueError(f"clause {clause} has more than 3 literals")
            for lit in clause:
                if lit > 0:
                    pos_count[lit] += 1
                else:
                    neg_count[-lit] += 1
        if strict:
            for x in range(1, self.num_vars + 1):
                if pos_count[x] != 2 or neg_count[x] != 2:
                    raise ValueError(
                        f"variable {x} occurs {pos_count[x]}+/{neg_count[x]}-, need 2/2"
                    )


def parse_dimacs(text: str) -> CnfInstance:
    """DIMACS CNF: one problem line "p cnf <variables> <clauses>", then
    0-terminated clauses; lines starting with "c" are comments."""
    header = None
    clauses = []
    current: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ValueError(f"second problem line: {line}")
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line: {line}")
            try:
                header = int(fields[2]), int(fields[3])
            except ValueError:
                raise ValueError(f"bad problem line: {line}") from None
            continue
        try:
            literals = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: clause literals must be integers") from None
        for lit in literals:
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if header is None:
        raise ValueError("missing problem line")
    if current:
        raise ValueError("last clause not terminated by 0")
    num_vars, num_clauses = header
    if len(clauses) != num_clauses:
        raise ValueError(f"expected {num_clauses} clauses, found {len(clauses)}")
    return CnfInstance(num_vars, tuple(clauses))
