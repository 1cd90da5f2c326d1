"""Exhaustive ground truth, independent of the enumeration machinery.

Full 3^n scans over all functions (vectorized with numpy), minimal hitting
sets and tiny SAT by brute force.  Everything here exists to check the
polynomial-delay algorithms, so it deliberately avoids their theory: variant
membership is evaluated from the definitions and minimality by comparing
holders pointwise.

numpy is imported inside the functions that use it, so importing the
package (and the command-line front end) does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, bit, bits
from .roman import Variant, pos_mask, two_mask

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


def property_holders(g: Graph, variant: Variant, cap: int = DEFAULT_CAP) -> list[tuple]:
    """Every function with the property, in index order."""
    import numpy as np

    _check_cap(g, cap)
    pos, m2, wt = _digit_tables(g.n)
    flags = _variant_flags(g, variant, pos, m2)
    return _tuples_for_indices(np.flatnonzero(flags), g.n)


def oracle_fixed_two(g: Graph, variant: Variant, a: int, cap: int = DEFAULT_CAP) -> set:
    """Minimal functions with the property whose 2-set equals a.

    This filters the global minimal set; see oracle_fixed_two_slice for the
    other reading (minimal within the fixed-2-set slice), which can be
    strictly larger.
    """
    return {f for f in oracle_all_minimal(g, variant, cap=cap) if two_mask(f) == a}


def oracle_fixed_two_slice(g: Graph, variant: Variant, a: int, cap: int = DEFAULT_CAP) -> set:
    """Minimal elements of {f : property holds, 2-set of f equals a}.

    Enumerated directly over the 2^(n-|a|) slice members in weight order.
    """
    from .roman import is_variant

    _check_cap(g, cap)
    free = [v for v in range(g.n) if not a >> v & 1]
    base = [2 if a >> v & 1 else 0 for v in range(g.n)]
    minimal: list[int] = []
    out = set()
    for k in range(len(free) + 1):
        for combo in combinations(free, k):
            f = list(base)
            ones = 0
            for v in combo:
                f[v] = 1
                ones |= bit(v)
            if not is_variant(g, tuple(f), variant):
                continue
            if any(m & ~ones == 0 for m in minimal):
                continue
            minimal.append(ones)
            out.add(tuple(f))
    return out


def exists_minimal_geq(g: Graph, f: tuple, variant: Variant, cap: int = DEFAULT_CAP) -> bool:
    """Is some pointwise-minimal holder >= f?  Full-scan extension oracle."""
    minimal, pos, m2 = _minimal_scan(g, variant, cap)
    geq = ((pos_mask(f) & ~pos[minimal]) == 0) & ((two_mask(f) & ~m2[minimal]) == 0)
    return bool(geq.any())


# ------------------------------------------------------------- hypergraphs


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph on universe 0..universe-1 with edges as bitmasks."""

    universe: int
    edges: tuple[int, ...]

    def __post_init__(self):
        full = (1 << self.universe) - 1
        for i, e in enumerate(self.edges):
            if e == 0:
                raise ValueError(f"hyperedge {i} is empty")
            if e & ~full:
                raise ValueError(f"hyperedge {i} leaves the universe")


def parse_hypergraph(text: str) -> Hypergraph:
    """Text format: header "n m", then m lines listing each edge's members."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty hypergraph file")
    n, m = (int(x) for x in rows[0].split())
    if len(rows) - 1 != m:
        raise ValueError(f"expected {m} edges, found {len(rows) - 1}")
    edges = []
    for line in rows[1:]:
        members = [int(x) for x in line.split()]
        if any(not 0 <= v < n for v in members):
            raise ValueError(f"edge member out of range: {line}")
        edges.append(sum(1 << v for v in set(members)))
    return Hypergraph(n, tuple(edges))


def format_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.universe} {len(h.edges)}"]
    lines.extend(" ".join(str(v) for v in bits(e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def oracle_transversals(h: Hypergraph, cap: int = 20) -> set[int]:
    """All inclusion-minimal hitting sets, as masks, by subset scan."""
    if h.universe > cap:
        raise CapExceeded(f"transversal oracle capped at {cap}")
    out = set()
    for s in range(1 << h.universe):
        if any(not e & s for e in h.edges):
            continue
        if any(all((s & ~bit(x)) & e for e in h.edges) for x in bits(s)):
            continue
        out.add(s)
    return out


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
    num_vars = None
    clauses = []
    current: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise ValueError(f"bad problem line: {line}")
            num_vars = int(fields[2])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if num_vars is None:
        raise ValueError("missing problem line")
    if current:
        raise ValueError("last clause not terminated by 0")
    return CnfInstance(num_vars, tuple(clauses))


def format_dimacs(c: CnfInstance) -> str:
    lines = [f"p cnf {c.num_vars} {len(c.clauses)}"]
    lines.extend(" ".join(str(lit) for lit in clause) + " 0" for clause in c.clauses)
    return "\n".join(lines) + "\n"


def oracle_sat(c: CnfInstance, cap: int = 20):
    """First satisfying assignment as a bool tuple, or None."""
    if c.num_vars > cap:
        raise CapExceeded(f"sat oracle capped at {cap} variables")
    for word in range(1 << c.num_vars):
        assignment = [(word >> i) & 1 == 1 for i in range(c.num_vars)]
        ok = True
        for clause in c.clauses:
            if not any(assignment[abs(lit) - 1] == (lit > 0) for lit in clause):
                ok = False
                break
        if ok:
            return tuple(assignment)
    return None


# --------------------------------------------------------- dominating sets


def exists_minimal_dominating_superset(g: Graph, u: int, cap: int = 20) -> bool:
    """Is there an inclusion-minimal dominating set containing u?"""
    if g.n > cap:
        raise CapExceeded(f"dominating-set oracle capped at n={cap}")
    from .graphs import closed_neighborhood

    full = g.full
    free = full & ~u
    sub = free
    while True:
        d = u | sub
        if closed_neighborhood(g, d) == full:
            if all(closed_neighborhood(g, d & ~bit(v)) != full for v in bits(d)):
                return True
        if sub == 0:
            break
        sub = (sub - 1) & free
    return False
