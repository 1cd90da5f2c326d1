"""Graph core: immutable bitmask graphs, vertex-set algebra, class recognizers.

Vertex sets are plain Python ints used as bitmasks (bit v set = vertex v in
the set).  All neighborhood and connectivity queries work on such masks, so
the rest of the package never allocates per-vertex containers in hot loops.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

MAX_VERTICES = 1 << 16


def bit(v: int) -> int:
    return 1 << v


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def parse_vertex_set(text: str, n: int) -> int:
    """Parse a comma-separated vertex list such as "0,3".

    An empty or all-whitespace string denotes the empty set.
    """
    text = text.strip()
    if not text:
        return 0
    m = 0
    for part in text.split(","):
        v = int(part)
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        m |= 1 << v
    return m


def format_vertex_set(mask: int) -> str:
    return ",".join(str(v) for v in bits(mask))


class GraphFormatError(ValueError):
    """Raised for malformed graph or interval text input."""


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows.

    `adj[v]` holds the open neighborhood of v, `cadj[v]` the closed one.
    Immutable after construction.
    """

    __slots__ = ("n", "adj", "cadj", "full")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if rows[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.cadj = tuple(r | (1 << v) for v, r in enumerate(rows))
        self.full = (1 << n) - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self) -> int:
        return hash(self.adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


class CobipartitePartition(NamedTuple):
    """Vertex bipartition into two cliques (either side may be empty)."""

    c1: int
    c2: int


class IntervalModel:
    """Closed integer intervals, one per vertex, in vertex order.

    Compared and hashed by its intervals.
    """

    __slots__ = ("intervals",)

    def __init__(self, intervals: tuple[tuple[int, int], ...]):
        for v, (lo, hi) in enumerate(intervals):
            if lo > hi:
                raise ValueError(f"interval for vertex {v} has lo > hi: [{lo},{hi}]")
        self.intervals = intervals

    def __len__(self) -> int:
        return len(self.intervals)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalModel) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)


# ---------------------------------------------------------------- set algebra


def closed_neighborhood(g: Graph, s: int) -> int:
    """N[s]: union of closed neighborhoods over the vertices of the mask."""
    out = 0
    for v in bits(s):
        out |= g.cadj[v]
    return out


def open_neighborhood(g: Graph, s: int) -> int:
    """N(s): union of open neighborhoods; may intersect s itself."""
    out = 0
    for v in bits(s):
        out |= g.adj[v]
    return out


def private_neighbors(g: Graph, a: int, v: int) -> int:
    """N[v] minus N[a - {v}], the private closed neighbors of v w.r.t. a.

    v must be a member of a.
    """
    if not a >> v & 1:
        raise ValueError(f"vertex {v} is not in the set")
    return g.cadj[v] & ~closed_neighborhood(g, a & ~bit(v))


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the mask, plus the new-index -> old-index table."""
    old = tuple(bits(s))
    pos = {v: i for i, v in enumerate(old)}
    edges = []
    for i, v in enumerate(old):
        rest = g.adj[v] & s
        for u in bits(rest):
            if u > v:
                edges.append((i, pos[u]))
    return Graph(len(old), edges), old


def is_dominating(g: Graph, s: int) -> bool:
    return closed_neighborhood(g, s) == g.full


def _reach(g: Graph, s: int, seed: int) -> int:
    reach = seed
    frontier = seed
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.adj[v]
        nxt &= s & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def component_neighborhood(g: Graph, s: int, v: int) -> int:
    """N(C) for C the component of v in G[s + v]: every vertex adjacent to
    some member of C.  A vertex z outside s + v joins v's component in
    G[s + v + z] exactly when it lies in this mask."""
    reach = frontier = bit(v)
    border = 0
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        border |= nxt
        frontier = nxt & s & ~reach
        reach |= frontier
    return border


def is_connected_set(g: Graph, s: int) -> bool:
    """True iff G[s] is connected.  The empty set counts as connected."""
    if s == 0:
        return True
    return _reach(g, s, s & -s) == s


def same_component(g: Graph, s: int, u: int, v: int) -> bool:
    """True iff u and v lie in one connected component of G[s]."""
    if not (s >> u & 1 and s >> v & 1):
        return False
    return bool(_reach(g, s, bit(u)) >> v & 1)


def is_connected(g: Graph) -> bool:
    return is_connected_set(g, g.full)


def is_clique(g: Graph, s: int) -> bool:
    for v in bits(s):
        if s & ~g.cadj[v]:
            return False
    return True


def has_universal_vertex(g: Graph) -> bool:
    return any(g.cadj[v] == g.full for v in range(g.n))


def _two_color(rows) -> Optional[tuple[int, int]]:
    """Two-color the graph with adjacency rows `rows`; returns the color-class
    masks or None."""
    color = [-1] * len(rows)
    parts = [0, 0]
    for start in range(len(rows)):
        if color[start] != -1:
            continue
        color[start] = 0
        parts[0] |= bit(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in bits(rows[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    parts[color[u]] |= bit(u)
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return parts[0], parts[1]


def bipartition(g: Graph) -> Optional[tuple[int, int]]:
    """Two-color the graph; returns the color-class masks or None."""
    return _two_color(g.adj)


def recognize_cobipartite(g: Graph) -> Optional[CobipartitePartition]:
    """Partition the vertices into two cliques, or None if impossible.

    Works by two-coloring the complement graph; an arbitrary valid partition
    is returned when several exist.
    """
    parts = _two_color([g.full & ~row for row in g.cadj])
    return None if parts is None else CobipartitePartition(*parts)


def validate_cobipartite(g: Graph, part: CobipartitePartition) -> bool:
    if part.c1 & part.c2 or (part.c1 | part.c2) != g.full:
        return False
    return is_clique(g, part.c1) and is_clique(g, part.c2)


def validate_interval_model(g: Graph, m: IntervalModel) -> bool:
    """True iff the intervals realize exactly the edges of g."""
    return intersection_graph(m) == g


def intersection_graph(m: IntervalModel) -> Graph:
    iv = m.intervals
    n = len(iv)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if max(iv[u][0], iv[v][0]) <= min(iv[u][1], iv[v][1]):
                edges.append((u, v))
    return Graph(n, edges)


def min_degree_peel(g: Graph) -> tuple[list[int], int]:
    """Repeatedly remove a minimum-degree vertex.

    Returns the elimination order and the degeneracy (the largest degree seen
    at removal time).  Ties break toward the smallest vertex index.
    """
    alive = g.full
    order = []
    degeneracy = 0
    for _ in range(g.n):
        best, best_deg = -1, MAX_VERTICES
        for v in bits(alive):
            d = (g.adj[v] & alive).bit_count()
            if d < best_deg:
                best, best_deg = v, d
        order.append(best)
        degeneracy = max(degeneracy, best_deg)
        alive &= ~bit(best)
    return order, degeneracy


# ---------------------------------------------------------------- text format


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_graph(text: str) -> Graph:
    """Parse the plain text graph format: a header "n m" then m lines "u v".

    Comment lines starting with '#' and blank lines are ignored.  Vertices
    are 0-based.  Duplicate edges, self-loops, and count mismatches are
    rejected.
    """
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty graph file") from None
    fields = header.split()
    if len(fields) != 2:
        raise GraphFormatError(f"line {lineno}: header must be 'n m'")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise GraphFormatError(f"line {lineno}: header must be two integers") from None
    edges = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: edge line must be 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: edge line must be two integers") from None
        edges.append((u, v))
    if len(edges) != m:
        raise GraphFormatError(f"expected {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_intervals(text: str) -> IntervalModel:
    """Parse the interval file format: a count line "n" then n lines "lo hi"."""
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise GraphFormatError("empty interval file") from None
    try:
        n = int(header)
    except ValueError:
        raise GraphFormatError(f"line {lineno}: count line must be one integer") from None
    intervals = []
    for lineno, line in lines:
        fields = line.split()
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: interval line must be 'lo hi'")
        try:
            lo, hi = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: endpoints must be integers") from None
        intervals.append((lo, hi))
    if len(intervals) != n:
        raise GraphFormatError(f"expected {n} intervals, found {len(intervals)}")
    try:
        return IntervalModel(tuple(intervals))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_intervals(m: IntervalModel) -> str:
    lines = [str(len(m))]
    lines.extend(f"{lo} {hi}" for lo, hi in m.intervals)
    return "\n".join(lines) + "\n"
