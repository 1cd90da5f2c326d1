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
        try:
            v = int(part)
        except ValueError:
            raise ValueError(f"vertex set entry {part.strip()!r} is not an integer") from None
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

    @classmethod
    def from_rows(cls, rows: list[int]) -> "Graph":
        """The graph with open neighborhoods `rows`, unchecked: symmetric, no loops."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.adj = tuple(rows)
        g.cadj = tuple(r | (1 << v) for v, r in enumerate(rows))
        g.full = (1 << g.n) - 1
        return g

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


def union_of(table, mask: int) -> int:
    """The OR of table[v] over the members v of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def closed_neighborhood(g: Graph, s: int) -> int:
    """N[s]: union of closed neighborhoods over the vertices of the mask."""
    return union_of(g.cadj, s)


def is_dominating(g: Graph, s: int) -> bool:
    return closed_neighborhood(g, s) == g.full


def _reach(g: Graph, s: int, seed: int) -> int:
    reach = seed
    frontier = seed
    while frontier:
        nxt = union_of(g.adj, frontier) & s & ~reach
        reach |= nxt
        frontier = nxt
    return reach


def is_connected_set(g: Graph, s: int) -> bool:
    """True iff G[s] is connected.  The empty set counts as connected."""
    if s == 0:
        return True
    return _reach(g, s, s & -s) == s


def cut_vertices(g: Graph, s: int) -> Optional[int]:
    """The cut vertices of G[s] as a mask, or None when G[s] is not
    connected (the empty set counts as connected).

    One iterative depth-first search (Hopcroft and Tarjan).  A vertex's
    next child is the low bit of its row less the vertices seen, so the
    search takes O(|s|) mask steps, whatever the density.  Every edge out
    of the subtree of a child c of v leads to an ancestor of c, so v is a
    cut vertex iff, for some child c, the OR of the rows of c's subtree
    misses the path above v; the root is one iff it has two children.
    """
    if not s:
        return 0
    adj = g.adj
    v = root = s & -s
    unseen = s ^ root
    # v is the vertex searched, row its row and below the OR of the rows of
    # its subtree so far; path holds the vertices above v, and the stack
    # the same three for each of them
    row = below = adj[root.bit_length() - 1]
    path = 0
    stack = []
    cut = root_children = 0
    while True:
        nxt = row & unseen
        if nxt:
            stack.append((v, row, below))
            path |= v
            v = nxt & -nxt
            unseen ^= v
            row = below = adj[v.bit_length() - 1]
        elif stack:
            u, row, above = stack.pop()
            path ^= u
            if not path:
                root_children += 1
            elif not below & path:
                cut |= u
            v, below = u, above | below
        else:
            break
    if unseen:
        return None
    return cut | root if root_children > 1 else cut


def same_component(g: Graph, s: int, u: int, v: int) -> bool:
    """True iff u and v lie in one connected component of G[s]."""
    if not (s >> u & 1 and s >> v & 1):
        return False
    return bool(_reach(g, s, bit(u)) >> v & 1)


def is_connected(g: Graph) -> bool:
    return is_connected_set(g, g.full)


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


def recognize_cobipartite(g: Graph) -> Optional[CobipartitePartition]:
    """Partition the vertices into two cliques, or None if impossible.

    Works by two-coloring the complement graph; an arbitrary valid partition
    is returned when several exist.
    """
    parts = _two_color([g.full & ~row for row in g.cadj])
    return None if parts is None else CobipartitePartition(*parts)


def intersection_graph(m: IntervalModel) -> Graph:
    """The graph whose edges join the vertices of meeting intervals.

    One sweep by left endpoint: an interval meets exactly the earlier ones
    that have not ended before it starts, so it is joined to every interval
    still open, after those whose right endpoint lies left of its start are
    closed in order of right endpoint.  O(n log n + m).
    """
    iv = m.intervals
    by_right = sorted(range(len(iv)), key=lambda v: iv[v][1])
    edges = []
    still_open = closed = 0
    for v in sorted(range(len(iv)), key=iv.__getitem__):
        lo = iv[v][0]
        # stops at v at the latest, since v does not end before it starts
        while iv[by_right[closed]][1] < lo:
            still_open &= ~bit(by_right[closed])
            closed += 1
        edges.extend((u, v) for u in bits(still_open))
        still_open |= bit(v)
    return Graph(len(iv), edges)


# ---------------------------------------------------------------- text format


def read_counted(text: str, kind: str, header: str, noun: str, layout: Optional[str]):
    """Read a counted text file into (header, records), tuples of integers.

    `#` starts a comment, and blank lines are skipped.  The first line is the
    header, laid out as `header` (e.g. "n m"); its last field counts the
    records.  Each later line is one record, laid out as `layout` (e.g.
    "u v"), or any number of integers when `layout` is None.  A malformed
    line is refused with its number.
    """
    head, records = None, []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        want = header if head is None else layout
        try:
            values = tuple(map(int, fields))
        except ValueError:
            values = None
        if values is None or want is not None and len(values) != len(want.split()):
            what = "header" if head is None else f"{noun} line"
            shape = f"'{want}'" if want else "integers"
            raise GraphFormatError(f"line {lineno}: {what} must be {shape}")
        if head is None:
            head = values
        else:
            records.append(values)
    if head is None:
        raise GraphFormatError(f"empty {kind} file")
    if len(records) != head[-1]:
        raise GraphFormatError(f"expected {head[-1]} {noun}s, found {len(records)}")
    return head, records


def parse_graph(text: str) -> Graph:
    """Parse the plain text graph format: a header "n m" then m lines "u v".

    Vertices are 0-based.  Duplicate edges, self-loops, and count mismatches
    are rejected.
    """
    (n, _), edges = read_counted(text, "graph", "n m", "edge", "u v")
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
    _, intervals = read_counted(text, "interval", "n", "interval", "lo hi")
    try:
        return IntervalModel(tuple(intervals))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def format_intervals(m: IntervalModel) -> str:
    lines = [str(len(m))]
    lines.extend(f"{lo} {hi}" for lo, hi in m.intervals)
    return "\n".join(lines) + "\n"
