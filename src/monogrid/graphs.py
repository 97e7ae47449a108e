"""Bitset graphs, vertex subsets, and exact pair densities.

Vertices are dense integers 0..n-1.  Every adjacency row is one Python int
with bit v set when the edge is present, so a subset degree is a single AND
plus a popcount.  All the hot loops downstream (regularity checks, candidate
filtering) are subset-density queries, which is why the representation is a
bit row rather than an adjacency list.

A vertex set decodes its members from the bitmask once, in one vectorised
pass, the first time they are asked for by `ids`, `to_list` or `sample`, and
keeps them; a set whose ids were never asked for iterates its bits lazily, so
tiny one-off sets never pay for the decode.

Densities are exact `Fraction` values (edge count over product of sizes), so
comparisons against rational thresholds like (1-eps)*p never go through
floats.

An r-edge-colouring is stored as its r colour-class graphs, because every
step downstream works inside one colour's subgraph.  The colouring file
format ("u v c" lines) does not depend on this layout.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np


def _iter_bits(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _bit_ids(bits: int) -> tuple[int, ...]:
    """The set-bit positions of a non-negative int, ascending, in one numpy pass."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"),
                        dtype=np.uint8)
    return tuple(np.flatnonzero(np.unpackbits(raw, bitorder="little")).tolist())


class VertexSet:
    """Immutable subset of 0..n-1 backed by an int bitmask.

    The member ids are decoded once, on the first read of `ids` (directly or
    through `to_list` / `sample`), and cached; until then iteration walks the
    bitmask lazily.
    """

    __slots__ = ("n", "bits", "_size", "_ids")

    def __init__(self, n: int, bits: int):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if bits < 0 or bits >> n:
            raise ValueError("bitmask has members outside the universe")
        self.n = n
        self.bits = bits
        self._size = bits.bit_count()
        self._ids: tuple[int, ...] | None = None

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        bits = 0
        for v in ids:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside universe of size {n}")
            bits |= 1 << v
        return cls(n, bits)

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(n, (1 << n) - 1)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(n, 0)

    @property
    def size(self) -> int:
        return self._size

    @property
    def ids(self) -> tuple[int, ...]:
        """The member ids in ascending order, decoded on first use."""
        if self._ids is None:
            self._ids = _bit_ids(self.bits)
        return self._ids

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[int]:
        if self._ids is not None:
            return iter(self._ids)
        return _iter_bits(self.bits)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and (self.bits >> v) & 1 == 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def _check_universe(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets live in different universes")

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet(self.n, self.bits & other.bits)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet(self.n, self.bits | other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet(self.n, self.bits & ~other.bits)

    def isdisjoint(self, other: "VertexSet") -> bool:
        self._check_universe(other)
        return self.bits & other.bits == 0

    def add(self, v: int) -> "VertexSet":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside universe of size {self.n}")
        return VertexSet(self.n, self.bits | (1 << v))

    def remove(self, v: int) -> "VertexSet":
        return VertexSet(self.n, self.bits & ~(1 << v))

    def lowest(self, k: int) -> "VertexSet":
        """The k smallest member ids, as a new set."""
        if k < 0 or k > self._size:
            raise ValueError(f"cannot take {k} of {self._size} members")
        bits = 0
        for i, v in enumerate(self):
            if i >= k:
                break
            bits |= 1 << v
        return VertexSet(self.n, bits)

    def sample(self, k: int, rng) -> "VertexSet":
        """Uniform k-subset drawn with the supplied numpy Generator."""
        if k < 0 or k > self._size:
            raise ValueError(f"cannot sample {k} of {self._size} members")
        ids = self.ids
        picked = rng.choice(len(ids), size=k, replace=False)
        bits = 0
        for i in picked:
            bits |= 1 << ids[int(i)]
        return VertexSet(self.n, bits)

    def to_list(self) -> list[int]:
        return list(self.ids)

    def __repr__(self) -> str:
        if self._size <= 12:
            return f"VertexSet(n={self.n}, {{{', '.join(map(str, self))}}})"
        return f"VertexSet(n={self.n}, size={self._size})"


class Graph:
    """Immutable simple graph on 0..n-1 with int bitmask adjacency rows."""

    __slots__ = ("n", "_rows", "_m")

    def __init__(self, n: int, rows: list[int], edge_count: int | None = None):
        if len(rows) != n:
            raise ValueError("row count does not match vertex count")
        self.n = n
        self._rows = rows
        if edge_count is None:
            edge_count = sum(r.bit_count() for r in rows) // 2
        self._m = edge_count

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        rows = [full & ~(1 << v) for v in range(n)]
        return cls(n, rows)

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        if n < 1:
            raise ValueError("a path needs at least 1 vertex")
        return cls.from_edges(n, [(i, i + 1) for i in range(n - 1)])

    @property
    def edge_count(self) -> int:
        return self._m

    def row(self, v: int) -> int:
        return self._rows[v]

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def max_degree(self) -> int:
        return max((r.bit_count() for r in self._rows), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        return (self._rows[u] >> v) & 1 == 1

    def neighbours(self, v: int) -> VertexSet:
        return VertexSet(self.n, self._rows[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            base = u + 1
            for off in _bit_ids(self._rows[u] >> base):
                yield u, base + off

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._rows)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def _edges_between(G: Graph, A: VertexSet, B: VertexSet) -> int:
    """e(A, B) for disjoint A, B.  Iterates the smaller side."""
    if len(A) > len(B):
        A, B = B, A
    bbits = B.bits
    rows = G._rows
    return sum((rows[a] & bbits).bit_count() for a in A)


def pair_density(G: Graph, A: VertexSet, B: VertexSet) -> Fraction:
    """Exact bipartite density e(A,B) / (|A| |B|) for disjoint non-empty sets."""
    if A.n != G.n or B.n != G.n:
        raise ValueError("vertex sets do not match the graph's universe")
    if not A or not B:
        raise ValueError("pair density needs non-empty sets")
    if not A.isdisjoint(B):
        raise ValueError("pair density needs disjoint sets")
    return Fraction(_edges_between(G, A, B), len(A) * len(B))


def degree_into(G: Graph, v: int, B: VertexSet) -> int:
    """|N(v) ∩ B| for a vertex v outside B."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    if B.n != G.n:
        raise ValueError("vertex set does not match the graph's universe")
    if v in B:
        raise ValueError(f"vertex {v} must not belong to the target set")
    return (G.row(v) & B.bits).bit_count()


def neighbours_in(G: Graph, v: int, B: VertexSet) -> VertexSet:
    """N(v) ∩ B as a VertexSet, same preconditions as degree_into."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    if B.n != G.n:
        raise ValueError("vertex set does not match the graph's universe")
    if v in B:
        raise ValueError(f"vertex {v} must not belong to the target set")
    return VertexSet(G.n, G.row(v) & B.bits)


def _paint(rows: list[list[int]], u: int, v: int, c: int) -> None:
    """Put edge uv into class c of `rows` (one row list per colour), or say why not."""
    n = len(rows[0])
    if u == v:
        raise ValueError(f"bad edge ({u}, {v}): self-loop")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"bad edge ({u}, {v}): vertex id out of range 0..{n - 1}")
    if not 0 <= c < len(rows):
        raise ValueError(f"colour {c} outside 0..{len(rows) - 1}")
    bit = 1 << v
    for cls in rows:
        if cls[u] & bit:
            raise ValueError(f"edge {(min(u, v), max(u, v))} coloured twice")
    rows[c][u] |= bit
    rows[c][v] |= 1 << u


class EdgeColouring:
    """Colouring of a graph's edges with colours 0..r-1, stored as r graphs.

    `classes[c]` is the spanning graph of the colour-c edges; the classes are
    pairwise edge-disjoint.  A colouring is expected to cover every edge of
    the graph it was built for; `validate_total` checks that.  The file
    format ("u v c" lines, see `write_colouring`) is independent of storage.
    """

    __slots__ = ("n", "r", "classes")

    def __init__(self, n: int, r: int, mapping: dict[tuple[int, int], int]):
        if r < 2:
            raise ValueError("an edge colouring needs at least 2 colours")
        rows = [[0] * n for _ in range(r)]
        for (u, v), c in mapping.items():
            _paint(rows, u, v, c)
        self.n, self.r, self.classes = n, r, tuple(Graph(n, cls) for cls in rows)

    @classmethod
    def from_classes(cls, classes: list[Graph]) -> "EdgeColouring":
        """Adopt edge-disjoint graphs on 0..n-1 as colour classes 0..r-1, unchecked."""
        if len(classes) < 2:
            raise ValueError("an edge colouring needs at least 2 colours")
        chi = object.__new__(cls)
        chi.n, chi.r, chi.classes = classes[0].n, len(classes), tuple(classes)
        return chi

    @classmethod
    def constant(cls, G: Graph, r: int, c: int = 0) -> "EdgeColouring":
        """Every edge of G in colour c: G itself is class c, the rest are empty."""
        if not 0 <= c < r:
            raise ValueError(f"colour {c} outside 0..{r - 1}")
        empty = Graph(G.n, [0] * G.n, 0)
        return cls.from_classes([G if k == c else empty for k in range(r)])

    def colour(self, u: int, v: int) -> int:
        if 0 <= u < self.n and 0 <= v < self.n:
            for c, g in enumerate(self.classes):
                if (g.row(u) >> v) & 1:
                    return c
        raise ValueError(f"edge {(min(u, v), max(u, v))} not coloured")

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Every coloured edge as ((u, v), c) with u < v, in ascending edge order."""
        return heapq.merge(*(zip(g.edges(), repeat(c))
                             for c, g in enumerate(self.classes)))

    def __len__(self) -> int:
        return sum(g.edge_count for g in self.classes)

    def validate_total(self, G: Graph) -> None:
        """Raise unless the colouring covers exactly E(G)."""
        if G.n != self.n:
            raise ValueError("colouring universe does not match graph")
        m = G.edge_count
        if len(self) != m:
            raise ValueError(f"colouring has {len(self)} edges, graph has {m}")
        for g in self.classes:
            _check_subgraph(g, G)

    def colour_counts(self) -> list[int]:
        return [g.edge_count for g in self.classes]


def _check_subgraph(sub: Graph, G: Graph) -> None:
    """Raise unless every edge of the colour class `sub` is an edge of G."""
    for u, (mine, theirs) in enumerate(zip(sub._rows, G._rows)):
        stray = mine & ~theirs
        if stray:
            v = (stray & -stray).bit_length() - 1
            raise ValueError(f"colouring refers to absent edge ({u}, {v})")


def colour_subgraph(G: Graph, chi: EdgeColouring, c: int) -> Graph:
    """The spanning subgraph of G carrying exactly the colour-c edges."""
    if not 0 <= c < chi.r:
        raise ValueError(f"colour {c} outside 0..{chi.r - 1}")
    if chi.n != G.n:
        raise ValueError("colouring universe does not match graph")
    _check_subgraph(chi.classes[c], G)
    return chi.classes[c]


# ---------------------------------------------------------------------------
# file formats
#
# Graph file: header line "n <count>", then one "u v" per edge, 0-based.
# Colouring file: header line "r <count>", then "u v c" triples.
# Lines starting with "#" and blank lines are ignored in both.


def _write_comment(fh, comment: str | None) -> None:
    """Head a text file with `comment`, one "# " line per line of it."""
    if comment:
        fh.writelines(f"# {line}\n" for line in comment.splitlines())


def write_graph(G: Graph, path: str, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"n {G.n}\n")
        for u, v in G.edges():
            fh.write(f"{u} {v}\n")


def _significant_lines(path: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-split fields) of every line not blank or a comment."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def read_graph(path: str) -> Graph:
    n = None
    rows: list[int] = []
    m = 0
    for lineno, parts in _significant_lines(path):
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ValueError(f"{path}:{lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad vertex count") from None
            if n < 0:
                raise ValueError(f"{path}:{lineno}: negative vertex count")
            rows = [0] * n
            continue
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer vertex id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"{path}:{lineno}: vertex id out of range")
        if u == v:
            raise ValueError(f"{path}:{lineno}: self-loop")
        if (rows[u] >> v) & 1:
            raise ValueError(f"{path}:{lineno}: duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        m += 1
    if n is None:
        raise ValueError(f"{path}: missing header line")
    return Graph(n, rows, m)


def write_colouring(chi: EdgeColouring, path: str, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"r {chi.r}\n")
        fh.writelines(f"{u} {v} {c}\n" for (u, v), c in chi.items())


def read_colouring(path: str, n: int | None = None) -> EdgeColouring:
    """Read a colouring file; without `n` the universe is the largest id plus one."""
    r = None
    rows: list[list[int]] = []
    for lineno, parts in _significant_lines(path):
        if r is None:
            if len(parts) != 2 or parts[0] != "r":
                raise ValueError(f"{path}:{lineno}: expected header 'r <count>'")
            try:
                r = int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad colour count") from None
            if r < 2:
                raise ValueError(f"{path}:{lineno}: colour count must be >= 2")
            rows = [[0] * (n or 0) for _ in range(r)]
            continue
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'u v c'")
        try:
            u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer field") from None
        if n is None:  # the universe grows to the largest id seen
            for cls in rows:
                cls.extend([0] * (max(u, v) + 1 - len(cls)))
        try:
            _paint(rows, u, v, c)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from None
    if r is None:
        raise ValueError(f"{path}: missing header line")
    return EdgeColouring.from_classes([Graph(len(cls), cls) for cls in rows])
