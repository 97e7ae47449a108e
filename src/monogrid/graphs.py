"""Bitset graphs, vertex subsets, and exact pair densities.

Vertices are dense integers 0..n-1.  Every adjacency row is one Python int
with bit v set when the edge is present, so a subset degree is a single AND
plus a popcount.  All the hot loops downstream (regularity checks, candidate
filtering) are subset-density queries, which is why the representation is a
bit row rather than an adjacency list.

Only this module's code sees that layout; the rest ask set-level questions
(`degrees_into`, `edge_count`, `edges_between`, `pair_density`, `neighbours_in`,
`Graph.induced`, the `VertexSet` algebra), so the rows can change form here
alone.  Exempt on purpose: `blowup.py` writes rows from packed numpy draws as
the readers here do, and its `validate` is the loader's integrity check;
`oracle.py` keeps its exhaustive search state in int masks and pops one
candidate bit at a time; `pipeline._extend_cycle`'s path mask is search
state, not adjacency.

A vertex set keeps its members as a read-only sorted int64 array.  The array
is decoded from the bitmask in one vectorised pass the first time `ids`,
`to_list`, iteration or `sample` asks for it, or handed over by the
constructor that made the set: `from_ids`, `lowest` and `sample` build the
bitmask from their id array through one bool mask and `packbits`.  Iteration
and `to_list` hand out Python ints, so `1 << v` never wraps.

`edge_count` counts the edges between two id arrays: the smaller side's rows
ANDed with the larger side's packed bitmask.  `pair_density` divides it into
an exact `Fraction`; the regularity checks compare the count against their
rational thresholds by integer cross-multiplication.  Neither goes through
floats.

An r-edge-colouring is stored as its r colour-class graphs, because every
step downstream works inside one colour's subgraph.  The colouring file
format ("u v c" lines) does not depend on this layout.

Graph and colouring files are read and written a block at a time with numpy
kernels, never a line and a big-int operation at a time.  The writers decode
a block of bit rows into ascending edge arrays and format them as ASCII in
one vectorised pass.  The readers parse each block of canonical lines (the
form the writers emit) in one pass and scatter its edges into a row-blocked
bitmap, which becomes the int rows one row block at a time.  Every other
block, and every block with a faulty line, goes through the per-line parser:
it is the error path, and the one source of every "path:line:" message.
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np


def _bit_ids(bits: int) -> np.ndarray:
    """The set-bit positions of a non-negative int, ascending, in one numpy pass."""
    raw = np.frombuffer(bits.to_bytes((bits.bit_length() + 7) // 8, "little"),
                        dtype=np.uint8)
    # nonzero is several times faster over bools than over the uint8 bits
    ids = np.unpackbits(raw, bitorder="little").view(bool).nonzero()[0].astype(
        np.int64, copy=False)
    ids.flags.writeable = False
    return ids


def _mask(n: int, ids: np.ndarray) -> np.ndarray:
    """The bool array over 0..n-1 that is True at each of `ids`."""
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _packed(mask: np.ndarray) -> int:
    """The int with bit v set where the bool array `mask` is True."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def sample_ids(ids: np.ndarray, k: int, rng) -> np.ndarray:
    """A uniform k-subset of an id array, drawn with a numpy Generator, sorted."""
    return np.sort(ids[rng.choice(len(ids), size=k, replace=False)])


class VertexSet:
    """Immutable subset of 0..n-1 backed by an int bitmask.

    The member ids are a read-only sorted int64 array, decoded from the
    bitmask on first use (or handed over by the constructor that made the
    set) and cached.
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
        self._ids: np.ndarray | None = None

    @classmethod
    def _of(cls, n: int, ids: np.ndarray, mask: np.ndarray) -> "VertexSet":
        """The set of sorted distinct int64 ids in 0..n-1 with bool mask
        `mask`, unchecked; it keeps `ids`."""
        S = object.__new__(cls)
        S.n, S.bits, S._size = n, _packed(mask), len(ids)
        ids.flags.writeable = False
        S._ids = ids
        return S

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        """The set of the given ids, in any order, duplicates allowed."""
        ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
        if not ids.size:
            return cls(n, 0)
        outside = (ids < 0) | (ids >= n)
        if outside.any():
            v = ids[outside.argmax()]
            raise ValueError(f"vertex {v} outside universe of size {n}")
        mask = _mask(n, ids)
        return cls._of(n, mask.nonzero()[0].astype(np.int64, copy=False), mask)

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
    def ids(self) -> np.ndarray:
        """The member ids in ascending order, a read-only int64 array."""
        if self._ids is None:
            self._ids = _bit_ids(self.bits)
        return self._ids

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.to_list())

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

    def lowest(self, k: int) -> "VertexSet":
        """The k smallest member ids, as a new set."""
        if k < 0 or k > self._size:
            raise ValueError(f"cannot take {k} of {self._size} members")
        ids = self.ids[:k]
        return VertexSet._of(self.n, ids, _mask(self.n, ids))

    def sample(self, k: int, rng) -> "VertexSet":
        """Uniform k-subset drawn with the supplied numpy Generator."""
        if k < 0 or k > self._size:
            raise ValueError(f"cannot sample {k} of {self._size} members")
        ids = sample_ids(self.ids, k, rng)
        return VertexSet._of(self.n, ids, _mask(self.n, ids))

    def to_list(self) -> list[int]:
        return self.ids.tolist()

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

    def induced(self, S: VertexSet) -> "Graph":
        """The subgraph on the members of S, on the same vertex ids 0..n-1."""
        rows, bits = [0] * self.n, S.bits
        for v in S:
            rows[v] = self._rows[v] & bits
        return Graph(self.n, rows)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, v, _ in _edge_blocks([self]):
            yield from zip(u.tolist(), v.tolist())

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


def degrees_into(G: Graph, ids: Iterable[int], B: VertexSet) -> list[int]:
    """|N(v) & B| for each v of `ids`, in order; unchecked, for the hot loops."""
    rows, bbits = G._rows, B.bits
    return [(rows[v] & bbits).bit_count() for v in ids]


def edge_count(G: Graph, a_ids: np.ndarray, b_ids: np.ndarray) -> int:
    """e(A, B) for disjoint A, B given as int64 id arrays; unchecked.

    The smaller side's rows are ANDed with the larger side's bitmask.
    """
    if len(a_ids) > len(b_ids):
        a_ids, b_ids = b_ids, a_ids
    rows, mask = G._rows, _packed(_mask(G.n, b_ids))
    return sum([(rows[v] & mask).bit_count() for v in a_ids.tolist()])


def edges_between(G: Graph, A: VertexSet, B: VertexSet) -> int:
    """e(A, B) for disjoint A, B."""
    return edge_count(G, A.ids, B.ids)


def pair_density(G: Graph, A: VertexSet, B: VertexSet) -> Fraction:
    """Exact bipartite density e(A,B) / (|A| |B|) for disjoint non-empty sets."""
    if A.n != G.n or B.n != G.n:
        raise ValueError("vertex sets do not match the graph's universe")
    if not A or not B:
        raise ValueError("pair density needs non-empty sets")
    if not A.isdisjoint(B):
        raise ValueError("pair density needs disjoint sets")
    return Fraction(edges_between(G, A, B), len(A) * len(B))


def neighbours_in(G: Graph, v: int, B: VertexSet) -> VertexSet:
    """N(v) ∩ B as a VertexSet, for a vertex v of G outside B."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    if B.n != G.n:
        raise ValueError("vertex set does not match the graph's universe")
    if v in B:
        raise ValueError(f"vertex {v} must not belong to the target set")
    return VertexSet(G.n, G.row(v) & B.bits)


# ---------------------------------------------------------------------------
# edge arrays <-> bit rows
#
# The file formats, the edge iteration of a graph or a colouring and the
# uniform-random colouring move edges between int bit rows and numpy
# (u, v, c) arrays a row block at a time, so that none of them costs a
# Python-level big-int operation per edge (the per-line error path of the
# readers aside).

# Rows per block of `_ClassBuilder`'s bitmap; a multiple of 8, so that the
# columns of one block's rows are whole bytes.  Reading the s = 600 graph and
# colouring back on one core of a 2-CPU Xeon, 32, 64 and 128 rows take about
# 0.65, 0.6 and 0.6 s and peak at 0.2, 0.3 and 0.6 MB above the result.
ROW_BLOCK = 64
# Rows per block of `_edge_blocks`.  Writing the s = 600 graph and colouring
# on the same machine, 8, 16 and 32 rows take 0.44, 0.36 and 0.32 s and peak
# at 0.25, 0.5 and 1 MB.
EDGE_ROWS = 16


def _edge_blocks(classes) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every edge of the graphs `classes` (class c is colour c) as int64 arrays
    (u, v, c) with u < v, EDGE_ROWS values of u at a time, ascending by (u, v, c)."""
    n = classes[0].n
    for r0 in range(0, n, EDGE_ROWS):
        us, vs, cs = [], [], []
        for c, g in enumerate(classes):
            # bit d of above[u - r0] is edge (u, u + 1 + d)
            above = [row >> (u + 1)
                     for u, row in enumerate(g._rows[r0:r0 + EDGE_ROWS], r0)]
            width = (max(row.bit_length() for row in above) + 7) // 8
            if not width:
                continue
            raw = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in above),
                                dtype=np.uint8).reshape(len(above), width)
            i, j = np.nonzero(raw)  # the non-zero bytes, then their set bits
            k, bit = np.nonzero(np.unpackbits(raw[i, j][:, None], axis=1,
                                              bitorder="little"))
            us.append(r0 + i[k])
            vs.append(us[-1] + 1 + 8 * j[k] + bit)
            cs.append(np.full(len(k), c))
        if not us:
            continue
        if len(us) == 1:
            yield us[0], vs[0], cs[0]
            continue
        # merge the classes' ascending runs; a tie keeps class order
        u, v, c = np.concatenate(us), np.concatenate(vs), np.concatenate(cs)
        order = np.argsort((u - r0) * (int(v.max()) + 1) + v, kind="stable")
        yield u[order], v[order], c[order]


def _groups(key: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(value, positions) for each distinct value of an int array, ascending."""
    order = np.argsort(key, kind="stable")
    for at in np.split(order, np.flatnonzero(np.diff(key[order])) + 1):
        yield int(key[at[0]]), at


class _ClassBuilder:
    """r colour classes on 0..n-1 under construction, edge by edge or by arrays.

    Edge {a, b} (a < b) of class c is one bit of an upper-triangle bitmap
    held in row blocks: `blocks[c][k]` is a uint8 array made on first use,
    with a row for each of the ROW_BLOCK vertices from a0 = k*ROW_BLOCK on
    and a bit for each column from a0 on, so bit b - a0 of row a - a0.
    `graphs` mirrors the triangle into the classes' int rows one row block at
    a time, freeing each block as it is converted.  Callers check an edge
    before adding it: nothing here rejects a duplicate.
    """

    def __init__(self, n: int, r: int):
        self.n, self.r = n, r
        self.rows = [[0] * n for _ in range(r)]
        self.blocks: list[dict[int, np.ndarray]] = [{} for _ in range(r)]
        self.counts = [0] * r

    def _block(self, c: int, k: int, cols: int) -> np.ndarray:
        """Row block k of class c, made or widened to hold columns below `cols`.

        A block is as wide as its rightmost edge needs; one that must widen
        at least doubles, up to the universe, so the copying stays in
        proportion to the final size.
        """
        blk = self.blocks[c].get(k)
        width = -(-cols // 8) - k * (ROW_BLOCK // 8)
        if blk is None or blk.shape[1] < width:
            if blk is not None:
                room = -(-self.n // 8) - k * (ROW_BLOCK // 8)
                width = max(width, min(2 * blk.shape[1], room))
            wide = np.zeros((ROW_BLOCK, width), dtype=np.uint8)
            if blk is not None:
                wide[:, :blk.shape[1]] = blk
            blk = self.blocks[c][k] = wide
        return blk

    def has(self, a: int, b: int) -> bool:
        """Whether edge {a, b} (a < b) is in some class."""
        k, i = divmod(a, ROW_BLOCK)
        j = (b - k * ROW_BLOCK) >> 3
        for blocks in self.blocks:
            blk = blocks.get(k)
            if blk is not None and j < blk.shape[1] and (int(blk[i, j]) >> (b & 7)) & 1:
                return True
        return False

    def add(self, a: int, b: int, c: int) -> None:
        """Put edge {a, b} (a < b, in range, in no class yet) into class c."""
        k, i = divmod(a, ROW_BLOCK)
        self._block(c, k, b + 1)[i, (b - k * ROW_BLOCK) >> 3] |= 1 << (b & 7)
        self.counts[c] += 1

    def has_any(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether some edge {a[i], b[i]} (a < b) is in some class."""
        for k, at in _groups(a // ROW_BLOCK):
            col = b[at] - k * ROW_BLOCK
            for blocks in self.blocks:
                blk = blocks.get(k)
                if blk is None:
                    continue
                inside = col >> 3 < blk.shape[1]
                i, j = a[at][inside] - k * ROW_BLOCK, col[inside]
                if (blk[i, j >> 3] >> (j & 7) & 1).any():
                    return True
        return False

    def add_many(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Put the edges {a[i], b[i]} (a < b, in range, distinct, in no class
        yet) into classes c[i]."""
        blocks = a // ROW_BLOCK
        stride = int(blocks.max()) + 1
        for key, at in _groups(c * stride + blocks):
            cls, k = divmod(key, stride)
            col = b[at]
            blk = self._block(cls, k, int(col.max()) + 1)
            col = col - k * ROW_BLOCK
            np.bitwise_or.at(blk, (a[at] - k * ROW_BLOCK, col >> 3),
                             (1 << (col & 7)).astype(np.uint8))
            self.counts[cls] += len(at)

    def graphs(self) -> list[Graph]:
        """The classes as Graphs; the builder is spent afterwards."""
        n, step = self.n, ROW_BLOCK // 8
        # Row b's bits below b are column b of the rows above it: block k's
        # lower triangle is the transpose of the byte columns of block k in
        # blocks j <= k.  `sources[c][k]` lists the blocks j that have bits
        # there, so rows with no edges cost nothing.
        sources: list[dict[int, list[int]]] = []
        for blocks in self.blocks:
            sources.append({})
            for j in sorted(blocks):
                blk = blocks[j]
                used = np.logical_or.reduceat(blk.any(axis=0),
                                              np.arange(0, blk.shape[1], step))
                for t in np.flatnonzero(used).tolist():
                    sources[-1].setdefault(j + t, []).append(j)
        # Convert downwards, every class at each step, and free each block
        # once converted: no block below k reads it any more.
        for k in sorted(set().union(*sources, *self.blocks), reverse=True):
            for rows, blocks, below in zip(self.rows, self.blocks, sources):
                js, upper = below.get(k, []), blocks.get(k)
                if upper is not None:  # drop the block's empty right end
                    upper = upper[:, :np.flatnonzero(upper.any(axis=0))[-1] + 1]
                elif not js:
                    continue
                # byte columns lo..hi of block k's rows hold all their bits
                lo = (js[0] if js else k) * step
                hi = max((js[-1] + 1) * step if js else 0,
                         k * step + (0 if upper is None else upper.shape[1]))
                full = np.zeros((ROW_BLOCK, hi - lo), dtype=np.uint8)
                for g in range(0, len(js), 8):  # 8 blocks per transpose
                    group = js[g:g + 8]
                    strip = np.zeros((len(group) * ROW_BLOCK, step), dtype=np.uint8)
                    for t, j in enumerate(group):
                        part = blocks[j][:, (k - j) * step:(k - j + 1) * step]
                        strip[t * ROW_BLOCK:(t + 1) * ROW_BLOCK, :part.shape[1]] = part
                    bits = np.ascontiguousarray(
                        np.unpackbits(strip, axis=1, bitorder="little").T)
                    tiles = np.packbits(bits, axis=1, bitorder="little")
                    for t, j in enumerate(group):
                        at = j * step - lo
                        full[:, at:at + step] = tiles[:, t * step:(t + 1) * step]
                if upper is not None:
                    full[:, k * step - lo:k * step - lo + upper.shape[1]] |= upper
                    del blocks[k]
                # int.from_bytes keeps the room of leading zero bytes: cut them
                filled = full != 0
                ends = np.where(filled.any(axis=1),
                                full.shape[1] - filled[:, ::-1].argmax(axis=1), 0)
                data, width = full.tobytes(), full.shape[1]
                for i, end in enumerate(ends[:n - k * ROW_BLOCK].tolist()):
                    rows[k * ROW_BLOCK + i] = int.from_bytes(
                        data[i * width:i * width + end], "little") << 8 * lo
        return [Graph(n, rows, m) for rows, m in zip(self.rows, self.counts)]


def _paint(acc: _ClassBuilder, u: int, v: int, c: int) -> None:
    """Put edge uv into class c of `acc`, or say why not."""
    n = acc.n
    if u == v:
        raise ValueError(f"bad edge ({u}, {v}): self-loop")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"bad edge ({u}, {v}): vertex id out of range 0..{n - 1}")
    if not 0 <= c < acc.r:
        raise ValueError(f"colour {c} outside 0..{acc.r - 1}")
    a, b = min(u, v), max(u, v)
    if acc.has(a, b):
        raise ValueError(f"edge {(a, b)} coloured twice")
    acc.add(a, b, c)


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
        acc = _ClassBuilder(n, r)
        for (u, v), c in mapping.items():
            _paint(acc, u, v, c)
        self.n, self.r, self.classes = n, r, tuple(acc.graphs())

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

    @classmethod
    def by_edge(cls, G: Graph, r: int, colours) -> "EdgeColouring":
        """G's edges in ascending order, the i-th one in colour colours[i]."""
        colours = np.asarray(colours, dtype=np.int64)
        if len(colours) != G.edge_count:
            raise ValueError(f"{len(colours)} colours for {G.edge_count} edges")
        if len(colours) and not 0 <= colours.min() <= colours.max() < r:
            raise ValueError(f"colours outside 0..{r - 1}")
        acc = _ClassBuilder(G.n, r)
        at = 0
        for u, v, _ in _edge_blocks([G]):
            acc.add_many(u, v, colours[at:at + len(u)])
            at += len(u)
        return cls.from_classes(acc.graphs())

    def colour(self, u: int, v: int) -> int:
        if 0 <= u < self.n and 0 <= v < self.n:
            for c, g in enumerate(self.classes):
                if (g.row(u) >> v) & 1:
                    return c
        raise ValueError(f"edge {(min(u, v), max(u, v))} not coloured")

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Every coloured edge as ((u, v), c) with u < v, in ascending edge order."""
        for u, v, c in _edge_blocks(self.classes):
            yield from zip(zip(u.tolist(), v.tolist()), c.tolist())

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
#
# The writers emit every edge once, u < v, ascending, as ASCII formatted by
# `_ascii_lines` a row block at a time.  The readers take the file in blocks
# of about READ_BLOCK bytes cut at line ends.  A block after the header whose
# every line is canonical (`_decimal_block`) and whose every edge is new and
# valid (`_fresh`) goes into the builder in a few numpy operations; any other
# block (comments, blank lines, CRLF, tabs, signs, long tokens, a faulty line)
# goes through the per-line parser, which is the one source of every
# "path:line:" message and reports the first faulty line.

# Bytes per read block.  Reading the s = 600 graph and colouring back (8.6
# and 10.4 MB of text) on the same machine, blocks of 4, 16 and 64 KiB
# take about 1.4, 0.75 and 0.6 s; the peak memory above the result stays at
# 0.3 MB, set by `_ClassBuilder.graphs`.
READ_BLOCK = 64 * 1024

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _write_comment(fh, comment: str | None) -> None:
    """Head a text file with `comment`, one "# " line per line of it."""
    if comment:
        fh.writelines(f"# {line}\n" for line in comment.splitlines())


def _ascii_lines(*cols: np.ndarray) -> bytes:
    """Lines of equal-length non-negative int columns as ASCII, "a b ...\n" per row.

    Each field is written right-aligned in a fixed-width character matrix, one
    digit place at a time; the leading zeros are then dropped in one boolean
    compress, which reads the matrix line by line.
    """
    widths = [int(np.searchsorted(_POW10, x.max(), side="right")) or 1 for x in cols]
    chars = np.empty((len(cols[0]), sum(widths) + len(cols)), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    at = 0
    for x, width in zip(cols, widths):
        q = x
        for k in reversed(range(width)):  # column at + k holds place 10**(width-1-k)
            r = q // 10
            chars[:, at + k] = q - 10 * r + ord("0")
            if k < width - 1:
                keep[:, at + k] = x >= _POW10[width - 1 - k]
            q = r
        at += width + 1
        chars[:, at - 1] = ord(" ")
    chars[:, -1] = ord("\n")
    return chars[keep].tobytes()


def write_graph(G: Graph, path: str, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"n {G.n}\n")
        fh.flush()
        for u, v, _ in _edge_blocks([G]):
            fh.buffer.write(_ascii_lines(u, v))


def write_colouring(chi: EdgeColouring, path: str, comment: str | None = None) -> None:
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"r {chi.r}\n")
        fh.flush()
        for u, v, c in _edge_blocks(chi.classes):
            fh.buffer.write(_ascii_lines(u, v, c))


def _significant(lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, list[str]]]:
    """(line number, whitespace-split fields) of every line not blank or a comment."""
    for lineno, raw in enumerate(lines, start=start):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line.split()


def _significant_lines(path: str) -> Iterator[tuple[int, list[str]]]:
    with open(path) as fh:
        yield from _significant(fh)


def _blocks(path: str) -> Iterator[tuple[int, bytes]]:
    """(number of its first line, bytes) of consecutive blocks of about
    READ_BLOCK bytes of a file, each ending in "\\n" (added to an unterminated
    last line).  Lines are counted as text mode counts them."""
    first, tail = 1, b""
    with open(path, "rb") as fh:
        while data := fh.read(READ_BLOCK):
            data = tail + data
            cut = data.rfind(b"\n") + 1
            block, tail = data[:cut], data[cut:]
            if block:
                yield first, block
                first += block.count(b"\n")
                if b"\r" in block:
                    first += block.count(b"\r") - block.count(b"\r\n")
    if tail:
        yield first, tail + b"\n"


def _text_lines(block: bytes) -> io.TextIOWrapper:
    """The lines of a block as `open(path)` would read them."""
    return io.TextIOWrapper(io.BytesIO(block))


# the field ends of a canonical line of width 2 or 3: spaces, then a line end
_SEPARATORS = {w: np.array([ord(" ")] * (w - 1) + [ord("\n")], dtype=np.uint8)
               for w in (2, 3)}


def _decimal_block(block: bytes, width: int) -> np.ndarray | None:
    """The (lines, width) int64 fields of a block whose every line is `width`
    runs of 1 to 18 ASCII digits split by single spaces, or None if a line is
    not."""
    a = np.frombuffer(block, dtype=np.uint8)
    ends = np.flatnonzero((a - ord("0")) > 9)  # every byte but a digit ends a field
    if not ends.size or ends.size % width or ends[-1] != a.size - 1:
        return None
    if (a[ends].reshape(-1, width) != _SEPARATORS[width]).any():
        return None
    step = np.diff(ends, prepend=-1)  # a field's length plus one
    if step.min() < 2 or step.max() > 19:
        return None
    return np.fromstring(block, dtype=np.int64, sep=" ").reshape(-1, width)


def _fresh(acc: _ClassBuilder, u: np.ndarray, v: np.ndarray, n: int) -> bool:
    """Whether the edges u[i]v[i] lie in 0..n-1, are no self-loops, are
    pairwise distinct and are in no class of `acc` yet."""
    if max(u.max(), v.max()) >= n or (u == v).any():
        return False
    a, b = np.minimum(u, v), np.maximum(u, v)
    span = int(b.max()) + 1
    if int(a.max()) * span >= 2 ** 62:  # no exact int64 key: leave it to the line parser
        return False
    key = np.sort(a * span + b)
    return not (key[1:] == key[:-1]).any() and not acc.has_any(a, b)


def read_graph(path: str) -> Graph:
    acc = None
    for first, block in _blocks(path):
        fields = None if acc is None else _decimal_block(block, 2)
        if fields is not None and _fresh(acc, fields[:, 0], fields[:, 1], n):
            u, v = fields[:, 0], fields[:, 1]
            acc.add_many(np.minimum(u, v), np.maximum(u, v), np.zeros_like(u))
            continue
        for lineno, parts in _significant(_text_lines(block), first):
            if acc is None:
                if len(parts) != 2 or parts[0] != "n":
                    raise ValueError(f"{path}:{lineno}: expected header 'n <count>'")
                try:
                    n = int(parts[1])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad vertex count") from None
                if n < 0:
                    raise ValueError(f"{path}:{lineno}: negative vertex count")
                acc = _ClassBuilder(n, 1)
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
            if acc.has(min(u, v), max(u, v)):
                raise ValueError(f"{path}:{lineno}: duplicate edge ({u}, {v})")
            acc.add(min(u, v), max(u, v), 0)
    if acc is None:
        raise ValueError(f"{path}: missing header line")
    return acc.graphs()[0]


def read_colouring(path: str, n: int) -> EdgeColouring:
    """Read a colouring file of a graph on 0..n-1."""
    acc = None
    for first, block in _blocks(path):
        fields = None if acc is None else _decimal_block(block, 3)
        if (fields is not None and (fields[:, 2] < acc.r).all()
                and _fresh(acc, fields[:, 0], fields[:, 1], n)):
            u, v, c = fields.T
            acc.add_many(np.minimum(u, v), np.maximum(u, v), c)
            continue
        for lineno, parts in _significant(_text_lines(block), first):
            if acc is None:
                if len(parts) != 2 or parts[0] != "r":
                    raise ValueError(f"{path}:{lineno}: expected header 'r <count>'")
                try:
                    r = int(parts[1])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad colour count") from None
                if r < 2:
                    raise ValueError(f"{path}:{lineno}: colour count must be >= 2")
                acc = _ClassBuilder(n, r)
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'u v c'")
            try:
                u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field") from None
            try:
                _paint(acc, u, v, c)
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: {e}") from None
    if acc is None:
        raise ValueError(f"{path}: missing header line")
    return EdgeColouring.from_classes(acc.graphs())
