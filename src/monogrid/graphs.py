"""Tiled bitset graphs, vertex subsets, and exact pair densities.

Vertices are dense integers 0..n-1.  Adjacency is stored in 64 x 64-bit
tiles: bit j of word i of tile (R, C) is set when vertices 64R + i and 64C + j
are adjacent.  A graph keeps one uint64 tile per non-empty (row block,
column block), both orientations of every edge, sorted by the key R * nb + C
(nb = ceil(n / 64)), so its index is linear in n / 64 plus the tiles.  A
blow-up's tiles cover its 2|E(H)| s x s blocks over host edges and nothing
else.  The row of v is word v mod 64 of row block v // 64's tiles, so a
subset degree is a gather, an AND with the subset's word mask and a popcount.
A `PairMatrix` keeps such gathered rows and ANDs them with column masks.

Only this module sees that layout; the rest ask set-level questions
(`PairMatrix`, `degrees_into`, `edge_count`, `pair_density`, `neighbours_in`,
the `VertexSet` algebra).  `oracle.py` keeps its search state in int masks
from `Graph.row`, the one conversion of tiles into ints.

A vertex set is a read-only sorted int64 array of member ids, with a word
mask over 0..n-1 built on first use.  Iteration and `to_list` hand out Python
ints, so `1 << v` never wraps.  Edge counts are exact integers; `pair_density`
divides one into a `Fraction`, and the regularity checks compare counts with
their rational thresholds by integer cross-multiplication.

An r-edge-colouring is stored as its r colour-class graphs, because every
step downstream works inside one colour's subgraph.

Graphs built from edges, from drawn blocks or from files go through
`_ClassBuilder`, which ORs each edge uv with u < v into its upper tile only,
as it arrives, and fills the lower tiles once at the end with their bit
transposes (`_mirror`).  One decoder, `_upper_bits`, unpacks a row block's
non-zero words from the diagonal on into the bits of its edges uv with
u < v.  The file writers turn those bits into ascending edge arrays and
format them as ASCII in one vectorised pass; `EdgeColouring.by_edge` masks
them by colour into copies of the graph's own tiles and mirrors the upper
tiles the same way, with no sort and no per-edge scatter.  The readers parse
each block of canonical lines in one pass, and a block in writer order goes
into the builder with no check for repeats; any other block goes through
the per-line parser, the one source of every "path:line:" message.
"""

from __future__ import annotations

import io
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from monogrid import seeds

# bits per word: the rows, and the columns, of one tile
W = 64
_U64 = np.dtype("<u8")

# The largest vertex and colour counts a graph or colouring file may declare.
# A graph's row-block index holds n / 64 + 1 int64 words, 2 MiB at
# MAX_VERTICES, and a colouring keeps one graph per colour, so a colouring
# at both bounds indexes 512 MiB before its first edge.  The readers refuse
# larger counts before they allocate anything.
MAX_VERTICES = 1 << 24
MAX_COLOURS = 1 << 8

# pairings `Graph.random_regular` draws before it gives up
_PAIRING_TRIES = 1000


def _nblocks(n: int) -> int:
    """ceil(n / W): the row (and column) blocks of a universe of size n."""
    return -(-n // W)


def _bits(j: np.ndarray) -> np.ndarray:
    """1 << j as uint64 words, for an int array of bit positions 0..W-1."""
    return np.left_shift(np.uint64(1), j.astype(np.uint64))


def _word_mask(n: int, ids: np.ndarray) -> np.ndarray:
    """The ceil(n / W) uint64 words over 0..n-1 with the bits of `ids` set."""
    member = np.zeros(_nblocks(n) * W, dtype=bool)
    member[ids] = True
    return np.packbits(member, bitorder="little").view(_U64)


def _holds(mask: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Whether the word mask `mask` has the bit of each of `ids` set."""
    return (mask[ids >> 6] >> (ids & 63).astype(np.uint64) & np.uint64(1)).astype(bool)


def _word_ids(words: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The ids of the set bits of uint64 `words`, word k holding ids base[k]
    to base[k] + W - 1; ascending when `base` is."""
    nz = np.flatnonzero(words)
    at = np.flatnonzero(np.unpackbits(words[nz].view(np.uint8), bitorder="little"))
    return base[nz][at >> 6] + (at & 63)


def floyd(rng, n, k: int, bit: np.ndarray, taken: np.ndarray) -> Iterator[np.ndarray]:
    """A uniform k-subset of range(n) for every row of the word masks `taken`
    at once, by Floyd's algorithm a step at a time: for j = n - k, ..., n - 1,
    every row draws t uniform in [0, j] (one `rng.integers` call over the
    rows) and picks t, or j when it holds t already.  `n` is an int, or one
    int per row, each at least k.

    A row holds position t when its mask has bit bit[t] set, or bit[r, t] for
    row r when `bit` is 2-D; `taken` starts empty and ends holding each row's
    subset.  Yields each step's picks, one per row.
    """
    rows, flat = len(taken), taken.reshape(-1)
    # row r's positions start at at[r] in the flat bit map, its bits at base[r]
    at = np.arange(rows) * (bit.shape[1] if bit.ndim == 2 else 0)
    bit, base = bit.reshape(-1), np.arange(rows) * (taken.shape[1] * W)
    for step in range(k):
        top = n - k + step
        t = rng.integers(0, top + 1, size=rows)
        t = np.where(_holds(flat, base + bit[at + t]), top, t)
        b = base + bit[at + t]
        flat[b >> 6] |= _bits(b & 63)
        yield t


def subsets(rng, n, k: int, rows: int) -> np.ndarray:
    """Uniform k-subsets of range(n), `n` an int or one int per row, one
    subset per row, ascending in each row: `floyd` over bit-per-position
    masks."""
    top = int(np.max(n, initial=k))
    picks = np.empty((rows, k), dtype=np.int64)
    taken = np.zeros((rows, _nblocks(top)), dtype=_U64)
    for step, t in enumerate(floyd(rng, n, k, np.arange(top), taken)):
        picks[:, step] = t
    picks.sort(axis=1)
    return picks


class VertexSet:
    """Immutable subset of 0..n-1: its members as a read-only sorted int64 array.

    `VertexSet(n, ids)` takes integer ids in any order, duplicates
    allowed.  The word mask is built on first use.
    """

    __slots__ = ("n", "ids", "_mask")

    def __init__(self, n: int, ids: Iterable[int]):
        ids = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
        member = np.zeros(n, dtype=bool)
        if ids.size:
            if ids.dtype.kind not in "iu":
                raise TypeError(f"vertex ids must be integers, not {ids.dtype}")
            outside = (ids < 0) | (ids >= n)
            if outside.any():
                raise ValueError(f"vertex {ids[outside.argmax()]} outside universe of size {n}")
            member[ids] = True
        self._adopt(n, np.flatnonzero(member))

    def _adopt(self, n: int, ids: np.ndarray) -> "VertexSet":
        ids.flags.writeable = False
        self.n, self.ids, self._mask = n, ids, None  # the word mask, built on first use
        return self

    @classmethod
    def _of(cls, n: int, ids: np.ndarray) -> "VertexSet":
        """The set of sorted distinct int64 `ids`, adopted unchecked."""
        return object.__new__(cls)._adopt(n, ids)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls._of(n, np.empty(0, dtype=np.int64))

    @property
    def size(self) -> int:
        return len(self.ids)

    def _words(self) -> np.ndarray:
        if self._mask is None:
            self._mask = _word_mask(self.n, self.ids)
        return self._mask

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(
            self._words()[v >> 6] >> np.uint64(v & 63) & np.uint64(1))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and np.array_equal(self.ids, other.ids)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.ids.tobytes()))

    def _check_universe(self, other: "VertexSet") -> None:
        if self.n != other.n:
            raise ValueError("vertex sets live in different universes")

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet._of(self.n, self.ids[_holds(other._words(), self.ids)])

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet._of(self.n, np.union1d(self.ids, other.ids))

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check_universe(other)
        return VertexSet._of(self.n, self.ids[~_holds(other._words(), self.ids)])

    def isdisjoint(self, other: "VertexSet") -> bool:
        return not self & other

    def add(self, v: int) -> "VertexSet":
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside universe of size {self.n}")
        if v in self:
            return self
        return VertexSet._of(self.n, np.insert(self.ids, np.searchsorted(self.ids, v), v))

    def lowest(self, k: int) -> "VertexSet":
        """The k smallest member ids, as a new set."""
        if k < 0 or k > len(self):
            raise ValueError(f"cannot take {k} of {len(self)} members")
        return VertexSet._of(self.n, self.ids[:k])

    def sample(self, k: int, rng) -> "VertexSet":
        """Uniform k-subset drawn with the supplied numpy Generator."""
        if k < 0 or k > len(self):
            raise ValueError(f"cannot sample {k} of {len(self)} members")
        return VertexSet._of(self.n, np.sort(self.ids[rng.choice(len(self), size=k, replace=False)]))

    def to_list(self) -> list[int]:
        return self.ids.tolist()

    def __repr__(self) -> str:
        if len(self) <= 12:
            return f"VertexSet(n={self.n}, {{{', '.join(map(str, self))}}})"
        return f"VertexSet(n={self.n}, size={len(self)})"


class Graph:
    """Immutable simple graph on 0..n-1 with tiled bitset adjacency.

    `Graph(n, keys, tiles)` adopts sorted tile keys and their non-zero
    (len(keys), W) uint64 tiles, which hold both orientations of every edge.
    """

    __slots__ = ("n", "_keys", "_tiles", "_ptr", "_col", "_m")

    def __init__(self, n: int, keys: np.ndarray, tiles: np.ndarray):
        nb = _nblocks(n)
        self.n, self._keys, self._tiles = n, keys, tiles
        # row block R's tiles are _ptr[R]:_ptr[R + 1], in column block order
        self._ptr = np.searchsorted(keys, np.arange(nb + 1) * nb)
        self._col = keys % max(nb, 1)
        self._m = int(np.bitwise_count(tiles).sum()) // 2

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """The graph of the given edges, in any order; repeats collapse."""
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges),
                           dtype=np.int64)
        u, v = pairs.T if pairs.size else pairs.reshape(2, 0)
        outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        faults = np.flatnonzero(outside | (u == v))
        if faults.size:
            i = faults[0]
            if outside[i]:
                raise ValueError(f"edge ({u[i]}, {v[i]}) outside vertex range 0..{n - 1}")
            raise ValueError(f"self-loop at vertex {u[i]}")
        acc = _ClassBuilder(n, 1)
        acc.add_many(u, v, np.zeros_like(u))
        return acc.graphs()[0]

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, np.column_stack(np.triu_indices(n, 1)))

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

    @classmethod
    def grid(cls, a: int, b: int) -> "Graph":
        """The a-by-b grid: cell (i, j) is vertex i*b + j, axis neighbours adjacent."""
        if a < 1 or b < 1:
            raise ValueError("grid dimensions must be at least 1")
        cell = np.arange(a * b).reshape(a, b)
        across = np.column_stack((cell[:, :-1].ravel(), cell[:, 1:].ravel()))
        down = np.column_stack((cell[:-1].ravel(), cell[1:].ravel()))
        return cls.from_edges(a * b, np.concatenate((across, down)))

    @classmethod
    def random_regular(cls, n: int, d: int, seed: int) -> "Graph":
        """A uniformly random d-regular graph via the pairing model.

        Each vertex contributes d points; a uniform perfect matching on the
        points induces the edges, and outcomes with loops or repeated edges
        are rejected and redrawn.  Rejection is cheap at the small degrees
        used here.
        """
        if n < 2 or d < 1 or d >= n:
            raise ValueError("need 2 <= n and 1 <= d < n")
        if n * d % 2:
            raise ValueError("n*d must be even for a d-regular graph")
        rng = seeds.rng(seed)
        for _ in range(_PAIRING_TRIES):
            ends = rng.permutation(n * d).reshape(-1, 2) // d
            u, v = ends.min(axis=1), ends.max(axis=1)
            if (u == v).any() or len(np.unique(u * n + v)) < len(u):
                continue
            return cls.from_edges(n, np.column_stack((u, v)))
        raise ValueError(f"no simple {d}-regular graph found in {_PAIRING_TRIES} pairings")

    @property
    def edge_count(self) -> int:
        return self._m

    def _row_words(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """The words of v's row, and the column block each of them covers."""
        lo, hi = self._ptr[v >> 6], self._ptr[(v >> 6) + 1]
        return self._tiles[lo:hi, v & 63], self._col[lo:hi]

    def row(self, v: int) -> int:
        """N(v) as an int with bit w set for each neighbour w."""
        words, cols = self._row_words(v)
        out = 0
        for c, word in zip(cols.tolist(), words.tolist()):
            out |= word << W * c
        return out

    def degree(self, v: int) -> int:
        return int(np.bitwise_count(self._row_words(v)[0]).sum())

    def max_degree(self) -> int:
        nb = _nblocks(self.n)
        degrees = np.zeros((nb, W), dtype=np.int64)
        np.add.at(degrees, self._keys // max(nb, 1), np.bitwise_count(self._tiles))
        return int(degrees.max(initial=0))

    def degree_bound(self) -> int:
        """The maximum degree, but at least 2: a host's edges split into this
        many + 1 matchings, one per level of the chain."""
        return max(2, self.max_degree())

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range")
        words, cols = self._row_words(u)
        at = int(np.searchsorted(cols, v >> 6))
        return bool(at < len(cols) and cols[at] == v >> 6
                    and words[at] >> np.uint64(v & 63) & np.uint64(1))

    def neighbours(self, v: int) -> VertexSet:
        words, cols = self._row_words(v)
        return VertexSet._of(self.n, _word_ids(words, cols * W))

    def edge_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """All edges as int64 arrays (u, v) with u < v, a row block at a time,
        ascending."""
        for u, v, _ in _edge_blocks([self]):
            yield u, v

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, ascending."""
        for u, v in self.edge_blocks():
            yield from zip(u.tolist(), v.tolist())

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self._keys, other._keys)
            and np.array_equal(self._tiles, other._tiles)
        )

    def __hash__(self) -> int:
        return hash((self.n, self._keys.tobytes(), self._tiles.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


def _row_tiles(G: Graph, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of every tile in the rows of the vertices `ids`, and the
    position in `ids` of the vertex each belongs to."""
    lo = G._ptr[ids >> 6]
    count = G._ptr[(ids >> 6) + 1] - lo
    at = np.repeat(np.arange(len(ids)), count)
    return np.arange(len(at)) + np.repeat(lo - (np.cumsum(count) - count), count), at


def _row_and(G: Graph, ids: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row words of each vertex of `ids` ANDed with the word mask `mask`,
    and the position in `ids` of the vertex each word belongs to."""
    tile, at = _row_tiles(G, ids)
    return G._tiles[tile, (ids & 63)[at]] & mask[G._col[tile]], at


class PairMatrix:
    """The 0/1 matrix of G between two int64 id arrays, by position; unchecked.

    Row i is a_ids[i]'s row words over the column blocks b_ids touch, and
    entry (i, j) is bit `bit[j]` of them.  The words hold other neighbours
    too, so a count ANDs them with a column mask; only per-column counts and
    `select` unpack bits, of the rows they read."""

    __slots__ = ("words", "bit")

    def __init__(self, G: Graph, a_ids: np.ndarray, b_ids: np.ndarray):
        touched = np.zeros(_nblocks(G.n), dtype=bool)  # the column blocks b_ids touch
        touched[b_ids >> 6] = True
        word = np.cumsum(touched) - 1  # a touched block's word in a row
        self.bit = word[b_ids >> 6] * W + (b_ids & 63)
        tile, at = _row_tiles(G, a_ids)
        hit = touched[G._col[tile]]
        tile, at = tile[hit], at[hit]
        self.words = np.zeros((len(a_ids), np.count_nonzero(touched)), dtype=_U64)
        self.words[at, word[G._col[tile]]] = G._tiles[tile, (a_ids & 63)[at]]

    def select(self, x: np.ndarray, t: np.ndarray) -> np.ndarray:
        """The columns of row x[r]'s ones of ranks t[r, i] (ascending order,
        from 0), for every r and i; the rows are unpacked 64 at a time."""
        out = np.empty(t.shape, dtype=np.int64)
        for lo in range(0, len(x), W):
            bits = np.unpackbits(self.words[x[lo:lo + W]].view(np.uint8), axis=1,
                                 bitorder="little")[:, self.bit]
            ones = np.flatnonzero(bits)  # row * columns + column, ascending
            first = np.searchsorted(ones, np.arange(len(bits)) * bits.shape[1])
            out[lo:lo + W] = ones[first[:, None] + t[lo:lo + W]] % bits.shape[1]
        return out

    def draw(self, rng, rows: int, y: np.ndarray, k: int) -> np.ndarray:
        """The column masks of a uniform k-subset of the columns y, or of y[r]
        for row r when y is 2-D, for each of `rows` rows: `floyd`, testing
        membership on the masks themselves."""
        taken = np.zeros((rows, self.words.shape[1]), dtype=_U64)
        for _ in floyd(rng, y.shape[-1], k, self.bit[y], taken):
            pass
        return taken

    def score(self, x: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """The ones of rows x[r] under the column mask masks[r], for each r:
        one popcount pass per column of the (checks, k) row positions x."""
        total = np.zeros(len(x), dtype=np.int64)
        for rows in x.T:
            words = self.words[rows]
            words &= masks
            total += np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        return total

    def count(self, x, y: np.ndarray, axis: int | None = None):
        """The ones of the submatrix on rows x and columns y: in all (axis
        None), per column (axis 0) or per row (axis 1), as `np.count_nonzero`
        counts them."""
        if axis == 0:
            bits = np.unpackbits(self.words[x].view(np.uint8), axis=1, bitorder="little")
            return bits[:, self.bit[y]].sum(axis=0)
        mask = _word_mask(self.words.shape[1] * W, self.bit[y])
        per_row = np.bitwise_count(self.words[x] & mask).sum(axis=1, dtype=np.int64)
        return per_row if axis == 1 else per_row.sum()


def degrees_into(G: Graph, ids: np.ndarray, B: VertexSet) -> np.ndarray:
    """|N(v) & B| for each v of the int64 id array `ids`, in order; unchecked."""
    words, at = _row_and(G, ids, B._words())
    return np.bincount(at, weights=np.bitwise_count(words),
                       minlength=len(ids)).astype(np.int64)


def edge_count(G: Graph, a_ids: np.ndarray, b_ids: np.ndarray) -> int:
    """e(A, B) for disjoint A, B given as int64 id arrays; unchecked.

    The smaller side's row words are ANDed with the larger side's word mask.
    """
    if len(a_ids) > len(b_ids):
        a_ids, b_ids = b_ids, a_ids
    words, _ = _row_and(G, a_ids, _word_mask(G.n, b_ids))
    return int(np.bitwise_count(words).sum())


def pair_density(G: Graph, A: VertexSet, B: VertexSet) -> Fraction:
    """Exact bipartite density e(A,B) / (|A| |B|) for disjoint non-empty sets."""
    if A.n != G.n or B.n != G.n:
        raise ValueError("vertex sets do not match the graph's universe")
    if not A or not B:
        raise ValueError("pair density needs non-empty sets")
    if not A.isdisjoint(B):
        raise ValueError("pair density needs disjoint sets")
    return Fraction(edge_count(G, A.ids, B.ids), len(A) * len(B))


def neighbours_in(G: Graph, v: int, B: VertexSet) -> VertexSet:
    """N(v) ∩ B as a VertexSet, for a vertex v of G outside B."""
    if not 0 <= v < G.n:
        raise ValueError(f"vertex {v} out of range")
    if B.n != G.n:
        raise ValueError("vertex set does not match the graph's universe")
    if v in B:
        raise ValueError(f"vertex {v} must not belong to the target set")
    words, cols = G._row_words(v)
    return VertexSet._of(G.n, _word_ids(words & B._words()[cols], cols * W))


# ---------------------------------------------------------------------------
# edge arrays <-> tiles, a row block at a time


# _ABOVE[i] keeps the bits j > i of word i of a diagonal tile
_ABOVE = np.triu(np.ones((W, W), dtype=bool), k=1)


def _upper_bits(g: Graph, R: int) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """The edges uv with u < v of g's row block R, bit by bit: lo, the index of
    the block's first tile from the diagonal on; the row i and the tile lo + k
    of each non-zero word of those tiles; and the words' bits unpacked as a
    (words, W) bool array, bit j of word (i, k) in column j, the bits of v <= u
    cleared.  In flat order the set bits are the block's edges ascending by
    (u, v).  Only non-zero words are unpacked."""
    lo, hi = g._ptr[R], g._ptr[R + 1]
    lo += np.searchsorted(g._col[lo:hi], R)  # the tiles from the diagonal on
    words = g._tiles[lo:hi].T  # word [i, k] is row i of tile lo + k
    i, k = np.nonzero(words)
    bits = np.unpackbits(words[i, k].view(np.uint8),
                         bitorder="little").reshape(-1, W).view(bool)
    if lo < hi and g._col[lo] == R:  # the diagonal tile: keep the bits above it
        diagonal = k == 0
        bits[diagonal] &= _ABOVE[i[diagonal]]
    return int(lo), i, k, bits


def _edge_blocks(classes) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every edge of the graphs `classes` (class c is colour c) as int64 arrays
    (u, v, c) with u < v, a row block of W values of u at a time, ascending by
    (u, v, c)."""
    for R in range(_nblocks(classes[0].n)):
        us, vs, cs = [], [], []
        for c, g in enumerate(classes):
            if g._ptr[R] == g._ptr[R + 1]:
                continue
            lo, i, k, bits = _upper_bits(g, R)
            at = np.flatnonzero(bits)
            if at.size:
                us.append(R * W + i[at >> 6])
                vs.append(g._col[lo + k[at >> 6]] * W + (at & 63))
                cs.append(np.full(at.size, c))
        if not us:
            continue
        if len(us) == 1:
            yield us[0], vs[0], cs[0]
            continue
        # merge the classes' ascending runs; a tie keeps class order
        u, v, c = np.concatenate(us), np.concatenate(vs), np.concatenate(cs)
        order = np.argsort((u - R * W) * (int(v.max()) + 1) + v, kind="stable")
        yield u[order], v[order], c[order]


# (shift, mask) of the rounds of an 8 x 8 bit transpose of a word whose byte
# r is row r: each swaps the off-diagonal quarters of every 2^k x 2^k block
_TRANSPOSE_ROUNDS = tuple(
    (np.uint64(shift), np.uint64(mask)) for shift, mask in (
        (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _transpose(tiles: np.ndarray) -> np.ndarray:
    """Every 64 x 64 bit tile of the (k, W) uint64 array `tiles` transposed,
    bit j of word i to bit i of word j.  Byte b of word 8I + r holds bits
    8b to 8b + 7 of row 8I + r, so the eight bytes of each 8 x 8 block (I, b)
    are gathered into one word, which three mask-and-shift rounds transpose,
    and the block is put back at (b, I)."""
    k = len(tiles)
    x = tiles.view(np.uint8).reshape(k, 8, 8, 8).transpose(0, 1, 3, 2).copy().view(_U64)
    for shift, mask in _TRANSPOSE_ROUNDS:
        t = (x ^ (x >> shift)) & mask
        x = x ^ t ^ (t << shift)
    blocks = x.view(np.uint8).reshape(k, 8, 8, 8).transpose(0, 2, 3, 1)
    return np.ascontiguousarray(blocks).view(_U64).reshape(k, W)


# Tiles `_mirror` transposes at a time: 32 KiB of them.  Reading a written
# graph, or a three-colouring, of one tile per row block (n = 100,000)
# peaks at 1.4x the tiles it returns under tracemalloc, and at 2.2x with
# 512 at a time.
_MIRROR_TILES = 64


def _mirror(tiles: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> None:
    """OR into tile lower[k] of `tiles` the bit transpose of tile upper[k],
    for every k, a chunk at a time; a diagonal tile is its own lower[k], and
    no other tile is both an upper and a lower one."""
    for lo in range(0, len(upper), _MIRROR_TILES):
        part = slice(lo, lo + _MIRROR_TILES)
        tiles[lower[part]] |= _transpose(tiles[upper[part]])


class _ClassBuilder:
    """r colour classes on 0..n-1 under construction.

    Each edge uv with u < v is stored once, in its upper tile: bit v mod W of
    word u mod W of tile (u // W, v // W).  Class c keeps those tiles in the
    rows of `store[c]` in the order they were made, and `slots[c]` maps each
    tile key to its row.  Edges arrive in batches through `add_many` (or as a
    dense block through `add_block`).  No edge held has a key u * n + v
    above `top`, so a batch whose keys rise from above it repeats no edge.
    The store grows in place by a quarter at a time; `graphs` grows it once
    more, to hold the lower tiles as transposes of the upper ones, and sorts
    it in place, so a class never holds much more than its tiles.  Callers
    check a batch with `has_any` before adding it: nothing here rejects a
    duplicate.
    """

    def __init__(self, n: int, r: int):
        self.n, self.r, self.nb = n, r, _nblocks(n)
        self.top = -1
        self.slots: list[dict[int, int]] = [{} for _ in range(r)]
        self.store = [np.zeros((0, W), dtype=_U64) for _ in range(r)]

    def _rows(self, c: int, keys: Iterable[int]) -> list[int]:
        """The store rows of class c's tiles `keys`, made (empty) as needed."""
        slots, store = self.slots[c], self.store[c]
        rows = [slots.setdefault(key, len(slots)) for key in keys]
        if len(slots) > len(store):
            store.resize((len(slots) + len(store) // 4 + 8, W), refcheck=False)
        return rows

    def has_any(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Whether some edge {a[i], b[i]} is in some class."""
        x, y = np.minimum(a, b), np.maximum(a, b)
        keys, at = np.unique((x >> 6) * self.nb + (y >> 6), return_inverse=True)
        for slots, store in zip(self.slots, self.store):
            rows = np.array([slots.get(key, -1) for key in keys.tolist()],
                            dtype=np.int64)[at]
            held = rows >= 0
            if (store[rows[held], x[held] & 63] >> (y[held] & 63).astype(np.uint64)
                    & np.uint64(1)).any():
                return True
        return False

    def add_many(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
        """Put the edges {a[i], b[i]} (in range, no self-loops, in no class
        yet) into classes c[i]."""
        x, y = np.minimum(a, b), np.maximum(a, b)
        if x.size:
            self.top = max(self.top, int((x * self.n + y).max()))
        present = np.flatnonzero(np.bincount(c))
        for cls in present.tolist():
            mine = slice(None) if len(present) == 1 else c == cls
            u, v = x[mine], y[mine]
            # a run of edges with one u and one column block fills one word:
            # OR its bits first (in writer order, each word is one run)
            word = u * self.nb + (v >> 6)
            run = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))
            bits = np.bitwise_or.reduceat(_bits(v & 63), run)
            u, v = u[run], v[run]
            keys, at = np.unique((u >> 6) * self.nb + (v >> 6), return_inverse=True)
            rows = np.array(self._rows(cls, keys.tolist()), dtype=np.int64)
            np.bitwise_or.at(self.store[cls], (rows[at], u & 63), bits)

    def add_block(self, x0: int, y0: int, mat: np.ndarray) -> None:
        """Put edge {x0 + i, y0 + j} into class 0 for each True mat[i, j]; the
        vertex ranges of the rows and of the columns are disjoint."""
        if x0 > y0:  # every edge lies below the diagonal: store its transpose
            x0, y0, mat = y0, x0, mat.T
        (rows, cols), c0 = mat.shape, y0 >> 6
        self.top = max(self.top, (x0 + rows - 1) * self.n + y0 + cols - 1)
        keys = np.arange(c0, _nblocks(y0 + cols))
        strip = np.zeros((W, len(keys) * W), dtype=bool)
        for r in range(x0 >> 6, _nblocks(x0 + rows)):
            lo, hi = max(r * W, x0), min((r + 1) * W, x0 + rows)
            strip[:] = False
            strip[lo - r * W:hi - r * W, y0 - c0 * W:y0 - c0 * W + cols] = \
                mat[lo - x0:hi - x0]
            block = np.packbits(strip, axis=1, bitorder="little").view(_U64).T
            filled = block.any(axis=1)
            at = self._rows(0, (r * self.nb + keys[filled]).tolist())
            self.store[0][at] |= block[filled]

    def graphs(self) -> list[Graph]:
        """The classes as Graphs; the builder is spent afterwards."""
        out = []
        for slots, store in zip(self.slots, self.store):
            upper = np.fromiter(slots, dtype=np.int64, count=len(slots))
            row, col = np.divmod(upper, max(self.nb, 1))
            # tile (C, R) of each upper tile (R, C) off the diagonal goes in a
            # new row after the upper tiles; a diagonal tile is its own mirror
            off = np.flatnonzero(row != col)
            keys = np.concatenate((upper, col[off] * self.nb + row[off]))
            store.resize((len(keys), W), refcheck=False)  # the new rows are zero
            lower = np.arange(len(upper))
            lower[off] = np.arange(len(upper), len(keys))
            _mirror(store, np.arange(len(upper)), lower)
            # put row order[k] at row k, one cycle of the permutation at a time
            order = np.argsort(keys).tolist()
            for start in range(len(order)):
                if order[start] in (start, -1):
                    continue
                first, k = store[start].copy(), start
                while order[k] != start:
                    store[k], order[k], k = store[order[k]], -1, order[k]
                store[k], order[k] = first, -1
            out.append(Graph(self.n, np.sort(keys), store))
        self.slots = self.store = []
        return out


class EdgeColouring:
    """Colouring of a graph's edges with colours 0..r-1, stored as r graphs.

    `classes[c]` is the spanning graph of the colour-c edges; the classes are
    pairwise edge-disjoint.  A colouring is expected to cover every edge of
    the graph it was built for; `validate_total` checks that.  The file
    format ("u v c" lines, see `write_colouring`) is independent of storage.
    `EdgeColouring(classes)` is the one constructor: `by_edge`, `constant`
    and `read_colouring` build their classes and hand them to it.
    """

    __slots__ = ("n", "r", "classes")

    def __init__(self, classes: list[Graph]):
        """Adopt edge-disjoint graphs on 0..n-1 as colour classes 0..r-1, unchecked."""
        if len(classes) < 2:
            raise ValueError("an edge colouring needs at least 2 colours")
        self.n, self.r, self.classes = classes[0].n, len(classes), tuple(classes)

    @classmethod
    def constant(cls, G: Graph, r: int, c: int = 0) -> "EdgeColouring":
        """Every edge of G in colour c: G itself is class c, the rest are empty."""
        if not 0 <= c < r:
            raise ValueError(f"colour {c} outside 0..{r - 1}")
        empty = Graph.from_edges(G.n, ())
        return cls([G if k == c else empty for k in range(r)])

    @classmethod
    def by_edge(cls, G: Graph, r: int, colours) -> "EdgeColouring":
        """G's edges in ascending order, the i-th one in colour colours[i].

        Every class is masked out of G's own tiles: each row block's edge
        bits (`_upper_bits`) take their colours in ascending edge order, and
        the tiles below the diagonal are bit transposes of those above it.
        No edge array is sorted or scattered; r copies of G's tile array are
        held at once.
        """
        colours = np.asarray(colours, dtype=np.int64)
        if len(colours) != G.edge_count:
            raise ValueError(f"{len(colours)} colours for {G.edge_count} edges")
        if len(colours) and not 0 <= colours.min() <= colours.max() < r:
            raise ValueError(f"colours outside 0..{r - 1}")
        nb, keys = _nblocks(G.n), G._keys
        row, col = keys // max(nb, 1), G._col
        upper = np.flatnonzero(col >= row)  # the tiles from the diagonal on
        # class c's tiles: a copy of G's, at first with only its bits of u < v
        tiles = [np.zeros((len(keys), W), dtype=_U64) for _ in range(r)]
        # the row blocks with a tile from the diagonal on (np.unique here would
        # import numpy.ma on first use, half a megabyte of RSS)
        blocks = np.flatnonzero(np.bincount(row[upper], minlength=nb)).tolist()
        at = 0
        for R in blocks:
            lo, i, k, bits = _upper_bits(G, R)
            # the colour of each bit's edge, r at the bits of no edge
            drawn = np.full(bits.shape, r, dtype=np.min_scalar_type(r))
            edges = np.count_nonzero(bits)
            drawn[bits] = colours[at:at + edges]
            at += edges
            for c, t in enumerate(tiles):
                t[lo + k, i] = np.packbits(drawn == c, bitorder="little").view(_U64)
        # tile (C, R) of a class is the transpose of its tile (R, C) with C >= R
        mirror = np.searchsorted(keys, col[upper] * nb + row[upper])
        classes = []
        for t in tiles:
            _mirror(t, upper, mirror)
            held = t.any(axis=1)
            # a class that holds every tile of G adopts its array uncopied
            classes.append(Graph(G.n, keys[held], t if held.all() else t[held]))
        return cls(classes)

    def colour(self, u: int, v: int) -> int:
        if 0 <= u < self.n and 0 <= v < self.n:
            for c, g in enumerate(self.classes):
                if g.has_edge(u, v):
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
    if sub is G:
        return
    stray = sub._tiles.copy()
    shared = np.isin(sub._keys, G._keys)
    stray[shared] &= ~G._tiles[np.searchsorted(G._keys, sub._keys[shared])]
    kept = stray.any(axis=1)
    if kept.any():
        u, v = next(Graph(G.n, sub._keys[kept], stray[kept]).edges())
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
# The writers emit every edge once, u < v, ascending.  The readers take the
# file in blocks of about READ_BLOCK bytes cut at line ends, the first block
# also right after the header line.  A block after the header whose every
# line is canonical (`_decimal_block`: digits and single spaces, ended by
# "\n" or "\r\n") and whose every edge is new and valid (`_fresh`) goes into
# the builder in a few numpy operations.  A block in writer order is new by
# its order alone: u < v on every line, and keys u * n + v that rise from
# above the largest key the builder holds.  Any other block is sorted and
# looked up in the builder, or goes through the per-line parser, which
# reports the first faulty line.

# Bytes per read block.  Reading the s = 600 graph and colouring back (8.6
# and 10.4 MB of text) on one core of a 2-CPU Xeon, best of five, blocks of
# 16, 32 and 64 KiB take 0.30-0.31, 0.23-0.25 and 0.21-0.32 s.  The traced
# peak of reading the graph is 1.49, 1.53 and 1.62 MB (its tiles are 1.05
# MB), and of then reading the colouring beside it 2.57, 2.57 and 2.82 MB;
# desk-mono's peak RSS is set by that second read.
READ_BLOCK = 32 * 1024

_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _write_comment(fh, comment: str | None) -> None:
    """Head a text file with `comment`, one "# " line per line of it."""
    if comment:
        fh.writelines(f"# {line}\n" for line in comment.splitlines())


def _ascii_lines(*cols: np.ndarray) -> bytes:
    """Lines of equal-length int columns as ASCII, "a b ...\n" per row; every
    value lies in 0..2**32 - 1 (vertex ids and colours lie far below).

    Each field is written right-aligned in a fixed-width character matrix, one
    digit place at a time, dividing uint32 copies of the columns; the leading
    zeros are then dropped in one boolean compress, which reads the matrix
    line by line.
    """
    widths = [int(np.searchsorted(_POW10, x.max(), side="right")) or 1 for x in cols]
    chars = np.empty((len(cols[0]), sum(widths) + len(cols)), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    at = 0
    for x, width in zip(cols, widths):
        q = x.astype(np.uint32)
        for k in reversed(range(width)):  # column at + k holds place 10**(width-1-k)
            r = q // 10
            chars[:, at + k] = q - 10 * r + ord("0")
            if k < width - 1:
                keep[:, at + k] = q != 0  # q is x // 10**(width-1-k)
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


def _line_count(block: bytes) -> int:
    """The lines of a block as text mode counts them."""
    count = block.count(b"\n")
    if b"\r" in block:
        count += block.count(b"\r") - block.count(b"\r\n")
    return count


def _head_end(block: bytes) -> int:
    """Where the first line of a block that is neither blank nor a comment
    ends, as bytes see blanks (text mode strips more), or the block's end."""
    at = 0
    while at < len(block):
        end = block.index(b"\n", at) + 1
        line = block[at:end].strip()
        at = end
        if line and not line.startswith(b"#"):
            break
    return at


def _blocks(path: str) -> Iterator[tuple[int, bytes]]:
    """(number of its first line, bytes) of consecutive blocks of about
    READ_BLOCK bytes of a file, each ending in "\\n" (added to an unterminated
    last line).  Lines are counted as text mode counts them.  The first block
    is cut after its header line, so that the header goes alone to the line
    parser and the lines after it can take the block path."""
    first, tail = 1, b""
    with open(path, "rb") as fh:
        while data := fh.read(READ_BLOCK):
            data = tail + data
            cut = data.rfind(b"\n") + 1
            block, tail = data[:cut], data[cut:]
            if first == 1 and block:
                head = _head_end(block)
                yield first, block[:head]
                first += _line_count(block[:head])
                block = block[head:]
            if block:
                yield first, block
                first += _line_count(block)
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
    runs of 1 to 18 ASCII digits split by single spaces and ended by "\\n" or
    "\\r\\n", or None if a line is not."""
    if b"\r" in block:  # a lone "\r" ends a line too: leave it to the line parser
        if block.count(b"\r") != block.count(b"\r\n"):
            return None
        block = block.replace(b"\r\n", b"\n")
    a = np.frombuffer(block, dtype=np.uint8)
    digit = a - ord("0")
    ends = np.flatnonzero(digit > 9)  # every byte but a digit ends a field
    if not ends.size or ends.size % width or ends[-1] != a.size - 1:
        return None
    if (a[ends].reshape(-1, width) != _SEPARATORS[width]).any():
        return None
    length = np.diff(ends, prepend=-1) - 1
    if length.min() < 1 or length.max() > 18:
        return None
    # each field's value, a digit place at a time back from its last digit
    at = ends - 1
    value = digit[at].astype(np.int64)
    for k in range(1, int(length.max())):
        at -= 1
        value += digit[at] * (length > k) * _POW10[k]
    return value.reshape(-1, width)


def _fresh(acc: _ClassBuilder, u: np.ndarray, v: np.ndarray, n: int) -> bool:
    """Whether the edges u[i]v[i] lie in 0..n-1, are no self-loops, are
    pairwise distinct and are in no class of `acc` yet.  A block in writer
    order, u < v on every line and the keys u * n + v rising from above
    `acc.top`, passes on that alone."""
    if max(u.max(), v.max()) >= n or (u == v).any():
        return False
    if n <= 2 ** 31 and (u < v).all():  # exact int64 keys
        key = u * n + v
        if key[0] > acc.top and (key[1:] > key[:-1]).all():
            return True
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
            acc.add_many(fields[:, 0], fields[:, 1], np.zeros_like(fields[:, 0]))
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
                if n > MAX_VERTICES:
                    raise ValueError(f"{path}:{lineno}: vertex count {n} exceeds "
                                     f"{MAX_VERTICES}")
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
            ends = np.array([[u], [v]])
            if acc.has_any(*ends):
                raise ValueError(f"{path}:{lineno}: duplicate edge ({u}, {v})")
            acc.add_many(*ends, np.array([0]))
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
            acc.add_many(*fields.T)
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
                if r > MAX_COLOURS:
                    raise ValueError(f"{path}:{lineno}: colour count {r} exceeds "
                                     f"{MAX_COLOURS}")
                acc = _ClassBuilder(n, r)
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'u v c'")
            try:
                u, v, c = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer field") from None
            if u == v:
                raise ValueError(f"{path}:{lineno}: bad edge ({u}, {v}): self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"{path}:{lineno}: bad edge ({u}, {v}): vertex id out "
                                 f"of range 0..{n - 1}")
            if not 0 <= c < r:
                raise ValueError(f"{path}:{lineno}: colour {c} outside 0..{r - 1}")
            ends = np.array([[u], [v]])
            if acc.has_any(*ends):
                raise ValueError(f"{path}:{lineno}: edge {(min(u, v), max(u, v))} "
                                 f"coloured twice")
            acc.add_many(*ends, np.array([c]))
    if acc is None:
        raise ValueError(f"{path}: missing header line")
    return EdgeColouring(acc.graphs())
