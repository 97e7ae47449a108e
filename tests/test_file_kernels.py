"""The block kernels of the graph and colouring file formats.

The readers and writers work a block at a time with numpy; the per-line
parser only sees blocks that are not canonical or hold a faulty line.  The
references below are the per-line reader and the per-edge writer that the
kernels replaced, copied verbatim but for building their results from edges
and for refusing the header counts the readers refuse before they allocate:
every file must read to an equal graph or colouring, or fail with the
identical message, and every write must produce the same bytes.
"""

import heapq
import os
import tempfile
import time
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogrid import graphs
from monogrid.graphs import (
    EdgeColouring,
    Graph,
    read_colouring,
    read_graph,
    write_colouring,
    write_graph,
)

SETTINGS = settings(max_examples=150, deadline=None)


# ---------------------------------------------------------------------------
# references: the per-line reader and the per-edge writer


def _significant_lines(path):
    """(line number, whitespace-split fields) of every line not blank or a comment."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split()


def _from_rows(n, rows):
    """The graph of n int adjacency rows (bit v of rows[u] is edge uv)."""
    edges = []
    for u, row in enumerate(rows):
        row >>= u + 1
        while row:
            low = row & -row
            edges.append((u, u + low.bit_length()))
            row ^= low
    return Graph.from_edges(n, edges)


def ref_read_graph(path):
    n = None
    rows = []
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
            if n > graphs.MAX_VERTICES:
                raise ValueError(f"{path}:{lineno}: vertex count {n} exceeds "
                                 f"{graphs.MAX_VERTICES}")
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
    return _from_rows(n, rows)


def _paint(rows, u, v, c):
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


def ref_read_colouring(path, n=None):
    """Read a colouring file; without `n` the universe is the largest id plus one."""
    r = None
    rows = []
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
            if r > graphs.MAX_COLOURS:
                raise ValueError(f"{path}:{lineno}: colour count {r} exceeds "
                                 f"{graphs.MAX_COLOURS}")
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
    return EdgeColouring.from_classes([_from_rows(len(cls), cls) for cls in rows])


def _write_comment(fh, comment):
    if comment:
        fh.writelines(f"# {line}\n" for line in comment.splitlines())


def ref_write_graph(G, path, comment=None):
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"n {G.n}\n")
        for u, v in G.edges():
            fh.write(f"{u} {v}\n")


def ref_items(chi):
    return heapq.merge(*(zip(g.edges(), repeat(c))
                         for c, g in enumerate(chi.classes)))


def ref_write_colouring(chi, path, comment=None):
    with open(path, "w") as fh:
        _write_comment(fh, comment)
        fh.write(f"r {chi.r}\n")
        fh.writelines(f"{u} {v} {c}\n" for (u, v), c in ref_items(chi))


# ---------------------------------------------------------------------------
# helpers


def _outcome(read, path, *args):
    """What a reader makes of a file: its value in plain data, or its error."""
    try:
        got = read(path, *args)
    except Exception as e:  # the type and the message must both match
        return "error", type(e).__name__, str(e)
    if isinstance(got, Graph):
        return "graph", got.n, got.edge_count, [got.row(v) for v in range(got.n)]
    return ("colouring", got.n, got.r, got.colour_counts(),
            [[g.row(v) for v in range(g.n)] for g in got.classes])


def _bytes_of(write, obj, comment=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        write(obj, path, comment=comment)
        with open(path, "rb") as fh:
            return fh.read()


def _both(tmp: str, body: bytes, read, ref, *args, block=64):
    """The reader's outcome with small blocks, and the reference's."""
    path = os.path.join(tmp, "file.txt")
    with open(path, "wb") as fh:
        fh.write(body)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphs, "READ_BLOCK", block)
        got = _outcome(read, path, *args)
    return got, _outcome(ref, path, *args)


def _read_error(tmp_path, body: str, read, *args, block=None):
    path = tmp_path / "bad.txt"
    path.write_bytes(body.encode())
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(graphs, "READ_BLOCK", block)
        with pytest.raises(ValueError) as info:
            read(str(path), *args)
    return str(info.value)[len(str(path)):]


# ---------------------------------------------------------------------------
# reader semantics, each pinned to the per-line reader's message


def test_line_arity_is_checked_per_line(tmp_path):
    # four tokens on two lines, but the first line has three of them
    assert _read_error(tmp_path, "n 4\n0 1 2\n3\n", read_graph) == ":2: expected 'u v'"


@pytest.mark.parametrize("body,edges", [
    ("n 4\n0 1\n2 3", [(0, 1), (2, 3)]),            # no trailing newline
    ("n 9\n007 3\n", [(7, 3)]),                      # leading zeros
    ("n 4\n+3 1\n", [(3, 1)]),                       # a sign
    ("n 9\n0000000000000000000008 1\n", [(8, 1)]),   # a 22-digit token
    ("n 4\r\n0 1\r\n2 3\r\n", [(0, 1), (2, 3)]),     # CRLF
    ("n 4\n0\t1\n2 3\n", [(0, 1), (2, 3)]),          # a tab
    ("n 4\n0 1\n\n# note\n2 3\n", [(0, 1), (2, 3)]),  # blank and comment lines
    ("n 4\n0 1\r2 3\n", [(0, 1), (2, 3)]),           # a lone CR ends a line
])
def test_graph_reader_accepts_every_line_form(tmp_path, body, edges):
    path = tmp_path / "g.txt"
    path.write_bytes(body.encode())
    G = read_graph(str(path))
    assert G == Graph.from_edges(G.n, edges) and G.edge_count == len(edges)


@pytest.mark.parametrize("body,message", [
    ("n 4\n0 12345678901234567890\n", ":2: vertex id out of range"),   # 20 digits
    ("n 4\r\n0 1\r\n1 0\r\n", ":3: duplicate edge (1, 0)"),            # CRLF
    ("n 4\n0 1\n\n# x\n0 -1\n", ":5: vertex id out of range"),
    ("n 4\n0 1\n2 3\n1.0 2\n", ":4: non-integer vertex id"),
    ("n 4\n0 1\n 2\n", ":3: expected 'u v'"),    # as many fields as lines,
    ("n 4\n0 1\n2 \n", ":3: expected 'u v'"),    # but one of them empty
    ("n 4\n0 1\n2\n3\n", ":3: expected 'u v'"),
])
def test_graph_reader_fault_messages(tmp_path, body, message):
    assert _read_error(tmp_path, body, read_graph) == message


@pytest.mark.parametrize("body,n,message", [
    ("r 2\n0 1 0\n1 0 1\n", 4, ":3: edge (0, 1) coloured twice"),  # v u, other colour
    ("r 2\n0 1 0\n1 0 0\n", 4, ":3: edge (0, 1) coloured twice"),  # v u, same colour
    ("r 2\n0 1 0\n2 2 1\n", 4, ":3: bad edge (2, 2): self-loop"),
    ("r 2\n0 1 2\n", 4, ":2: colour 2 outside 0..1"),
    ("r 2\n0 1 0\n0 4 1\n", 4, ":3: bad edge (0, 4): vertex id out of range 0..3"),
    ("r 3\n0 1 0\r\n0 2\n", 4, ":3: expected 'u v c'"),
    ("r 2\n0 1 0\n0 1234567890123456789012 1\n", 4,
     ":3: bad edge (0, 1234567890123456789012): vertex id out of range 0..3"),
])
def test_colouring_reader_fault_messages(tmp_path, body, n, message):
    assert _read_error(tmp_path, body, read_colouring, n) == message


def _edge_lines(count: int, colours: bool) -> list[str]:
    pairs = [(u, v) for u in range(40) for v in range(u + 1, 40)][:count]
    return [f"{u} {v} {(u + v) % 2}" if colours else f"{u} {v}" for u, v in pairs]


def _block_index(body: str, size: int, lineno: int) -> int:
    """Which block of reads of `size` bytes, each cut after its last line end,
    holds line `lineno` of a file of "\n"-ended lines."""
    data, start, index = body.encode(), 0, 0
    line_start = len(b"".join(data.splitlines(keepends=True)[:lineno - 1]))
    while True:
        end = data.rfind(b"\n", start, start + size) + 1
        if line_start < end:
            return index
        start, index = end, index + 1


# The repeat sits right after the edge it repeats, 700 lines in: with blocks
# of 1 KiB both are in one block, and not the header's; with blocks of 8
# bytes they are in two.
@pytest.mark.parametrize("block", [8, 1024])
def test_duplicate_edge_inside_and_across_blocks(tmp_path, block):
    lines = ["n 40"] + _edge_lines(700, False) + ["37 26"] + _edge_lines(780, False)[700:]
    body = "\n".join(lines) + "\n"
    assert lines[700] == "26 37"
    same = _block_index(body, block, 701) == _block_index(body, block, 702) > 0
    assert same == (block == 1024)
    assert _read_error(tmp_path, body, read_graph, block=block) == \
        ":702: duplicate edge (37, 26)"


# n = 1000: the universe reaches far past the file's largest id
@pytest.mark.parametrize("block", [8, 1024])
@pytest.mark.parametrize("n", [40, 1000])
def test_edge_coloured_twice_inside_and_across_blocks(tmp_path, block, n):
    lines = ["r 2"] + _edge_lines(700, True) + ["37 26 0"] + _edge_lines(780, True)[700:]
    body = "\n".join(lines) + "\n"
    assert lines[700] == "26 37 1"
    same = _block_index(body, block, 701) == _block_index(body, block, 702) > 0
    assert same == (block == 1024)
    assert _read_error(tmp_path, body, read_colouring, n, block=block) == \
        ":702: edge (26, 37) coloured twice"


@pytest.mark.parametrize("block", [32, 10**6])
def test_duplicate_edge_far_apart(tmp_path, block):
    lines = ["n 40"] + _edge_lines(60, False) + ["7 0"] + _edge_lines(80, False)[60:]
    msg = _read_error(tmp_path, "\n".join(lines) + "\n", read_graph, block=block)
    assert msg == ":62: duplicate edge (7, 0)"


@pytest.mark.parametrize("block", [32, 10**6])
@pytest.mark.parametrize("n", [40, 1000])
def test_edge_coloured_twice_far_apart(tmp_path, block, n):
    lines = ["r 2"] + _edge_lines(60, True) + ["9 0 0"] + _edge_lines(80, True)[60:]
    msg = _read_error(tmp_path, "\n".join(lines) + "\n", read_colouring, n, block=block)
    assert msg == ":62: edge (0, 9) coloured twice"


@pytest.mark.parametrize("block", [8, 1024])
@pytest.mark.parametrize("faults,message", [
    (["37 26", "5 5"], ":702: duplicate edge (37, 26)"),
    (["5 5", "37 26"], ":702: self-loop"),
])
def test_earlier_of_two_faults_is_reported(tmp_path, block, faults, message):
    lines = ["n 40"] + _edge_lines(700, False) + faults + _edge_lines(780, False)[700:]
    body = "\n".join(lines) + "\n"
    same = _block_index(body, block, 702) == _block_index(body, block, 703) > 0
    assert same == (block == 1024)
    assert _read_error(tmp_path, body, read_graph, block=block) == message
    # a double colouring ahead of an arity fault
    lines = ["r 2", "0 1 0", "0 1 1", "1 2 3 4"]
    assert _read_error(tmp_path, "\n".join(lines) + "\n", read_colouring, 4,
                       block=block) == ":3: edge (0, 1) coloured twice"


def _big_graph() -> Graph:
    return Graph.from_edges(300, [(u, v) for u in range(300) for v in range(u + 1, 300)
                                  if (u * 7 + v * 3) % 5 == 0])


def _big_colouring() -> EdgeColouring:
    G = _big_graph()
    return EdgeColouring.by_edge(G, 3, np.arange(G.edge_count) % 3)


def _count_line_parser(monkeypatch) -> list:
    """Record (first line number, lines) of each block the per-line parser gets."""
    calls = []
    line_parser = graphs._significant

    def counted(lines, start=1):
        lines = list(lines)
        calls.append((start, len(lines)))
        return line_parser(lines, start)

    monkeypatch.setattr(graphs, "_significant", counted)
    return calls


def test_canonical_blocks_skip_the_line_parser(tmp_path, monkeypatch):
    G = _big_graph()
    path = str(tmp_path / "g.txt")
    write_graph(G, path, comment="big")
    calls = _count_line_parser(monkeypatch)
    monkeypatch.setattr(graphs, "READ_BLOCK", 1024)
    assert read_graph(path) == G
    assert calls == [(1, 2)]  # only the comment and the header line


def test_crlf_files_take_the_block_path(tmp_path, monkeypatch):
    G, chi = _big_graph(), _big_colouring()
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    for path, body in ((gpath, _bytes_of(write_graph, G, "big")),
                       (cpath, _bytes_of(write_colouring, chi, "three"))):
        with open(path, "wb") as fh:
            fh.write(body.replace(b"\n", b"\r\n"))
    calls = _count_line_parser(monkeypatch)
    monkeypatch.setattr(graphs, "READ_BLOCK", 1024)
    assert read_graph(gpath) == G
    assert read_colouring(cpath, G.n).classes == chi.classes
    assert calls == [(1, 2), (1, 2)]  # each file's comment and header line


def _lines_of(write, obj) -> list[str]:
    return _bytes_of(write, obj).decode().splitlines()


# Faults 600 lines down, in a block that would take the block path; the
# per-line parser reports each at the line and with the message of the
# same fault in a "\n" file.
@pytest.mark.parametrize("fault,message", [
    ("10 5", ":601: duplicate edge (10, 5)"),
    ("7 7", ":601: self-loop"),
    ("0 300", ":601: vertex id out of range"),
    ("1 2 3", ":601: expected 'u v'"),
])
def test_crlf_graph_faults_keep_their_line(tmp_path, fault, message):
    lines = _lines_of(write_graph, _big_graph())
    assert "5 10" in lines[:600]
    lines.insert(600, fault)
    for end in ("\n", "\r\n"):
        body = "".join(line + end for line in lines).encode()
        got, want = _both(str(tmp_path), body, read_graph, ref_read_graph, block=1024)
        assert got == want and got[2].endswith(message)


@pytest.mark.parametrize("fault,message", [
    ("5 10 0", ":601: edge (5, 10) coloured twice"),
    ("5 11 3", ":601: colour 3 outside 0..2"),
    ("0 300 1", ":601: bad edge (0, 300): vertex id out of range 0..299"),
])
def test_crlf_colouring_faults_keep_their_line(tmp_path, fault, message):
    lines = _lines_of(write_colouring, _big_colouring())
    assert any(line.startswith("5 10 ") for line in lines[:600])
    lines.insert(600, fault)
    for end in ("\n", "\r\n"):
        body = "".join(line + end for line in lines).encode()
        got, want = _both(str(tmp_path), body, read_colouring, ref_read_colouring, 300,
                          block=1024)
        assert got == want and got[2].endswith(message)


@pytest.mark.parametrize("block,width,fields", [
    (b"123456789012345678 7\n0 1\n", 2, [[123456789012345678, 7], [0, 1]]),
    (b"5 60 7\r\n0 1 2\n", 3, [[5, 60, 7], [0, 1, 2]]),
    (b"1234567890123456789 7\n", 2, None),  # 19 digits
    (b"5 6\r7 8\n", 2, None),              # a lone CR ends a line
    (b"5 6\r\r\n", 2, None),
    (b"5  6\n", 2, None),
])
def test_decimal_block_fields(block, width, fields):
    got = graphs._decimal_block(block, width)
    assert (None if got is None else got.tolist()) == fields


def test_written_files_never_look_into_the_builder(tmp_path, monkeypatch):
    # every block a writer emits has u < v on each line and keys that rise
    # from above the builder's top, so no block is checked for repeats
    G, chi = _big_graph(), _big_colouring()
    gpath, cpath = str(tmp_path / "g.txt"), str(tmp_path / "c.txt")
    write_graph(G, gpath, comment="big")
    write_colouring(chi, cpath, comment="three")
    calls = []
    has_any = graphs._ClassBuilder.has_any

    def counted(self, a, b):
        calls.append(len(a))
        return has_any(self, a, b)

    monkeypatch.setattr(graphs._ClassBuilder, "has_any", counted)
    monkeypatch.setattr(graphs, "READ_BLOCK", 256)
    assert read_graph(gpath) == G
    assert read_colouring(cpath, G.n).classes == chi.classes
    assert calls == []


def _reader(colours: bool):
    """The write, the object, the reader and the reference of one file kind."""
    if colours:
        return write_colouring, _big_colouring(), read_colouring, ref_read_colouring, (300,)
    return write_graph, _big_graph(), read_graph, ref_read_graph, ()


@pytest.mark.parametrize("colours", [False, True])
def test_blocks_in_reverse_order_read_like_the_reference(tmp_path, colours):
    write, obj, read, ref, args = _reader(colours)
    lines = _lines_of(write, obj)
    runs = [lines[k:k + 20] for k in range(1, len(lines), 20)]
    body = "\n".join(lines[:1] + [line for run in runs[::-1] for line in run]) + "\n"
    got, want = _both(str(tmp_path), body.encode(), read, ref, *args, block=256)
    assert got == want and got[0] != "error"


@pytest.mark.parametrize("colours", [False, True])
def test_comment_halfway_reads_like_the_reference(tmp_path, colours):
    write, obj, read, ref, args = _reader(colours)
    lines = _lines_of(write, obj)
    lines.insert(len(lines) // 2, "# halfway")
    got, want = _both(str(tmp_path), ("\n".join(lines) + "\n").encode(), read, ref,
                      *args, block=256)
    assert got == want and got[0] != "error"


def _first_lines(body: str, block: int) -> list[int]:
    """The number of the first line of each block the readers cut `body` into."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.txt")
        with open(path, "w") as fh:
            fh.write(body)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "READ_BLOCK", block)
            return [first for first, _ in graphs._blocks(path)]


def test_line_parsed_edges_raise_the_top(tmp_path):
    # A comment line sends its block to the per-line parser.  That block's
    # last edge comes again first in the next block, whose keys rise: only
    # the top that the per-line edges raised tells that block has a repeat.
    lines = _lines_of(write_graph, _big_graph())
    comment = len(lines) // 2 + 1  # its line number
    lines.insert(comment - 1, "# halfway")
    for last in range(comment + 1, comment + 100):
        body = "\n".join(lines[:last] + [lines[last - 1]] + lines[last:]) + "\n"
        firsts = _first_lines(body, 256)
        if last + 1 in firsts and not any(comment < f <= last for f in firsts):
            break
    else:
        pytest.fail("no edge ends the comment's block")
    u, v = lines[last - 1].split()
    got, want = _both(str(tmp_path), body.encode(), read_graph, ref_read_graph, block=256)
    assert got == want and got[2].endswith(f":{last + 1}: duplicate edge ({u}, {v})")


@pytest.mark.parametrize("colours", [False, True])
def test_repeat_of_an_earlier_blocks_edge_is_refused(tmp_path, colours):
    write, obj, read, ref, args = _reader(colours)
    lines = _lines_of(write, obj)
    early = lines[3]  # a block or more before the repeat, at any block size here
    lines.insert(900, early)
    u, v = early.split()[:2]
    message = (f":901: edge ({u}, {v}) coloured twice" if colours
               else f":901: duplicate edge ({u}, {v})")
    body = "\n".join(lines) + "\n"
    for block in (256, 1024):
        assert any(4 < first <= 901 for first in _first_lines(body, block))
        got, want = _both(str(tmp_path), body.encode(), read, ref, *args, block=block)
        assert got == want and got[2].endswith(message)


# ---------------------------------------------------------------------------
# differential property tests: any valid file, mutated


GARBAGE = ["x", "1.5", "-1", "+2", "007", "0x1", "99999999999999999999",
           "1_0", "\x0c", "\x1c", "#", "a b c", "1 2 3 4", "", " "]


@st.composite
def files(draw, colours: bool):
    """(bytes, n): a valid graph or colouring file, then mutated at random."""
    n = draw(st.integers(0, 24))
    r = draw(st.sampled_from([2, 3]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=80))) if pairs else []
    # a stride of 7 spreads the ids over several 64-vertex blocks
    stride = draw(st.sampled_from([1, 7]))
    n, edges = n * stride, [(u * stride, v * stride) for u, v in edges]
    fields = [[str(u), str(v)] + ([str(draw(st.integers(0, r - 1)))] if colours else [])
              for u, v in edges]
    lines = [["r", str(r)] if colours else ["n", str(n)]] + fields
    text = [" ".join(f) for f in lines]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["blank", "comment", "garbage", "repeat",
                                     "swap", "spaces", "tab", "field"]))
        if kind == "blank":
            text.insert(at, draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "comment":
            text.insert(at, "#" + draw(st.text(st.characters(codec="ascii",
                                                             exclude_characters="\r\n"),
                                               max_size=8)))
        elif kind == "garbage":
            text.insert(at, draw(st.sampled_from(GARBAGE)))
        elif len(text) > 1:
            i = draw(st.integers(1, len(text) - 1))
            f = text[i].split(" ")
            if kind == "repeat":  # the same edge again, maybe reversed or recoloured
                g = f[1::-1] + f[2:] if draw(st.booleans()) else list(f)
                if colours and len(g) > 2 and draw(st.booleans()):
                    g[2] = str(draw(st.integers(0, r)))
                text.insert(i + 1 if draw(st.booleans()) else at, " ".join(g))
            elif kind == "swap":
                j, k = draw(st.integers(0, len(f) - 1)), draw(st.integers(0, len(f) - 1))
                f[j], f[k] = f[k], f[j]
                text[i] = " ".join(f)
            elif kind == "spaces":  # one space more before, inside or after
                j = draw(st.integers(0, len(f)))
                text[i] = " ".join(f[:j] + [""] + f[j:])
            elif kind == "tab":
                text[i] = "\t".join(f)
            else:
                f[draw(st.integers(0, len(f) - 1))] = draw(st.sampled_from(GARBAGE))
                text[i] = " ".join(f)
    ends = draw(st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\r"]),
                         min_size=len(text), max_size=len(text)))
    body = "".join(t + e for t, e in zip(text, ends))
    if body and draw(st.booleans()):
        body = body.rstrip("\r\n")
    return body.encode(), n


@SETTINGS
@given(files(colours=False), st.sampled_from([8, 40, 64, 200, 1 << 14]))
@example((b"\nn 99999999999999999999\n", 0), 64)
def test_graph_reader_matches_reference(case, block):
    body, _ = case
    with tempfile.TemporaryDirectory() as tmp:
        got, want = _both(tmp, body, read_graph, ref_read_graph, block=block)
    assert got == want


@SETTINGS
@given(files(colours=True), st.sampled_from([8, 40, 64, 200, 1 << 14]))
@example((b"\nr 99999999999999999999\n", 0), 64)
def test_colouring_reader_matches_reference(case, block):
    body, n = case
    with tempfile.TemporaryDirectory() as tmp:
        got, want = _both(tmp, body, read_colouring, ref_read_colouring, n, block=block)
    assert got == want


# ---------------------------------------------------------------------------
# writers: byte-identical to the per-edge f-string writer


def _sparse(n: int, edges) -> Graph:
    return Graph.from_edges(n, edges)


GRAPH_CASES = [
    _sparse(0, []),
    _sparse(1, []),
    _sparse(2, [(0, 1)]),
    _sparse(200, [(0, 199), (5, 150)]),                # isolated high vertices
    _sparse(12001, [(0, 12000), (9999, 10000), (10000, 12000), (3, 10001)]),
    Graph.complete(9),
    Graph.cycle(130),
]


@pytest.mark.parametrize("G", GRAPH_CASES, ids=lambda G: repr(G))
@pytest.mark.parametrize("comment", [None, "a header\nover two lines"])
def test_graph_writer_bytes(G, comment):
    assert _bytes_of(write_graph, G, comment) == _bytes_of(ref_write_graph, G, comment)


@pytest.mark.parametrize(
    "G", GRAPH_CASES + [Graph.path(3000), _sparse(100000, [(0, 99999), (5, 70000)])],
    ids=lambda G: repr(G))
def test_graph_round_trip_with_default_blocks(tmp_path, G):
    path = str(tmp_path / "g.txt")
    write_graph(G, path)
    back = read_graph(path)
    assert back == G and back.edge_count == G.edge_count


def _traced_peak(read, path: str):
    """What `read(path)` returns, and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        got = read(path)
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_long_edge_per_row_block(tmp_path):
    # Edges (64k, n-1): every row block has one edge, and it reaches the far
    # end of the universe.  Only the tiles that hold an edge are stored, so
    # reading the file peaks within twice the tiles it reads.
    n = 100_000
    G = _sparse(n, [(a, n - 1) for a in range(0, n - 1, graphs.W)])
    path = str(tmp_path / "g.txt")
    write_graph(G, path)
    back, peak = _traced_peak(read_graph, path)
    assert back == G and back.edge_count == len(range(0, n - 1, graphs.W))
    assert peak <= 2 * back._tiles.nbytes


def test_colouring_reads_within_twice_its_tiles(tmp_path):
    # The colouring of test_one_long_edge_per_row_block's graph in three
    # colours.  Each class is read into its upper tiles, then grown in place
    # to hold their transposes, a few at a time, so reading the file peaks
    # within twice the tiles it reads.
    n = 100_000
    edges = [(a, n - 1) for a in range(0, n - 1, graphs.W)]
    chi = EdgeColouring.by_edge(_sparse(n, edges), 3, np.arange(len(edges)) % 3)
    path = str(tmp_path / "c.txt")
    write_colouring(chi, path)
    back, peak = _traced_peak(lambda p: read_colouring(p, n), path)
    assert back.classes == chi.classes
    assert peak <= 2 * sum(g._tiles.nbytes for g in back.classes)


def test_three_edges_in_a_million_vertices(tmp_path):
    # the index grows with n / 64, not with (n / 64) squared
    n = 1_000_000
    G = _sparse(n, [(0, n - 1), (5, 700_000), (999_000, 999_001)])
    path = str(tmp_path / "g.txt")
    write_graph(G, path)
    back, peak = _traced_peak(read_graph, path)
    assert back == G
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("end", ["\n", "\r\n"])
def test_colouring_row_blocks_widen_line_by_line(tmp_path, end):
    # a star whose leaves come in ascending order: every few lines open a
    # new tile in each orientation
    body = "r 2\n" + "".join(f"0 {v} {v % 2}{end}" for v in range(1, 3001))
    got, want = _both(str(tmp_path), body.encode(), read_colouring, ref_read_colouring,
                      3001, block=1 << 12)
    assert got == want and got[1] == 3001


def _three_colours_one_empty() -> EdgeColouring:
    G = Graph.complete(11)
    return EdgeColouring(11, 3, {e: 2 * ((e[0] + e[1]) % 2) for e in G.edges()})


COLOURING_CASES = [
    EdgeColouring.constant(_sparse(0, []), 2),
    EdgeColouring.constant(_sparse(1, []), 2),
    EdgeColouring.constant(Graph.cycle(70), 2, 1),
    EdgeColouring.constant(_sparse(12001, [(0, 12000), (10000, 11000)]), 3, 2),
    _three_colours_one_empty(),
    EdgeColouring(300, 2, {(0, 299): 1, (0, 5): 0, (150, 151): 1}),
]


@pytest.mark.parametrize("chi", COLOURING_CASES, ids=lambda chi: f"n{chi.n}r{chi.r}")
@pytest.mark.parametrize("comment", [None, "mono 0"])
def test_colouring_writer_bytes(chi, comment):
    assert (_bytes_of(write_colouring, chi, comment)
            == _bytes_of(ref_write_colouring, chi, comment))
    assert list(chi.items()) == list(ref_items(chi))


@st.composite
def colourings(draw):
    n = draw(st.integers(0, 150))
    r = draw(st.sampled_from([2, 3, 4]))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    mapping = {}
    for u, v in draw(st.lists(pairs, max_size=120)) if n > 1 else []:
        if u != v:
            mapping[(min(u, v), max(u, v))] = draw(st.integers(0, r - 1))
    return EdgeColouring(n, r, mapping), mapping


@SETTINGS
@given(colourings())
def test_writers_and_items_match_reference(case):
    chi, mapping = case
    assert list(chi.items()) == list(ref_items(chi)) == sorted(mapping.items())
    assert (_bytes_of(write_colouring, chi, "c")
            == _bytes_of(ref_write_colouring, chi, "c"))
    for g in chi.classes:
        assert _bytes_of(write_graph, g) == _bytes_of(ref_write_graph, g)


def ref_by_edge(n, edges, r, draws):
    """The reference painter: the i-th of the edges in ascending order goes to
    class draws[i], each class is built from its own edges, and the file
    lists the painted edges in that order."""
    edges = sorted(edges)
    classes = [Graph.from_edges(n, [e for e, c in zip(edges, draws.tolist()) if c == k])
               for k in range(r)]
    body = "".join(f"{u} {v} {c}\n" for (u, v), c in zip(edges, draws.tolist()))
    return classes, f"# c\nr {r}\n{body}".encode()


def _paints_like_the_reference(chi, n, edges, draws):
    """`chi`, painted by `by_edge`, has the reference's classes and file."""
    classes, body = ref_by_edge(n, edges, chi.r, draws)
    assert list(chi.classes) == classes
    assert chi.colour_counts() == np.bincount(draws, minlength=chi.r).tolist()
    assert _bytes_of(write_colouring, chi, "c") == body


@SETTINGS
@given(colourings(), st.integers(0, 2**32 - 1))
def test_by_edge_paints_ascending_edges(case, seed):
    chi, mapping = case
    draws = np.random.default_rng(seed).integers(0, chi.r, size=len(mapping))
    G = Graph.from_edges(chi.n, list(mapping))  # the union of the classes
    _paints_like_the_reference(EdgeColouring.by_edge(G, chi.r, draws), chi.n,
                               list(mapping), draws)


def test_by_edge_rejects_a_wrong_draw():
    G = Graph.cycle(5)
    with pytest.raises(ValueError, match="4 colours for 5 edges"):
        EdgeColouring.by_edge(G, 2, np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="outside 0..1"):
        EdgeColouring.by_edge(G, 2, np.full(5, 2))


BY_EDGE_GRAPHS = {
    "star": (1 << 16, [(0, v) for v in range(1, 1 << 16)]),
    "long-edges": (20_000, [(a, 19_999) for a in range(0, 19_999, graphs.W)]),
    "three-edges": (1_000_000, [(0, 999_999), (5, 700_000), (999_000, 999_001)]),
    "complete-70": (70, [(u, v) for u in range(70) for v in range(u + 1, 70)]),
    "n0": (0, []),
    "n1": (1, []),
}


@pytest.mark.parametrize("r", range(2, 9))
@pytest.mark.parametrize("name", sorted(BY_EDGE_GRAPHS))
def test_by_edge_on_wide_and_tiny_graphs(name, r):
    # the draws skip the odd colours below r - 1, so from r = 3 on some
    # classes stay empty
    n, edges = BY_EDGE_GRAPHS[name]
    G = Graph.from_edges(n, edges)
    palette = [c for c in range(r) if c % 2 == 0 or c == r - 1]
    draws = np.random.default_rng(r).choice(palette, size=len(edges))
    start = time.process_time()
    chi = EdgeColouring.by_edge(G, r, draws)
    # the star spans 1024 row blocks of 1024 tiles each: only the non-zero
    # words of its 2047 tiles are unpacked, not 2^32 bits, so it paints in
    # well under a second
    assert time.process_time() - start < 1.0
    _paints_like_the_reference(chi, n, edges, draws)


def test_tile_transpose_moves_bit_j_of_word_i_to_bit_i_of_word_j():
    tiles = np.random.default_rng(0).integers(0, 2**64, size=(3, graphs.W),
                                              dtype=np.uint64)
    bits = np.unpackbits(tiles.view(np.uint8), bitorder="little").reshape(3, 64, 64)
    want = np.packbits(bits.transpose(0, 2, 1), bitorder="little").view(np.uint64)
    assert np.array_equal(graphs._transpose(tiles), want.reshape(3, graphs.W))
