"""Exit-code fuzz of the file inputs.

Small written files (a blow-up's graph, host and `.meta` sidecar, a
colouring of the blow-up and a grid embedding in it) get their headers, edge
lines, colour lines, cell lines and sidecar keys and values mutated; `verify`, `oracle grid --graph "file ..."`
and `colour --blowup` then read them.  Every run ends in exit 0, 1 or 2, and
none in a traceback; every exit 2 names the file it refuses.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from monogrid.blowup import build_blowup, save_blowup
from monogrid.cli import main
from monogrid.embedder import GridEmbedding, write_embedding
from monogrid.graphs import EdgeColouring, Graph, write_colouring

FILES = ("blowup.graph", "blowup.host", "blowup.meta", "colouring.txt",
         "grid.embedding")

# What a mutation writes into a line.  Every count here is either small or
# past the readers' bounds, so no example builds a large graph.
TOKENS = ("0", "1", "2", "3", "-1", "11", "12", "13", "n", "r", "p", "c", "seed",
          "part_size", "host_hash", "x", "", "#", "0.5", "nan", "inf", "-inf", "1e3",
          "1.5", "-0.5", "0.9", "100000000", "1099511627776", "99999999999999999999")

mutations = st.lists(
    st.tuples(st.sampled_from(FILES), st.integers(0, 30),
              st.sampled_from(("replace", "append", "delete", "duplicate",
                               "insert", "truncate")),
              st.integers(0, 3), st.sampled_from(TOKENS)),
    min_size=1, max_size=3)


def _mutate(path: Path, index: int, op: str, at: int, token: str) -> None:
    lines = path.read_text().splitlines()
    i = index % (len(lines) + 1)
    words = lines[i].split() if i < len(lines) else []
    if op == "replace" and words:
        words[at % len(words)] = token
    elif op == "append":
        words.append(token)
    elif op == "delete":
        del lines[i:i + 1]
    elif op == "duplicate":
        lines[i:i] = lines[i:i + 1]
    elif op == "insert":
        lines.insert(i, " ".join([token] * (at + 1)))
    elif op == "truncate":
        del lines[i:]
    if op in ("replace", "append"):
        lines[i:i + 1] = [" ".join(words)]
    path.write_text("".join(line + "\n" for line in lines))


def _exit_code(argv: list[str], d: Path) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # an argparse usage error
            code = e.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # main maps any ValueError to exit 2, so a refusal names the input file
    # it refuses; a bare library message would be a leak from deeper down
    if code == 2:
        assert str(d) in err.getvalue(), (argv, err.getvalue())
    return code


def _write_inputs(d: Path) -> None:
    bg = build_blowup(Graph.cycle(4), 3, 0.6, 0)
    save_blowup(bg, str(d / "blowup"))
    m = bg.gamma.edge_count
    write_colouring(EdgeColouring.by_edge(bg.gamma, 2, [i % 2 for i in range(m)]),
                    str(d / "colouring.txt"))
    u, v = next(bg.gamma.edges())
    write_embedding(GridEmbedding(1, 2, 0, {(0, 0): u, (0, 1): v}),
                    str(d / "grid.embedding"))


def test_unmutated_inputs_pass_every_command():
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_inputs(d)
        assert _exit_code(["verify", str(d / "blowup.graph"), str(d / "colouring.txt"),
                           str(d / "grid.embedding")], d) == 0
        assert _exit_code(["oracle", "grid", "--graph", f"file {d / 'blowup.graph'}",
                           "--a", "1", "--b", "2", "--budget", "1000"], d) == 0
        assert _exit_code(["colour", "--blowup", str(d / "blowup"),
                           "--colouring", "mono 0", "--out", str(d / "out")], d) == 0


@settings(max_examples=150, deadline=None)
@given(mutations)
def test_mutated_inputs_exit_honestly(edits):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        _write_inputs(d)
        for name, index, op, at, token in edits:
            _mutate(d / name, index, op, at, token)
        _exit_code(["verify", str(d / "blowup.graph"), str(d / "colouring.txt"),
                    str(d / "grid.embedding")], d)
        _exit_code(["oracle", "grid", "--graph", f"file {d / 'blowup.graph'}",
                    "--a", "1", "--b", "2", "--budget", "1000"], d)
        _exit_code(["colour", "--blowup", str(d / "blowup"),
                    "--colouring", "mono 0", "--out", str(d / "out")], d)
