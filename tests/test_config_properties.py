"""Fuzz of the one graph-spec grammar: every text resolves or is a ConfigError."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogrid.cli import main
from monogrid.config import ConfigError, build_host, load_config

SETTINGS = settings(max_examples=150, deadline=None)

KINDS = ["cycle", "path", "complete", "single-edge", "random-regular", "grid",
         "file", "wombat", ""]


@st.composite
def spec_shaped(draw):
    """A known or unknown kind followed by zero to three small or junk arguments."""
    args = draw(st.lists(st.integers(-3, 12).map(str)
                         | st.sampled_from(["x", "1.5", "nowhere.graph", "."]),
                         max_size=3))
    return " ".join([draw(st.sampled_from(KINDS)), *args])


specs = st.text(max_size=30) | spec_shaped()


@SETTINGS
@given(specs, st.integers(0, 3))
@example("", 0)
@example("random-regular 6 5", 0)
@example("file \x00", 0)
def test_build_host_resolves_or_is_a_config_error(text, seed):
    try:
        H = build_host(text, seed)
    except ConfigError:
        return
    assert H.n >= 2 and H.degree_bound() >= 2


@SETTINGS
@given(specs)
@example("cycle 10 7")
@example("grid 2 5")
def test_load_config_resolves_or_is_a_config_error(text):
    try:
        cfg = load_config(sets=(f"host={text}", "s=300"))
    except ConfigError:
        return
    assert cfg.host_spec == text.strip()


@SETTINGS
@given(specs)
@example("single-edge")
@example("complete 0")
def test_oracle_graph_spec_runs_or_exits_2(text):
    # main turns a refused argument (a ConfigError, ValueError or OSError)
    # into exit 2; a broken invariant, an AssertionError, would propagate
    assert main(["oracle", "grid", f"--graph={text}", "--a", "1", "--b", "2"]) in (0, 2)
