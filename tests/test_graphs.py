"""Multigraph model, text format, selected edge indices, edge replacement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgecolorkit import (
    GadgetGraph,
    MultiGraph,
    ParseError,
    PreconditionError,
    parse_dimacs,
    parse_graph,
    render_graph,
    replace_edges,
)

from corpus import bundle, cycle, prism
from oracles import random_multigraph


# ---------------------------------------------------------------------------
# construction


def test_edges_normalized_to_ascending_endpoints():
    g = MultiGraph(3, [(2, 0), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        MultiGraph(3, [(0, 1), (1, 1)])


def test_endpoint_out_of_range_rejected():
    with pytest.raises(ValueError, match="edge 0"):
        MultiGraph(2, [(0, 2)])
    with pytest.raises(ValueError):
        MultiGraph(2, [(-1, 0)])


def test_non_integer_ids_are_refused_not_truncated():
    with pytest.raises(TypeError):
        MultiGraph(2.7, [(0, 2)])
    with pytest.raises(TypeError):
        MultiGraph(3, [(0, 1.9)])
    with pytest.raises(TypeError):
        MultiGraph(3, [("0", 1)])
    with pytest.raises(TypeError):
        GadgetGraph(MultiGraph(2, [(0, 1)]), (0, 1.0))


def test_degree_counts_parallel_edges():
    g = bundle(3)
    assert g.degrees() == (3, 3)
    assert g.degree(0) == 3
    assert g.is_regular(3)
    assert not g.is_simple()


def test_connectivity():
    assert MultiGraph(0, []).is_connected()
    assert MultiGraph(1, []).is_connected()
    assert not MultiGraph(2, []).is_connected()
    assert cycle(4).is_connected()
    assert not MultiGraph(4, [(0, 1), (2, 3)]).is_connected()


def test_parallel_edge_indices():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 1), (0, 2)])
    assert g.parallel_edge_indices() == (0, 2)
    assert prism().parallel_edge_indices() == ()


def test_gadget_graph_validates_attachments():
    base = MultiGraph(2, [(0, 1)])
    with pytest.raises(ValueError, match="out of range"):
        GadgetGraph(base, (0, 2))


def test_gadget_degrees_count_danglers():
    g = GadgetGraph(MultiGraph(2, [(0, 1)]), (0, 0, 1))
    assert g.degrees() == (3, 2)
    assert g.degree(0) == 3


# ---------------------------------------------------------------------------
# text format


def test_parse_round_trip_multigraph():
    g = MultiGraph(4, [(0, 1), (0, 1), (2, 3)])
    assert parse_graph(render_graph(g)) == g


def test_parse_round_trip_gadget():
    g = GadgetGraph(MultiGraph(3, [(0, 1), (1, 2)]), (0, 2))
    assert parse_graph(render_graph(g)) == g


def test_parse_accepts_comments_blanks_and_crlf():
    text = "# header\r\n\r\nv 3\r\ne 0 1\r\n  # indented comment\r\n e 1 2 \r\n"
    g = parse_graph(text)
    assert g == MultiGraph(3, [(0, 1), (1, 2)])


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 0 1\nv 2\n", "line 1: e before v"),
        ("v 2\nv 3\n", "line 2: duplicate v"),
        ("v 2\ne 0 0\n", "line 2: self-loop"),
        ("v 2\ne 0 5\n", "line 2: vertex out of range"),
        ("v 2\nd 7\n", "line 2: vertex out of range"),
        ("v 2\ne 0\n", "line 2: e takes two"),
        ("v 2\nd 0 1\n", "line 2: d takes one"),
        ("v 2\nx 0 1\n", "line 2: unknown directive"),
        ("v two\n", "line 1: non-integer"),
        ("v -1\n", "line 1: v takes one nonnegative"),
        ("# nothing\n", "no v directive"),
        ("d 0\nv 2\n", "line 1: d before v"),
    ],
)
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_graph(text)


def test_parse_refuses_a_vertex_count_over_the_cap():
    # refused at the v line, before any per-vertex list exists
    assert parse_graph("v 1000000\n").vertex_count == 10**6
    with pytest.raises(PreconditionError, match="line 2: vertex count 1000001 exceeds the cap"):
        parse_graph("# big\nv 1000001\ne 0 1\n")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_render_parse_identity(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ).filter(lambda e: e[0] != e[1]),
            max_size=12,
        )
    )
    g = MultiGraph(n, edges)
    assert parse_graph(render_graph(g)) == g


# Lines of either text format's directives, after a valid header or none,
# with arguments that are mostly small numbers and otherwise numbers of
# other spellings int() accepts or refuses, huge numbers and words. Lines
# end in the line breaks str.splitlines knows, some of which str.split
# also takes as spaces.
_TOKEN = st.one_of(
    st.integers(-2, 5).map(str),
    st.integers(10**6 - 1, 10**40).map(str),
    st.sampled_from(["v", "e", "d", "p", "cnf", "c", "#", "1_0", "+2", "x", "", "9" * 5000]),
)
_TOKEN_SOUP = st.tuples(
    st.sampled_from(["", "v 4\n", "p cnf 3 2\n"]),
    st.lists(
        st.tuples(
            st.sampled_from(["v", "e", "d", "p cnf", "p", "c", "#", "", "1", "-1"]),
            st.lists(_TOKEN, max_size=4),
            st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028"]),
        ),
        max_size=10,
    ),
).map(lambda text: text[0] + "".join(" ".join([head, *args]) + end for head, args, end in text[1]))


@pytest.mark.parametrize("parse", [parse_graph, parse_dimacs])
@settings(max_examples=300, deadline=None)
@given(text=_TOKEN_SOUP)
def test_parsers_raise_only_input_errors_on_token_soup(parse, text):
    try:
        parse(text)
    except (ParseError, PreconditionError):
        pass


# ---------------------------------------------------------------------------
# selected edge indices


def test_edge_indices_sorts_and_validates():
    g = cycle(4)
    assert g.edge_indices([3, 1]) == (1, 3)
    with pytest.raises(PreconditionError, match="edge index 4 out of range"):
        g.edge_indices([4])
    with pytest.raises(PreconditionError, match="edge index 1 selected twice"):
        g.edge_indices([1, 1])
    with pytest.raises(PreconditionError, match="edge index 1 selected twice"):
        replace_edges(g, _two_path_gadget(), [1, 1])


def test_non_integer_edge_indices_are_refused_not_truncated():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(TypeError):
        g.edge_indices([1.9, 0.2])
    with pytest.raises(TypeError):
        replace_edges(g, _two_path_gadget(), [1.0])


# ---------------------------------------------------------------------------
# edge replacement


def _two_path_gadget():
    return GadgetGraph(MultiGraph(2, [(0, 1)]), (0, 1))


def test_replace_edges_requires_two_danglers():
    g = cycle(3)
    bad = GadgetGraph(MultiGraph(1, []), (0,))
    with pytest.raises(PreconditionError, match="exactly 2 dangling"):
        replace_edges(g, bad, range(g.edge_count))


def test_replace_edges_block_layout():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    gadget = _two_path_gadget()
    out, blocks = replace_edges(g, gadget, [1])
    # unselected edges first, then entry, internal, exit
    assert out.edges[:2] == ((0, 1), (0, 2))
    assert out.vertex_count == 5
    blk = blocks[1]
    assert blk.vertex_offset == 3
    assert out.edges[blk.entry_edge] == (1, 3)
    assert tuple(out.edges[i] for i in blk.internal_edges) == ((3, 4),)
    assert out.edges[blk.exit_edge] == (2, 4)


def test_replace_edges_preserves_original_degrees():
    rng = random.Random(5)
    gadget = _two_path_gadget()
    for _ in range(40):
        vc, edges = random_multigraph(rng, rng.randint(2, 6), rng.randint(0, 8))
        g = MultiGraph(vc, edges)
        out, blocks = replace_edges(g, gadget, g.parallel_edge_indices())
        assert set(blocks) == set(g.parallel_edge_indices())
        for v in range(g.vertex_count):
            assert out.degree(v) == g.degree(v)


def test_replace_edges_keeps_subdivision_counts():
    # replacing every edge of a triangle with a 2-path gadget subdivides
    # each edge into a 3-path
    g = cycle(3)
    gadget = _two_path_gadget()
    out, _ = replace_edges(g, gadget, range(g.edge_count))
    assert out.vertex_count == 3 + 3 * 2
    assert out.edge_count == 3 * (1 + 2)
    assert out.is_connected()
