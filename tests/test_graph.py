import itertools
import random

import pytest

from evckit.errors import GraphFormatError, PreconditionError, ValidationError
from evckit.graph import (
    Graph,
    OddCycle,
    bipartition,
    connected_components,
    cut_vertices,
    graph_json_obj,
    load_graph_text,
    mask_components,
    parse_edge_list,
    parse_json_graph,
    serialize_edge_list,
)

from conftest import random_connected_graph, random_graph_corpus


def test_parse_simple_path():
    g = parse_edge_list("a b\nb c")
    assert g.labels == ("a", "b", "c")
    assert g.edges == ((0, 1), (1, 2))


def test_parse_footnote_graph():
    g = parse_edge_list("a1 a2\na1 b1\na2 b2\na1 b2\na2 b1")
    assert g.n == 4 and g.m == 5
    assert g.labels == ("a1", "a2", "b1", "b2")


def test_parse_rejects_self_loop():
    with pytest.raises(ValidationError):
        parse_edge_list("a a")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        parse_edge_list("a b\nb a")


def test_parse_odd_token_count_reports_line():
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list("a b\nc d e")
    assert "line 2" in str(exc.value)


def test_parse_comments_and_blank_lines():
    g = parse_edge_list("# header\n\na b\n# mid\nb c\n")
    assert g.m == 2


def test_parse_multiple_edges_per_line():
    g = parse_edge_list("a b c d")
    assert g.m == 2


def test_json_graph_roundtrip():
    g = parse_edge_list("a b\nb c")
    obj = graph_json_obj(g)
    assert parse_json_graph(obj) == g


def test_json_graph_isolated_vertex_warns():
    with pytest.warns(UserWarning):
        g = parse_json_graph({"vertices": ["a", "b", "c"], "edges": [["a", "b"]]})
    assert g.isolated_vertices() == (2,)


@pytest.mark.parametrize(
    "text",
    [
        '{"vertices": 5, "edges": [["a", "b"]]}',
        '{"vertices": null, "edges": [["a", "b"]]}',
        '{"vertices": "ab", "edges": [["a", "b"]]}',
        '{"edges": 7}',
        '{"edges": null}',
        '{"edges": "ab"}',
        '{"edges": [["a", ["b"]]]}',
        '{"edges": [["a", null]]}',
        '{"edges": [["a", true]]}',
        '{"edges": [["a", 1.5]]}',
        '{"vertices": ["a", false], "edges": [["a", "b"]]}',
        '{"edges": [{"a": "b"}]}',
    ],
)
def test_json_graph_rejects_malformed_containers_and_labels(text):
    with pytest.raises(GraphFormatError):
        load_graph_text(text)


@pytest.mark.parametrize(
    "vertices,edges",
    [(["a", "b", "a"], [["a", "b"]]), (["1", 1], [[1, "1"]])],
)
def test_json_graph_names_a_repeated_vertex_label(vertices, edges):
    # 1 reads as "1", so ["1", 1] repeats a label before any edge is read
    with pytest.raises(GraphFormatError, match="repeated vertex label"):
        parse_json_graph({"vertices": vertices, "edges": edges})


def test_json_graph_reads_integer_labels_as_strings():
    g = load_graph_text('{"vertices": [1, "b", 30], "edges": [[1, "b"], ["b", 30]]}')
    assert g.labels == ("1", "b", "30")
    assert g == load_graph_text('{"edges": [["1", "b"], ["b", "30"]]}')


def test_load_graph_text_dispatch():
    g1 = load_graph_text('{"vertices": ["a", "b"], "edges": [["a", "b"]]}')
    g2 = load_graph_text("a b")
    assert g1 == g2


def test_serialize_parse_identity():
    g = parse_edge_list("a b\nb c\nc a")
    text = serialize_edge_list(g)
    assert serialize_edge_list(parse_edge_list(text)) == text


def test_serialize_preserves_edge_structure():
    for g in random_graph_corpus(25, 2, 8, seed=5):
        h = parse_edge_list(serialize_edge_list(g))
        assert {frozenset((g.labels[u], g.labels[v])) for u, v in g.edges} == {
            frozenset((h.labels[u], h.labels[v])) for u, v in h.edges
        }


def test_components_p3(named):
    assert connected_components(named["P3"]) == [(0, 1, 2)]


def test_components_two_edges():
    g = parse_edge_list("a b\nc d")
    assert connected_components(g) == [(0, 1), (2, 3)]


def test_components_empty_graph():
    assert connected_components(Graph((), ())) == []


def test_cut_vertices_examples(named):
    p5 = named["P5"]
    assert p5.labels_of(cut_vertices(p5)) == ("b", "c", "d")
    assert cut_vertices(named["C4"]) == ()
    bow = named["bowtie"]
    assert bow.labels_of(cut_vertices(bow)) == ("x",)


def test_cut_vertices_requires_connected():
    with pytest.raises(PreconditionError):
        cut_vertices(parse_edge_list("a b\nc d"))


def test_cut_vertices_against_component_count():
    # v is a cut vertex iff removing it increases the component count
    for g in random_graph_corpus(40, 2, 8, seed=11):
        cuts = set(cut_vertices(g))
        base = len(connected_components(g))
        for v in range(g.n):
            rest = [w for w in range(g.n) if w != v]
            sub = g.induced(rest)
            isolated = len(sub.isolated_vertices())
            parts = len(connected_components(sub))
            assert (parts > base) == (v in cuts), (g.edges, v)


def test_bipartition_c4(named):
    assert bipartition(named["C4"]) == ((0, 2), (1, 3))


def test_bipartition_k2(named):
    assert bipartition(named["K2"]) == ((0,), (1,))


def test_bipartition_footnote_odd_cycle(named):
    res = bipartition(named["footnote"])
    assert isinstance(res, OddCycle)
    assert len(res.vertices) % 2 == 1


def test_bipartition_properties():
    for g in random_graph_corpus(60, 2, 8, seed=23):
        for comp in connected_components(g):
            sub = g.induced(comp)
            res = bipartition(sub)
            if isinstance(res, OddCycle):
                cyc = res.vertices
                assert len(cyc) % 2 == 1
                assert len(set(cyc)) == len(cyc)
                for i in range(len(cyc)):
                    assert sub.has_edge(cyc[i], cyc[(i + 1) % len(cyc)])
            else:
                a, b = res
                assert sorted(a + b) == list(range(sub.n))
                for side in (a, b):
                    for u, v in itertools.combinations(side, 2):
                        assert not sub.has_edge(u, v)


def test_induced_preserves_labels(named):
    bow = named["bowtie"]
    sub = bow.induced(bow.index_set(["a", "b", "x"]))
    assert set(sub.labels) == {"a", "b", "x"}
    assert sub.m == 3


def test_random_connected_graph_sizes():
    # one vertex has no edge to draw (the helper used to loop forever) and
    # the helper's labels run out after ten
    rng = random.Random(0)
    for n in (1, 11):
        with pytest.raises(ValueError):
            random_connected_graph(n, 0.5, rng)
    with pytest.raises(ValueError):
        random_graph_corpus(3, 1, 1, seed=0)
    for n in (2, 10):
        g = random_connected_graph(n, 0.5, rng)
        assert g.n == n and g.m >= 1


def test_mask_components_kept_per_mask():
    rng = random.Random(29)
    for g in random_graph_corpus(30, 2, 9, seed=313):
        masks = [rng.randrange(1 << g.n) for _ in range(40)]
        for mask in masks + masks:
            got = mask_components(g, mask)
            assert isinstance(got, tuple)
            assert got == mask_components(Graph(g.labels, g.edges), mask), (g.edges, mask)


def test_induced_whole_graph_is_the_graph(named):
    for g in named.values():
        assert g.induced(range(g.n)) is g
        assert g.induced(reversed(range(g.n))) is g
    bow = named["bowtie"]
    connected_components(bow)  # fills the memo
    assert bow._memo
    sub = bow.induced(range(bow.n - 1))
    assert sub is not bow and sub._memo == {}
