import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

from evckit.cli import main
from evckit.corpus import exhaustive_connected, fixtures, random_connected
from evckit.decider import is_spartan
from evckit.errors import PreconditionError, ResourceLimitError, ValidationError
from evckit.game import play_session
from evckit.graph import Graph, is_connected, parse_edge_list, serialize_edge_list
from evckit.report import delabelize, revalidate_certificate


@pytest.fixture()
def graph_file(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spartan_footnote_json(graph_file, capsys):
    f = graph_file("foot.edges", "a1 a2\na1 b1\na2 b2\na1 b2\na2 b1\n")
    code, out, _ = run_cli(capsys, ["spartan", f, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["spartan"] is False
    assert payload["result"]["method"] == "konig"
    assert payload["result"]["certificate"]["kind"] == "odd_cycle"


def test_evc_c5(graph_file, capsys):
    f = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, out, _ = run_cli(capsys, ["evc", f, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["evc"] == 3 and payload["result"]["mvc"] == 3


def test_mvc_output(graph_file, capsys):
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    code, out, _ = run_cli(capsys, ["mvc", f, "--json"])
    payload = json.loads(out)
    assert payload["result"]["size"] == 2
    assert payload["result"]["covers"] == [["a", "c"], ["b", "d"]]


def test_aux_bowtie(graph_file, capsys):
    f = graph_file("bow.edges", "a b\na x\nb x\nc d\nc x\nd x\n")
    code, out, _ = run_cli(
        capsys, ["aux", f, "--cover-s", "x,a,c", "--cover-t", "x,b,c", "--json"]
    )
    payload = json.loads(out)
    assert payload["result"]["real_edges"] == [["a", "b"]]
    assert payload["result"]["helper_edges"] == [{"edge": ["a", "b"], "color": 0}]
    assert payload["result"]["colors"] == [["x", "c"]]


def test_aux_unknown_label(graph_file, capsys):
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    code, _, err = run_cli(
        capsys, ["aux", f, "--cover-s", "a,zz", "--cover-t", "b,d"]
    )
    assert code == 2
    assert "zz" in err


def test_konig_flags(graph_file, capsys):
    f = graph_file("foot.edges", "a1 a2\na1 b1\na2 b2\na1 b2\na2 b1\n")
    code, out, _ = run_cli(capsys, ["konig", f, "--json"])
    payload = json.loads(out)
    res = payload["result"]
    assert res["konig"] and not res["bipartite"]
    assert res["spartan_if_konig"] is False


def test_certify_defaults_to_mvc(graph_file, capsys):
    f = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, out, _ = run_cli(capsys, ["certify", f, "--json"])
    payload = json.loads(out)
    assert payload["result"]["k"] == 3
    assert payload["result"]["verdict"] == "necessary_conditions_hold"


def test_json_outputs_are_byte_stable(graph_file, capsys):
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, ["spartan", f, "--json"])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_pretty_output_includes_timings(graph_file, capsys):
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    _, out, _ = run_cli(capsys, ["mvc", f])
    assert "timings_ms" in out


def test_exit_codes(graph_file, capsys):
    code, _, _ = run_cli(capsys, ["bogus-subcommand"])
    assert code == 2
    f = graph_file("loop.edges", "a a\n")
    code, _, err = run_cli(capsys, ["mvc", f])
    assert code == 2 and "self-loop" in err
    code, _, _ = run_cli(capsys, ["spartan", "/definitely/not/here"])
    assert code == 2
    f = graph_file("bad.json", '{"vertices": 5, "edges": [["a", "b"]]}')
    code, out, err = run_cli(capsys, ["mvc", f, "--json"])
    assert code == 2 and out == "" and '"vertices" must be a list' in err
    f = graph_file("twice.json", '{"vertices": ["1", 1], "edges": [[1, "1"]]}')
    code, out, err = run_cli(capsys, ["mvc", f, "--json"])
    assert code == 2 and out == "" and "repeated vertex label '1'" in err


def test_budget_refusal_exit_code(graph_file, capsys, monkeypatch):
    f = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, _, err = run_cli(capsys, ["evc", f, "--budget", "2"])
    assert code == 1
    assert "refused" in err


def test_cover_scan_refusal_exits_as_a_refusal(graph_file, capsys):
    # the cover scan refuses C21 (above 20 vertices); evc brackets its value,
    # 11, between the cover number and twice it
    f = graph_file("c21.edges", "".join(f"v{i} v{(i + 1) % 21}\n" for i in range(21)))
    code, out, err = run_cli(capsys, ["evc", f, "--json"])
    assert code == 1 and out == ""
    assert "cover scan capped at 20 vertices" in err and "(known bounds: 11..22)" in err
    for extra in (["--method", "game"], ["--cross-check"]):
        code, out, err = run_cli(capsys, ["spartan", f, *extra])
        assert code == 1 and out == "", extra
        assert "analysis refused: cover scan capped at 20 vertices" in err, extra


def test_budget_refusal_bounds_hold_across_components(graph_file, capsys):
    # the star needs 2 guards and the edge 1; the refusal on the star must
    # still bracket the whole graph: star in [1, 2] plus edge in [1, 2]
    f = graph_file("star_edge.edges", "c x\nc y\nc z\np q\n")
    code, _, err = run_cli(capsys, ["evc", f, "--budget", "0"])
    assert code == 1
    assert "(known bounds: 2..4)" in err
    code, out, _ = run_cli(capsys, ["evc", f, "--json"])
    assert code == 0
    assert 2 <= json.loads(out)["result"]["evc"] <= 4


def test_state_budget_env_override(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("EVCKIT_STATE_BUDGET", "2")
    f = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, _, err = run_cli(capsys, ["evc", f])
    assert code == 1


@pytest.mark.parametrize("value", ["abc", "-3", "1.5"])
def test_state_budget_env_is_validated(graph_file, capsys, monkeypatch, value):
    # a bad environment value is an input error, like a bad --budget
    monkeypatch.setenv("EVCKIT_STATE_BUDGET", value)
    f = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    for argv in (["evc", f], ["spartan", f, "--method", "game"]):
        code, _, err = run_cli(capsys, argv)
        assert code == 2 and err.startswith("input error: EVCKIT_STATE_BUDGET"), err


def test_play_via_stdin(graph_file, capsys, monkeypatch):
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("attack a b\nquit\n"))
    code, out, _ = run_cli(capsys, ["play", f, "--guards", "2"])
    assert code == 0
    assert "defense:" in out


def test_json_graph_input(graph_file, capsys):
    f = graph_file(
        "c4.json",
        json.dumps({"vertices": ["a", "b", "c", "d"],
                    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]}),
    )
    code, out, _ = run_cli(capsys, ["mvc", f, "--json"])
    assert code == 0
    assert json.loads(out)["result"]["size"] == 2


def test_certificates_revalidate_after_roundtrip(graph_file, capsys):
    cases = [
        ("foot.edges", "a1 a2\na1 b1\na2 b2\na1 b2\na2 b1\n"),
        ("p4.edges", "a b\nb c\nc d\n"),  # a tight set
        ("p5.edges", "a b\nb c\nc d\nd e\n"),  # a deficient set
        ("k13.edges", "c x\nc y\nc z\n"),
    ]
    kinds = set()
    for name, text in cases:
        f = graph_file(name, text)
        g = parse_edge_list(text)
        for method in ("auto", "fixpoint"):
            argv = ["spartan", f, "--json", "--method", method]
            cert = json.loads(run_cli(capsys, argv)[1])["result"]["certificate"]
            kinds.add(cert["kind"])
            assert revalidate_certificate(g, cert), cert
        code, out, _ = run_cli(capsys, ["certify", f, "--json"])
        payload = json.loads(out)
        for cond in payload["result"]["conditions"]:
            if cond["certificate"] is not None:
                assert revalidate_certificate(g, cond["certificate"]), cond
    assert "empty_fixpoint" in kinds


# C4 is Spartan (evc = mvc = 2), bipartite and elementary, so no certificate
# of any kind can hold on it
FORGED_ON_C4 = [
    {"kind": "odd_cycle", "cycle": ["a", "b", "c"]},
    {"kind": "vertex_in_no_min_cover", "vertex": "a"},
    {"kind": "hall_violator", "violator": ["a", "c"], "neighborhood": ["b", "d"]},
    {"kind": "tight_independent_set", "independent_set": ["a"]},
    {"kind": "mvc_below_half", "mvc": 1, "n": 4},
    {"kind": "no_weakly_good_coverage", "k": 2, "vertex": "a"},
    {"kind": "no_strongly_good_coverage", "k": 3, "vertex": "a"},
    {"kind": "empty_fixpoint", "deletions": []},
    {"kind": "game_attacker_win", "k": 2},
    {"kind": "non_elementary"},
    {"kind": "non_elementary", "edge_in_no_perfect_matching": ["a", "b"]},
    {"kind": "cover_enumeration_truncated", "cap": 1},
    # N(V) is empty, but V is no subset of a maximum independent set
    {"kind": "hall_violator", "violator": ["a", "b", "c", "d"], "neighborhood": []},
    # the violator leaves the independent set
    {
        "kind": "hall_violator",
        "independent_set": ["a", "c"],
        "violator": ["a", "b", "c"],
        "neighborhood": ["d"],
    },
    {"kind": "tight_independent_set", "independent_set": []},
    {"kind": "tight_independent_set", "independent_set": ["a", "a"]},
]


def _forgery_ids(certs):
    """``kind-fields``, numbered ``-2``, ``-3``, ... from the second of one."""
    seen: dict[str, int] = {}
    ids = []
    for c in certs:
        name = f"{c['kind']}-{len(c)}"
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("cert", FORGED_ON_C4, ids=_forgery_ids(FORGED_ON_C4))
def test_forged_certificate_rejected(cert):
    assert not revalidate_certificate(parse_edge_list("a b\nb c\nc d\nd a\n"), cert)


P5 = parse_edge_list("a b\nb c\nc d\nd e\n")  # one minimum cover, {b, d}
MALFORMED_ON_P5 = [
    {"kind": "vertex_in_no_min_cover"},
    {"kind": "vertex_in_no_min_cover", "vertex": "zz"},
    {"kind": "hall_violator", "violator": ["a"]},
    {"kind": "odd_cycle", "cycle": "abc"},
    # {a, c, e} violates Hall's condition; the violator {a, a} does not
    {
        "kind": "hall_violator",
        "independent_set": ["a", "c", "e"],
        "violator": ["a", "a"],
        "neighborhood": ["b"],
    },
    # an edge with one end, and a deletion with no round
    {"kind": "non_elementary", "edge_in_no_perfect_matching": ["a"]},
    {
        "kind": "empty_fixpoint",
        "deletions": [{"cover": ["b", "d"], "attack": ["b", "a"]}],
    },
    {"kind": "no_weakly_good_coverage", "vertex": "a"},
    {"kind": "game_attacker_win", "k": "x"},
    # a vertex field takes labels only: an index, read as a position, would
    # turn -1 and 4 into e and -2 into d, and each certificate would hold
    *(
        {
            "kind": "hall_violator",
            "independent_set": ["a", "c", "e"],
            "violator": ["a", "c", index],
            "neighborhood": ["b", "d"],
        }
        for index in (-1, 4)
    ),
    {
        "kind": "hall_violator",
        "independent_set": ["a", "c", "e"],
        "violator": ["a", "c", "e"],
        "neighborhood": ["b", -2],
    },
]


@pytest.mark.parametrize("cert", MALFORMED_ON_P5)
def test_malformed_certificate_rejected(cert):
    assert revalidate_certificate(P5, cert) is False


def test_revalidation_refusal_still_raises():
    # the cover scan's cap is a refusal, not a forgery
    c22 = parse_edge_list("".join(f"v{i} v{(i + 1) % 22}\n" for i in range(22)))
    cert = {"kind": "no_strongly_good_coverage", "k": 11, "vertex": "v0"}
    with pytest.raises(ResourceLimitError, match="capped at 20 vertices"):
        revalidate_certificate(c22, cert)


def test_vertex_in_no_min_cover_is_rechecked_on_the_cover_number():
    # P3's minimum cover is {b}: a and c lie in no minimum cover, b does, and
    # an index outside the graph names no vertex
    p3 = parse_edge_list("a b\nb c\n")
    for vertex, holds in (("a", True), ("c", True), ("b", False), (3, False), (-1, False)):
        cert = {"kind": "vertex_in_no_min_cover", "vertex": vertex}
        assert revalidate_certificate(p3, cert) == holds, vertex


# a triangle with a pendant: covers {a, c} and {b, c}, both lost on c -> d
TAILED = parse_edge_list("a b\nb c\nc a\nc d\n")
TAILED_TRACE = [
    {"cover": ["a", "c"], "attack": ["c", "d"], "round": 0},
    {"cover": ["b", "c"], "attack": ["c", "d"], "round": 0},
]
FORGED_TRACES = [
    (P5, []),
    (P5, [{"cover": ["a", "c"], "attack": ["a", "b"], "round": 0}]),  # not a cover
    (P5, [{"cover": ["b", "d"], "attack": ["a", "b"], "round": 0}]),  # b -> a, reversed
    (TAILED, TAILED_TRACE[:1]),  # {b, c} missing
    (TAILED, TAILED_TRACE + TAILED_TRACE[:1]),  # {a, c} twice
    # a -> b on {a, c} is defended by {b, c}, which is deleted no earlier
    (TAILED, [dict(TAILED_TRACE[0], attack=["a", "b"]), TAILED_TRACE[1]]),
    (
        TAILED,
        [dict(TAILED_TRACE[0], attack=["a", "b"]), dict(TAILED_TRACE[1], round=1)],
    ),
]


def test_deletion_trace_is_checked():
    genuine = {"kind": "empty_fixpoint", "deletions": TAILED_TRACE}
    assert revalidate_certificate(TAILED, genuine)
    # once {b, c} is gone, nothing answers a -> b on {a, c}
    later = [dict(TAILED_TRACE[0], attack=["a", "b"], round=1), TAILED_TRACE[1]]
    assert revalidate_certificate(
        TAILED, {"kind": "empty_fixpoint", "deletions": later}
    )
    p5 = {"cover": ["b", "d"], "attack": ["b", "a"], "round": 0}
    assert revalidate_certificate(P5, {"kind": "empty_fixpoint", "deletions": [p5]})
    for g, deletions in FORGED_TRACES:
        cert = {"kind": "empty_fixpoint", "deletions": deletions}
        assert not revalidate_certificate(g, cert), deletions


# each graph pairs the edge p q (Spartan) with a second component, whose
# verdict must speak the input's labels
TRIANGLE_TAIL = "p q\na b\nb c\nc a\nc d\n"
STAR = "p q\nc x\nc y\nc z\n"
STAR_TRACE = [{"cover": ["c"], "attack": ["c", "x"], "round": 0}]
MULTI_COMPONENT = {
    "triangle_tail-auto": (
        TRIANGLE_TAIL,
        "auto",
        {"kind": "odd_cycle", "cycle": ["b", "a", "c"]},
        None,
    ),
    "triangle_tail-fixpoint": (
        TRIANGLE_TAIL,
        "fixpoint",
        {"kind": "empty_fixpoint", "deletions": TAILED_TRACE},
        None,
    ),
    "star-auto": (
        STAR,
        "auto",
        {"kind": "non_elementary", "edge_in_no_perfect_matching": ["c", "x"]},
        None,
    ),
    "star-fixpoint": (
        STAR,
        "fixpoint",
        {"kind": "empty_fixpoint", "deletions": STAR_TRACE},
        None,
    ),
    "triangle-auto": (
        "p q\na b\nb c\nc a\n",
        "auto",
        None,
        [["a", "b"], ["a", "c"], ["b", "c"]],
    ),
}


@pytest.mark.parametrize(
    "text,method,cert,family",
    MULTI_COMPONENT.values(),
    ids=MULTI_COMPONENT.keys(),
)
def test_component_verdicts_use_input_labels(
    graph_file, capsys, text, method, cert, family
):
    f = graph_file("multi.edges", text)
    code, out, _ = run_cli(capsys, ["spartan", f, "--json", "--method", method])
    result = json.loads(out)["result"]
    assert code == 0 and result["method"] == "perComponent"
    edge, other = result["components"]
    assert edge["family"] == [["p"], ["q"]]
    assert other["family"] == family
    assert other["certificate"] == cert
    assert result.get("certificate") == cert
    if cert is not None:
        assert revalidate_certificate(parse_edge_list(text), cert)


# each graph is Spartan and holds an odd cycle; its components are not
# Koenig (largest matching below the cover number), so the cycle proves
# nothing
ODD_CYCLES_ON_SPARTAN = {
    "C5": ("a b\nb c\nc d\nd e\ne a\n", ["a", "b", "c", "d", "e"]),
    "K4": ("a b\na c\na d\nb c\nb d\nc d\n", ["a", "b", "c"]),
    "bowtie": ("a b\nb x\nx a\nx c\nc d\nd x\n", ["a", "b", "x"]),
}


@pytest.mark.parametrize(
    "text,cycle", ODD_CYCLES_ON_SPARTAN.values(), ids=ODD_CYCLES_ON_SPARTAN.keys()
)
def test_odd_cycle_outside_a_koenig_component_rejected(text, cycle):
    g = parse_edge_list(text)
    assert is_spartan(g).spartan
    assert not revalidate_certificate(g, {"kind": "odd_cycle", "cycle": cycle})


def test_odd_cycle_of_the_net_holds(graph_file, capsys):
    # the net, a triangle with a pendant edge at each corner, is Koenig
    # (3 = 3) and not bipartite: the decider's cycle is a certificate
    text = "a b\nb c\nc a\na x\nb y\nc z\n"
    f = graph_file("net.edges", text)
    code, out, _ = run_cli(capsys, ["spartan", f, "--json"])
    cert = json.loads(out)["result"]["certificate"]
    assert code == 0 and cert == {"kind": "odd_cycle", "cycle": ["b", "a", "c"]}
    assert revalidate_certificate(parse_edge_list(text), cert)


def test_game_certificate_past_twice_the_cover_number_reads_false_unsolved():
    # the defender wins at twice the cover number and above, so a forged k
    # there reads False at once: a billion guards on K2 would never be
    # solved; a bool k is no guard count
    k2 = parse_edge_list("a b\n")
    start = time.process_time()
    for k in (2, 10**9, True, False):
        assert not revalidate_certificate(k2, {"kind": "game_attacker_win", "k": k})
    assert time.process_time() - start < 1.0


def test_genuine_game_and_non_elementary_certificates_hold():
    p3 = parse_edge_list("a b\nb c\n")  # one guard loses; the cover number is 1
    assert revalidate_certificate(p3, {"kind": "game_attacker_win", "k": 1})
    k13 = parse_edge_list("c x\nc y\nc z\n")  # bipartite, not elementary
    assert revalidate_certificate(k13, {"kind": "non_elementary"})
    assert revalidate_certificate(
        k13, {"kind": "non_elementary", "edge_in_no_perfect_matching": ["c", "x"]}
    )


P5_C4 = "a b\nb c\nc d\nd e\np q\nq r\nr s\ns p\n"
C4_C4 = "a b\nb c\nc d\nd a\np q\nq r\nr s\ns p\n"


def test_game_certificate_names_the_lost_component(graph_file, capsys):
    # C4 is Spartan and P5 is not: the lost game is P5's, at its cover
    # number; a game lost below a component's cover number proves nothing
    f = graph_file("p5c4.edges", P5_C4)
    code, out, _ = run_cli(capsys, ["spartan", f, "--method", "game", "--json"])
    cert = json.loads(out)["result"]["certificate"]
    assert code == 0
    assert cert == {"kind": "game_attacker_win", "k": 2, "component": list("abcde")}
    g = parse_edge_list(P5_C4)
    assert revalidate_certificate(g, cert)
    for forged in (
        {"kind": "game_attacker_win", "k": 2},
        {"kind": "game_attacker_win", "k": 1, "component": list("abcde")},
        {"kind": "game_attacker_win", "k": 2, "component": list("pqrs")},
        {"kind": "game_attacker_win", "k": 2, "component": list("abcd")},
    ):
        assert not revalidate_certificate(g, forged), forged
    spartan = parse_edge_list(C4_C4)
    for k in (2, 3):
        cert = {"kind": "game_attacker_win", "k": k}
        assert not revalidate_certificate(spartan, cert)


def test_goodness_coverage_certificates_need_a_connected_graph():
    # a component that T does not touch pins its guards, so every cover of
    # C4 u C4 is weakly bad, though the graph is Spartan
    spartan = parse_edge_list(C4_C4)
    for kind in ("no_weakly_good_coverage", "no_strongly_good_coverage"):
        cert = {"kind": kind, "k": 4, "vertex": "a"}
        assert not revalidate_certificate(spartan, cert)


def test_windmill_with_too_many_minimum_covers_is_refused(graph_file, capsys):
    # fourteen triangles on a shared centre: each minimum cover holds the
    # centre and one end of every blade, 2^14 covers past the default cap of
    # 10,000, on 29 vertices where the game oracle refuses above 20
    text = "".join(f"c a{i}\nc b{i}\na{i} b{i}\n" for i in range(14))
    f = graph_file("windmill.edges", text)
    code, out, err = run_cli(capsys, ["spartan", f, "--json"])
    assert (code, out) == (1, "")
    assert "refused" in err and "more than 10000 minimum covers" in err


NET = "a b\nb c\nc a\na x\nb y\nc z\n"
C6 = "a b\nb c\nc d\nd e\ne f\nf a\n"
# the corona of P22: a spine s0 ... s21 with a leaf on each spine vertex; a
# minimum cover takes s_i or l_i from each pair and no two adjacent leaves,
# 46,368 covers past the default cap of 10,000
CORONA_P22 = "".join(f"s{i} s{i + 1}\n" for i in range(21)) + "".join(
    f"s{i} l{i}\n" for i in range(22)
)


def test_konig_components_are_answered_at_any_cap(graph_file, capsys):
    # a Koenig component is decided on its bipartition and one alternating
    # tree and draws no cover list, so --cap bounds the fixpoint lane alone
    f = graph_file("net.edges", NET)
    code, out, _ = run_cli(capsys, ["spartan", f, "--json", "--cap", "1"])
    cert = json.loads(out)["result"]["certificate"]
    assert code == 0 and cert == {"kind": "odd_cycle", "cycle": ["b", "a", "c"]}
    f = graph_file("c6.edges", C6)
    code, out, _ = run_cli(capsys, ["spartan", f, "--json", "--cap", "1"])
    result = json.loads(out)["result"]
    assert code == 0 and (result["spartan"], result["method"]) == (True, "konig")
    assert result["family"] == [["a", "c", "e"], ["b", "d", "f"]]
    code, out, err = run_cli(
        capsys, ["spartan", f, "--json", "--cap", "1", "--method", "fixpoint"]
    )
    assert (code, out) == (1, "") and "more than 1 minimum covers" in err


def test_corona_of_a_long_path_is_answered_at_the_default_cap(graph_file, capsys):
    f = graph_file("corona.edges", CORONA_P22)
    code, out, _ = run_cli(capsys, ["spartan", f, "--json"])
    result = json.loads(out)["result"]
    assert code == 0 and (result["spartan"], result["method"]) == (False, "konig")
    cert = result["certificate"]
    # {s0, l1} sees only {s1, l0}: no perfect matching pairs s0 with s1
    assert cert == {
        "kind": "non_elementary",
        "edge_in_no_perfect_matching": ["s0", "s1"],
        "tight_set": ["s0", "l1"],
        "tight_neighborhood": ["s1", "l0"],
    }
    assert revalidate_certificate(parse_edge_list(CORONA_P22), cert)
    code, out, err = run_cli(capsys, ["spartan", f, "--method", "fixpoint"])
    assert (code, out) == (1, "") and "more than 10000 minimum covers" in err


def test_balanced_component_without_a_perfect_matching(graph_file, capsys):
    # both sides have three vertices, but a and b share their one neighbour
    text = "a x\nb x\nc x\nc y\nc z\n"
    f = graph_file("balanced.edges", text)
    code, out, _ = run_cli(capsys, ["spartan", f, "--json"])
    cert = json.loads(out)["result"]["certificate"]
    assert code == 0 and cert == {
        "kind": "non_elementary",
        "edge_in_no_perfect_matching": ["a", "x"],
        "deficient_set": ["a", "b"],
        "deficient_neighborhood": ["x"],
    }
    assert revalidate_certificate(parse_edge_list(text), cert)


def test_cross_check_prints_both_answers(graph_file, capsys):
    # --json leaves out the two timings, like timings_ms; the pretty
    # output keeps them
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    code, out, _ = run_cli(capsys, ["spartan", f, "--cross-check", "--json"])
    assert code == 0 and '"cross_check":{"agrees":true,"game_oracle":true}' in out
    code, out, _ = run_cli(capsys, ["spartan", f, "--cross-check"])
    cc = json.loads(out)["result"]["cross_check"]
    assert code == 0 and set(cc) == {"agrees", "game_oracle", "decider_ms", "oracle_ms"}
    f = graph_file("p5.edges", "a b\nb c\nc d\nd e\n")
    code, out, _ = run_cli(capsys, ["spartan", f, "--cross-check", "--json"])
    cc = json.loads(out)["result"]["cross_check"]
    assert code == 0 and cc == {"agrees": True, "game_oracle": False}


def test_play_below_the_cover_number(graph_file, capsys, monkeypatch):
    # one guard cannot even cover C4, whose cover number is 2
    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("quit\n"))
    code, out, _ = run_cli(capsys, ["play", f, "--guards", "1"])
    assert code == 0 and out == (
        "no cover-supported placement of 1 guards exists; "
        "the attacker wins immediately\n"
    )
    c4 = parse_edge_list("a b\nb c\nc d\nd a\n")
    events = play_session(c4, 1, io.StringIO("quit\n"), io.StringIO())
    assert events == [{"event": "immediate_loss", "k": 1}]
    code, out, err = run_cli(capsys, ["play", f, "--guards", "0"])
    assert (code, out) == (2, "") and "at least one guard is required" in err


def test_certify_above_the_cover_number(graph_file, capsys):
    # the tree's cover number is 2; no 3-guard configuration that is weakly
    # or strongly good puts a guard on the leaf e
    text = "a c\na e\na f\nb c\nb d\n"
    f = graph_file("tree.edges", text)
    code, out, _ = run_cli(capsys, ["certify", f, "--k", "3", "--json"])
    result = json.loads(out)["result"]
    assert code == 0 and (result["mvc"], result["verdict"]) == (2, "exceeds_k")
    conditions = {c["id"]: c for c in result["conditions"]}
    g = parse_edge_list(text)
    for cid in ("weakly-good-coverage", "strongly-good-coverage"):
        cert = conditions[cid]["certificate"]
        assert not conditions[cid]["passed"] and not conditions[cid]["partial"]
        assert (cert["vertex"], cert["k"]) == ("e", 3)
        assert revalidate_certificate(g, cert)
    # C11 has more vertices than the configuration scan takes above the
    # cover number, so both coverage checks are partial
    f = graph_file("c11.edges", "".join(f"v{i} v{(i + 1) % 11}\n" for i in range(11)))
    code, out, _ = run_cli(capsys, ["certify", f, "--k", "7", "--json"])
    conditions = {c["id"]: c for c in json.loads(out)["result"]["conditions"]}
    assert code == 0
    for cid in ("weakly-good-coverage", "strongly-good-coverage"):
        assert conditions[cid]["partial"] is True


# the genuine non_elementary certificates of P4 and K1,3 name an edge in no
# perfect matching; each forgery adds a Hall set that does not hold
P4_EDGE = {"kind": "non_elementary", "edge_in_no_perfect_matching": ["b", "c"]}
K13_EDGE = {"kind": "non_elementary", "edge_in_no_perfect_matching": ["c", "x"]}
FORGED_HALL_SETS = {
    # not inside one side, and N({a, b, c, d}) is empty, not {a}
    "p4-tight-not-one-side": (
        "a b\nb c\nc d\n",
        {**P4_EDGE, "tight_set": ["a", "b", "c", "d"], "tight_neighborhood": ["a"]},
    ),
    # {a, c} is a whole side, not a proper subset of one
    "p4-tight-whole-side": (
        "a b\nb c\nc d\n",
        {**P4_EDGE, "tight_set": ["a", "c"], "tight_neighborhood": ["b", "d"]},
    ),
    "p4-tight-not-tight": (
        "a b\nb c\nc d\n",
        {**P4_EDGE, "tight_set": ["b"], "tight_neighborhood": ["a", "c"]},
    ),
    "p4-tight-wrong-neighborhood": (
        "a b\nb c\nc d\n",
        {**P4_EDGE, "tight_set": ["a"], "tight_neighborhood": ["c"]},
    ),
    # |N({c})| = 3 is no deficiency
    "k13-deficient-not-deficient": (
        "c x\nc y\nc z\n",
        {**K13_EDGE, "deficient_set": ["c"], "deficient_neighborhood": ["x", "y", "z"]},
    ),
}


@pytest.mark.parametrize(
    "text,cert", FORGED_HALL_SETS.values(), ids=FORGED_HALL_SETS.keys()
)
def test_forged_hall_sets_of_non_elementary_rejected(text, cert):
    assert not revalidate_certificate(parse_edge_list(text), cert)


def test_tight_independent_set_needs_its_neighbourhood():
    # on P4, N({a}) = {b}: the genuine certificate holds, one naming {d}
    # as the neighbourhood is forged
    p4 = parse_edge_list("a b\nb c\nc d\n")
    cert = {"kind": "tight_independent_set", "independent_set": ["a"]}
    assert revalidate_certificate(p4, {**cert, "neighborhood": ["b"]})
    assert not revalidate_certificate(p4, {**cert, "neighborhood": ["d"]})
    assert not revalidate_certificate(p4, {**cert, "neighborhood": ["b", "b"]})


def test_hall_violator_needs_its_neighbourhood():
    # on K1,3, X = {x, y} has N(X) = {c}: naming c twice is no neighbourhood
    k13 = parse_edge_list("c x\nc y\nc z\n")
    cert = {
        "kind": "hall_violator",
        "independent_set": ["x", "y", "z"],
        "violator": ["x", "y"],
    }
    assert revalidate_certificate(k13, {**cert, "neighborhood": ["c"]})
    assert not revalidate_certificate(k13, {**cert, "neighborhood": ["c", "c"]})


def test_object_in_a_vertex_field_is_rejected():
    # a vertex field holds labels, never a nested object
    cert = {"kind": "vertex_in_no_min_cover", "vertex": {"label": "a"}}
    with pytest.raises(ValidationError):
        delabelize(P5, cert)
    assert revalidate_certificate(P5, cert) is False


def test_generate_corpus_counts():
    assert len(list(exhaustive_connected(4))) == 38
    assert len(fixtures()) == 10
    rnd = random_connected(8, 0.4, 12, 7)
    assert len(rnd) == 12
    rnd2 = random_connected(8, 0.4, 12, 7)
    assert [g.edges for g in rnd] == [g.edges for g in rnd2]  # seeded determinism


def test_exhaustive_corpus_refuses_large_n():
    with pytest.raises(PreconditionError):
        list(exhaustive_connected(8))


def test_fixture_names():
    assert set(fixtures()) == {
        "K2", "P3", "P4", "P5", "C4", "C5", "C6", "K1,3", "bowtie", "footnote",
    }


def test_json_outputs_validate_against_schema(graph_file, capsys):
    jsonschema = pytest.importorskip("jsonschema")
    from evckit.report import REPORT_SCHEMA

    f = graph_file("bow.edges", "a b\na x\nb x\nc d\nc x\nd x\n")
    commands = [
        ["mvc", f, "--json"],
        ["evc", f, "--json"],
        ["spartan", f, "--json"],
        ["konig", f, "--json"],
        ["certify", f, "--json"],
        ["aux", f, "--cover-s", "x,a,c", "--cover-t", "x,b,c", "--json"],
        ["mvc", f],  # pretty mode carries the timing block
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0, argv
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_back_to_back_calls_start_from_the_defaults(graph_file, capsys):
    # the parser is built once per process, so no option may carry over
    c5 = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, _, err = run_cli(capsys, ["evc", c5, "--budget", "0"])
    assert code == 1 and "refused" in err
    code, out, _ = run_cli(capsys, ["evc", c5, "--json"])
    assert code == 0 and json.loads(out)["result"]["evc"] == 3
    # C4 is Koenig, so the default method answers by Koenig's theorem
    c4 = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    code, out, _ = run_cli(capsys, ["spartan", c4, "--method", "fixpoint", "--json"])
    assert code == 0 and json.loads(out)["result"]["method"] == "fixpoint"
    code, out, _ = run_cli(capsys, ["spartan", c4, "--json"])
    assert code == 0 and json.loads(out)["result"]["method"] == "konig"


def test_negative_budget_is_an_input_error(graph_file, capsys):
    f = graph_file("c5.edges", "1 2\n2 3\n3 4\n4 5\n5 1\n")
    code, out, err = run_cli(capsys, ["evc", f, "--budget", "-1"])
    assert code == 2 and not out
    assert "input error: --budget must be at least 0" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--max-n", "-3", "--samples", "0", "--jobs", "1"], "--max-n"),
        (["--max-n", "0", "--samples", "-1", "--jobs", "1"], "--samples"),
        (["--max-n", "0", "--samples", "0", "--jobs", "0"], "--jobs"),
    ],
)
def test_selftest_out_of_range_options_are_input_errors(capsys, argv, flag):
    code, out, err = run_cli(capsys, ["selftest", *argv])
    assert code == 2 and not out
    assert f"input error: {flag} must be at least" in err


FIXTURE_COMMANDS = (
    ["spartan"],
    ["spartan", "--method", "fixpoint"],
    ["konig"],
    ["mvc"],
    ["evc"],
    ["certify"],
)
# the first 10 hex digits of the sha256 of each command's --json output on
# each fixture, commands in FIXTURE_COMMANDS order; a deliberate change of
# output updates them and says so in CHANGES.md
FIXTURE_DIGESTS = {
    "K2": "2d3e53b372 1b00b3b16c 34c6b5faff 9c90c964c2 cb2b08e792 ea5fadfa0f",
    "P3": "082d2c1800 a9dc6f13eb 5757490a2b fc3007bd8e 7326f2a926 f0747030df",
    "P4": "86296cfd61 06cc87676a f84346e5e9 c8a7e0cea2 d5b042d53f 6b1e765f8b",
    "P5": "b5b52214da 7a1022773d 3af1557112 c45eb953c1 999e778571 feab1a423e",
    "C4": "e506cb81f3 4866227e9b 075168d53e c3ef9c8412 6b49f8205a bfb6176908",
    "C5": "7f104520b9 7f104520b9 9dfd77eb50 04dde03c64 a09a38e10b 390f799745",
    "C6": "4583dccf23 b8eddac902 7cd79f6e08 0cd453e450 e23704be44 df142ec306",
    "K1,3": "63c3c5d24e 14e3c6f639 8e25c154fe 1c54e534dd 144434e220 321cb5540a",
    "bowtie": "d490ee73d5 d490ee73d5 c5b3c11458 0059e7f753 7389b2fee9 89e7ac3025",
    "footnote": "b362737cf6 37b0cc5760 99d993f8e2 0b4caf2f8a f1913cee41 776e46a318",
}


def test_fixture_json_outputs_are_pinned(graph_file, capsys):
    got = {}
    for name, g in fixtures().items():
        f = graph_file("fixture.edges", serialize_edge_list(g))
        digests = []
        for command in FIXTURE_COMMANDS:
            code, out, _ = run_cli(capsys, [command[0], f, *command[1:], "--json"])
            assert code == 0, (name, command)
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:10])
        got[name] = " ".join(digests)
    assert got == FIXTURE_DIGESTS


def _random_bipartite_union(rng):
    # one or two components, each a connected bipartite graph with 2-4
    # vertices on one side and as many or one more on the other, mostly
    # with a planted matching of the smaller side, plus random crossing
    # pairs; sparse ones are often not elementary
    pairs = []
    for comp in "pq"[: rng.randint(1, 2)]:
        h = rng.randint(2, 4)
        left = [f"{comp}a{i}" for i in range(h)]
        right = [f"{comp}b{i}" for i in range(h + (rng.random() < 0.3))]
        planted = list(zip(left, right)) if rng.random() < 0.8 else []
        p = rng.uniform(0.2, 0.8)
        while True:
            drawn = set(planted)
            drawn.update((a, b) for a in left for b in right if rng.random() < p)
            if drawn:
                g = Graph.from_pairs(sorted(drawn))
                if g.n == len(left) + len(right) and is_connected(g):
                    break
        pairs += sorted(drawn)
    return Graph.from_pairs(pairs)


def _pinned_corpus():
    # 24 seeded connected graphs on 8 vertices and 8 on 10 (among those, one
    # whose witnesses tell breadth-first discovery from a stack's order), 15
    # seeded bipartite graphs (several with a component that is not
    # elementary) and the windmill W4 (4 triangles on one hub, 16 minimum
    # covers, Spartan)
    out = {f"rand8/{i}": g for i, g in enumerate(random_connected(8, 0.4, 24, 1811))}
    out.update(
        (f"rand10/{i}", g)
        for i, g in enumerate(random_connected(10, 0.35, 8, 1814))
    )
    rng = random.Random(1812)
    out.update((f"bip/{i}", _random_bipartite_union(rng)) for i in range(15))
    blades = [(f"a{i}", f"b{i}") for i in range(4)]
    out["W4"] = Graph.from_pairs(
        pair for a, b in blades for pair in (("c", a), ("c", b), (a, b))
    )
    return out


# the first 10 hex digits of the sha256 of the spartan and konig --json
# outputs on each graph of _pinned_corpus: the exported moves of every
# defense witness and the tight and deficient sets of the Koenig route
CORPUS_DIGESTS = {
    "rand8/0": "9c55894017 1ae586940e",
    "rand8/1": "df3e5cc4a9 45d56ab30c",
    "rand8/2": "4231cca32e 5ce1c52abf",
    "rand8/3": "eeb212f3bc 3b3c1c944c",
    "rand8/4": "c8aaabd420 ee137b4ff0",
    "rand8/5": "d2c0caee91 fae6ef0fdc",
    "rand8/6": "e7cccb78c9 2eae352968",
    "rand8/7": "9458a84d89 25499fcf54",
    "rand8/8": "39a450f2bf 5da69afcd0",
    "rand8/9": "e0a10d033a e92ea1f4d0",
    "rand8/10": "e07a700d30 5bfc230f71",
    "rand8/11": "a3cfed7e51 8c0f0d1b78",
    "rand8/12": "9a6959fb4e 5bcaec50ca",
    "rand8/13": "fcea5f6d88 93eb174f21",
    "rand8/14": "3450cad66a 7a9ce47217",
    "rand8/15": "1268bef578 f0d31ee1b2",
    "rand8/16": "0b1a1b1440 d1bc34f709",
    "rand8/17": "e08c972000 de11593840",
    "rand8/18": "5bbb696baa a76e2fc225",
    "rand8/19": "1bcbe95f2f a04199a89a",
    "rand8/20": "ecc3287600 f2499c4444",
    "rand8/21": "6d6cb1cc22 1abd27804b",
    "rand8/22": "bd67cfbcae fb019d5b5c",
    "rand8/23": "6c326bb7ed 7e4b2514f0",
    "rand10/0": "f1bc852aaa c24cacc596",
    "rand10/1": "d83e3992ff 80986c4b58",
    "rand10/2": "883a4757eb f82dce07c9",
    "rand10/3": "35fccb2eb1 fd853f28e7",
    "rand10/4": "5828068a92 7a68350e3f",
    "rand10/5": "4e0c28342e 2d9df2e3e7",
    "rand10/6": "326bb8cef0 db579b8d4f",
    "rand10/7": "e04f9dbfc3 b18feb57fd",
    "bip/0": "36ad258411 de28798f2f",
    "bip/1": "b7b48a0ef1 49c0b474e7",
    "bip/2": "9e9181f779 494d0aa64f",
    "bip/3": "2dff997f9b dc9175a5d0",
    "bip/4": "b14206dcab a056a4eac0",
    "bip/5": "4c5be9f3aa dab29ce3f6",
    "bip/6": "fff5ceaffa f8de71850d",
    "bip/7": "4750f1b77f 799deb4edf",
    "bip/8": "7222c729dc 0556f5f131",
    "bip/9": "3d3e01d545 ab9f32b853",
    "bip/10": "bc6bbab722 6b38ff6f31",
    "bip/11": "ed274935c1 2122a65fb8",
    "bip/12": "28141aa147 c45724a90b",
    "bip/13": "170b3f071e 3ac66f7785",
    "bip/14": "0dc12f7b6a c0b0ea6ad4",
    "W4": "b3cef3a412 dd4f4a06f9",
}


def test_corpus_spartan_and_konig_outputs_are_pinned(graph_file, capsys):
    got = {}
    not_elementary = 0
    for name, g in _pinned_corpus().items():
        f = graph_file("corpus.edges", serialize_edge_list(g))
        digests = []
        for command in ("spartan", "konig"):
            code, out, _ = run_cli(capsys, [command, f, "--json"])
            assert code == 0, (name, command)
            digests.append(hashlib.sha256(out.encode()).hexdigest()[:10])
        got[name] = " ".join(digests)
        result = json.loads(out)["result"]
        not_elementary += result["bipartite"] and not result["essentially_elementary"]
    assert got == CORPUS_DIGESTS
    assert not_elementary >= 5


def _witness_heavy_corpus():
    # six seeded Spartan G(n, 0.8) graphs with n = 14-20 and the cycles C11,
    # C13 and C15: most of their exported transitions move a guard of the
    # shared part, so the forced chain is a helper chain through it
    out = {}
    for n, seed in ((14, 9), (15, 1), (16, 3), (17, 5), (18, 6), (20, 6)):
        (out[f"dense{n}"],) = random_connected(n, 0.8, 1, seed)
    for n in (11, 13, 15):
        out[f"C{n}"] = parse_edge_list(
            "".join(f"v{i} v{(i + 1) % n}\n" for i in range(n))
        )
    return out


# the first 10 hex digits of the sha256 of the spartan --json output on each
# graph of _witness_heavy_corpus
WITNESS_HEAVY_DIGESTS = {
    "dense14": "b1f80d60cc",
    "dense15": "3e6792a760",
    "dense16": "6ee058ee29",
    "dense17": "777e396758",
    "dense18": "767a0aca19",
    "dense20": "68dd580af7",
    "C11": "3d9cf85241",
    "C13": "b8cec0154a",
    "C15": "e0d32a59fc",
}


def test_witness_heavy_spartan_outputs_are_pinned(graph_file, capsys):
    got = {}
    for name, g in _witness_heavy_corpus().items():
        f = graph_file("witness.edges", serialize_edge_list(g))
        code, out, _ = run_cli(capsys, ["spartan", f, "--json"])
        assert code == 0 and json.loads(out)["result"]["spartan"], name
        got[name] = hashlib.sha256(out.encode()).hexdigest()[:10]
    assert got == WITNESS_HEAVY_DIGESTS


def _aux_corpus():
    # the fixtures, three seeded graphs on 8 vertices, two on 10, and the
    # windmill W4 (16 minimum covers)
    out = dict(fixtures())
    out.update((f"rand8/{i}", g) for i, g in enumerate(random_connected(8, 0.4, 3, 1818)))
    out.update(
        (f"rand10/{i}", g) for i, g in enumerate(random_connected(10, 0.35, 2, 1822))
    )
    out["W4"] = _pinned_corpus()["W4"]
    return out


# the first 10 hex digits of the sha256 of the aux --json outputs on every
# ordered pair of distinct minimum covers of each graph of _aux_corpus, in
# cover order, joined
AUX_DIGESTS = {
    "K2": "aab602f228",
    "P3": "e3b0c44298",
    "P4": "2e380baedf",
    "P5": "e3b0c44298",
    "C4": "6b9e9d256a",
    "C5": "66414cf365",
    "C6": "94f702f8e8",
    "K1,3": "e3b0c44298",
    "bowtie": "2da4c6296e",
    "footnote": "e3b0c44298",
    "rand8/0": "ab6c4a19a3",
    "rand8/1": "7ad64acbd0",
    "rand8/2": "40f1adabcf",
    "rand10/0": "13dd0ad239",
    "rand10/1": "d53ab4b231",
    "W4": "d205bd1740",
}


def _aux_digests(graph_file, capsys):
    from evckit.covers import enumerate_min_vcs

    got = {}
    for name, g in _aux_corpus().items():
        f = graph_file("aux.edges", serialize_edge_list(g))
        covers = [",".join(g.labels_of(c)) for c in enumerate_min_vcs(g).covers]
        outs = []
        for s in covers:
            for t in covers:
                if s != t:
                    code, out, _ = run_cli(
                        capsys, ["aux", f, "--cover-s", s, "--cover-t", t, "--json"]
                    )
                    assert code == 0, (name, s, t)
                    outs.append(out)
        got[name] = hashlib.sha256("".join(outs).encode()).hexdigest()[:10]
    return got


def test_aux_json_outputs_are_pinned(graph_file, capsys):
    assert _aux_digests(graph_file, capsys) == AUX_DIGESTS


def test_python_dash_m_runs_the_cli(graph_file):
    import evckit

    f = graph_file("c4.edges", "a b\nb c\nc d\nd a\n")
    # run from the source tree, with no installed script
    src = os.path.dirname(os.path.dirname(os.path.abspath(evckit.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "evckit", "mvc", f, "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["result"]["size"] == 2
    bad = subprocess.run(
        [sys.executable, "-m", "evckit", "mvc", f + ".missing"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert bad.returncode == 2 and "input error" in bad.stderr


@pytest.mark.parametrize("command", [
    ["mvc", "c4.edges", "--json"],
    ["selftest", "--max-n", "2", "--samples", "0", "--jobs", "1"],
    ["play", "c4.edges", "--guards", "2"],
])
def test_closed_stdout_ends_quietly(graph_file, command):
    import evckit

    text = "a b\nb c\nc d\nd a\n"
    argv = [graph_file(a, text) if a.endswith(".edges") else a for a in command]
    src = os.path.dirname(os.path.dirname(os.path.abspath(evckit.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "evckit", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    # the reader leaves before the first write
    proc.stdout.close()
    _, err = proc.communicate(b"attack a b\nquit\n", timeout=60)
    assert proc.returncode == 0 and err == b""


# the selftest's report on every connected graph up to 5 vertices plus 20
# seeded samples; criterion 6 counts the fixpoint's questions that are
# cross-checked, so an unchanged count shows the same questions are asked
SELFTEST_LINES = [
    "criterion 1 [PASS] characterization equivalence (decider vs game oracle):"
    " 821 graphs, 0 mismatches",
    "criterion 2 [PASS] Koenig characterization (bipartite + essentially"
    " elementary): 424 Koenig graphs, 0 mismatches",
    "criterion 3 [PASS] minimum-cover pairs joined by a direct perfect matching:"
    " 2427 pairs, 0 failures",
    "criterion 4 [PASS] necessary-condition battery on oracle-confirmed graphs:"
    " 214 graphs confirmed by the game oracle, 0 battery failures",
    "criterion 5 [PASS] strongly good implies weakly good; covers missing a cut"
    " vertex are not weakly good: 2041 covers, 0 implication violations,"
    " 0 cut-vertex violations",
    "criterion 6 [PASS] rainbow reducer agrees with exhaustive matching"
    " enumeration: 6518 instances, 0 mismatches",
    "criterion 7 [PASS] fixed solver values on the named graphs: 7 fixed checks",
    "criterion 8 [PASS] defense replays are legal moves crossing the attacked"
    " edge: 214 families + scripted sessions, 0 replay failures",
    "selftest: PASS (821 corpus graphs, seed 20240)",
]


def test_selftest_report_is_pinned():
    from evckit.selftest import run_selftest

    report = run_selftest(max_n=5, samples=20, seed=20240, jobs=1)
    assert report.lines() == SELFTEST_LINES


def test_selftest_verbose_prints_cpu_seconds_per_criterion(capsys):
    from evckit.selftest import run_selftest

    argv = ["selftest", "--max-n", "3", "--samples", "0", "--jobs", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    code, verbose_out, err = run_cli(capsys, [*argv, "--verbose"])
    # stdout keeps the report's lines; the CPU seconds follow on stderr
    assert code == 0 and verbose_out == out
    assert out.splitlines() == run_selftest(max_n=3, samples=0, jobs=1).lines()
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"criterion {n}" for n in range(1, 9)
    ]
    for line in lines:
        seconds, unit = line.split(": ")[1].split(" ", 1)
        assert float(seconds) >= 0 and unit == "s CPU", line


def test_one_job_selftest_leaves_multiprocessing_unimported():
    import evckit

    src = os.path.dirname(os.path.dirname(os.path.abspath(evckit.__file__)))
    code = (
        "import sys\n"
        "from evckit.selftest import run_selftest\n"
        "run_selftest(max_n=3, samples=0, jobs=1)\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_two_job_selftest_prints_the_one_job_lines():
    from evckit.selftest import run_selftest

    one = run_selftest(max_n=4, samples=3, seed=7, jobs=1)
    two = run_selftest(max_n=4, samples=3, seed=7, jobs=2)
    assert two.lines() == one.lines()
    assert sorted(two.cpu_s) == sorted(one.cpu_s) == list(range(1, 9))
