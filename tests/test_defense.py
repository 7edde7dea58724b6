import itertools

import pytest

from evckit.covers import enumerate_min_vcs
from evckit.defense import (
    REAL,
    Defense,
    DefenseContext,
    DefenseFailure,
    DefenseStats,
    all_real_pm,
    build_aux,
    check_defense,
    enumerate_tagged_pms,
    matching_to_paths,
    rainbow_pm_bruteforce,
    rainbow_pm_with_edge,
)
from evckit.errors import IntegrityError, PreconditionError

from conftest import random_graph_corpus


def test_build_aux_bowtie(named):
    bow = named["bowtie"]
    aux = build_aux(bow, bow.index_set(["x", "a", "c"]), bow.index_set(["x", "b", "c"]))
    assert bow.labels_of(aux.left) == ("a",)
    assert bow.labels_of(aux.right) == ("b",)
    assert [set(bow.labels_of(c)) for c in aux.colors] == [{"x", "c"}]
    assert {(bow.labels[u], bow.labels[v]) for u, v in aux.real_pairs} == {("a", "b")}
    assert [(bow.labels[u], bow.labels[v], c) for u, v, c in aux.helper_pairs] == [
        ("a", "b", 0)
    ]
    assert bow.labels_of(aux.dead_zone) == ("d",)


def test_build_aux_c4(named):
    c4 = named["C4"]
    aux = build_aux(c4, (0, 2), (1, 3))
    assert aux.colors == ()
    assert len(aux.real_pairs) == 4
    assert aux.helper_pairs == ()
    assert aux.dead_zone == ()


def test_build_aux_c5(named):
    # shared part {3,5} splits into two singleton colors; neither endpoint of
    # the lone crossing edge touches both, so no helper edge appears
    c5 = named["C5"]
    aux = build_aux(c5, c5.index_set("135"), c5.index_set("235"))
    assert c5.labels_of(aux.left) == ("1",)
    assert c5.labels_of(aux.right) == ("2",)
    assert [c5.labels_of(c) for c in aux.colors] == [("3",), ("5",)]
    assert {(c5.labels[u], c5.labels[v]) for u, v in aux.real_pairs} == {("1", "2")}
    assert aux.helper_pairs == ()


def test_build_aux_validates(named):
    c4 = named["C4"]
    with pytest.raises(PreconditionError):
        build_aux(c4, (0, 2), (1, 2, 3))  # unequal sizes
    with pytest.raises(PreconditionError):
        build_aux(c4, (0, 1), (1, 3))  # {a,b} misses edge cd


def test_all_real_pm_examples(named):
    c4 = named["C4"]
    aux = build_aux(c4, (0, 2), (1, 3))
    assert all_real_pm(aux) == {0: 1, 2: 3}
    bow = named["bowtie"]
    auxb = build_aux(bow, bow.index_set(["x", "a", "c"]), bow.index_set(["x", "b", "c"]))
    assert all_real_pm(auxb) == {bow.index("a"): bow.index("b")}


def test_all_real_pm_integrity_error(named):
    # covers of unequal quality: {a,b,c} and {b,c,d}? use non-minimum covers
    # with an empty real side to trip the integrity check
    p4 = named["P4"]
    aux = build_aux(p4, p4.index_set(["a", "b", "c"]), p4.index_set(["b", "c", "d"]))
    # left {a}, right {d}: a-d is not an edge, so no real matching exists
    with pytest.raises(IntegrityError):
        all_real_pm(aux)


def test_rainbow_forced_real_c4(named):
    c4 = named["C4"]
    aux = build_aux(c4, (0, 2), (1, 3))
    rm = rainbow_pm_with_edge(aux, forced_real=(0, 1))
    assert rm.edges == ((0, 1, REAL), (2, 3, REAL))
    ps = matching_to_paths(c4, aux, rm)
    assert ps.paths == ((0, 1), (2, 3))


def test_rainbow_partner_mode_bowtie(named):
    bow = named["bowtie"]
    aux = build_aux(bow, bow.index_set(["x", "a", "c"]), bow.index_set(["x", "b", "c"]))
    rm = rainbow_pm_with_edge(aux, partner_adjacent=(bow.index("b"), 0))
    assert rm.forced == (bow.index("a"), bow.index("b"), 0)
    ps = matching_to_paths(bow, aux, rm, via={(bow.index("a"), bow.index("b")): bow.index("x")})
    assert [bow.labels_of(p) for p in ps.paths] == [("a", "x", "b")]


def test_rainbow_mode_arguments(named):
    aux = build_aux(named["C4"], (0, 2), (1, 3))
    with pytest.raises(PreconditionError):
        rainbow_pm_with_edge(aux)
    with pytest.raises(PreconditionError):
        rainbow_pm_with_edge(aux, forced_real=(0, 1), partner_adjacent=(1, 0))


def test_rainbow_against_bruteforce_on_cover_pairs():
    # every (S, T, forced real edge) arising from minimum-cover pairs of a
    # random corpus: the reducer succeeds exactly when enumeration finds a
    # mode-satisfying perfect matching, and rainbow witnesses stay rainbow
    instances = 0
    for g in random_graph_corpus(60, 3, 7, seed=111):
        cs = enumerate_min_vcs(g)
        for s, t in itertools.islice(itertools.combinations(cs.covers, 2), 6):
            aux = build_aux(g, s, t)
            if aux.side_size == 0:
                continue
            for u, v in sorted(aux.real_pairs):
                rm = rainbow_pm_with_edge(aux, forced_real=(u, v))
                any_mode, any_rainbow = rainbow_pm_bruteforce(aux, forced_real=(u, v))
                assert (rm is not None) == any_mode, (g.edges, s, t, (u, v))
                if rm is not None:
                    assert any_rainbow
                instances += 1
    assert instances > 100


def test_rainbow_partner_against_bruteforce():
    instances = 0
    for g in random_graph_corpus(60, 3, 7, seed=113):
        cs = enumerate_min_vcs(g)
        for s, t in itertools.islice(itertools.combinations(cs.covers, 2), 6):
            aux = build_aux(g, s, t)
            if aux.side_size == 0 or not aux.colors:
                continue
            for color, comp in enumerate(aux.colors):
                from evckit.graph import mask_of

                cmask = mask_of(comp)
                for v in aux.right:
                    if not g.adj_mask[v] & cmask:
                        continue
                    rm = rainbow_pm_with_edge(aux, partner_adjacent=(v, color))
                    any_mode, _ = rainbow_pm_bruteforce(
                        aux, partner_adjacent=(v, color)
                    )
                    assert (rm is not None) == any_mode, (g.edges, s, t, v, color)
                    instances += 1
    assert instances > 30


def test_tagged_pm_enumeration_counts(named):
    bow = named["bowtie"]
    aux = build_aux(bow, bow.index_set(["x", "a", "c"]), bow.index_set(["x", "b", "c"]))
    pms = list(enumerate_tagged_pms(aux))
    # single pair a-b realizable as the real edge or the color-0 helper
    assert sorted(pms) == [
        (((bow.index("a"), bow.index("b"), REAL)),),
        (((bow.index("a"), bow.index("b"), 0)),),
    ]


def test_check_defense_c4(named):
    c4 = named["C4"]
    cs = enumerate_min_vcs(c4)
    d = check_defense(c4, (0, 2), (0, 1), cs.covers)
    assert isinstance(d, Defense)
    assert d.target == (1, 3) and d.condition == 1
    assert d.paths.paths == ((0, 1), (2, 3))


def test_check_defense_bowtie_chain(named):
    bow = named["bowtie"]
    cs = enumerate_min_vcs(bow)
    s = bow.index_set(["x", "a", "c"])
    d = check_defense(bow, s, (bow.index("x"), bow.index("b")), cs.covers)
    assert isinstance(d, Defense)
    assert d.condition == 2
    assert set(bow.labels_of(d.target)) == {"x", "b", "c"}
    assert [bow.labels_of(p) for p in d.paths.paths] == [("a", "x", "b")]


def test_check_defense_p5_failure(named):
    p5 = named["P5"]
    cs = enumerate_min_vcs(p5)
    d = check_defense(p5, p5.index_set(["b", "d"]), (0, 1), cs.covers)
    assert isinstance(d, DefenseFailure)
    assert d.reasons  # the lone candidate lacks the attacked endpoint


def test_check_defense_validates_attack(named):
    c4 = named["C4"]
    with pytest.raises(PreconditionError):
        check_defense(c4, (0, 2), (0, 2), enumerate_min_vcs(c4).covers)


def test_defense_stats_instrumentation(named):
    stats = DefenseStats()
    ctx = DefenseContext(named["C4"], stats=stats)
    cs = enumerate_min_vcs(named["C4"])
    check_defense(named["C4"], (0, 2), (0, 1), cs.covers, ctx)
    assert stats.instances >= 1 and stats.mismatches == 0


def test_paths_never_touch_dead_zone():
    for g in random_graph_corpus(40, 3, 7, seed=127):
        cs = enumerate_min_vcs(g)
        ctx = DefenseContext(g)
        for s in cs.covers[:4]:
            sset = set(s)
            for a, b in g.edges:
                if (a in sset) == (b in sset):
                    continue
                d = check_defense(g, s, (a, b) if a in sset else (b, a), cs.covers, ctx)
                if isinstance(d, Defense):
                    dead = set(d.paths.allowed_interior) | set(s) | set(d.target)
                    for p in d.paths.paths:
                        assert set(p) <= set(s) | set(d.target), (g.edges, s, p)


def test_helper_edges_match_their_definition():
    # recompute pseudo-adjacency from scratch: (u, v, i) is a helper edge
    # exactly when both endpoints have a neighbor inside color component i
    from evckit.graph import mask_of

    for g in random_graph_corpus(40, 3, 8, seed=167):
        cs = enumerate_min_vcs(g)
        for s, t in itertools.islice(itertools.combinations(cs.covers, 2), 4):
            aux = build_aux(g, s, t)
            have = set(aux.helper_pairs)
            for ci, comp in enumerate(aux.colors):
                cm = mask_of(comp)
                for u in aux.left:
                    for v in aux.right:
                        expected = bool(g.adj_mask[u] & cm) and bool(
                            g.adj_mask[v] & cm
                        )
                        assert ((u, v, ci) in have) == expected, (g.edges, s, t)


def test_exchange_reduction_branches_fire():
    # seeded stress on graphs large enough that the reduction must rewire;
    # both the generic and the protected-color exchange paths must execute
    import random

    import evckit.defense as defense_mod
    from evckit.graph import Graph, is_connected, mask_of

    fired = {"generic": 0, "protected": 0}
    original = defense_mod._exchange_on_cycle

    def spy(aux, matched, order, positions, color):
        fired["protected" if positions[0] == 0 else "generic"] += 1
        return original(aux, matched, order, positions, color)

    labels = tuple("abcdefghijkl")
    rng = random.Random(5150)

    def rand_graph(n, p):
        while True:
            edges = tuple(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            )
            g = Graph(labels[:n], edges)
            if is_connected(g) and not g.isolated_vertices():
                return g

    defense_mod._exchange_on_cycle = spy
    try:
        trials = 0
        while (not fired["generic"] or not fired["protected"]) and trials < 2500:
            trials += 1
            g = rand_graph(rng.choice([9, 10, 11, 12]), rng.uniform(0.18, 0.4))
            cs = enumerate_min_vcs(g, cap=300)
            for i, j in itertools.islice(
                itertools.combinations(range(len(cs.covers)), 2), 6
            ):
                aux = build_aux(g, cs.covers[i], cs.covers[j])
                if aux.side_size == 0 or aux.side_size > 6 or not aux.helper_pairs:
                    continue
                for u, v in sorted(aux.real_pairs):
                    rainbow_pm_with_edge(aux, forced_real=(u, v))
                for color, comp in enumerate(aux.colors):
                    cm = mask_of(comp)
                    for v in aux.right:
                        if g.adj_mask[v] & cm:
                            rainbow_pm_with_edge(aux, partner_adjacent=(v, color))
    finally:
        defense_mod._exchange_on_cycle = original
    assert fired["generic"] > 0 and fired["protected"] > 0, fired


def _min_cover_pairs(count, seed):
    # every ordered pair of minimum covers of small seeded random graphs
    for g in random_graph_corpus(count, 4, 9, seed=seed):
        covers = enumerate_min_vcs(g).covers
        yield g, covers, [(s, t) for s in covers for t in covers]


def test_cached_aux_views_match_their_definitions():
    from evckit.graph import bits, mask_of
    from evckit.matching import hopcroft_karp

    pairs = 0
    for g, _, cover_pairs in _min_cover_pairs(80, 181):
        for s, t in cover_pairs:
            aux = build_aux(g, s, t)
            real_adj = {
                u: tuple(sorted(v for a, v in aux.real_pairs if a == u))
                for u in aux.left
            }
            real_pm = hopcroft_karp(list(aux.left), real_adj)
            assert aux.real_pm == real_pm == all_real_pm(aux)
            assert aux.real_pm_reverse == {v: u for u, v in aux.real_pm.items()}
            for u in aux.left:
                assert aux.pair_adjacency[u] == tuple(
                    v
                    for v in aux.right
                    if (u, v) in aux.real_pairs
                    or any(a == u and b == v for a, b, _ in aux.helper_pairs)
                )
                for v in aux.right:
                    assert aux.helper_colors(u, v) == tuple(
                        c for a, b, c in aux.helper_pairs if a == u and b == v
                    )
            assert aux.color_masks == tuple(mask_of(c) for c in aux.colors)
            assert aux.shared == tuple(bits(mask_of(s) & mask_of(t)))
            pairs += 1
    assert pairs > 1000


def _oriented_checks(g, covers):
    # (s, attack, t): every oriented attack on s posed to every single cover
    from evckit.fixpoint import oriented_attacks
    from evckit.graph import mask_of

    for s in covers:
        for attack in oriented_attacks(g, mask_of(s)):
            for t in covers:
                yield s, attack, t


def test_shared_context_gives_fresh_context_answers():
    checks = defenses = 0
    for g, covers, _ in _min_cover_pairs(80, 191):
        ctx = DefenseContext(g)
        for s, attack, t in _oriented_checks(g, covers):
            shared = check_defense(g, s, attack, (t,), ctx)
            fresh = check_defense(g, s, attack, (t,), DefenseContext(g))
            assert shared == fresh, (g.edges, s, attack, t)
            checks += 1
            defenses += isinstance(shared, Defense)
    assert checks > 5000 and 0 < defenses < checks


def test_reducer_instance_computed_once_per_context(monkeypatch):
    import evckit.defense as defense_mod

    calls = []
    original = defense_mod.rainbow_pm_with_edge

    def recording(aux, **mode):
        calls.append((aux.cover_s, aux.cover_t, tuple(mode.items())))
        return original(aux, **mode)

    monkeypatch.setattr(defense_mod, "rainbow_pm_with_edge", recording)
    asked = computed = 0
    for g, covers, _ in _min_cover_pairs(80, 193):
        ctx = DefenseContext(g, stats=DefenseStats())
        calls.clear()
        for s, attack, t in _oriented_checks(g, covers):
            check_defense(g, s, attack, (t,), ctx)
        assert len(calls) == len(set(calls)), g.edges
        # every candidate check still reaches the stats, memo hit or not
        assert ctx.stats.mismatches == 0
        asked += ctx.stats.instances
        computed += len(calls)
    assert asked > computed > 3000
