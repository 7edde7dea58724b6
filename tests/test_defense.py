import itertools
import random
from collections import Counter

import pytest

from evckit.covers import enumerate_min_vcs
from evckit.defense import (
    REAL,
    Defense,
    DefenseContext,
    DefenseStats,
    VERIFY_SIDES_CAP,
    _chain_tree,
    _read_chain,
    _validate_defense_paths,
    all_real_pm,
    build_aux,
    check_defense,
    matching_to_paths,
    rainbow_pm_bruteforce,
    rainbow_pm_with_edge,
)
from evckit.errors import IntegrityError, PreconditionError
from evckit.fixpoint import oriented_attacks
from evckit.graph import Graph, bits, mask_of

from conftest import (
    enumerate_tagged_pms,
    random_graph_corpus,
    reference_rainbow_bruteforce,
)


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
    # each call names the first failing cover, s before t; a cover that
    # fails is not kept among the checked ones, so it fails again
    for _ in range(2):
        with pytest.raises(PreconditionError, match="cover s misses edge c d"):
            build_aux(c4, (0, 1), (1, 3))  # {a,b} misses edge cd
        with pytest.raises(PreconditionError, match="cover t misses edge c d"):
            build_aux(c4, (1, 3), (0, 1))


def test_an_edge_inside_a_side_fails_a_cover_check(named):
    # an edge inside S - T has neither end in T, and one inside T - S has
    # neither end in S, so a cover check names it, also when the other
    # cover passed an earlier call's check
    p4 = named["P4"]  # a-b-c-d
    bc, ad = p4.index_set("bc"), p4.index_set("ad")
    build_aux(p4, bc, bc)
    with pytest.raises(PreconditionError, match="cover t misses edge b c"):
        build_aux(p4, bc, ad)  # b c inside S - T
    with pytest.raises(PreconditionError, match="cover s misses edge b c"):
        build_aux(p4, ad, bc)  # b c inside T - S
    # every equal-size pair of vertex sets either fails a cover check or
    # has independent sides
    for g in random_graph_corpus(10, 4, 6, seed=263):
        subsets = range(1 << g.n)
        for sm in subsets:
            for tm in subsets:
                if sm.bit_count() != tm.bit_count():
                    continue
                try:
                    aux = build_aux(g, tuple(bits(sm)), tuple(bits(tm)))
                except PreconditionError as exc:
                    assert "misses edge" in str(exc)
                    continue
                for side in (aux.left_mask, aux.right_mask):
                    assert all(not g.adj_mask[v] & side for v in bits(side))


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
    rm = rainbow_pm_with_edge(aux, 0, 1)
    assert rm.edges == ((0, 1, REAL), (2, 3, REAL))
    assert rm.forced == (0, 1, REAL)
    assert matching_to_paths(aux, rm, 0) == ((0, 1), (2, 3))


def test_rainbow_partner_mode_bowtie(named):
    # the guard on x keeps its post: b is matched to a by x's color, and the
    # chain from a is pinned through x
    bow = named["bowtie"]
    aux = build_aux(bow, bow.index_set(["x", "a", "c"]), bow.index_set(["x", "b", "c"]))
    rm = rainbow_pm_with_edge(aux, bow.index("x"), bow.index("b"))
    assert rm.forced == (bow.index("a"), bow.index("b"), 0)
    ps = matching_to_paths(aux, rm, bow.index("x"))
    assert [bow.labels_of(p) for p in ps] == [("a", "x", "b")]


def _invalid_attacks(named):
    # (aux, u, v, error, message): one per way an attack can fail to pose a
    # question; the bowtie's covers {x, a, c} and {x, b, c} differ in a -> b
    bow = named["bowtie"]
    s, t = bow.index_set(["x", "a", "c"]), bow.index_set(["x", "b", "c"])
    aux = build_aux(bow, s, t)
    x, b, c, d = (bow.index(lab) for lab in "xbcd")
    p4 = named["P4"]
    wide = build_aux(p4, p4.index_set("abc"), p4.index_set("bcd"))
    return [
        (aux, b, x, PreconditionError, "guard must stand on S"),
        (aux, x, d, PreconditionError, "must lie in T - S"),
        (aux, c, b, PreconditionError, "must be an edge"),
        (build_aux(bow, s, s), x, b, PreconditionError, "must lie in T - S"),
        (wide, p4.index("c"), p4.index("d"), IntegrityError, "not both minimum"),
    ]


def test_rainbow_mode_arguments(named):
    # a guard off S, a target off T - S, a non-edge, empty sides (S = T) and
    # covers that are not both minimum are each refused, by the reducer and
    # by brute force alike
    for aux, u, v, error, message in _invalid_attacks(named):
        with pytest.raises(error, match=message):
            rainbow_pm_with_edge(aux, u, v)
        with pytest.raises(error, match=message):
            rainbow_pm_bruteforce(aux, u, v)


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
                rm = rainbow_pm_with_edge(aux, u, v)
                any_mode, any_rainbow = rainbow_pm_bruteforce(aux, u, v)
                assert (rm is not None) == any_mode, (g.edges, s, t, (u, v))
                if rm is not None:
                    assert any_rainbow
                instances += 1
    assert instances > 100


def test_rainbow_partner_against_bruteforce():
    # every (right vertex, adjacent shared component) pair, asked as the
    # attack from the component's first guard next to the right vertex
    instances = 0
    for g in random_graph_corpus(60, 3, 7, seed=113):
        cs = enumerate_min_vcs(g)
        for s, t in itertools.islice(itertools.combinations(cs.covers, 2), 6):
            aux = build_aux(g, s, t)
            if aux.side_size == 0 or not aux.colors:
                continue
            for u, v in _shared_attacks(aux):
                rm = rainbow_pm_with_edge(aux, u, v)
                any_mode, _ = rainbow_pm_bruteforce(aux, u, v)
                assert (rm is not None) == any_mode, (g.edges, s, t, u, v)
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


def test_bruteforce_search_matches_the_reference_enumeration(monkeypatch):
    # every (minimum-cover pair, attack) of 80 seeded graphs: the search
    # returns the pair that listing every tag product of every perfect
    # matching returns.  With an all-real matching, a match always has a
    # rainbow one (the witness's shortest cycle), so a match with no rainbow
    # tag choice shows per matching tested: each test is checked against
    # the tag products of the matching's helper-only pairs
    import evckit.defense as defense_mod

    original = defense_mod._distinct_colors
    tested = []

    def checked(choices):
        got = original(choices)
        want = any(len(set(p)) == len(p) for p in itertools.product(*choices))
        assert got == want, choices
        tested.append(got)
        return got

    monkeypatch.setattr(defense_mod, "_distinct_colors", checked)
    outcomes = Counter()
    for g, _, cover_pairs in _min_cover_pairs(80, 191, 4, 10):
        for s, t in cover_pairs:
            aux = build_aux(g, s, t)
            if not 0 < aux.side_size <= VERIFY_SIDES_CAP:
                continue
            for u in s:
                for v in bits(g.adj_mask[u] & aux.right_mask):
                    got = rainbow_pm_bruteforce(aux, u, v)
                    want = reference_rainbow_bruteforce(aux, u, v)
                    assert got == want, (g.edges, s, t, u, v)
                    outcomes[got] += 1
    assert outcomes[(True, True)] > 0 and outcomes[(False, False)] > 0
    assert tested.count(False) > 0, Counter(tested)


def test_check_defense_c4(named):
    c4 = named["C4"]
    cs = enumerate_min_vcs(c4)
    d = check_defense(c4, (0, 2), (0, 1), cs.covers)
    assert isinstance(d, Defense)
    assert d.target == (1, 3)
    assert d.paths == ((0, 1), (2, 3))


def test_check_defense_bowtie_chain(named):
    bow = named["bowtie"]
    cs = enumerate_min_vcs(bow)
    s = bow.index_set(["x", "a", "c"])
    d = check_defense(bow, s, (bow.index("x"), bow.index("b")), cs.covers)
    assert isinstance(d, Defense)
    assert set(bow.labels_of(d.target)) == {"x", "b", "c"}
    assert [bow.labels_of(p) for p in d.paths] == [("a", "x", "b")]


def test_check_defense_p5_failure(named):
    p5 = named["P5"]
    cs = enumerate_min_vcs(p5)
    # the lone candidate lacks the attacked endpoint
    assert check_defense(p5, p5.index_set(["b", "d"]), (0, 1), cs.covers) is None


def test_check_defense_validates_attack(named):
    c4 = named["C4"]
    with pytest.raises(PreconditionError):
        check_defense(c4, (0, 2), (0, 2), enumerate_min_vcs(c4).covers)


def test_defense_stats_instrumentation(named):
    # stats are taken at the yes/no ask; the witness records nothing
    stats = DefenseStats()
    ctx = DefenseContext(named["C4"], stats=stats)
    cs = enumerate_min_vcs(named["C4"])
    asked = [t for t in cs.covers if ctx.defends((0, 2), (0, 1), t)]
    assert stats.instances >= 1 and stats.mismatches == 0 and asked
    before = stats.instances
    check_defense(named["C4"], (0, 2), (0, 1), cs.covers, ctx)
    assert stats.instances == before


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
                    for p in d.paths:
                        assert set(p) <= set(s) | set(d.target), (g.edges, s, p)


def test_defense_paths_cross_the_attacked_edge():
    # the guard on u steps onto v, even when u keeps its post in the shared
    # part and its chain is pinned through u
    shared = 0
    for g in random_graph_corpus(60, 4, 9, seed=229):
        cs = enumerate_min_vcs(g)
        ctx = DefenseContext(g)
        for s in cs.covers:
            for u, v in oriented_attacks(g, mask_of(s)):
                d = check_defense(g, s, (u, v), cs.covers, ctx)
                if d is None:
                    continue
                steps = {step for p in d.paths for step in zip(p, p[1:])}
                assert (u, v) in steps, (g.edges, s, (u, v), d.paths)
                shared += u in d.target
    assert shared > 100


def test_helper_edges_match_their_definition():
    # recompute pseudo-adjacency from scratch: (u, v, i) is a helper edge
    # exactly when both endpoints have a neighbor inside color component i
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


def test_shortest_cycle_witness_on_larger_cover_pairs():
    # seeded cover pairs with helper pairs, large enough for long alternating
    # cycles: a witness exactly when the yes/no answer says yes, and its chains
    # move the guard on u onto v
    from evckit.graph import is_connected

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

    # flipped: a witness with a helper pair on its alternating path
    asked = witnessed = flipped = shared = 0
    for _ in range(120):
        g = rand_graph(rng.choice([9, 10, 11, 12]), rng.uniform(0.18, 0.4))
        cs = enumerate_min_vcs(g, cap=300)
        ctx = DefenseContext(g)
        for i, j in itertools.islice(
            itertools.combinations(range(len(cs.covers)), 2), 6
        ):
            aux = build_aux(g, cs.covers[i], cs.covers[j])
            if aux.side_size == 0 or aux.side_size > 6 or not aux.helper_pairs:
                continue
            for u, v in _all_attacks(aux):
                rm = rainbow_pm_with_edge(aux, u, v)
                where = (g.edges, aux.cover_s, aux.cover_t, u, v)
                assert (rm is not None) == ctx.defends(
                    aux.cover_s, (u, v), aux.cover_t
                ), where
                asked += 1
                if rm is None:
                    continue
                paths = matching_to_paths(aux, rm, u)
                assert any(p[-2:] == (u, v) for p in paths), where
                witnessed += 1
                flipped += any(e[2] != REAL for e in rm.edges if e != rm.forced)
                shared += u not in aux.left
    assert 0 < witnessed < asked and flipped > 100 and shared > 100, (
        asked, witnessed, flipped, shared
    )


def _shared_attacks(aux):
    # one attack per (right vertex, adjacent shared component): from the
    # smallest guard of the component next to the right vertex
    for cmask in aux.color_masks:
        for v in aux.right:
            guards = aux.graph.adj_mask[v] & cmask
            if guards:
                yield (guards & -guards).bit_length() - 1, v


def _min_cover_pairs(count, seed, n_lo=4, n_hi=9):
    # every ordered pair of minimum covers of small seeded random graphs
    for g in random_graph_corpus(count, n_lo, n_hi, seed=seed):
        covers = enumerate_min_vcs(g).covers
        yield g, covers, [(s, t) for s in covers for t in covers]


def test_cached_aux_views_match_their_definitions():
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
            for side, touching in ((aux.left, aux.color_left), (aux.right, aux.color_right)):
                assert touching == tuple(
                    mask_of(w for w in side if g.adj_mask[w] & mask_of(c))
                    for c in aux.colors
                )
            pairs += 1
    assert pairs > 1000


def _oriented_checks(g, covers):
    # (s, attack, t): every oriented attack on s posed to every single cover
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

    def recording(aux, u, v):
        calls.append((aux.cover_s, aux.cover_t, defense_mod._question(aux, u, v)))
        return original(aux, u, v)

    monkeypatch.setattr(defense_mod, "rainbow_pm_with_edge", recording)
    asked = computed = 0
    for g, covers, _ in _min_cover_pairs(80, 193):
        ctx = DefenseContext(g, stats=DefenseStats())
        calls.clear()
        questions = set()
        for s, attack, t in _oriented_checks(g, covers):
            # the stats of the ask and the witness read one entry
            answer = ctx.defends(s, attack, t)
            found = check_defense(g, s, attack, (t,), ctx)
            assert answer == (found is not None), (g.edges, s, attack, t)
            if attack[1] in t:
                aux = ctx.aux_for(s, t)
                questions.add((s, t, defense_mod._question(aux, *attack)))
        assert len(calls) == len(set(calls)), g.edges
        assert set(calls) == questions, g.edges
        # every ask that poses a question reaches the stats, memo hit or not
        assert ctx.stats.mismatches == 0
        asked += ctx.stats.instances
        computed += len(calls)
    assert asked > computed > 3000


def _bfs_by_lists(g, cmask, sources_mask, targets_mask):
    # reference search on sorted vertex lists: the first target of the first
    # layer holding one, each vertex reached from its smallest predecessor
    prev = {s: None for s in range(g.n) if (sources_mask & cmask) >> s & 1}
    frontier = sorted(prev)
    targets_mask &= cmask
    while frontier and targets_mask:
        for v in frontier:
            if targets_mask >> v & 1:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return tuple(reversed(path))
        nxt = []
        for v in frontier:
            for w in g.adjacency[v]:
                if cmask >> w & 1 and w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = sorted(nxt)
    return None


def test_bfs_inside_matches_list_search():
    rng = random.Random(17)
    for g in random_graph_corpus(60, 4, 10, seed=223):
        for _ in range(20):
            cmask = rng.getrandbits(g.n) | 1
            a, b = rng.getrandbits(g.n), rng.getrandbits(g.n)
            assert _read_chain(_chain_tree(g, cmask, a), b) == _bfs_by_lists(g, cmask, a, b)


@pytest.mark.parametrize(
    "paths, message",
    [
        (((0, 2),), "non-edge"),
        (((0, 1), (1, 2)), "vertex-disjoint"),
        (((2, 3),), "dead zone"),
    ],
)
def test_defense_path_validation_rejects(paths, message):
    # path a-b-c-d with covers {a, c} and {b, c}: d is in neither cover
    g = Graph(tuple("abcd"), ((0, 1), (1, 2), (2, 3)))
    aux = build_aux(g, (0, 2), (1, 2))
    assert aux.dead_zone == (3,)
    with pytest.raises(IntegrityError, match=message):
        _validate_defense_paths(g, aux, paths)


def _all_attacks(aux):
    # one attack per question a defense scan can put to this auxiliary
    # graph: every real pair, then every shared component next to a right
    # vertex
    yield from sorted(aux.real_pairs)
    yield from _shared_attacks(aux)


def test_defends_matches_reducer_and_brute_force():
    asked = satisfiable = partner = 0
    for n in range(4, 10):
        for g, _, cover_pairs in _min_cover_pairs(30, 300 + n, n, n):
            ctx = DefenseContext(g)
            for s, t in cover_pairs:
                aux = build_aux(g, s, t)
                if aux.side_size == 0:
                    continue
                for u, v in _all_attacks(aux):
                    got = ctx.defends(s, (u, v), t)
                    where = (g.edges, s, t, u, v)
                    assert got == rainbow_pm_bruteforce(aux, u, v)[0], where
                    assert got == (rainbow_pm_with_edge(aux, u, v) is not None), where
                    asked += 1
                    satisfiable += got
                    partner += u not in aux.left
    assert 0 < satisfiable < asked and asked > 5000 and partner > 1000


def test_mode_satisfiable_checks_the_mode(named):
    # the witness entry of a defense context and brute force refuse the same
    # attacks as the reducer
    for aux, u, v, error, message in _invalid_attacks(named):
        ctx = DefenseContext(aux.graph)
        with pytest.raises(error, match=message):
            ctx.witness(aux.cover_s, (u, v), aux.cover_t)
        with pytest.raises(error, match=message):
            rainbow_pm_bruteforce(aux, u, v)


def test_stats_flag_a_wrong_matching_answer(monkeypatch):
    import evckit.defense as defense_mod

    # every yes/no answer read off the alternating tree masks is flipped;
    # the witness reads the tree's discovery order and brute force neither
    original = defense_mod.AuxiliaryGraph.pairs_with
    monkeypatch.setattr(
        defense_mod.AuxiliaryGraph,
        "pairs_with",
        lambda aux, v, partners: not original(aux, v, partners),
    )
    stats = DefenseStats()
    for g, covers, _ in _min_cover_pairs(20, 199):
        ctx = DefenseContext(g, stats=stats)
        for s, attack, t in _oriented_checks(g, covers):
            ctx.defends(s, attack, t)
    assert stats.mismatches == stats.instances > 100


def test_defends_refuses_what_witness_refuses(named):
    # P4 a-b-c-d with S = {b, c} and T = {b, d}: a guard off S, a target in
    # S and a non-edge are refused by both entries; a target off T is
    # answered False by the yes/no ask alone
    p4 = named["P4"]
    a, b, c, d = (p4.index(lab) for lab in "abcd")
    s, t = (b, c), (b, d)
    for attack, t_, message in (
        ((a, b), t, "guard must stand on S"),
        ((c, b), t, "must lie in T - S"),
        ((b, c), s, "must lie in T - S"),
        ((b, d), t, "must be an edge"),
    ):
        for entry in (DefenseContext.defends, DefenseContext.witness):
            with pytest.raises(PreconditionError, match=message):
                entry(DefenseContext(p4), s, attack, t_)
    assert DefenseContext(p4).defends(s, (b, a), t) is False
    with pytest.raises(PreconditionError, match="must lie in T - S"):
        DefenseContext(p4).witness(s, (b, a), t)
    assert DefenseContext(p4).defends(s, (c, d), t) is True


def test_no_tree_without_a_partner():
    # a shared component that touches no left vertex answers no without a
    # matching or an alternating tree
    asked = 0
    for g, _, cover_pairs in _min_cover_pairs(60, 211):
        for s, t in cover_pairs:
            aux = build_aux(g, s, t)
            for color, cmask in enumerate(aux.color_masks):
                if aux.color_left[color]:
                    continue
                for u, v in _shared_attacks(aux):
                    if cmask >> u & 1:
                        ctx = DefenseContext(g)
                        assert ctx.defends(s, (u, v), t) is False
                        assert not ctx.aux_for(s, t).__dict__.get("_trees")
                        assert "real_pm" not in ctx.aux_for(s, t).__dict__
                        asked += 1
    assert asked > 20


def test_chain_trees_match_list_search():
    # every chain read off a (color, left end) tree is the list search's
    # path from the left end's neighbours in the color, to one target or to
    # the neighbours of a right vertex
    reads = 0
    for g, _, cover_pairs in _min_cover_pairs(80, 197):
        for s, t in cover_pairs:
            aux = build_aux(g, s, t)
            for color, cmask in enumerate(aux.color_masks):
                for w in aux.left:
                    tree = aux.chain_tree(color, w)
                    assert aux.chain_tree(color, w) is tree
                    sources = g.adj_mask[w]
                    targets = [1 << x for x in range(g.n)]
                    targets += [g.adj_mask[v] for v in aux.right]
                    for ends in targets:
                        got = _read_chain(tree, ends)
                        assert got == _bfs_by_lists(g, cmask, sources, ends), (
                            g.edges, s, t, color, w, ends
                        )
                        reads += got is not None
    assert reads > 4000


def _forged_chains(g, aux, paths, i):
    # one forged chain per check of a replaced chain, each failing that
    # check first: two free vertices that are not adjacent, a free vertex
    # next to the dead zone and the dead vertex, a vertex of a kept chain
    adj, dead = g.adj_mask, aux.dead_mask
    kept = [p for j, p in enumerate(paths) if j != i]
    used = mask_of(x for p in kept for x in p)
    free = [x for x in range(g.n) if not (used | dead) >> x & 1]
    out = {}
    out["non-edge"] = next(
        ((x, y) for x in free for y in free if x != y and not adj[x] >> y & 1), None
    )
    out["dead zone"] = next(
        ((x, d) for x in free for d in aux.dead_zone if adj[x] >> d & 1), None
    )
    out["vertex-disjoint"] = (kept[0][-1],) if kept else None
    return {kind: chain for kind, chain in out.items() if chain is not None}


def test_witness_rejects_a_forged_forced_chain(monkeypatch):
    # a transition of a shared guard reads its forced chain through the
    # attacked guard; a forged one must fail the same three checks that the
    # whole system passes, while every other chain stays genuine
    import evckit.defense as defense_mod

    genuine_chain = defense_mod._helper_chain
    rejected = dict.fromkeys(("non-edge", "dead zone", "vertex-disjoint"), 0)
    for g, covers, _ in _min_cover_pairs(80, 203, 5, 10):
        ctx = DefenseContext(g)
        for s, attack, t in _oriented_checks(g, covers):
            if attack[0] not in t or attack[1] not in t:
                continue
            genuine = ctx.witness(s, attack, t)
            if genuine is None:
                continue
            aux = ctx.aux_for(s, t)
            rm = ctx._entries[(s, t, defense_mod._question(aux, *attack))]
            paths = matching_to_paths(aux, rm, attack[0])
            assert paths == genuine
            i = rm.edges.index(rm.forced)
            for kind, chain in _forged_chains(g, aux, paths, i).items():
                def forged(aux, edge, ends, chain=chain, forced=rm.forced):
                    return chain if edge == forced else genuine_chain(aux, edge, ends)

                monkeypatch.setattr(defense_mod, "_helper_chain", forged)
                with pytest.raises(IntegrityError, match=kind):
                    ctx.witness(s, attack, t)
                monkeypatch.undo()
                rejected[kind] += 1
            assert ctx.witness(s, attack, t) == genuine
    assert min(rejected.values()) > 1000, rejected
