"""The greatest-fixpoint engine shared by the game solver and the decider.

The fixpoint is the largest set of states in which every threat on a state
has a responder in the set.  The module answers two questions about it.

"Which states survive, and in which round does each other one leave?"
(``greatest_fixpoint``) removes states in synchronous rounds.  Each (state,
threat) watches its first live responder in canonical order and moves on
only when that one is removed (the watched literals of Chaff, Moskewicz et
al., DAC 2001), so no (state, threat, candidate) is asked twice.

"Does any state survive?" (``some_state_survives``) explores only the states
its answer needs, in the manner of the local fixpoint algorithms of Liu and
Smolka (ICALP 1998).  It stops at the first non-empty closed set, a set in
which every threat on a member has a responder that is also a member: such
a set lies inside the greatest fixpoint.  It keeps the same watches, so it
too asks no triple twice.
"""

from __future__ import annotations

from .graph import Graph


def oriented_attacks(g: Graph, occupied_mask: int) -> list[tuple[int, int]]:
    """Edges with exactly one occupied endpoint, as (guarded, unguarded)."""
    out = []
    for a, b in g.edges:
        ga, gb = occupied_mask >> a & 1, occupied_mask >> b & 1
        if ga != gb:
            out.append((a, b) if ga else (b, a))
    return out


def greatest_fixpoint(threats, candidates, answer):
    """Remove states until every threat on a survivor has a live responder.

    ``threats[i]`` lists the threats on state ``i`` in order,
    ``candidates(threat)`` the states that may answer one in canonical order,
    and ``answer(i, threat, j)`` tells whether ``j`` answers.
    A state leaves in the first round in which one of its threats has no
    responder among the states alive at the round's start; it records the
    first such threat, and its later threats are not asked that round.

    Returns ``(alive, removals, answers)``: the survivors in order, one
    ``(state, threat, round)`` per removal in round then state order, and
    ``{(state, threat): responder}`` naming each survivor's first live
    responder.
    """
    live = [True] * len(threats)
    watch = {}  # (state, threat index) -> position of the watched responder
    watchers: list[list[tuple[int, int]]] = [[] for _ in threats]
    removals = []
    pending = {i: range(len(ts)) for i, ts in enumerate(threats)}
    round_no = 0
    while pending:
        dying = []
        for i in sorted(pending):
            for t in sorted(pending[i]):
                threat = threats[i][t]
                cands = candidates(threat)
                p = watch[(i, t)] + 1 if (i, t) in watch else 0
                while p < len(cands) and not (
                    live[cands[p]] and answer(i, threat, cands[p])
                ):
                    p += 1
                if p == len(cands):
                    dying.append((i, threat))
                    break
                watch[(i, t)] = p
                watchers[cands[p]].append((i, t))
        for i, threat in dying:
            live[i] = False
            removals.append((i, threat, round_no))
        pending = {}
        for i, _ in dying:
            for w, t in watchers[i]:
                if live[w]:
                    pending.setdefault(w, set()).add(t)
        round_no += 1
    alive = [i for i, ok in enumerate(live) if ok]
    answers = {
        (i, threat): candidates(threat)[watch[(i, t)]]
        for i in alive
        for t, threat in enumerate(threats[i])
    }
    return alive, removals, answers


def some_state_survives(n, threats_of, candidates, answer) -> bool:
    """Is the greatest fixpoint over the states ``0 .. n - 1`` non-empty?

    ``threats_of(i)`` lists the threats on state ``i`` and is called once,
    when ``i`` is first explored; ``candidates`` and ``answer`` are as in
    ``greatest_fixpoint``.  Each (state, threat) of an explored state
    watches its first live candidate that answers, and a watched state that
    is not yet explored becomes explored.  A state dies when one of its
    threats runs out of candidates, and only the pairs watching it move on,
    each from its next position.  When no work is left the explored states
    still alive form a closed set; if it is empty, the search starts again
    from the next unexplored state.

    A state dies only when every candidate for one of its threats does not
    answer or is dead, so by induction on the order of deaths no closed set
    holds a dead state: a loss is exact.
    """
    threats: list = [None] * n  # set when the state is explored
    watch: list = [None] * n  # per threat, the position of the watched responder
    watchers: list = [None] * n  # the (state, threat index) pairs watching it
    live = [True] * n
    work: list[tuple[int, int]] = []

    def explore(i: int) -> None:
        ts = threats[i] = threats_of(i)
        watch[i] = [-1] * len(ts)
        watchers[i] = []
        work.extend((i, t) for t in reversed(range(len(ts))))

    for root in range(n):
        if threats[root] is not None:
            continue
        explore(root)
        held = 1  # explored states still alive; earlier roots left none
        while work:
            i, t = work.pop()
            if not live[i]:
                continue
            threat = threats[i][t]
            cands = candidates(threat)
            p = watch[i][t] + 1
            while p < len(cands) and not (
                live[cands[p]] and answer(i, threat, cands[p])
            ):
                p += 1
            if p == len(cands):
                live[i] = False
                held -= 1
                work.extend(watchers[i])
                continue
            j = cands[p]
            watch[i][t] = p
            if threats[j] is None:
                explore(j)
                held += 1
            watchers[j].append((i, t))
        if held:
            return True
    return False
