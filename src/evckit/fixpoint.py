"""The greatest-fixpoint engine shared by the game solver and the decider.

Both keep the largest set of states in which every threat on a state has a
live responder.  Each (state, threat) watches its first live responder in
canonical order and moves on only when that one is removed (the watched
literals of Chaff, Moskewicz et al., DAC 2001), so no (state, threat,
candidate) is asked twice.  Removals run in synchronous rounds.
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
