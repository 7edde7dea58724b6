"""Report schema, certificate serialization, and independent revalidation.

Reports are JSON objects with a fixed schema version.  Certificates cross
the JSON boundary in label space (indices never appear in reports) and can
be re-checked against the same graph after a round trip; revalidation always
recomputes the claimed facts from scratch.  It accepts exactly the kinds that
``spartan`` and ``certify`` emit (README, "Why (not)?"); any other kind reads
False.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import PreconditionError, ValidationError
from .graph import Graph, bits, graph_json_obj, mask_of, neighbors_of_set

SCHEMA_VERSION = "1.0"

# the published report shape; kept as plain data so validation stays a
# test-time concern and the package itself needs no schema library
REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schemaVersion", "command", "input", "result"],
    "properties": {
        "schemaVersion": {"const": SCHEMA_VERSION},
        "command": {
            "enum": ["mvc", "evc", "spartan", "konig", "certify", "aux"]
        },
        "input": {
            "type": "object",
            "required": ["vertices", "edges"],
            "properties": {
                "vertices": {"type": "array", "items": {"type": "string"}},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "string"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "result": {"type": "object"},
        "timings_ms": {
            "type": "object",
            "additionalProperties": {"type": "number"},
        },
    },
    "additionalProperties": False,
}


def canonical_json(obj: Any) -> str:
    """Byte-stable rendering: sorted keys, fixed separators, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def pretty_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def base_report(g: Graph, command: str) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "command": command,
        "input": graph_json_obj(g),
    }


# certificate fields whose integer payloads are vertex indices; everything
# else (k, rounds, caps, color ids, counts) stays numeric
_VERTEX_KEYS = frozenset(
    {
        "vertex",
        "cycle",
        "cover",
        "covers_containing",
        "component",
        "violator",
        "neighborhood",
        "independent_set",
        "attack",
        "edge_in_no_perfect_matching",
        "tight_set",
        "tight_neighborhood",
        "deficient_set",
        "deficient_neighborhood",
    }
)


def labelize(g: Graph, obj, active: bool = False):
    """Map the vertex-index payload fields of a certificate to labels."""
    if isinstance(obj, dict):
        return {key: labelize(g, val, key in _VERTEX_KEYS) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [labelize(g, v, active) for v in obj]
    if active and isinstance(obj, int) and not isinstance(obj, bool):
        if 0 <= obj < g.n:
            return g.labels[obj]
        raise ValidationError(f"index {obj} cannot be labelized")
    return obj


def delabelize(g: Graph, obj, active: bool = False):
    """Inverse of :func:`labelize` for the vertex-name payload fields."""
    if isinstance(obj, dict) and not active:
        return {
            key: delabelize(g, val, key in _VERTEX_KEYS) for key, val in obj.items()
        }
    if isinstance(obj, list):
        return [delabelize(g, v, active) for v in obj]
    if not active:
        return obj
    # a vertex field holds labels only: an index would pass through unchecked,
    # and a nested object is no vertex
    if isinstance(obj, str) and obj in g.label_index:
        return g.label_index[obj]
    raise ValidationError(f"unknown vertex label {obj!r} in certificate")


def revalidate_certificate(g: Graph, cert: dict) -> bool:
    """Re-check a (label-space) certificate against the graph from scratch.

    A malformed or forged certificate reads False.  A refusal (a
    ResourceLimitError, such as the capped cover scan's) or a
    PreconditionError still raises: neither is a verdict.
    """
    try:
        return _revalidate(g, cert)
    except PreconditionError:
        raise
    except (IndexError, KeyError, TypeError, ValueError):
        return False


def _hall_claim(g: Graph, vertices, claimed):
    """``(X, N(X))`` as vertex masks for a Hall claim, or None when X is
    empty, repeats a vertex, or its claimed neighbourhood is not N(X)."""
    xm = mask_of(vertices)
    nb = neighbors_of_set(g, xm)
    if not xm or xm.bit_count() != len(vertices) or sorted(claimed) != list(bits(nb)):
        return None
    return xm, nb


def _revalidate(g: Graph, cert: dict) -> bool:
    from .covers import enumerate_min_vcs, mvc_mask
    from .graph import OddCycle, bipartition, connected_components, is_connected
    from .matching import is_essentially_elementary, max_matching_size

    kind = cert.get("kind")
    data = delabelize(g, cert)
    if kind == "odd_cycle":
        cyc = data["cycle"]
        if len(cyc) % 2 == 0 or len(set(cyc)) != len(cyc):
            return False
        if not all(
            g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
        ):
            return False
        # an odd cycle proves nothing on its own (C5 is Spartan): only the
        # bipartite Koenig graphs can be Spartan, so it must lie in a
        # component whose largest matching equals its cover number
        comp = next(c for c in connected_components(g) if cyc[0] in c)
        h = g.induced(comp)
        return max_matching_size(h) == mvc_mask(h, h.full_mask)
    if kind == "vertex_in_no_min_cover":
        # checked apart from the cover listing that found it: v lies in no
        # minimum cover iff deleting it leaves the cover number unchanged
        full = g.full_mask
        return mvc_mask(g, full & ~(1 << data["vertex"])) == mvc_mask(g, full)
    if kind == "hall_violator":
        # a non-empty X inside a maximum independent set I, |N(X)| < |X|
        ind = data["independent_set"]
        im = mask_of(ind)
        if im.bit_count() != len(ind) or len(ind) != g.n - mvc_mask(g, g.full_mask):
            return False
        if any(g.adj_mask[v] & im for v in ind):
            return False
        claim = _hall_claim(g, data["violator"], data["neighborhood"])
        if claim is None:
            return False
        xm, nb = claim
        return not xm & ~im and nb.bit_count() < xm.bit_count()
    if kind == "tight_independent_set":
        claim = _hall_claim(g, data["independent_set"], data["neighborhood"])
        if claim is None:
            return False
        m, nb = claim
        independent = not any(g.adj_mask[v] & m for v in bits(m))
        non_maximal = bool(g.full_mask & ~m & ~nb)
        return independent and non_maximal and nb.bit_count() == m.bit_count()
    if kind == "mvc_below_half":
        return 2 * mvc_mask(g, g.full_mask) < g.n
    if kind == "non_elementary":
        sides = []  # both sides of every component, as masks of g
        for comp in connected_components(g):
            split = bipartition(g.induced(comp))
            if isinstance(split, OddCycle):
                return False
            sides += [mask_of(comp[v] for v in side) for side in split]
        # each Hall set present must have the claimed neighbourhood N(X): a
        # tight one |N(X)| = |X| inside one side, a deficient one |N(X)| < |X|
        for prefix in ("tight", "deficient"):
            if f"{prefix}_set" not in data:
                continue
            claim = _hall_claim(
                g, data[f"{prefix}_set"], data[f"{prefix}_neighborhood"]
            )
            if claim is None:
                return False
            xm, nb = claim
            if prefix == "deficient":
                holds = nb.bit_count() < xm.bit_count()
            else:  # and X a proper subset of one side
                holds = nb.bit_count() == xm.bit_count() and any(
                    xm != side and not xm & ~side for side in sides
                )
            if not holds:
                return False
        edge = data.get("edge_in_no_perfect_matching")
        if edge is None:
            return not is_essentially_elementary(g)
        if not g.has_edge(*edge):
            return False
        # e lies in a perfect matching iff G minus its endpoints has one
        rest = g.induced(v for v in range(g.n) if v not in edge)
        return 2 * max_matching_size(rest) < rest.n
    if kind in ("no_weakly_good_coverage", "no_strongly_good_coverage"):
        from .covers import cover_configurations
        from .goodness import is_strongly_good, is_weakly_good
        from .reachability import counts_of

        if not is_connected(g):
            return False  # the battery, and goodness, speak of connected graphs
        checker = is_weakly_good if "weakly" in kind else is_strongly_good
        v = data["vertex"]
        k = data["k"]
        cs = enumerate_min_vcs(g)
        if k == cs.size:
            return not any(
                v in c and checker(g, counts_of(g, c))[0] for c in cs.covers
            )
        return not any(
            counts[v] > 0 and checker(g, counts)[0]
            for counts in cover_configurations(g, k)
        )
    if kind == "empty_fixpoint":
        # the trace must delete every minimum cover of one component exactly
        # once, each on an oriented attack that no cover deleted in the same
        # round or later defends; then no non-empty family of minimum covers
        # defends every attack on its members, as the member deleted first
        # would have a defender
        from .defense import DefenseContext, check_defense
        from .fixpoint import oriented_attacks

        # an empty trace raises IndexError here, and reads False
        first = g.label_index[cert["deletions"][0]["attack"][0]]
        comp = next(c for c in connected_components(g) if first in c)
        h = g.induced(comp)
        trace = [
            (tuple(sorted(d["cover"])), tuple(d["attack"]), int(d["round"]))
            for d in delabelize(h, cert["deletions"])
        ]
        cs = enumerate_min_vcs(h)
        if cs.truncated or sorted(c for c, _, _ in trace) != sorted(cs.covers):
            return False
        ctx = DefenseContext(h)
        return all(
            attack in oriented_attacks(h, mask_of(cover))
            and check_defense(
                h, cover, attack, [c for c, _, r in trace if r >= rnd], ctx
            )
            is None
            for cover, attack, rnd in trace
        )
    if kind == "game_attacker_win":
        # the defender loses the k-guard game on a whole component with k at
        # least its cover number: that component, and so the graph, needs
        # more guards than its cover number.  The defender wins at twice the
        # cover number (``evc`` relies on it), and so at every larger k, as
        # the multiset game is monotone: such a k reads False unsolved
        from .game import solve_guard_game

        k = data["k"]
        if type(k) is not int:
            return False
        comp = tuple(sorted(data.get("component", range(g.n))))
        if comp not in connected_components(g):
            return False
        h = g.induced(comp)
        mvc = mvc_mask(h, h.full_mask)
        if not mvc <= k < 2 * mvc:
            return False
        return not solve_guard_game(h, k).defender_wins
    return False

