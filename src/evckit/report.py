"""Report schema, certificate serialization, and independent revalidation.

Reports are JSON objects with a fixed schema version.  Certificates cross
the JSON boundary in label space (indices never appear in reports) and can
be re-checked against the same graph after a round trip; revalidation always
recomputes the claimed facts from scratch.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import ValidationError
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
        "exit_vertex",
        "cycle",
        "cover",
        "covers",
        "covers_containing",
        "bad_set",
        "component",
        "violator",
        "neighborhood",
        "independent_set",
        "edge",
        "attack",
        "edge_in_no_perfect_matching",
        "tight_set",
        "tight_neighborhood",
        "deficient_set",
        "deficient_neighborhood",
        "support",
    }
)
_SCALAR_KEYS = frozenset(
    {"k", "n", "mvc", "cap", "round", "color", "counts_on_support", "kind"}
)


def labelize(g: Graph, obj, active: bool = False):
    """Map the vertex-index payload fields of a certificate to labels."""
    if isinstance(obj, dict):
        return {
            key: labelize(
                g, val, (key in _VERTEX_KEYS) or (active and key not in _SCALAR_KEYS)
            )
            for key, val in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [labelize(g, v, active) for v in obj]
    if active and isinstance(obj, int) and not isinstance(obj, bool):
        if 0 <= obj < g.n:
            return g.labels[obj]
        raise ValidationError(f"index {obj} cannot be labelized")
    return obj


def delabelize(g: Graph, obj, active: bool = False):
    """Inverse of :func:`labelize` for the vertex-name payload fields."""
    if isinstance(obj, dict):
        return {
            key: delabelize(
                g, val, (key in _VERTEX_KEYS) or (active and key not in _SCALAR_KEYS)
            )
            for key, val in obj.items()
        }
    if isinstance(obj, list):
        return [delabelize(g, v, active) for v in obj]
    if active and isinstance(obj, str):
        if obj in g.label_index:
            return g.label_index[obj]
        raise ValidationError(f"unknown vertex label {obj!r} in certificate")
    return obj


def revalidate_certificate(g: Graph, cert: dict) -> bool:
    """Re-check a (label-space) certificate against the graph from scratch."""
    from .covers import enumerate_min_vcs, min_vc_containing, mvc_mask
    from .goodness import BadSetCertificate, revalidate_bad_set
    from .graph import OddCycle, bipartition, connected_components
    from .matching import is_essentially_elementary, max_matching_size

    kind = cert.get("kind")
    data = delabelize(g, cert)
    if kind == "odd_cycle":
        cyc = data["cycle"]
        if len(cyc) % 2 == 0 or len(set(cyc)) != len(cyc):
            return False
        return all(
            g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
        )
    if kind == "vertex_in_no_min_cover":
        return min_vc_containing(g, data["vertex"]) is None
    if kind == "hall_violator":
        x = set(data["violator"])
        nb = neighbors_of_set(g, mask_of(x))
        return set(bits(nb)) == set(data["neighborhood"]) and len(
            data["neighborhood"]
        ) < len(x)
    if kind == "tight_independent_set":
        m = mask_of(data["independent_set"])
        nb = neighbors_of_set(g, m)
        independent = all(not (g.adj_mask[v] & m) for v in data["independent_set"])
        non_maximal = bool(g.full_mask & ~m & ~nb)
        return (
            independent
            and non_maximal
            and nb.bit_count() == len(data["independent_set"])
        )
    if kind == "mvc_below_half":
        return 2 * mvc_mask(g, g.full_mask) < g.n
    if kind in ("weakly_bad", "strongly_bad"):
        counts = [0] * g.n
        for v, c in zip(data.get("support", []), data.get("counts_on_support", [])):
            counts[v] = c
        bc = BadSetCertificate(
            kind=kind,
            support=tuple(data["support"]),
            counts=tuple(counts),
            bad_set=tuple(data["bad_set"]),
            component=tuple(data["component"]),
            exit_vertex=data.get("exit_vertex"),
        )
        return revalidate_bad_set(g, bc)
    if kind == "non_elementary":
        if any(
            isinstance(bipartition(g.induced(c)), OddCycle)
            for c in connected_components(g)
        ):
            return False
        edge = data.get("edge_in_no_perfect_matching")
        if edge is None:
            return not is_essentially_elementary(g)[0]
        if not g.has_edge(*edge):
            return False
        # e lies in a perfect matching iff G minus its endpoints has one
        rest = g.induced(v for v in range(g.n) if v not in edge)
        return 2 * max_matching_size(rest) < rest.n
    if kind in ("no_weakly_good_coverage", "no_strongly_good_coverage"):
        from .covers import cover_configurations
        from .goodness import is_strongly_good, is_weakly_good
        from .reachability import GuardConfiguration

        checker = is_weakly_good if "weakly" in kind else is_strongly_good
        v = data["vertex"]
        k = data["k"]
        cs = enumerate_min_vcs(g)
        if k == cs.size:
            return not any(
                v in c
                and checker(g, GuardConfiguration.from_vertices(g, c))[0]
                for c in cs.covers
            )
        return not any(
            counts[v] > 0 and checker(g, GuardConfiguration(counts))[0]
            for counts in cover_configurations(g, k)
        )
    if kind == "empty_fixpoint":
        # the trace must delete every minimum cover of one component exactly
        # once, each on an oriented attack that no cover deleted in the same
        # round or later defends; then no non-empty family of minimum covers
        # defends every attack on its members, as the member deleted first
        # would have a defender
        from .defense import Defense, DefenseContext, check_defense
        from .fixpoint import oriented_attacks

        try:  # an empty trace fails here too
            first = g.label_index[cert["deletions"][0]["attack"][0]]
            comp = next(c for c in connected_components(g) if first in c)
            h = g.induced(comp)
            trace = [
                (tuple(sorted(d["cover"])), tuple(d["attack"]), int(d["round"]))
                for d in delabelize(h, cert["deletions"])
            ]
        except (IndexError, KeyError, TypeError, ValueError, ValidationError):
            return False
        cs = enumerate_min_vcs(h)
        if cs.truncated or sorted(c for c, _, _ in trace) != sorted(cs.covers):
            return False
        ctx = DefenseContext(h)
        return all(
            attack in oriented_attacks(h, mask_of(cover))
            and not isinstance(
                check_defense(
                    h, cover, attack, [c for c, _, r in trace if r >= rnd], ctx
                ),
                Defense,
            )
            for cover, attack, rnd in trace
        )
    if kind == "game_attacker_win":
        from .game import evc

        return evc(g).value > data["k"]
    # "cover_enumeration_truncated" only notes where a positive answer came
    # from; it proves nothing, so it never revalidates
    return False


def bad_set_certificate_payload(g: Graph, cert) -> dict:
    """Label-space payload for a weakly/strongly bad set certificate."""
    payload = {
        "kind": cert.kind,
        "support": list(g.labels_of(cert.support)),
        "counts_on_support": [cert.counts[v] for v in cert.support],
        "bad_set": list(g.labels_of(cert.bad_set)),
        "component": list(g.labels_of(cert.component)),
    }
    if cert.exit_vertex is not None:
        payload["exit_vertex"] = g.labels[cert.exit_vertex]
    return payload
