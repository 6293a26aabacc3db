"""Seeded relabeling of a degeneration JSON document.

A relabeling permutes the plane numbers, the edge ids and the vertex ids
of a complex.  Unlike a relabeling of the parsed data model, it also
rewrites the dataset overrides: every ``gK`` token and every numeric
generator index of the relation grammar (``sq K``, ``triple I J``,
``comm I J``, ``ccomm K : ...``) is mapped through the same edge
permutation, so complexes whose 4-point relations come from overrides
(dt4) describe the same group under the new names.
"""

from __future__ import annotations

import json
import random
import re

_TOKEN = re.compile(r"^g(\d+)(\^-1)?$")
_INDEX_ARGS = {"sq": 1, "triple": 2, "comm": 2, "ccomm": 1}


def _rewrite_relation(line: str, edge_map: dict[int, int]) -> str:
    tokens = line.split()
    head = tokens[0] if tokens else ""
    index_args = _INDEX_ARGS.get(head, 0)
    out = []
    for pos, tok in enumerate(tokens):
        if 1 <= pos <= index_args:
            out.append(str(edge_map[int(tok)]))
            continue
        m = _TOKEN.match(tok)
        if m:
            out.append(f"g{edge_map[int(m.group(1))]}{m.group(2) or ''}")
        else:
            out.append(tok)
    return " ".join(out)


def relabel_json(text: str, rng: random.Random) -> str:
    """Return ``text`` with planes, edges, vertices and overrides relabeled.

    Edges and vertices are written in order of their new ids, which is the
    order a hand-written file would use; the relator order the program
    derives from them changes with the relabeling.
    """
    data = json.loads(text)
    planes = list(range(1, data["planes"] + 1))
    rng.shuffle(planes)
    plane_map = {i + 1: p for i, p in enumerate(planes)}

    old_edge_ids = [e["id"] for e in data["edges"]]
    new_edge_ids = list(range(1, len(old_edge_ids) + 1))
    rng.shuffle(new_edge_ids)
    edge_map = dict(zip(old_edge_ids, new_edge_ids))

    old_vertex_ids = [v["id"] for v in data["vertices"]]
    new_vertex_ids = list(range(1, len(old_vertex_ids) + 1))
    rng.shuffle(new_vertex_ids)
    vertex_map = dict(zip(old_vertex_ids, new_vertex_ids))

    edges = [
        {"id": edge_map[e["id"]], "planes": [plane_map[p] for p in e["planes"]]}
        for e in data["edges"]
    ]
    vertices = [
        {"id": vertex_map[v["id"]], "edges": sorted(edge_map[x] for x in v["edges"])}
        for v in data["vertices"]
    ]
    out = {
        "name": f"{data.get('name', '')}-relabeled",
        "planes": data["planes"],
        "edges": sorted(edges, key=lambda e: e["id"]),
        "vertices": sorted(vertices, key=lambda v: v["id"]),
    }
    overrides = data.get("overrides")
    if overrides is not None:
        rewritten = {
            "extra_relators": [
                _rewrite_relation(line, edge_map)
                for line in overrides.get("extra_relators", [])
            ]
        }
        if overrides.get("projective_relator") is not None:
            rewritten["projective_relator"] = _rewrite_relation(
                overrides["projective_relator"], edge_map
            )
        out["overrides"] = rewritten
    return json.dumps(out, indent=2) + "\n"
