"""Seeded fuzzing of the command-line front end.

Each case mutates the t4 or dt4 document: it drops, duplicates and
rewires edges and vertices, sets ``planes`` anywhere up to 12, and
appends relation-grammar overrides and a random projective relator.
The scale cases raise one count to 10^4 instead: a star of edges on
one plane, copies of an edge or a vertex, planes far past the
document's own, or one vertex naming every edge.  ``galcov analyze``
then runs each case in this process on a random route under a small
coset bound.  Whatever the input, the run must end in exit 0, 1 or 2
with a short message: no traceback, no uncaught exception and no long
run.
"""

import json
import random
import time

from galcov.cli import main
from galcov.complexes import ComplexError, classify_vertex, parse_complex, validate
from galcov.datasets import DT4_JSON, T4_JSON

from .conftest import local_condition

CASES = 300
MAX_COSETS = 20_000
STDERR_LIMIT = 2_000  # characters
SECONDS_PER_CASE = 10
SCALE = 10_000


def random_word(rng, ids):
    return " ".join(
        f"g{rng.choice(ids)}{rng.choice(('', '^-1'))}" for _ in range(rng.randint(1, 6))
    )


def relation_line(rng, ids):
    """One line of the relation grammar over the edge ids ``ids``."""
    form = rng.choice(("sq", "comm", "triple", "ccomm", "eq:", "word:"))
    if form == "sq":
        return f"sq {rng.choice(ids)}"
    if form in ("comm", "triple"):
        return f"{form} {rng.choice(ids)} {rng.choice(ids)}"
    if form == "ccomm":
        return f"ccomm {rng.choice(ids)} : {random_word(rng, ids)}"
    if form == "eq:":
        return f"eq: {random_word(rng, ids)} = {random_word(rng, ids)}"
    return f"word: {random_word(rng, ids)}"


def mutate(text, rng):
    """A seeded mutation of a degeneration JSON document.  Edge ids one
    past the largest may name no edge, and planes one past ``planes`` may
    lie outside it."""
    data = json.loads(text)
    edges, vertices = data["edges"], data["vertices"]
    ids = [e["id"] for e in edges]
    ids.append(max(ids) + 1)
    for _ in range(rng.randint(0, 3)):
        op = rng.randrange(7)
        if op == 0 and edges:
            edges.pop(rng.randrange(len(edges)))
        elif op == 1 and edges:
            edges.append(dict(rng.choice(edges)))
        elif op == 2 and edges:
            rng.choice(edges)["planes"] = rng.sample(range(1, data["planes"] + 2), 2)
        elif op == 3 and vertices:
            vertices.pop(rng.randrange(len(vertices)))
        elif op == 4 and vertices:
            vertices.append(dict(rng.choice(vertices)))
        elif op == 5 and vertices:
            rng.choice(vertices)["edges"] = rng.sample(ids, rng.randint(2, 4))
        elif op == 6:
            data["planes"] = rng.randint(1, 12)
    overrides = data.setdefault("overrides", {})
    lines = overrides.setdefault("extra_relators", [])
    lines += [relation_line(rng, ids) for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.3:
        overrides["projective_relator"] = f"word: {random_word(rng, ids)}"
    return json.dumps(data)


def scale_up(text, op, rng):
    """``text`` with one count raised to ``SCALE`` by the mutation ``op``:
    0 a star (plane 1 on every edge, each edge's other plane its own),
    1 copies of one edge and 2 copies of one vertex under fresh ids, 3
    ``planes`` at ``SCALE`` with edges rewired to planes anywhere in it,
    4 one vertex naming all of ``SCALE`` edges on planes 1 and 2."""
    data = json.loads(text)
    edges, vertices = data["edges"], data["vertices"]
    if op == 0:
        data["planes"] = SCALE + 1
        data["edges"] = [{"id": i, "planes": [1, i + 1]} for i in range(1, SCALE + 1)]
    elif op == 1:
        planes = rng.choice(edges)["planes"]
        edges += [{"id": i, "planes": planes} for i in range(len(edges) + 1, SCALE + 1)]
    elif op == 2:
        ids = rng.choice(vertices)["edges"]
        vertices += [{"id": i, "edges": ids} for i in range(len(vertices) + 1, SCALE + 1)]
    elif op == 3:
        data["planes"] = SCALE
        for edge in rng.sample(edges, rng.randint(1, len(edges))):
            edge["planes"][rng.randrange(2)] = rng.randint(1, SCALE)
    else:
        data["edges"] = [{"id": i, "planes": [1, 2]} for i in range(1, SCALE + 1)]
        data["vertices"] = [{"id": 1, "edges": list(range(1, SCALE + 1))}]
    return json.dumps(data)


def check_case(path, text, route, capsys, name):
    """Run ``text`` from ``path`` through ``main`` on ``route``; it must
    end in exit 0, 1 or 2 with a short stderr, no traceback and in time.
    Returns the exit code."""
    path.write_text(text, encoding="utf-8")
    args = ["analyze", str(path), "--route", route, "--max-cosets", str(MAX_COSETS)]
    start = time.perf_counter()
    code = main(args)
    seconds = time.perf_counter() - start
    err = capsys.readouterr().err
    where = f"{name} (--route {route}): {text[:10_000]}"
    assert code in (0, 1, 2), where
    assert "Traceback" not in err and len(err) <= STDERR_LIMIT, where
    assert seconds < SECONDS_PER_CASE, where
    return code


def test_mutated_documents_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(0)
    path = tmp_path / "case.json"
    codes = {}
    for case in range(CASES):
        text = mutate(rng.choice((T4_JSON, DT4_JSON)), rng)
        route = rng.choice(("enumerate", "coxeter", "both"))
        code = check_case(path, text, route, capsys, f"case {case}")
        codes[code] = codes.get(code, 0) + 1
    # the mutations reach every outcome, not only the parser's rejections
    assert set(codes) == {0, 1, 2}, codes


def test_documents_at_scale_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(1)
    path = tmp_path / "case.json"
    for op in range(5):
        for name, text in (("t4", T4_JSON), ("dt4", DT4_JSON)):
            route = rng.choice(("enumerate", "coxeter", "both"))
            check_case(path, scale_up(text, op, rng), route, capsys, f"{name} scale op {op}")


def test_accepted_documents_meet_the_local_condition():
    # the premise of the complement search's bound: the plane graph of every
    # complex that validate and classify_vertex accept puts each plane on 2
    # or 3 edges, every two of them in a triangle or a 4-cycle.  Mutants
    # accepted here have 4 or 6 planes; test_presentation enumerates the
    # graphs that meet the condition on up to 10
    accepted = 0
    for seed in range(4_000):
        rng = random.Random(seed)
        text = mutate(rng.choice((T4_JSON, DT4_JSON)), rng)
        try:
            c = parse_complex(text)
            if not validate(c).valid:
                continue
            for v in c.vertices:
                classify_vertex(c, v)
        except ComplexError:
            continue
        accepted += 1
        assert local_condition(c.plane_count, [e.planes for e in c.edges]), text
    assert accepted > 1_000
