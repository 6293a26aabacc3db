"""Seeded fuzzing of the command-line front end.

Each case mutates the t4 or dt4 document: it drops, duplicates and
rewires edges and vertices, sets ``planes`` anywhere up to 12, and
appends relation-grammar overrides and a random projective relator.
``galcov analyze`` then runs it in this process on a random route under
a small coset bound.  Whatever the input, the run must end in exit 0, 1
or 2 with a short message: no traceback, no uncaught exception and no
long run.
"""

import json
import random
import time

from galcov.cli import main
from galcov.datasets import DT4_JSON, T4_JSON

CASES = 300
MAX_COSETS = 20_000
STDERR_LIMIT = 2_000  # characters
SECONDS_PER_CASE = 10


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


def test_mutated_documents_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(0)
    path = tmp_path / "case.json"
    codes = {}
    for case in range(CASES):
        path.write_text(mutate(rng.choice((T4_JSON, DT4_JSON)), rng), encoding="utf-8")
        route = rng.choice(("enumerate", "coxeter", "both"))
        args = ["analyze", str(path), "--route", route, "--max-cosets", str(MAX_COSETS)]
        start = time.perf_counter()
        code = main(args)
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        where = f"case {case} (--route {route}): {path.read_text(encoding='utf-8')}"
        assert code in (0, 1, 2), where
        assert "Traceback" not in err and len(err) <= STDERR_LIMIT, where
        assert seconds < SECONDS_PER_CASE, where
        codes[code] = codes.get(code, 0) + 1
    # the mutations reach every outcome, not only the parser's rejections
    assert set(codes) == {0, 1, 2}, codes
