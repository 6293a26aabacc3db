"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Criteria with stated runtime bounds time their own
computation, end to end, inside the test.
"""

import itertools
import random
import time

import pytest

from galcov.coxeter import coxeter_route, eval_words
from galcov.datasets import load_builtin
from galcov.enumeration import coset_enumeration
from galcov.invariants import chern_numbers, signature, singularity_counts
from galcov.kernel import (
    abelianization,
    identify_structure,
    kernel_coset_table,
    reidemeister_schreier,
    smith_normal_form,
)
from galcov.permutations import (
    permutation_group_order,
    plane_transposition_map,
    verify_homomorphism,
)
from galcov.presentation import (
    build_tilde_presentation,
    eliminate_in_turn,
    projective_relator,
    relation_holds,
)
from galcov.tietze import simplify_presentation

from .conftest import (
    DT4_PAPER_PLAN,
    decode_window,
    identity,
    invert,
    mulclose,
    parasitic_pairs,
    random_valid_complex,
    sd_inverse,
    snf_oracle,
    transposition,
    u_vector,
    window,
    word_of,
)


def report(number, ok, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_tetrahedron_group():
    t0 = time.perf_counter()
    t4 = load_builtin("t4")
    pres = build_tilde_presentation(t4)
    table = coset_enumeration(pres, (), 1_000_000)
    order = table.coset_count
    a = plane_transposition_map(t4)
    failures = verify_homomorphism(pres, a)
    image = permutation_group_order(a.moved)
    kernel_order = order // image
    sub = reidemeister_schreier(pres, kernel_coset_table(pres, a))
    simplified = simplify_presentation(sub)
    rs_order = coset_enumeration(simplified, (), 100_000).coset_count
    factors = abelianization(simplified)
    verdict = identify_structure(kernel_order, invariant_factors=factors)
    elapsed = time.perf_counter() - t0
    ok = (
        order == 24
        and not failures
        and image == 24
        and kernel_order == 1
        and rs_order == 1
        and factors == ()
        and verdict.kind == "Trivial"
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"|G~|={order}, hom holds={not failures}, image order={image}, "
        f"kernel={kernel_order} (cross-check {rs_order}), invariants={factors}, "
        f"verdict={verdict.kind}, "
        f"elapsed={elapsed:.3f}s (< 1 s)",
    )


def test_criterion_2_tetrahedron_invariants():
    t4 = load_builtin("t4")
    counts = singularity_counts(t4)
    c1sq, c2 = chern_numbers(counts)
    chi = signature(c1sq, c2)
    ok = counts == (4, 12, 16, 12, 24) and (c1sq, c2, chi) == (216, 144, -24)
    report(
        2,
        ok,
        f"counts={tuple(counts)}, c1^2={c1sq}, c2={c2}, chi={chi}",
    )


@pytest.fixture(scope="module")
def dt4_enumeration_results():
    """Criterion 3's full computation, timed end to end and shared with
    the criteria that cross-check it."""
    t0 = time.perf_counter()
    dt4 = load_builtin("dt4")
    pres = build_tilde_presentation(dt4)
    table = coset_enumeration(pres, (), 1_000_000)
    order = table.coset_count
    a = plane_transposition_map(dt4)
    kernel_order = order // permutation_group_order(a.moved)
    sub = reidemeister_schreier(pres, kernel_coset_table(pres, a))
    simplified = simplify_presentation(sub)
    rs_order = coset_enumeration(simplified, (), 1_000_000).coset_count
    factors = abelianization(simplified)
    verdict = identify_structure(kernel_order, invariant_factors=factors)
    elapsed = time.perf_counter() - t0
    return {
        "dt4": dt4,
        "pres": pres,
        "table": table,
        "order": order,
        "kernel_order": kernel_order,
        "rs_order": rs_order,
        "factors": factors,
        "verdict": verdict,
        "elapsed": elapsed,
    }


def test_criterion_3_double_tetrahedron_enumeration(dt4_enumeration_results):
    r = dt4_enumeration_results
    ok = (
        r["order"] == 11520
        and r["kernel_order"] == 16
        and r["rs_order"] == 16
        and r["factors"] == (2, 2, 2, 2)
        and r["verdict"].kind == "ElementaryAbelian2"
        and r["verdict"].rank == 4
        and r["elapsed"] < 60.0
    )
    report(
        3,
        ok,
        f"|G~|={r['order']}, kernel={r['kernel_order']} (cross-check {r['rs_order']}), "
        f"invariants={r['factors']}, verdict={r['verdict'].describe()}, "
        f"elapsed={r['elapsed']:.2f}s (< 60 s)",
    )


def test_criterion_4_tietze_cross_check(dt4_enumeration_results):
    r = dt4_enumeration_results
    pres = r["pres"]
    # g7's defining relator is stated; the g3 and g6 relations are
    # consequences, checked against the regular table before substituting
    plan = DT4_PAPER_PLAN
    words = [word_of(text, pres.names) for _, text in plan]
    assignment = plane_transposition_map(r["dt4"])
    holds = all(
        relation_holds(pres.id_of(name), w, r["table"], assignment)
        for (name, _), w in zip(plan, words)
    )
    reduced, _ = eliminate_in_turn(pres, [name for name, _ in plan], words)
    order = coset_enumeration(reduced, (), 1_000_000).coset_count
    ok = holds and reduced.names == ("g1", "g2", "g4", "g5", "g8", "g9") and order == 11520
    report(
        4,
        ok,
        f"6-generator presentation on {reduced.names}, re-enumerated order {order}",
    )


def test_criterion_5_double_tetrahedron_invariants():
    dt4 = load_builtin("dt4")
    counts = singularity_counts(dt4)
    c1sq, c2 = chern_numbers(counts)
    chi = signature(c1sq, c2)
    ok = counts == (6, 18, 20, 60, 48) and (c1sq, c2, chi) == (25920, 12960, 0)
    report(
        5,
        ok,
        f"counts={tuple(counts)}, c1^2={c1sq}, c2={c2}, chi={chi}",
    )


@pytest.fixture(scope="module")
def dt4_coxeter_results(dt4_enumeration_results):
    dt4 = dt4_enumeration_results["dt4"]
    t0 = time.perf_counter()
    # the route reads no table of G~: it proves its plan in the affine group
    pres = build_tilde_presentation(dt4, include_projective=False)
    route = coxeter_route(pres, projective_relator(dt4), symmetric=plane_transposition_map(dt4))
    elapsed = time.perf_counter() - t0
    return route, elapsed


def test_criterion_6_coxeter_route(dt4_coxeter_results):
    route, elapsed = dt4_coxeter_results
    assert route.supported, route.reason
    names = route.reduced.names
    images = [route.assignment[name] for name in names]

    def ev(text):
        # decoded to the pair (transposition, vector)
        return decode_window(eval_words(images, [word_of(text, names)])[0])

    n = 6

    def sd(perm_pair, i=None, j=None, inverse=False):
        perm = transposition(n, *perm_pair)
        if i is None:
            return perm, (0,) * n
        return perm, u_vector(n, j, i) if inverse else u_vector(n, i, j)

    g3, g7, g6 = "g9 g5 g9", "g1 g4 g1", "g9 g8 g1 g8 g9"
    checks = {
        "Gamma3": ev(g3) == sd((2, 6), 2, 6),
        "Gamma7": ev(g7) == sd((3, 5)),
        "Gamma2'": ev(f"{g3} g8 {g7} g8 {g3}") == sd((5, 6), 5, 6),
        "Gamma6'": ev(f"{g6} g5 g2 g4 g2 g5 {g6}") == sd((1, 4), 1, 4, inverse=True),
        "Gamma8'": ev(f"g8 {g7} g2 {g3} g2 {g7} g8") == sd((2, 3), 2, 3, inverse=True),
        "proj translation": route.proj_vector == (1, 1, -1, -1, -1, 1),
        "proj vector": route.proj_u_coords == (1, 2, 1, 0, -1),
        "invariants": route.quotient.invariants == (1, 2, 2, 2, 2),
        "quotient": route.verdict().describe() == "Z2^4",
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    report(
        6,
        ok,
        f"images+projective+lattice checks {'all hold' if ok else 'FAILED: ' + ', '.join(failed)}; "
        f"invariants={route.quotient.invariants}, elapsed={elapsed:.3f}s (< 1 s)",
    )


def test_criterion_7_route_agreement(dt4_enumeration_results, dt4_coxeter_results):
    r = dt4_enumeration_results
    route, _ = dt4_coxeter_results
    enum_verdict = r["verdict"]
    cox_verdict = route.verdict()
    ok = (
        r["kernel_order"] == route.quotient.order == 16
        and enum_verdict.kind == cox_verdict.kind == "ElementaryAbelian2"
        and enum_verdict.rank == cox_verdict.rank == 4
    )
    report(
        7,
        ok,
        f"enumeration kernel (order {r['kernel_order']}, {enum_verdict.describe()}) vs "
        f"coxeter quotient (order {route.quotient.order}, {cox_verdict.describe()})",
    )


def test_criterion_8_property_suites():
    from galcov.presentation import GroupPresentation
    from galcov.complexes import Inner4, classify_vertex, validate

    failures = []

    # --- Todd-Coxeter vs brute-force Cayley closure on a fixed corpus
    def cyclic(n):
        return GroupPresentation.make(("a",), [(1,) * n])

    def dihedral(n):
        return GroupPresentation.make(("r", "s"), [(1,) * n, (2, 2), (1, 2, 1, 2)])

    def rotation(n):
        return tuple(range(2, n + 1)) + (1,)

    def reflection(n):
        return tuple(range(n, 0, -1))

    corpus = [(cyclic(n), [rotation(n)]) for n in range(2, 7)]
    corpus += [(dihedral(n), [rotation(n), reflection(n)]) for n in range(3, 7)]
    corpus.append(
        (
            GroupPresentation.make(("a", "b"), [(1, 1), (2, 2), (1, 2) * 3]),
            [transposition(3, 1, 2), transposition(3, 2, 3)],
        )
    )
    s4 = GroupPresentation.make(
        ("a", "b", "c"),
        [(1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2],
    )
    corpus.append(
        (
            s4,
            [
                transposition(4, 1, 2),
                transposition(4, 2, 3),
                transposition(4, 3, 4),
            ],
        )
    )
    for pres, model in corpus:
        tc = coset_enumeration(pres, (), 100_000).coset_count
        oracle = len(mulclose(model))
        if tc != oracle:
            failures.append(f"todd-coxeter {pres} gave {tc}, oracle {oracle}")

    # --- Smith normal form vs determinantal-divisor oracle
    rng = random.Random(20260810)
    for _ in range(200):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        if smith_normal_form(a) != snf_oracle(a):
            failures.append(f"snf mismatch on {a}")

    # --- Reidemeister-Schreier generator count before reduction: one per
    # orbit of each involution generator, less the index - 1 tree edges
    for name in ("t4", "dt4"):
        c = load_builtin(name)
        pres = build_tilde_presentation(c)
        a = plane_transposition_map(c)
        table = kernel_coset_table(pres, a)
        sub = reidemeister_schreier(pres, table)
        index = table.coset_count
        orbits = sum(
            (index + sum(1 for i in range(index) if table.trace(i, (k,)) == i)) // 2
            for k in range(1, pres.generator_count + 1)
        )
        expected = orbits - (index - 1)
        if sub.generator_count != expected or expected != {"t4": 49, "dt4": 2521}[name]:
            failures.append(
                f"{name}: schreier count {sub.generator_count} != {expected}"
            )

    # --- parasitic/met pair complement identity on random complexes: every
    # edge pair either lies together in a vertex or is parasitic, and the
    # node count is 4 per parasitic pair and per inner 4-point
    rng = random.Random(13579)
    for _ in range(100):
        c = random_valid_complex(rng)
        if not validate(c).valid:
            failures.append(f"generated complex {c.name} invalid")
            continue
        e = c.edge_count
        met = sum(
            any({a, b} <= v.edges for v in c.vertices)
            for a, b in itertools.combinations(sorted(x.id for x in c.edges), 2)
        )
        parasitic = len(parasitic_pairs(c))
        if parasitic + met != e * (e - 1) // 2:
            failures.append(f"pair complement identity fails on {c.name}")
        inner4 = sum(isinstance(classify_vertex(c, v), Inner4) for v in c.vertices)
        if singularity_counts(c).d != 4 * (parasitic + inner4):
            failures.append(f"node count disagrees with the parasitic pairs on {c.name}")

    # --- semidirect arithmetic laws on 1000 seeded triples, on windows
    rng = random.Random(424242)

    def random_sd(n_):
        vec = [rng.randint(-3, 3) for _ in range(n_ - 1)]
        vec.append(-sum(vec))
        images = list(range(1, n_ + 1))
        rng.shuffle(images)
        return tuple(images), tuple(vec)

    def mul(*factors):
        return eval_words(factors, [range(1, len(factors) + 1)])[0]

    def u(n_, i, j):
        return window(identity(n_), u_vector(n_, i, j))

    for _ in range(1000):
        n = rng.randint(2, 7)
        xp = random_sd(n)
        x, y, z = window(*xp), window(*random_sd(n)), window(*random_sd(n))
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            failures.append("sd associativity failure")
            break
        if mul(x, window(*sd_inverse(xp))) != tuple(range(1, n + 1)):
            failures.append("sd inverse failure")
            break
        i, j = rng.sample(range(1, n + 1), 2)
        sigma = xp[0]
        s = window(sigma, (0,) * n)
        s_inv = window(invert(sigma), (0,) * n)
        if mul(s_inv, u(n, i, j), s) != u(n, sigma[i - 1], sigma[j - 1]):
            failures.append("sd conjugation failure")
            break

    ok = not failures
    report(
        8,
        ok,
        "todd-coxeter/cayley corpus, 200 snf matrices, schreier counts, "
        "100 complex identities, 1000 sd triples"
        + ("" if ok else f"; failures: {failures[:3]}"),
    )
