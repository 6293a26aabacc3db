import itertools
import json
import random
import re
import time

import pytest

import galcov.cli
import galcov.coxeter
from galcov.cli import AnalysisError, analyze, emit_report, main
from galcov.complexes import ClassificationError
from galcov.datasets import load_builtin
from galcov.enumeration import coset_enumeration
from galcov.invariants import InvariantError, chern_signature, singularity_counts
from galcov.permutations import plane_transposition_map
from galcov.presentation import (
    GroupPresentation,
    build_tilde_presentation,
    complement_path,
    parse_relation,
)

from .conftest import (
    plane_cycle_complex,
    prism_complex,
    relabel_complex,
    serialize_complex,
    write_dt4_power,
)


def test_analyze_t4_report():
    report = analyze("t4")
    assert report.tilde_order == 24
    assert report.symmetric_image_order == 24
    assert report.kernel_order == 1
    assert report.pi1 == {"kind": "Trivial"}
    assert report.chern["chi"] == -24
    assert not report.undecided
    # only --route both has a kernel presentation to check the index against
    assert report.kernel_cross_check is None
    assert report.enumeration_route == {
        "complement_generators": ["g1", "g4", "g3"],
        "index": 1,
        "invariants": [],
        "verdict": {"kind": "Trivial"},
        "pi1": "trivial",
    }
    both = analyze("t4", route="both")
    assert both.kernel_cross_check == {
        "from_index": 1,
        "from_subgroup_presentation": 1,
        "agree": True,
    }


def test_analyze_rejects_unknown_route():
    with pytest.raises(AnalysisError):
        analyze("t4", route="sideways")


def test_analyze_missing_file_is_parse_stage():
    with pytest.raises(AnalysisError) as info:
        analyze("missing.json")
    assert info.value.stage == "parse"
    assert info.value.exit_code == 2


def test_directory_source_is_parse_error(tmp_path, capsys):
    # the path exists but is no file: reading it fails, and nothing is parsed
    assert main(["analyze", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"[parse] cannot read {tmp_path}: " in err
    # the reason follows the path, which the message names once
    assert err.count(str(tmp_path)) == 1
    assert "Traceback" not in err


def test_classification_error_is_classify_stage(monkeypatch):
    def refuse(c, v):
        raise ClassificationError(f"vertex {v.id}: refused")

    monkeypatch.setattr(galcov.cli, "classify_vertex", refuse)
    with pytest.raises(AnalysisError) as info:
        analyze("t4")
    assert info.value.stage == "classify"
    assert info.value.exit_code == 2
    assert str(info.value) == "[classify] vertex 1: refused"


def test_analyze_invalid_complex(tmp_path, t4):
    # break the complex: drop one vertex so three edges lose an endpoint
    import galcov.complexes as cx

    broken = cx.DegenerationComplex(
        name="broken",
        plane_count=t4.plane_count,
        edges=t4.edges,
        vertices=t4.vertices[:-1],
    )
    path = tmp_path / "broken.json"
    path.write_text(serialize_complex(broken), encoding="utf-8")
    with pytest.raises(AnalysisError) as info:
        analyze(str(path))
    assert info.value.stage == "validate"


def test_analyze_file_source_roundtrip(tmp_path, t4):
    path = tmp_path / "t4.json"
    path.write_text(serialize_complex(t4), encoding="utf-8")
    report = analyze(str(path))
    assert report.tilde_order == 24
    assert report.source == str(path)


def test_json_report_shape_and_determinism():
    report = analyze("t4", emit_presentation=True)
    blob1 = emit_report(report, "json")
    blob2 = emit_report(report, "json")
    assert blob1 == blob2
    data = json.loads(blob1)
    assert data["schema"] == 2
    assert data["pi1"] == {"kind": "Trivial"}
    assert data["counts"] == {"n": 4, "m": 12, "mu": 16, "d": 12, "rho": 24}
    assert data["chern"] == {"c1sq": 216, "c2": 144, "chi": -24}
    # emitted relators parse back through the grammar
    names = tuple(f"g{i}" for i in range(1, 7))
    words = [parse_relation(line, names) for line in data["presentation"]]
    assert len(words) == 25


def test_json_report_dt4_coxeter_route():
    report = analyze("dt4", route="coxeter")
    data = json.loads(emit_report(report, "json"))
    assert data["pi1"] == {"kind": "ElementaryAbelian2", "rank": 4}
    assert data["tilde_order"] == 11520
    assert data["kernel_order"] == 16
    assert data["routes"]["coxeter"]["invariants"] == [1, 2, 2, 2, 2]
    assert data["routes"]["enumeration"] is None


def test_text_report_mentions_verdict():
    report = analyze("t4")
    text = emit_report(report, "text").decode()
    assert "Trivial" in text
    assert "chi=-24" in text


def test_emit_report_unknown_format():
    report = analyze("t4")
    with pytest.raises(ValueError):
        emit_report(report, "yaml")


def test_main_exit_codes(tmp_path, capsys):
    assert main(["analyze", "t4"]) == 0
    capsys.readouterr()
    assert main(["analyze", "missing.json"]) == 2
    capsys.readouterr()
    # overflow: undecided (t4 decides from 4 cosets on)
    assert main(["analyze", "t4", "--max-cosets", "3"]) == 1
    out = capsys.readouterr()
    assert "undecided at bound" in out.out


def test_main_builtin_name_as_source(capsys):
    assert main(["analyze", "t4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["source"] == "builtin:t4"
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--dataset", "t4"])
    assert info.value.code == 2


def test_main_requires_source():
    with pytest.raises(SystemExit) as info:
        main(["analyze"])
    assert info.value.code == 2


def test_route_agreement_flag_null_without_both():
    report = analyze("t4")
    assert report.route_agreement is None


def test_undecided_pipeline_reports_overflow():
    report = analyze("t4", max_cosets=3)
    assert report.undecided
    assert report.tilde_order is None
    assert report.pi1["kind"] == "Undetermined"
    assert any("undecided at bound" in w for w in report.warnings)


def test_both_routes_enumerate_once_after_overflow(monkeypatch, capsys):
    # every table of G~ is over the S_n complement: at 3 the complement
    # search stops before its 4th partial path, so no route enumerates G~,
    # and t4's 24-row kernel table is over the bound too
    calls = []
    real = galcov.cli.coset_enumeration

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(galcov.cli, "coset_enumeration", counting)
    warning = "undecided at bound: no S_n complement within 3 partial paths"
    report = analyze("t4", route="both", max_cosets=3)
    assert calls == []
    assert report.undecided
    assert report.pi1["kind"] == "Undetermined"
    assert report.coxeter_route["supported"] is False
    assert report.warnings[2] == warning
    assert main(["analyze", "t4", "--route", "both", "--max-cosets", "3"]) == 1
    assert f"warning: {warning}\n" in capsys.readouterr().out
    assert calls == []


def test_analyze_dt4_both_routes():
    report = analyze("dt4", route="both")
    assert report.tilde_order == 11520
    assert report.kernel_order == 16
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.chern["chi"] == 0
    assert report.route_agreement is True
    assert report.kernel_cross_check["agree"] is True
    assert report.coxeter_route["invariants"] == [1, 2, 2, 2, 2]


def test_analyze_file_without_plan_reports_coxeter_unsupported(tmp_path, dt4):
    # the elimination plan is derived from the complex, not attached to the
    # builtin dataset: the same complex read from a file reports the same
    path = tmp_path / "dt4.json"
    path.write_text(serialize_complex(dt4), encoding="utf-8")
    for route in ("enumerate", "coxeter", "both"):
        reports = [
            json.loads(emit_report(analyze(source, route=route), "json"))
            for source in ("dt4", str(path))
        ]
        for data in reports:
            del data["timings"], data["source"]
        assert reports[0] == reports[1]
        if route != "enumerate":
            assert reports[1]["routes"]["coxeter"]["supported"] is True


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
def test_every_route_times_the_assignment_build(route):
    # the plane-transposition map is a stage of its own, timed before the
    # image order and the homomorphism check that read it
    stages = list(analyze("dt4", route=route).timings)
    assert stages.index("assignment") < stages.index("image_order") < stages.index("homomorphism")


def test_coxeter_route_builds_no_table_of_the_group():
    # --route coxeter runs no complement search and no enumeration of G~:
    # its one enumeration, over its cycle, is timed in its own stage
    report = analyze("dt4", route="coxeter")
    assert report.enumeration_route is None
    assert {"presentation", "coxeter"} <= set(report.timings)
    assert not {"complement", "enumerate"} & set(report.timings)
    # without a projective relator the route declines, and runs neither
    report = analyze("t4", route="coxeter")
    assert report.coxeter_route == {
        "supported": False, "reason": "no projective relator to quotient by"
    }
    assert not {"complement", "enumerate"} & set(report.timings)
    assert report.kernel_order is None and report.tilde_order is None


def test_coxeter_route_overflow_is_undecided_at_bound(capsys):
    # the route's enumeration over its cycle defines 11 cosets on dt4, so at
    # 11 it overflows: a bound hit, reported as the other routes report
    # one, not as an unsupported route
    warning = "undecided at bound: coxeter route: enumeration over the cycle overflow at 11 cosets"
    report = analyze("dt4", route="coxeter", max_cosets=11)
    assert report.undecided
    assert report.tilde_order is None and report.kernel_order is None
    assert report.pi1 == {"kind": "Undetermined", "note": "undecided at bound 11"}
    assert report.warnings[2:] == [warning]
    assert report.coxeter_route is None
    assert list(report.timings)[-1] == "coxeter"
    assert main(["analyze", "dt4", "--route", "coxeter", "--max-cosets", "11"]) == 1
    assert f"warning: {warning}\n" in capsys.readouterr().out
    assert main(["analyze", "dt4", "--route", "coxeter", "--max-cosets", "12"]) == 0
    assert "Z2^4 (order 16)" in capsys.readouterr().out
    # below 8 partial paths the walk to the cycle stops first
    report = analyze("dt4", route="coxeter", max_cosets=6)
    assert report.warnings[2:] == [
        "undecided at bound: coxeter route: walk of the plane graph stopped at 6 partial paths"
    ]


def test_coxeter_route_enumerates_once_over_the_cycle(monkeypatch):
    # no enumeration of G~ over its complement; one of the group without
    # its projective relator over the cycle g1 g4 g2 g5 g9 g8
    calls = {}
    for module in (galcov.cli, galcov.coxeter):
        real = module.coset_enumeration
        calls[module] = []

        def recording(pres, subgroup, max_cosets, real=real, seen=calls[module]):
            seen.append(subgroup)
            return real(pres, subgroup, max_cosets)

        monkeypatch.setattr(module, "coset_enumeration", recording)
    report = analyze("dt4", route="coxeter")
    assert calls[galcov.cli] == []
    assert calls[galcov.coxeter] == [[(1,), (4,), (2,), (5,), (9,), (8,)]]
    assert report.coxeter_route["order"] == 16
    assert report.kernel_order == 16 and report.tilde_order == 11_520


def test_main_rejects_max_cosets_below_one(capsys):
    assert main(["analyze", "t4", "--max-cosets", "0"]) == 2
    err = capsys.readouterr().err
    assert "[options]" in err
    assert "Traceback" not in err
    with pytest.raises(AnalysisError) as info:
        analyze("t4", max_cosets=-3)
    assert info.value.stage == "options"


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[parse]" in err
    assert "Traceback" not in err


def test_integer_past_the_digit_limit_is_parse_error(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"planes": 1' + "0" * 5000 + "}", encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[parse] invalid JSON: Exceeds the limit" in err
    assert "Traceback" not in err


def test_boolean_plane_is_parse_error(tmp_path, capsys):
    from galcov.datasets import T4_JSON

    path = tmp_path / "bool.json"
    path.write_text(
        T4_JSON.replace('{"id": 1, "planes": [1, 3]}', '{"id": 1, "planes": [1, true]}'),
        encoding="utf-8",
    )
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[parse]" in err
    assert "edges[0]: edge planes must be a pair of integers" in err


def test_degree_over_the_factorial_guard_is_chern_error(monkeypatch, capsys):
    # the plane cycle has 12 planes but fails validate (see below), so the
    # guard is met by a direct call, and through analyze by t4's counts
    # given degree 12
    with pytest.raises(InvariantError, match="degree 12 exceeds the supported bound 10"):
        chern_signature(singularity_counts(plane_cycle_complex()))
    counts = galcov.cli.singularity_counts
    monkeypatch.setattr(
        galcov.cli, "singularity_counts", lambda c: counts(c)._replace(n=12)
    )
    assert main(["analyze", "t4"]) == 2
    err = capsys.readouterr().err
    assert "[chern] degree 12 exceeds the supported bound 10" in err
    assert "Traceback" not in err


def test_three_point_whose_edges_share_no_plane_is_validate_error(tmp_path, capsys):
    # vertex 1 of the plane cycle joins edge 1 (planes 1, 2) and edge 3
    # (planes 3, 4): its three edges are not three planes meeting pairwise
    path = tmp_path / "twelve.json"
    path.write_text(serialize_complex(plane_cycle_complex()), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[validate] vertex 1: edges 1 and 3 share no plane" in err
    assert "Traceback" not in err


def test_three_point_whose_edges_share_one_plane_is_validate_error(tmp_path, capsys):
    # edges (1, 2), (1, 3) and (1, 4) pairwise share plane 1, so they pass
    # the pairwise check, but they span four planes: not three planes
    # meeting pairwise.  Past validate, the plane transpositions would
    # break a branch relator at [kernel]
    complex_ = {
        "name": "one-plane star",
        "planes": 4,
        "edges": [{"id": k, "planes": [1, k + 1]} for k in (1, 2, 3)],
        "vertices": [{"id": v, "edges": [1, 2, 3]} for v in (1, 2)],
    }
    path = tmp_path / "star.json"
    path.write_text(json.dumps(complex_), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "[validate] vertex 1: its three edges span 4 planes" in err
    assert "vertex 2: its three edges span 4 planes" in err
    assert "share no plane" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "name,old,new,named",
    [
        ("t4", '"edges": [1, 2, 4]}', '"edges": [1, 2, 4, 4]}', "vertices[0]: repeated edge id 4"),
        ("dt4", '"edges": [1, 6, 8, 9]}', '"edges": [1, 6, 8, 9, 9]}', "vertices[2]: repeated edge id 9"),
    ],
)
def test_repeated_vertex_edge_is_parse_error(tmp_path, capsys, name, old, new, named):
    # a set of edge ids would drop the repeat: t4 would pass as a 3-point,
    # dt4's 5-entry vertex as a 4-point
    from galcov.datasets import DT4_JSON, T4_JSON

    text = {"t4": T4_JSON, "dt4": DT4_JSON}[name]
    assert text.count(old) == 1
    path = tmp_path / f"{name}.json"
    path.write_text(text.replace(old, new), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"[parse] {named}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize(
    "n,first",
    [(3, "plane 3: edges 1 and 4"), (4, "plane 1: edges 1 and 3"), (5, "plane 1: edges 1 and 3")],
)
def test_plane_edges_sharing_no_vertex_are_validate_error(tmp_path, capsys, n, first):
    # two lines in one plane meet: in a prism, each side face's top and
    # bottom edges share no vertex, nor do its two vertical edges, and
    # once n > 3 neither do the cap edges of non-adjacent sides; each
    # plane states its first such pair and how many pairs share none
    path = tmp_path / "prism.json"
    path.write_text(serialize_complex(prism_complex(n)), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"[validate] {first} share no vertex; " in err
    apart = [int(k) for k in re.findall(r"share no vertex; (\d+) of the", err)]
    assert len(apart) == err.count("share no vertex") == {3: 3, 4: 6, 5: 7}[n]
    assert sum(apart) == {3: 6, 4: 12, 5: 20}[n]
    assert "Traceback" not in err


def star_json(edges):
    """Plane 1 on every edge, plane i + 1 on edge i alone, and one 3-point:
    all but three of the C(edges, 2) pairs in plane 1 share no vertex."""
    return json.dumps({
        "planes": edges + 1,
        "edges": [{"id": i, "planes": [1, i + 1]} for i in range(1, edges + 1)],
        "vertices": [{"id": 1, "edges": [1, 2, 3]}],
    })


def test_star_is_a_short_validate_error(tmp_path, capsys):
    path = tmp_path / "star.json"
    path.write_text(star_json(10_000), encoding="utf-8")
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 2
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert len(err) < 2_000 and "Traceback" not in err
    assert "[validate] vertex 1: its three edges span 4 planes" in err
    pairs = 10_000 * 9_999 // 2
    assert (
        f"plane 1: edges 1 and 4 share no vertex; {pairs - 3} of the {pairs} pairs "
        "of its 10000 edges share none" in err
    )
    # 9,999 edges with fewer than two endpoints: 20 violations, then a count
    assert err.count("; edge ") == 18 and err.endswith("; and 9982 more\n")


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
def test_relators_the_transpositions_break_are_kernel_error(monkeypatch, capsys, route):
    # t4's presentation with two relators that its plane transpositions
    # break, appended as relators 25 and 26: the commutator of g1 and g2,
    # which share a plane, and g1 g2 itself
    build = galcov.cli.build_tilde_presentation

    def broken(c, include_projective=True):
        pres = build(c, include_projective)
        return GroupPresentation.make(pres.names, pres.relators + ((1, 2, -1, -2), (1, 2)))

    monkeypatch.setattr(galcov.cli, "build_tilde_presentation", broken)
    assert main(["analyze", "t4", "--route", route]) == 2
    captured = capsys.readouterr()
    assert "[kernel] plane transpositions do not satisfy relators (25, 26)" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("name", ["t4", "dt4"])
@pytest.mark.parametrize(
    "route,builds,projective", [("enumerate", 1, 0), ("coxeter", 2, 1), ("both", 2, 1)]
)
def test_presentation_builds_per_route(monkeypatch, name, route, builds, projective):
    # only the Coxeter route reads the presentation without the projective
    # relator, and that relator on its own
    calls = {"build_tilde_presentation": 0, "projective_relator": 0}
    for attr in calls:
        real = getattr(galcov.cli, attr)

        def counting(*args, _real=real, _attr=attr, **kwargs):
            calls[_attr] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(galcov.cli, attr, counting)
    analyze(name, route=route)
    assert calls == {"build_tilde_presentation": builds, "projective_relator": projective}


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
def test_unknown_generator_in_the_projective_relator_is_presentation_error(tmp_path, route):
    # the one build under --route enumerate still parses the projective relator
    from galcov.datasets import T4_JSON

    data = json.loads(T4_JSON)
    data["overrides"] = {"projective_relator": "word: g1 g99"}
    path = tmp_path / "t4-g99.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(AnalysisError, match=r"^\[presentation\] unknown generator 'g99'") as info:
        analyze(str(path), route=route)
    assert (info.value.stage, info.value.exit_code) == ("presentation", 2)


@pytest.mark.parametrize("route", ["enumerate", "coxeter", "both"])
@pytest.mark.parametrize(
    "planes, named",
    [
        (5, "edges join {1, 2, 3, 4}; planes on no edge: 5"),
        (11, "edges join {1, 2, 3, 4}; planes on no edge: 5, 6, 7, 8, 9 and 2 more"),
    ],
    ids=["planes5", "planes11"],
)
def test_disconnected_plane_graph_is_validate_error(tmp_path, capsys, route, planes, named):
    # t4 with planes no edge touches: the transpositions cannot generate S_n
    from galcov.datasets import T4_JSON

    path = tmp_path / "loose.json"
    path.write_text(T4_JSON.replace('"planes": 4,', f'"planes": {planes},'), encoding="utf-8")
    assert main(["analyze", str(path), "--route", route]) == 2
    err = capsys.readouterr().err
    assert f"[validate] plane graph is not connected: {named}" in err
    assert "Traceback" not in err


def _recording(monkeypatch):
    """Record every table ``analyze`` enumerates, in call order, and the
    subgroup words it was enumerated over; a call that overflows leaves
    None."""
    tables, subgroups = [], []
    real = galcov.cli.coset_enumeration

    def recording(*args, **kwargs):
        subgroups.append(args[1])
        tables.append(None)
        tables[-1] = real(*args, **kwargs)
        return tables[-1]

    monkeypatch.setattr(galcov.cli, "coset_enumeration", recording)
    return tables, subgroups


@pytest.mark.parametrize("name,kernel_order", [("t4", 1), ("dt4", 16)])
def test_enumerate_route_enumerates_only_the_kernel(monkeypatch, name, kernel_order):
    # the one enumeration is of G~ over an S_n complement H, one coset per
    # kernel element, and |G~| = n!|K|; no presentation of K is built
    tables, subgroups = _recording(monkeypatch)
    for stage in ("kernel_coset_table", "reidemeister_schreier", "simplify_presentation"):
        monkeypatch.setattr(galcov.cli, stage, None)
    report = analyze(name, route="enumerate")
    assert [t.coset_count for t in tables] == [kernel_order]
    assert len(subgroups[0]) == report.symmetric_degree - 1
    assert report.tilde_order == report.symmetric_image_order * kernel_order
    assert {"complement", "enumerate", "regular_kernel"} <= set(report.timings)
    assert not {"kernel_table", "reidemeister_schreier", "simplify"} & set(report.timings)


@pytest.mark.parametrize("name,seed", [("t4", None), ("t4", 1), ("t4", 2), ("t4", 3),
                                       ("dt4", None), ("dt4", 1), ("dt4", 2), ("dt4", 3)])
def test_enumerate_route_order_equals_full_table(monkeypatch, tmp_path, name, seed):
    complex_ = load_builtin(name)
    source = name
    if seed is not None:
        source = tmp_path / f"{name}-{seed}.json"
        complex_ = relabel_complex(complex_, random.Random(seed))
        source.write_text(serialize_complex(complex_), encoding="utf-8")
        source = str(source)
    tables, subgroups = _recording(monkeypatch)
    both = analyze(source, route="both")
    # G~ is enumerated over an S_n complement H first, then the kernel
    # presentation, whose |K| and invariants must match the regular action's
    assert len(tables) == 2 and len(subgroups[0]) == both.symmetric_degree - 1
    assert subgroups[1] == ()
    index = tables[0].coset_count
    full = coset_enumeration(build_tilde_presentation(complex_), (), 1_000_000).coset_count
    assert full == {"t4": 24, "dt4": 11_520}[name]
    assert index * both.symmetric_image_order == full
    assert both.kernel_cross_check == {
        "from_index": index, "from_subgroup_presentation": index, "agree": True
    }
    enumerate_only = analyze(source, route="enumerate")
    assert enumerate_only.tilde_order == full == both.tilde_order
    assert enumerate_only.pi1 == both.pi1 == {
        "t4": {"kind": "Trivial"}, "dt4": {"kind": "ElementaryAbelian2", "rank": 4}
    }[name]
    # the Coxeter route derives its plan on every relabeling of dt4, and
    # declines on t4, which has no projective relator
    if name == "dt4":
        assert both.route_agreement is True
        assert both.coxeter_route["order"] == index
    else:
        assert both.route_agreement is None
        assert both.coxeter_route["supported"] is False
        assert "no projective relator" in both.coxeter_route["reason"]


def test_non_abelian_verdict_is_reported_exactly():
    from galcov.cli import _verdict_dict, _verdicts_equal
    from galcov.kernel import StructureVerdict

    s3 = StructureVerdict(
        kind="NonAbelian", order=6, factors=(2,), centre_order=1, derived_order=3
    )
    assert _verdict_dict(s3) == {
        "kind": "NonAbelian", "order": 6, "centre_order": 1, "derived_order": 3
    }
    assert s3.describe() == "non-abelian of order 6 (centre 1, derived subgroup 3)"
    assert _verdicts_equal(s3, s3)
    z6 = StructureVerdict(kind="AbelianInvariantFactors", order=6, factors=(6,))
    assert not _verdicts_equal(s3, z6) and not _verdicts_equal(z6, s3)
    q8 = StructureVerdict(
        kind="NonAbelian", order=8, factors=(2, 2), centre_order=2, derived_order=2
    )
    assert not _verdicts_equal(s3, q8)


def test_an_undetermined_verdict_agrees_on_its_order():
    # with one side undetermined the routes compare |K| when both give
    # it, and say nothing when either does not; two decided verdicts
    # compare whole
    from galcov.cli import _routes_agree
    from galcov.kernel import StructureVerdict

    z2 = StructureVerdict(kind="ElementaryAbelian2", rank=4, order=16, factors=(2,) * 4)
    z4 = StructureVerdict(kind="AbelianInvariantFactors", order=16, factors=(4, 4))
    free = StructureVerdict(kind="AbelianInvariantFactors", order=None, factors=(0,))
    for decided in (z2, z4):
        assert _routes_agree(StructureVerdict("Undetermined", order=16), decided) is True
        assert _routes_agree(decided, StructureVerdict("Undetermined", order=32)) is False
        assert _routes_agree(StructureVerdict("Undetermined"), decided) is None
    assert _routes_agree(StructureVerdict("Undetermined", order=16), free) is None
    assert _routes_agree(z2, z2) is True and _routes_agree(z2, z4) is False


def test_routes_that_disagree_are_reported(monkeypatch, capsys):
    # a Coxeter route that reads the quotient of twice dt4's projective
    # vector, Z2 x Z4^4 of order 512, against the regular action's Z2^4:
    # the regular action's verdict stands, and the report says NO
    from galcov.coxeter import lattice_quotient

    real = galcov.cli.coxeter_route

    def doubled(*args):
        route = real(*args)
        return route._replace(quotient=lattice_quotient([2 * x for x in route.proj_vector]))

    monkeypatch.setattr(galcov.cli, "coxeter_route", doubled)
    report = analyze("dt4", route="both")
    assert report.coxeter_route["supported"] is True
    assert report.coxeter_route["order"] == 512
    assert report.route_agreement is False
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.kernel_order == 16 and not report.undecided
    assert main(["analyze", "dt4", "--route", "both"]) == 0
    out = capsys.readouterr().out
    assert "  coxeter route: invariants (2, 4, 4, 4, 4) -> Z2 x Z4 x Z4 x Z4 x Z4" in out
    assert "Routes agree: NO\n" in out


@pytest.mark.parametrize(
    "k,route",
    [(2, "enumerate"), (2, "coxeter"), (2, "both"), (3, "enumerate"), (3, "coxeter")],
)
def test_dt4_power_through_the_command_line(tmp_path, capsys, k, route):
    # dt4^k, the projective relator repeated k times: |K| = 16 k^5 and
    # K = Z_k x Z_2k^4 on every route (k = 3 under both would take seconds
    # in the kernel presentation's enumeration)
    path = write_dt4_power(tmp_path / f"dt4-power{k}.json", k)
    assert main(["analyze", str(path), "--route", route]) == 0
    out = capsys.readouterr().out
    order = 16 * k**5
    factors = (k, 2 * k, 2 * k, 2 * k, 2 * k)
    verdict = " x ".join(f"Z{d}" for d in factors)
    assert f"Group order |G~| = {720 * order}\n" in out
    assert f"Kernel order = {order}\n" in out
    assert f"pi1(X_Gal) verdict: {verdict}\n" in out
    assert "undecided" not in out
    if route != "enumerate":
        assert f"  coxeter route: invariants {factors} -> {verdict} (order {order})" in out
    if route == "both":
        assert "Routes agree: yes\n" in out
    assert main(["analyze", str(path), "--route", route, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pi1"] == {"kind": "AbelianInvariantFactors", "factors": list(factors)}


def test_dt4_power_five_decides_at_the_default_bound(tmp_path, capsys):
    """dt4^5 has |K| = 50,000.  Plain HLT defined over 10^6 cosets on the
    way to its table over the S_n complement; with the long relator's
    definitions deferred the enumeration closes at the default bound, and
    the regular action reads K = Z5 x Z10^4 (about 3 s)."""
    path = write_dt4_power(tmp_path / "dt4-power5.json", 5)
    start = time.perf_counter()
    assert main(["analyze", str(path)]) == 0
    assert time.perf_counter() - start < 60
    out = capsys.readouterr().out
    assert "Kernel order = 50000" in out
    assert "Z5 x Z10 x Z10 x Z10 x Z10" in out


def test_both_routes_raise_when_the_orders_disagree(monkeypatch):
    # a kernel presentation of Z2 for t4 claims |G~| = 24 * 2, but the
    # table over t4's complement S_4 has one row: |G~| = 1 * 24
    z2 = GroupPresentation.make(("x",), [(1, 1)])
    monkeypatch.setattr(galcov.cli, "simplify_presentation", lambda pres: z2)
    # the enumerate route builds no kernel presentation
    assert analyze("t4", route="enumerate").tilde_order == 24
    with pytest.raises(AnalysisError) as info:
        analyze("t4", route="both")
    assert info.value.stage == "kernel"
    assert "[G~:H]|H| = 24," in str(info.value)


def test_both_routes_raise_when_the_invariants_disagree(monkeypatch, capsys):
    # a kernel presentation of Z4 x Z4 has dt4's order 16, so the index
    # check passes, but the regular action gives Z2^4
    z4z4 = GroupPresentation.make(("x", "y"), [(1,) * 4, (2,) * 4, (1, 2, -1, -2)])
    monkeypatch.setattr(galcov.cli, "simplify_presentation", lambda pres: z4z4)
    assert main(["analyze", "dt4", "--route", "both"]) == 2
    err = capsys.readouterr().err
    assert (
        "[kernel] the regular action gives invariants (2, 2, 2, 2), but the kernel "
        "presentation gives invariant factors (4, 4)"
    ) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "name,bound,decides",
    [("t4", 23, False), ("t4", 24, True), ("dt4", 719, False), ("dt4", 720, True),
     ("dt4", 11_519, True)],
)
def test_kernel_table_is_bounded(capsys, name, bound, decides):
    # under --route both the n!-row kernel table is checked against the
    # bound before it is built; below it only the kernel presentation is
    # undecided, and the regular action still decides
    argv = ["analyze", name, "--route", "both", "--max-cosets", str(bound), "--format", "json"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    report = json.loads(out)
    rows = report["symmetric_image_order"]
    assert not report["undecided"]
    assert report["tilde_order"] == {"t4": 24, "dt4": 11_520}[name]
    warning = f"undecided at bound: kernel table needs {rows} rows"
    check = report["kernel_cross_check"]
    if decides:
        assert warning not in report["warnings"]
        assert check["from_subgroup_presentation"] == report["kernel_order"]
    else:
        assert warning in report["warnings"]
        assert check["from_subgroup_presentation"] is None and check["agree"] is None


def _enumerate_route_needs(name):
    """What ``--max-cosets`` must cover before the enumerate route decides,
    in the order it meets them: the partial paths the complement search
    pops, the cosets the enumeration over H allocates (row 0 and one per
    definition) and the |K|(floor(log2 |K|) + 1) lookups of K's regular
    action."""
    complex_ = load_builtin(name)
    pres = build_tilde_presentation(complex_)
    assignment = plane_transposition_map(complex_)
    search = next(b for b in itertools.count(1) if complement_path(pres, assignment, b)[0])
    stats = {}
    path, _ = complement_path(pres, assignment, search)
    k = coset_enumeration(pres, [(g,) for g in path], stats=stats).coset_count
    return search, stats["cosets_defined"] + 1, k * k.bit_length()


@pytest.mark.parametrize(
    "name,bound,decides,warning",
    [
        ("t4", 3, False, "no S_n complement within 3 partial paths"),
        ("t4", 4, False, "enumeration overflow at 4 cosets"),
        ("t4", 5, True, None),
        ("dt4", 5, False, "no S_n complement within 5 partial paths"),
        ("dt4", 6, False, "enumeration overflow at 6 cosets"),
        ("dt4", 73, False, "enumeration overflow at 73 cosets"),
        ("dt4", 79, False, "the regular action of K, of order 16, needs 80 table lookups"),
        ("dt4", 80, True, None),
        ("dt4", 255, True, None),
        ("dt4", 256, True, None),
    ],
)
def test_regular_action_is_bounded(capsys, name, bound, decides, warning):
    # the enumerate route decides once --max-cosets covers all it needs;
    # each case sits on one side of one need, and the first need left
    # uncovered names the warning.  dt4's enumeration allocates 74 cosets,
    # under the 16 * 5 = 80 lookups of its regular action; 255 and 256 sit
    # on either side of the 16^2 that multiplying every pair of K would need
    needs = _enumerate_route_needs(name)
    assert needs == {"t4": (4, 5, 1), "dt4": (6, 74, 80)}[name]
    assert bound in needs or bound + 1 in needs or bound in (255, 256)
    assert decides == (bound >= max(needs))
    if not decides:
        search, allocation, _ = needs
        assert warning.startswith(
            "no S_n complement" if bound < search
            else "enumeration" if bound < allocation
            else "the regular action"
        )
    argv = ["analyze", name, "--max-cosets", str(bound), "--format", "json"]
    assert main(argv) == (0 if decides else 1)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    report = json.loads(out)
    if decides:
        assert not report["undecided"] and not report["warnings"][2:]
        assert report["tilde_order"] == {"t4": 24, "dt4": 11_520}[name]
    else:
        # only a refused regular action leaves a closed table, whose index
        # is |K|
        kernel = 16 if warning.startswith("the regular action") else None
        assert report["undecided"]
        assert report["kernel_order"] == kernel
        assert report["tilde_order"] == (kernel and 720 * kernel)
        assert report["warnings"][2:] == [f"undecided at bound: {warning}"]
        note = {"kind": "Undetermined", "note": f"undecided at bound {bound}"}
        assert report["pi1"] == (note if kernel is None else {**note, "order": kernel})
        # the last stage timed is the one that hit the bound, also when it raised
        last = "complement" if warning.startswith("no S_n") else "enumerate"
        assert list(report["timings"])[-1] == last


def test_kernel_enumeration_overflow_is_undecided(monkeypatch, capsys):
    # under --route both, a kernel presentation of Z100 needs 100 cosets,
    # over the bound of 50: that route is undecided, the regular action
    # decides alone
    z100 = GroupPresentation.make(("x",), [(1,) * 100])
    monkeypatch.setattr(galcov.cli, "simplify_presentation", lambda pres: z100)
    report = analyze("t4", route="both", max_cosets=50)
    assert "undecided at bound: kernel enumeration overflow at 50 cosets" in report.warnings
    assert report.kernel_cross_check == {
        "from_index": 1, "from_subgroup_presentation": None, "agree": None
    }
    assert report.pi1 == {"kind": "Trivial"} and not report.undecided
    assert main(["analyze", "t4", "--route", "both", "--max-cosets", "50"]) == 0
    out = capsys.readouterr().out
    assert "undecided at bound: kernel enumeration" in out
    assert "  kernel presentation: undecided at bound\n" in out
    assert "kernel None" not in out
    # with no complement, hence no table, nothing decides
    monkeypatch.setattr(galcov.cli, "complement_path", lambda *args: ((), ()))
    report = analyze("t4", route="both", max_cosets=20)
    assert report.undecided
    assert report.pi1 == {"kind": "Undetermined", "note": "undecided at bound 20"}


def test_kernel_presentation_decides_alone(monkeypatch):
    # with no complement there is no table of G~: the kernel presentation's
    # |K| is the report's, and the Coxeter route, which reads no table,
    # agrees with it
    monkeypatch.setattr(galcov.cli, "complement_path", lambda *args: ((), ()))
    report = analyze("dt4", route="both", max_cosets=720)
    assert report.enumeration_route is None
    assert report.coxeter_route["order"] == 16
    assert report.kernel_cross_check == {
        "from_index": None, "from_subgroup_presentation": 16, "agree": None
    }
    assert report.route_agreement is True
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.kernel_order == 16 and report.tilde_order == 11_520
    # past the Smith normal form's generator limit it has |K| and no
    # invariants, and |K| = 16 alone decides nothing: the Coxeter route's
    # decided verdict stands, and the routes agree on |K|
    monkeypatch.setattr(galcov.cli, "_SNF_GENERATOR_LIMIT", 0)
    report = analyze("dt4", route="both", max_cosets=720)
    assert not report.undecided and "snf" not in report.timings
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.route_agreement is True
    assert report.kernel_order == 16 and report.tilde_order == 11_520
    assert main(["analyze", "dt4", "--route", "both", "--max-cosets", "720"]) == 0


def test_snf_generator_limit_leaves_the_regular_verdict(monkeypatch):
    # past the limit the kernel presentation checks |K| only, and the
    # regular action's invariants stand
    monkeypatch.setattr(galcov.cli, "_SNF_GENERATOR_LIMIT", 0)
    report = analyze("dt4", route="both")
    assert not report.undecided and "snf" not in report.timings
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.kernel_cross_check["agree"] is True


def test_regular_action_stopped_at_its_lookup_bound(monkeypatch):
    # with the enumeration unbounded, 79 stops only dt4's regular action,
    # which needs 16 * 5 = 80 lookups: alone it leaves the verdict
    # undetermined, with |K| = [G~:H] and |G~| from the closed table, and
    # under --route both the Coxeter route's verdict stands alone
    real = galcov.cli.coset_enumeration
    monkeypatch.setattr(
        galcov.cli, "coset_enumeration", lambda pres, words, bound: real(pres, words)
    )
    warning = "undecided at bound: the regular action of K, of order 16, needs 80 table lookups"
    report = analyze("dt4", route="enumerate", max_cosets=79)
    assert report.undecided and warning in report.warnings
    assert report.kernel_order == 16 and report.tilde_order == 11_520
    assert report.pi1 == {"kind": "Undetermined", "order": 16, "note": "undecided at bound 79"}
    report = analyze("dt4", route="both", max_cosets=79)
    assert not report.undecided and warning in report.warnings
    assert report.enumeration_route is None and report.coxeter_route["order"] == 16
    assert report.kernel_order == 16 and report.tilde_order == 11_520
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.route_agreement is None


@pytest.mark.parametrize(
    "name, route, bound, hits, pi1, kernel, code",
    [
        (
            "dt4", "both", 30,
            ["enumeration overflow at 30 cosets", "kernel table needs 720 rows"],
            {"kind": "ElementaryAbelian2", "rank": 4}, 16, 0,
        ),
        (
            "dt4", "both", 79,
            [
                "the regular action of K, of order 16, needs 80 table lookups",
                "kernel table needs 720 rows",
            ],
            {"kind": "ElementaryAbelian2", "rank": 4}, 16, 0,
        ),
        (
            "t4", "both", 3,
            ["no S_n complement within 3 partial paths", "kernel table needs 24 rows"],
            {"kind": "Undetermined", "note": "undecided at bound 3"}, None, 1,
        ),
        (
            "dt4", "coxeter", 11,
            ["coxeter route: enumeration over the cycle overflow at 11 cosets"],
            {"kind": "Undetermined", "note": "undecided at bound 11"}, None, 1,
        ),
        (
            "dt4", "coxeter", 5,
            ["coxeter route: walk of the plane graph stopped at 5 partial paths"],
            {"kind": "Undetermined", "note": "undecided at bound 5"}, None, 1,
        ),
        (
            "dt4", "both", 11,
            [
                "enumeration overflow at 11 cosets",
                "kernel table needs 720 rows",
                "coxeter route: enumeration over the cycle overflow at 11 cosets",
            ],
            {"kind": "Undetermined", "note": "undecided at bound 11"}, None, 1,
        ),
    ],
)
def test_each_bound_hit_is_one_warning(name, route, bound, hits, pi1, kernel, code, capsys):
    # a run that hits several bounds warns once for each, in the order its
    # stages hit them; the Coxeter route, which builds no table of G~, may
    # still decide
    argv = ["analyze", name, "--route", route, "--max-cosets", str(bound), "--format", "json"]
    assert main(argv) == code
    report = json.loads(capsys.readouterr().out)
    assert report["warnings"][2:] == [f"undecided at bound: {hit}" for hit in hits]
    assert report["pi1"] == pi1
    assert report["kernel_order"] == kernel


def test_kernel_route_decides_both_after_full_overflow(monkeypatch, capsys):
    # dt4's kernel enumeration defines 50 cosets and the one over its
    # complement 100, so at 720, the kernel table's rows, both routes decide
    tables, _ = _recording(monkeypatch)
    report = analyze("dt4", route="both", max_cosets=720)
    assert [t.coset_count for t in tables] == [16, 16]
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.tilde_order == 11_520 and report.kernel_order == 16
    assert not report.undecided
    assert not any("undecided at bound" in w for w in report.warnings)
    assert report.kernel_cross_check == {
        "from_index": 16, "from_subgroup_presentation": 16, "agree": True
    }
    assert report.route_agreement is True
    # with no complement found, G~ is not enumerated at all: the one table
    # is the kernel enumeration's, the kernel presentation decides, and the
    # Coxeter route, which needs no table, agrees
    monkeypatch.setattr(galcov.cli, "complement_path", lambda *args: ((), ()))
    tables.clear()
    report = analyze("dt4", route="both", max_cosets=720)
    assert [t.coset_count for t in tables] == [16]
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert not report.undecided
    assert "undecided at bound: no S_n complement within 720 partial paths" in report.warnings
    assert report.kernel_cross_check["from_index"] is None
    assert report.coxeter_route["order"] == 16
    assert report.route_agreement is True
    assert main(["analyze", "dt4", "--route", "both", "--max-cosets", "720"]) == 0
    assert "undecided at bound: no S_n complement within 720" in capsys.readouterr().out
    # below the kernel table's 720 rows both kernel routes stop at their
    # bounds, and the Coxeter route decides alone
    assert main(["analyze", "dt4", "--route", "both", "--max-cosets", "30"]) == 0
    out = capsys.readouterr().out
    assert "undecided at bound: kernel table needs 720 rows" in out
    assert "undecided at bound: no S_n complement within 30 partial paths" in out
    assert "pi1(X_Gal) verdict: Z2^4\n" in out and "Routes agree" not in out
