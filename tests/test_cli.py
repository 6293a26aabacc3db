import json

import pytest

import galcov.cli
from galcov.cli import AnalysisError, analyze, emit_report, main
from galcov.complexes import serialize_complex
from galcov.presentation import parse_relation


def test_analyze_t4_report():
    report = analyze("t4")
    assert report.tilde_order == 24
    assert report.symmetric_image_order == 24
    assert report.kernel_order == 1
    assert report.pi1 == {"kind": "Trivial"}
    assert report.chern["chi"] == -24
    assert not report.undecided
    assert report.kernel_cross_check["agree"] is True


def test_analyze_rejects_unknown_route():
    with pytest.raises(AnalysisError):
        analyze("t4", route="sideways")


def test_analyze_missing_file_is_parse_stage():
    with pytest.raises(AnalysisError) as info:
        analyze("missing.json")
    assert info.value.stage == "parse"
    assert info.value.exit_code == 2


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
    assert data["schema"] == 1
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
    # overflow: undecided
    assert main(["analyze", "t4", "--max-cosets", "5"]) == 1
    out = capsys.readouterr()
    assert "undecided at bound" in out.out


def test_main_dataset_flag(capsys):
    assert main(["analyze", "--dataset", "t4", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["source"] == "builtin:t4"


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
    # the Coxeter route reuses the enumeration route's outcome: after an
    # overflow it must not enumerate the same presentation at the same bound
    calls = []
    real = galcov.cli.coset_enumeration

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(galcov.cli, "coset_enumeration", counting)
    report = analyze("t4", route="both", max_cosets=5)
    assert len(calls) == 1
    assert report.undecided
    assert report.pi1["kind"] == "Undetermined"
    assert report.coxeter_route["supported"] is False
    assert main(["analyze", "t4", "--route", "both", "--max-cosets", "5"]) == 1
    assert "undecided at bound" in capsys.readouterr().out
    assert len(calls) == 2


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
    # the elimination plan is attached to the builtin dataset;
    # the same complex loaded from a file analyzes fine by enumeration,
    # with the coxeter route declining honestly
    path = tmp_path / "dt4.json"
    path.write_text(serialize_complex(dt4), encoding="utf-8")
    report = analyze(str(path), route="both")
    assert report.pi1 == {"kind": "ElementaryAbelian2", "rank": 4}
    assert report.coxeter_route["supported"] is False
    assert report.route_agreement is None


def test_coxeter_route_times_its_fallback_enumeration():
    # --route coxeter has no enumeration-route table, so the Coxeter route
    # enumerates the group itself; that work is reported as "enumerate"
    report = analyze("t4", route="coxeter")
    assert report.enumeration_route is None
    assert {"presentation", "enumerate", "coxeter"} <= set(report.timings)


def test_coxeter_route_overflow_is_undecided_at_bound(capsys):
    # --route coxeter enumerates like the other routes, so an overflow is
    # reported the same way, not as a route that produced no verdict
    report = analyze("dt4", route="coxeter", max_cosets=100)
    assert report.undecided
    assert report.tilde_order is None
    assert report.pi1 == {"kind": "Undetermined", "note": "undecided at bound 100"}
    assert "undecided at bound: enumeration overflow at 100 cosets" in report.warnings
    assert report.coxeter_route["supported"] is False
    assert "no coset table is available" in report.coxeter_route["reason"]
    assert main(["analyze", "dt4", "--route", "coxeter", "--max-cosets", "100"]) == 1
    assert "undecided at bound" in capsys.readouterr().out


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
