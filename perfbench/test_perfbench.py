"""Tests of the benchmark's input generator, correctness gate and tracer.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib
import json
import random
import signal
import statistics
import time
from pathlib import Path

import pytest

import galcov.cli
from galcov.cli import analyze, emit_report
from galcov.datasets import BUILTIN_SOURCES
from galcov.presentation import GroupPresentation
from relabel import relabel_json
from speed import REFERENCE_PROBE_S, SpeedSampler
from tracer import HOOKS, ROOT_SPAN, Tracer
from workloads import WORKLOADS


def _relabeled(tmp_path, dataset, seed):
    path = tmp_path / f"{dataset}-{seed}.json"
    path.write_text(relabel_json(BUILTIN_SOURCES[dataset], random.Random(seed)))
    return str(path)


def _without_timings(report):
    data = report.to_dict()
    del data["timings"]
    return data


def test_relabeled_dt4_keeps_the_paper_values(tmp_path):
    source = _relabeled(tmp_path, "dt4", 7)
    assert Path(source).read_text() != BUILTIN_SOURCES["dt4"]
    blob = emit_report(analyze(source, route="both"), "json")
    assert WORKLOADS["dt4-relabeled"].check(blob) == []


@pytest.mark.parametrize("seed", range(5))
def test_relabeled_t4_keeps_the_paper_values(tmp_path, seed):
    source = _relabeled(tmp_path, "t4", seed)
    blob = emit_report(analyze(source, route="both"), "json")
    assert WORKLOADS["t4-batch"].check(blob) == []


class _Reversing:
    """Stand-in for random.Random whose shuffle reverses the list."""

    def shuffle(self, items):
        items.reverse()


def test_relabeling_maps_edges_planes_and_override_indices():
    out = json.loads(relabel_json(BUILTIN_SOURCES["dt4"], _Reversing()))
    # edge k -> 10 - k, plane p -> 7 - p, vertex v -> 6 - v
    assert out["edges"][-1] == {"id": 9, "planes": [6, 5]}  # was edge 1, planes 1 2
    assert out["vertices"][-1] == {"id": 5, "edges": [1, 5, 7]}  # was vertex 1
    overrides = out["overrides"]
    assert overrides["extra_relators"][0] == "ccomm 9 : g2 g3 g2"
    assert overrides["extra_relators"][-1] == "eq: g7 g2 g3 g2 g7 = g6 g4 g5 g4 g6"
    assert overrides["projective_relator"].startswith("word: g2 g3 g8 g7 g8 g3 g2 g2")


def test_gate_rejects_a_wrong_value():
    workload = WORKLOADS["t4-batch"]
    report = json.loads(emit_report(analyze("t4", route="both"), "json"))
    assert workload.check(json.dumps(report).encode()) == []
    report["chern"]["chi"] = 24
    report["undecided"] = True
    problems = workload.check(json.dumps(report).encode())
    assert len(problems) == 2


def test_coxeter_gate_requires_a_supported_route():
    workload = WORKLOADS["dt4-coxeter"]
    report = json.loads(emit_report(analyze("t4", route="both"), "json"))
    assert any(p.startswith("coxeter route") for p in workload.check(json.dumps(report)))


@pytest.mark.parametrize("source,route", [("t4", "both"), ("dt4", "coxeter")])
def test_traced_and_untraced_reports_agree(source, route):
    plain = analyze(source, route=route)
    tracer = Tracer()
    with tracer.installed(), tracer.analysis(1):
        traced = analyze(source, route=route)
    assert _without_timings(traced) == _without_timings(plain)
    assert tracer.counts[1]["presentation.build_calls"] == 2
    # every hook is restored once the block ends
    for module_name, attr, _, _ in HOOKS:
        assert not hasattr(getattr(importlib.import_module(module_name), attr), "__wrapped__")
    assert not hasattr(GroupPresentation.make, "__wrapped__")
    assert galcov.cli.coset_enumeration.__module__ == "galcov.enumeration"


def test_self_times_add_up_to_each_analysis_span():
    tracer = Tracer()
    with tracer.installed():
        for analysis_id in (1, 2):
            with tracer.analysis(analysis_id):
                analyze("t4", route="both")
    roots = tracer.root_durations()
    assert sorted(roots) == [1, 2]
    for analysis_id, per_span in tracer.self_times().items():
        assert sum(per_span.values()) == pytest.approx(roots[analysis_id], abs=1e-9)
        assert per_span[ROOT_SPAN] >= 0
    for name, start, end, parent, analysis_id in tracer.spans:
        assert start <= end
        if parent is not None:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == analysis_id


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_sampler_probes_inside_the_work_and_scales_its_wall_time():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = SpeedSampler()
    with sampler.installed():
        seconds, wall, result = sampler.measure(lambda: _spin(0.1))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            sampler.measure(lambda: 1 / 0)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert result == "done"
    assert 0.05 < wall < 0.1  # the spin's wall time, less the probes inside it
    assert seconds > 0


def test_sampler_seconds_are_wall_time_at_the_reference_probe_time():
    sampler = SpeedSampler()
    with sampler.installed():
        seconds, wall, _ = sampler.measure(lambda: _spin(0.1))
    assert len(sampler.probes) >= 7  # before, at least five from the timer, and after
    assert seconds == pytest.approx(wall * REFERENCE_PROBE_S / statistics.median(sampler.probes))
