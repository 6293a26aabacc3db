"""galcov benchmark: wall time of one analysis, as `galcov analyze --format json`.

One workload, one run:

    python3 perfbench/run.py --workload dt4-enumerate --seed 1 --seconds 36 --trace 0

Every workload, untraced and traced, with each metric printed by name and
unit; exits non-zero when any analysis failed:

    python3 perfbench/run.py --seed 1 --seconds 36

A run is one single-threaded process running a closed loop: one analysis
at a time, back to back, until ``--seconds`` have passed.  An analysis is
``galcov.cli.analyze`` followed by ``emit_report(report, "json")``.  Times
are reported at a fixed reference speed of the host: ``speed.py`` probes
the host's speed while each analysis and each set-up runs, and scales its
wall time by it, so the host's drift between runs does not show.  Each
emitted report is checked against the paper's values; an exception or a
wrong value counts as a failed analysis.  With ``--trace 1`` the run
alternates untraced and traced analyses of the same input and reports
the per-layer metrics of ``tracer.py`` instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import SpeedSampler
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"  # span files of traced runs
SETUP_PROBES = 8  # set-ups timed in fresh interpreters during a run
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile
CHILD_TIMEOUT_S = 170


def set_up(workload, seed, workdir, sampler):
    """Import galcov and write the workload's inputs: the set-up that
    ``setup_s`` measures.  Returns (reference seconds, sources)."""

    def work():
        import galcov.cli  # noqa: F401

        return workload.make_inputs(seed, workdir)

    seconds, _, sources = sampler.measure(work)
    return seconds, sources


def analyze_once(workload, source, sampler=None):
    """One analysis; returns (seconds, wall seconds, report, blob).  With a
    sampler the seconds are at its reference speed, else they are wall
    seconds."""
    from galcov.cli import analyze, emit_report

    def work():
        report = analyze(source, route=workload.route)
        return report, emit_report(report, "json")

    if sampler is None:
        t0 = time.perf_counter()
        report, blob = work()
        wall = time.perf_counter() - t0
        return wall, wall, report, blob
    seconds, wall, (report, blob) = sampler.measure(work)
    return seconds, wall, report, blob


class Loop:
    """The closed loop's attempts, and its failures of the gate."""

    def __init__(self, workload, sampler=None):
        self.workload = workload
        self.sampler = sampler  # None: report wall seconds
        self.attempted = 0
        self.failed = 0

    def run(self, source, tracer=None):
        """One checked analysis; returns (seconds, wall seconds, report) or
        None on failure.  A traced analysis is timed without probes, so
        that no probe time lands in its spans."""
        self.attempted += 1
        try:
            if tracer is None:
                elapsed, wall, report, blob = analyze_once(self.workload, source, self.sampler)
            else:
                # the attempt number is the analysis id of the trace
                with tracer.installed(), tracer.analysis(self.attempted):
                    elapsed, wall, report, blob = analyze_once(self.workload, source)
            problems = self.workload.check(blob)
        except Exception:  # noqa: BLE001 - a failed analysis is data, not a crash
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"wrong result for {source}: {'; '.join(problems)}", file=sys.stderr)
            self.failed += 1
            return None
        return elapsed, wall, report


def measure(loop, sources, seconds, set_up_probe):
    """Closed loop for ``seconds``.  Between analyses, at evenly spaced
    times, it also runs ``set_up_probe``, a fresh interpreter's set-up, so
    that the set-up samples see the machine in the same states as the
    analyses."""
    samples, walls, setups = [], [], []
    start = time.perf_counter()
    while (now := time.perf_counter()) < start + seconds:
        if now >= start + seconds * len(setups) / SETUP_PROBES:
            setups.append(set_up_probe())
            continue
        out = loop.run(sources[loop.attempted % len(sources)])
        if out is not None:
            samples.append(out[0])
            walls.append(out[1])
    return samples, walls, setups


def measure_traced(loop, sources, seconds):
    """Alternate an untraced and a traced analysis of each input, both
    timed in wall seconds."""
    tracer = Tracer()
    plain, traced, timed = [], [], {}
    deadline = time.perf_counter() + seconds
    pair = 0
    while time.perf_counter() < deadline:
        source = sources[pair % len(sources)]
        pair += 1
        before = loop.run(source)
        out = loop.run(source, tracer)
        if before is not None and out is not None:
            plain.append(before[0])
            traced.append(out[0])
            timed[loop.attempted] = sum(out[2].timings.values())
    return tracer, plain, traced, timed


def end_to_end(loop, samples, walls, setup_samples):
    print(f"analyze_wall_s {statistics.median(walls)} s (median, not scaled)")
    metrics = {
        "analyze_s": (statistics.median(samples), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio"),
    }
    print(f"samples {len(samples)} analyses")
    if len(samples) >= P90_MIN_SAMPLES:
        print(f"analyze_s.p90 {statistics.quantiles(samples, n=10)[-1]} s")
    return metrics


def per_layer(tracer, plain, traced, timed):
    metrics = tracer.layer_metrics(timed)
    # each traced analysis against the untraced one just before it
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["trace.overhead_s"] = (overhead, "s")
    print(f"samples {len(traced)} pairs of a traced and an untraced analysis")
    return metrics


def probe_setup(workload, seed):
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-probe", "--workload", workload.name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_workload(args):
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))  # removed at the end
    sampler = SpeedSampler()
    try:
        with sampler.installed():
            setup_s, sources = set_up(workload, args.seed, workdir, sampler)
        if args.setup_probe:
            print(setup_s)
            return 0
        loop = Loop(workload, None if args.trace else sampler)
        if args.trace:
            tracer, plain, traced, timed = measure_traced(loop, sources, args.seconds)
            metrics = per_layer(tracer, plain, traced, timed) if traced else {}
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"{workload.name}.spans.jsonl"
            tracer.write(spans)
            print(f"spans {len(tracer.spans)} written to {spans}")
        else:
            with sampler.installed():
                samples, walls, setups = measure(
                    loop, sources, args.seconds, lambda: probe_setup(workload, args.seed)
                )
            metrics = end_to_end(loop, samples, walls, [setup_s] + setups) if samples else {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=args.seconds + CHILD_TIMEOUT_S)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None:
                print(f"{name} trace={trace}: run failed (exit {proc.returncode})\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            for line in lines[:-1]:
                print(f"{name} {line}")
            ok_ratio = (result["attempted"] - result["failed"]) / result["attempted"]
            print(f"{name} attempted {result['attempted']} failed {result['failed']} "
                  f"ok_ratio {ok_ratio}")
            ok = ok and ok_ratio == 1
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "galcov" / "__init__.py").is_file():
        print(f"error: galcov sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
