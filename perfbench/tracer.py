"""Outside-in tracer for the galcov pipeline.

The tracer rebinds the public functions each galcov module hands to the
pipeline, in the namespaces that import them, so no file under ``src/``
changes.  A wrapper either records a span (name, start, end, parent span,
analysis id) or only counts calls; counts are taken from the wrapped
function's arguments and return value.  Spans stay in memory until
:meth:`Tracer.write` is called at the end of a run.

A span's self time is its duration minus the durations of its direct
children.  Calls that are only counted add no span, so their time stays
in the caller's self time.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "cli.analysis"


def _letters(pres):
    return sum(len(w) for w in pres.relators)


def _count_enumeration(c, args, kwargs, table):
    pres = args[0]
    c["enumeration.calls"] += 1
    c["enumeration.cosets_out"] += table.coset_count
    c["enumeration.relator_letters_in"] += _letters(pres)


def _count_kernel_table(c, args, kwargs, table):
    c["kernel.table_rows"] += table.coset_count


def _count_rs(c, args, kwargs, pres):
    c["kernel.rs_generators_out"] += pres.generator_count
    c["kernel.rs_relators_out"] += len(pres.relators)
    c["kernel.rs_letters_out"] += _letters(pres)


def _count_simplify(c, args, kwargs, pres):
    c["presentation.simplify_letters_in"] += _letters(args[0])
    c["presentation.simplify_letters_out"] += _letters(pres)
    c["presentation.simplify_generators_out"] += pres.generator_count
    c["presentation.simplify_relators_out"] += len(pres.relators)


def _calls(metric):
    def count(c, args, kwargs, out):
        c[metric] += 1

    return count


def _count_coxeter(c, args, kwargs, route):
    c["coxeter.supported"] += 1 if route.supported else 0


# (module, attribute, span name or None for a count-only wrapper, counter).
# Each entry rebinds the name where the pipeline looks it up.
HOOKS = (
    ("galcov.cli", "parse_complex", "complexes.parse", None),
    ("galcov.datasets", "parse_complex", "complexes.parse", None),
    ("galcov.cli", "validate", "complexes.validate", None),
    ("galcov.cli", "classify_vertex", None, _calls("complexes.classify_calls")),
    ("galcov.invariants", "classify_vertex", None, _calls("complexes.classify_calls")),
    ("galcov.presentation", "classify_vertex", None, _calls("complexes.classify_calls")),
    ("galcov.cli", "singularity_counts", "invariants", None),
    ("galcov.cli", "chern_signature", "invariants", None),
    ("galcov.cli", "build_tilde_presentation", "presentation.build",
     _calls("presentation.build_calls")),
    ("galcov.cli", "permutation_group_order", "permutations.order",
     _calls("permutations.order_calls")),
    ("galcov.kernel", "permutation_group_order", "permutations.order",
     _calls("permutations.order_calls")),
    ("galcov.cli", "verify_homomorphism", None, _calls("permutations.verify_calls")),
    ("galcov.kernel", "verify_homomorphism", None, _calls("permutations.verify_calls")),
    ("galcov.cli", "coset_enumeration", "enumeration", _count_enumeration),
    ("galcov.cli", "kernel_coset_table", "kernel.table", _count_kernel_table),
    ("galcov.cli", "reidemeister_schreier", "kernel.rs", _count_rs),
    ("galcov.cli", "simplify_presentation", "presentation.simplify", _count_simplify),
    ("galcov.cli", "abelianization", "kernel.abelian", None),
    ("galcov.cli", "coxeter_route", "coxeter.route", _count_coxeter),
    ("galcov.presentation", "eliminate_and_rewrite", None,
     _calls("presentation.eliminate_calls")),
    ("galcov.coxeter", "eliminate_and_rewrite", None, _calls("coxeter.eliminate_calls")),
)

# Per-layer time metrics: the self time of every span with that name.
SELF_TIME_METRICS = {
    "complexes.parse": "complexes.parse_s",
    "complexes.validate": "complexes.validate_s",
    "invariants": "invariants.s",
    "presentation.build": "presentation.build_s",
    "presentation.make": "presentation.make_s",
    "presentation.simplify": "presentation.simplify_s",
    "permutations.order": "permutations.order_s",
    "enumeration": "enumeration.s",
    "kernel.table": "kernel.table_s",
    "kernel.rs": "kernel.rs_s",
    "kernel.abelian": "kernel.abelian_s",
    "coxeter.route": "coxeter.route_s",
    ROOT_SPAN: "cli.self_s",
}

COUNT_METRICS = (
    "enumeration.calls",
    "enumeration.cosets_out",
    "enumeration.relator_letters_in",
    "kernel.table_rows",
    "kernel.rs_generators_out",
    "kernel.rs_relators_out",
    "kernel.rs_letters_out",
    "presentation.simplify_letters_in",
    "presentation.simplify_letters_out",
    "presentation.simplify_generators_out",
    "presentation.simplify_relators_out",
    "presentation.make_calls",
    "presentation.eliminate_calls",
    "presentation.build_calls",
    "permutations.order_calls",
    "permutations.verify_calls",
    "complexes.classify_calls",
    "coxeter.eliminate_calls",
    "coxeter.supported",
)


class Tracer:
    """Spans and per-analysis counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, analysis id]
        self.counts = defaultdict(lambda: defaultdict(int))  # analysis -> metric -> n
        self._stack = []
        self._analysis = None

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), None, parent, self._analysis]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _exit(self, record):
        record[2] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, span, counter):
        def traced(*args, **kwargs):
            if span is None:
                out = fn(*args, **kwargs)
            else:
                record = self._enter(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self._exit(record)
            if counter is not None:
                counter(self.counts[self._analysis], args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Rebind every hook for the duration of the block, then restore."""
        from galcov.presentation import GroupPresentation

        saved = []
        try:
            for module_name, attr, span, counter in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span, counter))
            make = GroupPresentation.__dict__["make"]
            saved.append((GroupPresentation, "make", make))
            GroupPresentation.make = classmethod(
                self.wrap(make.__func__, "presentation.make", _calls("presentation.make_calls"))
            )
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def analysis(self, analysis_id):
        """Root span of one analysis; every hooked call inside is its child."""
        self._analysis = analysis_id
        record = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(record)
            self._analysis = None

    def self_times(self):
        """{analysis id: {span name: summed self time}}."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, analysis) in enumerate(self.spans):
            out[analysis][name] += (end - start) - child_time[i]
        return out

    def root_durations(self):
        return {
            analysis: end - start
            for name, start, end, _, analysis in self.spans
            if name == ROOT_SPAN
        }

    def layer_metrics(self, timed):
        """Per-layer metrics: medians of per-analysis self times, and means
        of per-analysis counts, over the traced analyses that succeeded.

        ``timed`` maps the id of each such analysis to the sum of its
        report's ``timings``; the rest of its span is ``cli.untimed_s``.
        """
        selfs = self.self_times()
        roots = self.root_durations()
        analyses = sorted(timed)
        metrics = {}
        for span, metric in SELF_TIME_METRICS.items():
            values = [selfs[a].get(span, 0.0) for a in analyses]
            metrics[metric] = (statistics.median(values), "s")
        metrics["cli.untimed_s"] = (
            statistics.median([roots[a] - timed[a] for a in analyses]), "s"
        )
        for metric in COUNT_METRICS:
            values = [self.counts[a][metric] for a in analyses]
            metrics[metric] = (statistics.fmean(values), "count")
        return metrics

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, analysis in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "analysis": analysis,
                }) + "\n")
