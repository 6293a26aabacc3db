"""The benchmark's workloads, their seeded inputs and the correctness gate.

Each workload hands ``galcov.cli.analyze`` either a builtin dataset name or
paths of degeneration JSON files that this module writes from the seed.
Nothing here imports ``galcov`` at module level: the run measures that
import as part of its set-up time.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from relabel import relabel_json

# The paper's values: |G~|, kernel order, pi1(X_Gal) and the signature chi.
DT4_EXPECTED = {
    "tilde_order": 11520,
    "kernel_order": 16,
    "pi1": {"kind": "ElementaryAbelian2", "rank": 4},
    "chi": 0,
}
T4_EXPECTED = {
    "tilde_order": 24,
    "kernel_order": 1,
    "pi1": {"kind": "Trivial"},
    "chi": -24,
}


@dataclass(frozen=True)
class Workload:
    name: str
    route: str
    dataset: str  # builtin name whose JSON text is the base input
    relabelings: int  # 0: hand over the builtin name itself
    expected: dict
    coxeter_supported: bool = False  # also require the Coxeter route's order

    def make_inputs(self, seed: int, workdir: Path) -> list[str]:
        """Sources for ``analyze``: the builtin name, or relabeled files."""
        if not self.relabelings:
            return [self.dataset]
        from galcov.datasets import BUILTIN_SOURCES

        rng = random.Random(f"{self.name}:{seed}")
        sources = []
        for i in range(self.relabelings):
            path = workdir / f"{self.name}-{i:03d}.json"
            path.write_text(relabel_json(BUILTIN_SOURCES[self.dataset], rng), encoding="utf-8")
            sources.append(str(path))
        return sources

    def check(self, blob: bytes) -> list[str]:
        """Mismatches between an emitted JSON report and the paper's values."""
        report = json.loads(blob)
        want = self.expected
        got = {
            "tilde_order": report["tilde_order"],
            "kernel_order": report["kernel_order"],
            "pi1": report["pi1"],
            "chi": report["chern"]["chi"],
            "undecided": report["undecided"],
        }
        problems = [
            f"{key}: got {got[key]!r}, want {value!r}"
            for key, value in {**want, "undecided": False}.items()
            if got[key] != value
        ]
        if self.coxeter_supported:
            cox = report["routes"]["coxeter"] or {}
            if not cox.get("supported") or cox.get("order") != want["kernel_order"]:
                problems.append(f"coxeter route: got {cox!r}, want supported with order "
                                f"{want['kernel_order']}")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dt4-enumerate",
            route="enumerate",
            dataset="dt4",
            relabelings=0,
            expected=DT4_EXPECTED,
        ),
        Workload(
            name="dt4-coxeter",
            route="coxeter",
            dataset="dt4",
            relabelings=0,
            expected=DT4_EXPECTED,
            coxeter_supported=True,
        ),
        Workload(
            name="dt4-relabeled",
            route="both",
            dataset="dt4",
            relabelings=12,
            expected=DT4_EXPECTED,
        ),
        Workload(
            name="t4-batch",
            route="both",
            dataset="t4",
            relabelings=64,
            expected=T4_EXPECTED,
        ),
    )
}
