"""The benchmark tracer rebinds names inside galcov modules; each one it
names must exist and be looked up there, or only the traced benchmark
runs would notice."""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_hook_targets():
    """(module, attribute) of every entry in the tracer's ``HOOKS``, read
    from its source without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "HOOKS" for t in node.targets
        ):
            return [
                (entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts
            ]
    raise AssertionError(f"no HOOKS in {TRACER}")


def test_every_tracer_hook_resolves():
    targets = tracer_hook_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


def test_every_tracer_hook_is_read_in_its_module():
    # a name imported but never looked up in the module would count 0
    # calls under the tracer instead of failing
    unread = []
    for module, attr in tracer_hook_targets():
        source = Path(importlib.import_module(module).__file__)
        tree = ast.parse(source.read_text(encoding="utf-8"))
        if not any(
            isinstance(node, ast.Name) and node.id == attr and isinstance(node.ctx, ast.Load)
            for node in ast.walk(tree)
        ):
            unread.append(f"{module}.{attr}")
    assert unread == []
