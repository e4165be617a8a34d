"""The rhomix names the benchmark under perfbench/ depends on resolve.

perfbench/layers.py wraps every (module, attribute) of its LAYERS table,
and layers.py, workloads.py and run.py import rhomix names.  A name retired
from rhomix then fails here instead of in a traced benchmark run.  The
files are only parsed, never imported or changed.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = ("layers.py", "workloads.py", "run.py")


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text())


def _resolves(module: str, dotted: str) -> bool:
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _is_module(dotted: str) -> bool:
    try:
        importlib.import_module(dotted)
    except ImportError:
        return False
    return True


def test_every_traced_layer_resolves():
    [rows] = [
        node.value.elts
        for node in ast.walk(_tree("layers.py"))
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    targets = [(ast.literal_eval(r.elts[0]), ast.literal_eval(r.elts[1])) for r in rows]
    assert len(targets) > 20
    missing = [t for t in targets if not _resolves(f"rhomix.{t[0]}", t[1])]
    assert missing == []


def test_every_imported_rhomix_name_resolves():
    """Names taken by `from rhomix... import name`, and the attributes read
    off an imported rhomix module (experiments.run_experiment)."""
    names = []
    for source in SOURCES:
        tree = _tree(source)
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rhomix"):
                for alias in node.names:
                    names.append((source, node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = modules.get(node.value.id)
                if target is not None and _is_module(target):
                    names.append((source, target, node.attr))
    assert len(names) > 5
    missing = [n for n in names if not _resolves(n[1], n[2])]
    assert missing == []
