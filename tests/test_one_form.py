"""Each operation has one form in `src/`: no public function or class that only tests call.

A public module-level function or class must be referenced (loaded, called or
imported) somewhere in `src/cylpano` other than `__init__.py`, imported by the
acceptance tests, or wrapped by the benchmark's span recorder. A one-item
wrapper of a batched path, or a second copy of a rule, fails this check; its
tests belong on the batched form.
"""

import ast
from pathlib import Path

from test_bench_hooks import spans  # the benchmark's span table, loaded from bench/spans.py

ROOT = Path(__file__).resolve().parents[1]
# reference formulas and codec halves that only tests and tools call
ALLOWED = {"position_encoding", "write_spe_params"}


def _loaded_names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_every_public_definition_has_a_caller_outside_tests():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "cylpano").glob("*.py"))
               if p.stem != "__init__"}
    used = set().union(*map(_loaded_names, modules.values()))
    used |= _loaded_names(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    used |= {fn for fns in spans.LAYERS.values() for fn in fns}
    unused = [
        f"{name}.{node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | ALLOWED
    ]
    assert unused == []


def test_package_namespace_binds_only_the_version():
    """`cylpano/__init__.py` re-exports nothing: names are imported from their modules."""
    tree = ast.parse((ROOT / "src" / "cylpano" / "__init__.py").read_text())
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            bound.add(node.asname or node.name.split(".")[0])
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert sorted(name for name in bound if not name.startswith("_")) == []
    assert "__version__" in bound
