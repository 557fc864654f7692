"""Every public library name has a caller outside the tests.

A public top-level function or class in ``src/triagerank`` must be
referenced by some package module other than ``__init__.py``, or by the
benchmark in ``bench/``, outside its own definition. A name that only the
tests and the package exports reach is half-wired code: wire it into a
real path or delete it.
"""

from __future__ import annotations

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "triagerank"

# Public names whose caller lives outside the code this test parses.
_ENTRY_POINTS = {
    # The README's quick start locates the bundled fixture corpus with it.
    "fixture_corpus_path",
}


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _referenced(statement: ast.stmt) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_reached_outside_the_tests():
    modules = sorted(path for path in _PACKAGE.glob("*.py") if path.name != "__init__.py")
    callers = modules + sorted((_ROOT / "bench").glob("*.py"))
    public: dict[str, str] = {}
    reached: set[str] = set()
    for path in callers:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for statement in tree.body:
            names = _referenced(statement)
            if isinstance(statement, _DEFINITIONS):
                names.discard(statement.name)
                if path.parent == _PACKAGE and not statement.name.startswith("_"):
                    public[statement.name] = path.name
            reached |= names
    assert public, "no public names found"
    unreached = sorted(
        f"{module}:{name}"
        for name, module in public.items()
        if name not in reached and name not in _ENTRY_POINTS
    )
    assert not unreached, "reached by nothing but the tests: " + ", ".join(unreached)
