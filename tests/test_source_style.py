"""Every process compiles `src/rooplpp` from source, so the package keeps
to what compiles fast: no f-strings and no annotations (see README)."""

import ast
from pathlib import Path

import rooplpp

SOURCES = sorted(Path(rooplpp.__file__).parent.glob("*.py"))


def _slow_nodes(tree):
    """(line, what) of each f-string and annotation in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            yield node.lineno, "f-string"
        elif isinstance(node, ast.AnnAssign):
            yield node.lineno, "annotated assignment"
        elif isinstance(node, ast.arg) and node.annotation is not None:
            yield node.lineno, "annotated parameter " + node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.lineno, "return annotation of " + node.name


def test_sources_hold_no_f_strings_or_annotations():
    assert len(SOURCES) > 10
    found = [(path.name, line, what) for path in SOURCES
             for line, what in _slow_nodes(ast.parse(path.read_text()))]
    assert found == []
