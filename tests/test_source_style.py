"""Every process compiles `src/rooplpp` from source, so the package keeps
to what compiles fast: no f-strings and no annotations (see README)."""

import ast
import importlib
import subprocess
import sys
import tokenize
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


def _place_kinds(tree):
    """(line, what) of each duck-typed `getattr(x, "index", ...)` in
    `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) \
                == "getattr" and len(node.args) > 1 \
                and getattr(node.args[1], "value", None) == "index":
            yield node.lineno, 'getattr(..., "index")'


def test_one_place_node():
    """A place is an `LValue` to every module, the parser too: the syntax
    has no subclass of it, and no module tells places apart by duck
    typing."""
    from rooplpp import syntax
    assert syntax.LValue.__subclasses__() == []
    found = [(path.name, line, what) for path in SOURCES
             for line, what in _place_kinds(ast.parse(path.read_text()))]
    assert found == []


def _contract_reads(tree):
    """(line, what) of each frame's locals or file name read in `tree`, and
    each literal naming the emitted file, a field mark or a parameter."""
    for node in ast.walk(tree):
        if getattr(node, "attr", None) in ("f_locals", "co_filename"):
            yield node.lineno, node.attr
        elif isinstance(node, ast.Constant) and node.value in (
                "<rooplpp>", "{%d}", "p%d"):
            yield node.lineno, node.value


def test_emit_owns_the_generated_code_contract():
    """`machine` builds each method's entry (field marks, parameter names)
    and reads what the frames of its code hold; no other module does
    either."""
    found = {path.name: {what for _, what in _contract_reads(
        ast.parse(path.read_text()))} for path in SOURCES}
    assert {name for name, reads in found.items() if reads} == {"machine.py"}
    assert found["machine.py"] == {"f_locals", "co_filename", "<rooplpp>",
                                   "{%d}", "p%d"}


def _exception_classes(path):
    """The name of each class defined in the module at `path`, nested ones
    too, whose base is an exception type."""
    module = importlib.import_module(
        "rooplpp" + ("" if path.stem == "__init__" else "." + path.stem))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef) and any(
                issubclass(eval(ast.unparse(base), vars(module)),
                           BaseException) for base in node.bases):
            yield node.name


def test_every_exception_type_is_defined_in_syntax():
    """Each failure is one of the four error types of `syntax`; the
    executor's private `_Failure` only carries a site to `run_program`,
    which turns it into an `ExecutionError`."""
    found = {(path.name, name) for path in SOURCES
             for name in _exception_classes(path)}
    assert found == {("syntax.py", "ParseError"), ("syntax.py", "ClassError"),
                     ("syntax.py", "ConfigError"),
                     ("syntax.py", "ExecutionError"),
                     ("machine.py", "_Failure")}


# what the benchmark's output checks (bench/checks.py) import of the package
_CHECKS_IMPORT = """
import sys, rooplpp.statefile
from rooplpp import (parse, pretty_print, invert_program, init_memory,
                     MemoryConfig)
print(*sorted(m.__file__ for name, m in sys.modules.items()
              if name.split(".")[0] == "rooplpp"), sep="\\n")
"""


def _significant_tokens(path):
    """Tokens as the compiler's parser reads them: no comments, no
    non-logical line ends."""
    with path.open("rb") as fh:
        return sum(1 for token in tokenize.tokenize(fh.readline)
                   if token.type not in (tokenize.COMMENT, tokenize.NL,
                                         tokenize.ENCODING))


def test_modules_the_benchmark_checks_load_fit_one_token_array():
    """The benchmark reads `peak_rss_mb` off its own process, whose
    high-water mark is set when its output checks compile the modules they
    import from source.  CPython's parser holds a module's tokens in an
    array that doubles past 4,096: a generated module of 4,096 such tokens
    compiled with a peak of 1.54 MB (tracemalloc, Python 3.11), one of
    4,097 with 1.77 MB."""
    result = subprocess.run([sys.executable, "-c", _CHECKS_IMPORT],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = [Path(name) for name in result.stdout.split("\n") if name]
    assert "parser.py" in {path.name for path in loaded}  # the probe works
    counts = {path.name: _significant_tokens(path) for path in loaded}
    assert {name: n for name, n in counts.items() if n > 4096} == {}
