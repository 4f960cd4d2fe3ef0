"""The front end's answers, replayed: `rooplpp check` and `rooplpp invert`
on recorded inputs.

`fixtures/frontend_golden.json` holds, per case, what in-process
`cli.main(["check", PATH])` and `cli.main(["invert", PATH])` end in: the
exit code, stdout and stderr, with the source path written as `PATH` and
the inverted program as its SHA-256.  Every case must reproduce exactly.

Cases: the programs of `fixtures/frontend_cases.txt`, one per rejection of
the type checker, the parser and the class analysis; the corpus and the
runtime-error and static fixtures; and 100 seeded mutants of each corpus
program, each swapping one or two names for other names of the program,
or operators for other operators.

Rewrite the fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_frontend_golden.py
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import random
import re
import sys
import tempfile
from pathlib import Path

import pytest

from rooplpp import classes, cli, parser, typecheck

TESTS_DIR = Path(__file__).parent
GOLDEN = TESTS_DIR / "fixtures" / "frontend_golden.json"
CASES = TESTS_DIR / "fixtures" / "frontend_cases.txt"
FILE_DIRS = ("corpus", "fixtures/errors", "fixtures/static")

_TOKEN = re.compile(r"//.*|[A-Za-z_]\w*|<=>|::|[-+^]=|&&|\|\||[<>!]=|\S")
OPERATORS = ("+", "-", "^", "*", "/", "%", "&", "|", "&&", "||", "<", ">",
             "=", "!=", "<=", ">=", "+=", "-=", "^=", "<=>")
MUTANTS_PER_PROGRAM = 100


def hand_cases():
    """(name, source) of each case in `frontend_cases.txt`."""
    chunks = re.split(r"^=== (\S+)\n", CASES.read_text(), flags=re.M)
    cases = dict(zip(chunks[1::2], chunks[2::2]))
    world = cases.pop("WORLD")
    for name, text in cases.items():
        if text.startswith(" "):
            text = world.replace("        BODY\n", text)
        yield f"case/{name}", text


def mutants(name, source, count=MUTANTS_PER_PROGRAM):
    """`count` seeded variants of `source`, each with one or two names or
    operators swapped for another of their kind."""
    tokens = [m for m in _TOKEN.finditer(source)
              if not m.group().startswith("//")]
    names = sorted({m.group() for m in tokens
                    if re.fullmatch(r"[A-Za-z_]\w*", m.group())}
                   - parser.KEYWORDS)
    sites = [m for m in tokens if m.group() in names or m.group() in OPERATORS]
    for i in range(count):
        rng = random.Random(f"{name}/{i}")
        text = source
        for m in sorted(rng.sample(sites, rng.randint(1, 2)),
                        key=lambda m: m.start(), reverse=True):
            pool = names if m.group() in names else OPERATORS
            swap = rng.choice([t for t in pool if t != m.group()])
            text = text[:m.start()] + swap + text[m.end():]
        yield f"mutant/{name}/{i}", text


def run_cli(*argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcome(path):
    path = str(path)
    answers = {}
    for command in ("check", "invert"):
        code, out, err = run_cli(command, path)
        if command == "invert":
            out = hashlib.sha256(out.encode()).hexdigest()
        answers[command] = [code, out.replace(path, "PATH"),
                            err.replace(path, "PATH")]
    return answers


def _source_outcomes(sources):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.rplpp"
        for key, source in sources:
            path.write_text(source, encoding="utf-8")
            yield key, outcome(path)


def _file_outcomes():
    for folder in FILE_DIRS:
        for path in sorted((TESTS_DIR / folder).glob("*.rplpp")):
            yield f"file/{folder}/{path.stem}", outcome(path)


def _mutant_sources():
    for path in sorted((TESTS_DIR / "corpus").glob("*.rplpp")):
        yield from mutants(path.stem, path.read_text())


GROUPS = {
    "case": lambda: _source_outcomes(hand_cases()),
    "file": _file_outcomes,
    "mutant": lambda: _source_outcomes(_mutant_sources()),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_frontend_matches_golden(golden, group):
    produced = dict(GROUPS[group]())
    expected = {k: v for k, v in golden.items() if k.startswith(group + "/")}
    assert sorted(produced) == sorted(expected)
    mismatched = [k for k in produced if produced[k] != expected[k]]
    assert not mismatched, [(k, produced[k], expected[k])
                            for k in mismatched[:3]]


# Rejections that no source text reaches, because the caller tests for
# them first; tests/test_classes.py calls them directly.
_API_ONLY = ("no class named", "is not an array type")


def _rejection_calls(tree):
    """The `raise ParseError(...)`, `raise ClassError(...)` and
    `self.error(...)` calls in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                and ast.unparse(node.exc.func) in ("ParseError", "ClassError"):
            yield node.exc
        elif isinstance(node, ast.Call) \
                and ast.unparse(node.func) == "self.error":
            yield node


def _rejection_lines():
    """(file, line) of each rejection site of the front end: the line its
    call starts on, the first a line trace reports for it.  A site is
    exempt if one of `_API_ONLY` is in the call's whole text, with its
    string literals joined as Python joins them, so wrapping a call
    changes neither set."""
    lines = set()
    for module in (typecheck, parser, classes):
        tree = ast.parse(Path(module.__file__).read_text())
        for call in _rejection_calls(tree):
            if not any(s in ast.unparse(call) for s in _API_ONLY):
                lines.add((module.__file__, call.lineno))
    return lines


def test_hand_cases_reach_every_rejection():
    """Each `self.error` of the type checker, `raise ParseError` of the
    parser and `raise ClassError` of the class analysis runs for at least
    one case of `frontend_cases.txt` (a `sys.settrace` line trace)."""
    files = {m.__file__ for m in (typecheck, parser, classes)}
    reached = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        for _ in _source_outcomes(hand_cases()):
            pass
    finally:
        sys.settrace(previous)
    sites = _rejection_lines()
    assert len(sites) > 40
    assert sorted(sites - reached) == []


if __name__ == "__main__":
    cases = {}
    for produce in GROUPS.values():
        cases.update(produce())
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: {json.dumps(value)}"
        for key, value in sorted(cases.items())) + "\n}\n")
    print(f"wrote {GOLDEN}")
