"""The tokenizer's answers, replayed: `parser.tokenize` on recorded sources.

`fixtures/token_golden.json` maps each source to what `tokenize` made of
it: `{"tokens": [[kind, text, line, col, end_line, end_col], ...]}`, or
`{"error": str(exc), "span": [line, col, end_line, end_col]}` for a
rejected source.  A seeded mutant is recorded as the SHA-256 of that same
JSON, to keep the fixture small.  Every source must reproduce exactly.

Sources: the corpus, every fixture program, the cases of
`fixtures/frontend_cases.txt`, the seeded mutants of
`test_frontend_golden.py`, and the edge cases below: line ends, tabs,
comments, an empty source, characters that `str.splitlines` breaks at but
the tokenizer rejects, and the Unicode rules for digits and names.

Rewrite the fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_token_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from rooplpp import ParseError, parser

from test_frontend_golden import FILE_DIRS, TESTS_DIR, hand_cases, mutants

GOLDEN = TESTS_DIR / "fixtures" / "token_golden.json"

EDGE_CASES = {
    "crlf": "class A\r\n  int x\r\n  method main()\r\n    x += 1\r\n",
    "lone_cr": "class A\rint x method main() x\r+= 1",
    "tabs": "class\tA\n\tint x\n\tmethod main()\n\t\tx\t+=\t1\n",
    "comment_at_eof": "class A int x method main() skip // no newline",
    "comment_crlf": "// first\r\nclass A // second\r\nint x // x\r\n",
    "comment_only": "// nothing else",
    "empty": "",
    "blank": "\n\n   \t\n",
    "trailing_newline": "skip\n",
    "form_feed": "class A\x0cint x",
    "vertical_tab": "class A\n  int\x0bx",
    "line_separator": "class A\u2028int x method",
    "paragraph_separator": "x\u2029",
    "next_line": "x += 1\x85",
    "file_separator": "skip\x1cskip",
    "superscript_two": "x += \u00b2",
    "name_with_superscript": "x\u00b2 += 1",
    "arabic_indic_digit": "x += \u0663\u0664",
    "digits_then_name": "12abc __x1 _ a_1b",
    "unicode_name": "\u00e9t\u00e9 += 1\n\u03bb <=> \u03bc",
    "symbols": "a<=>b::c+=d-=e^=f&&g||h<=i>=j!=k(l)[m],n+o-p^q*r/s%t&u|v<w>x=y",
    "symbol_runs": "<=<=>>= :::: &&& ||| +== -=-= ^^= <>= =<=>",
    "lone_colon": "a : b",
    "lone_bang": "a ! b",
    "question": "a ? b",
    "unexpected_after_newlines": "\n\n   x #",
    "non_ascii_space": "x +=\u00a01",
}


def sources():
    """(key, source, whether its answer is kept as a digest)."""
    for folder in FILE_DIRS:
        for path in sorted((TESTS_DIR / folder).glob("*.rplpp")):
            yield "file/%s/%s" % (folder, path.stem), path.read_text(), False
    for key, text in hand_cases():
        yield key, text, False
    for path in sorted((TESTS_DIR / "corpus").glob("*.rplpp")):
        for key, text in mutants(path.stem, path.read_text()):
            yield key, text, True
    for name, text in EDGE_CASES.items():
        yield "edge/" + name, text, False


def answer(source, digest):
    try:
        tokens = parser.tokenize(source)
    except ParseError as exc:
        s = exc.span
        result = {"error": str(exc), "span": [s.line, s.col, s.end_line,
                                              s.end_col]}
    else:
        result = {"tokens": [[t.kind, t.text, t.span.line, t.span.col,
                              t.span.end_line, t.span.end_col]
                             for t in tokens]}
    if digest:
        text = json.dumps(result, separators=(",", ":"))
        return {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    return result


def produce():
    return {key: answer(text, digest) for key, text, digest in sources()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_tokens_match_golden(golden):
    produced = produce()
    assert sorted(produced) == sorted(golden)
    mismatched = [k for k in produced if produced[k] != golden[k]]
    assert not mismatched, [(k, produced[k], golden[k])
                            for k in mismatched[:3]]


def test_golden_covers_both_outcomes(golden):
    """The edge cases reach both a token list and a rejection."""
    edges = [v for k, v in golden.items() if k.startswith("edge/")]
    assert any("error" in v for v in edges)
    assert any("tokens" in v for v in edges)


if __name__ == "__main__":
    answers = produce()
    GOLDEN.write_text("{\n" + ",\n".join(
        "%s: %s" % (json.dumps(key), json.dumps(value, separators=(",", ":")))
        for key, value in sorted(answers.items())) + "\n}\n",
        encoding="utf-8")
    print("wrote %s" % Path(GOLDEN))
