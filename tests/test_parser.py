import pytest

from rooplpp import ParseError, parse, parse_expression, parse_statement
from rooplpp import syntax as ast
from rooplpp.parser import tokenize

from conftest import CORPUS


def test_minimal_program():
    program = parse("class C method main() skip")
    assert len(program.classes) == 1
    cls = program.classes[0]
    assert cls.name == "C" and cls.parent is None
    assert len(cls.methods) == 1
    main = cls.methods[0]
    assert main.name == "main" and main.params == ()
    assert main.body == ast.Skip()


def test_truncated_input_is_syntax_error():
    with pytest.raises(ParseError) as exc:
        parse("class C method main() x += ")
    assert exc.value.expected == ("expression",)


def test_comments_are_stripped():
    program = parse("class C // trailing words\n method main() skip // more\n")
    assert program.classes[0].name == "C"


def test_fields_and_inheritance():
    program = parse("""
class Shape
    int x
    int y
    method nop() skip

class Circle inherits Shape
    int radius
    method grow() radius += 1
""")
    shape, circle = program.classes
    assert shape.fields == ((ast.INT, "x"), (ast.INT, "y"))
    assert circle.parent == "Shape"
    assert circle.fields == ((ast.INT, "radius"),)


def test_array_types_and_descriptors():
    program = parse("""
class C
    int[] nums
    C[] others
    method main()
        new int[5] nums
        new C[2] others
        new C others[1]
        delete C others[1]
        delete int[5] nums
""")
    cls = program.classes[0]
    assert cls.fields == ((ast.INT_ARRAY, "nums"),
                          (ast.ClassArrayType("C"), "others"))
    body = cls.methods[0].body.stmts
    assert body[0].desc.is_int_array
    assert body[1].desc == ast.AllocDesc("C", ast.Constant(2))
    assert body[2].target == ast.LValue("others", ast.Constant(1))


def test_statement_forms():
    stmt = parse_statement("""
x += 1
x[2] -= y
a <=> b[i]
if x = 0 then skip else x ^= 1 fi x = 0
from i = 0 do i += 1 loop skip until i = 9
construct K obj
    call obj::poke(x)
destruct obj
local int t = x + 1
    call helper(t)
    uncall helper(t)
delocal int t = x + 1
copy K a b
uncopy K a b
uncall obj::poke(x)
""")
    kinds = [type(s).__name__ for s in stmt.stmts]
    assert kinds == ["Assign", "Assign", "Swap", "If", "Loop", "ObjectBlock",
                     "LocalBlock", "Copy", "Uncopy", "ObjectUncall"]


def test_sequences_are_flat():
    stmt = parse_statement("x += 1 y += 2 z += 3")
    assert isinstance(stmt, ast.Seq)
    assert all(not isinstance(s, ast.Seq) for s in stmt.stmts)


@pytest.mark.parametrize("source,expected", [
    ("1 + 2 * 3", ast.BinOp("+", ast.Constant(1),
                            ast.BinOp("*", ast.Constant(2), ast.Constant(3)))),
    ("(1 + 2) * 3", ast.BinOp("*", ast.BinOp("+", ast.Constant(1),
                                             ast.Constant(2)),
                              ast.Constant(3))),
    ("1 - 2 - 3", ast.BinOp("-", ast.BinOp("-", ast.Constant(1),
                                           ast.Constant(2)),
                            ast.Constant(3))),
    ("a < b & c = d", ast.BinOp("&", ast.BinOp("<", ast.LValue("a"),
                                               ast.LValue("b")),
                                ast.BinOp("=", ast.LValue("c"),
                                          ast.LValue("d")))),
    ("a & b | c", ast.BinOp("|", ast.BinOp("&", ast.LValue("a"),
                                           ast.LValue("b")),
                            ast.LValue("c"))),
    ("a && b || c", ast.BinOp("||", ast.BinOp("&&", ast.LValue("a"),
                                              ast.LValue("b")),
                              ast.LValue("c"))),
    ("x + y ^ z", ast.BinOp("^", ast.BinOp("+", ast.LValue("x"),
                                           ast.LValue("y")),
                            ast.LValue("z"))),
])
def test_precedence(source, expected):
    assert parse_expression(source) == expected


def test_keywords_are_reserved():
    with pytest.raises(ParseError):
        parse("class class method main() skip")
    with pytest.raises(ParseError):
        parse_expression("nil[3]")


def test_positions_attached():
    program = parse("class C\n    int x\n\n    method main()\n        x += 41")
    cls = program.classes[0]
    assert cls.span.line == 1
    main = cls.methods[0]
    assert main.span.line == 4
    assign = main.body
    assert (assign.span.line, assign.span.col) == (5, 9)
    assert assign.expr.span.col == 14


def _binop_spans(expr):
    """(op, (line, col, end_line, end_col), left, right) down the BinOps."""
    if not isinstance(expr, ast.BinOp):
        return type(expr).__name__ + ("[]" if getattr(expr, "is_cell", False)
                                      else "")
    s = expr.span
    return (expr.op, (s.line, s.col, s.end_line, s.end_col),
            _binop_spans(expr.left), _binop_spans(expr.right))


# a BinOp spans from the first token of its left operand, an opening
# parenthesis included, to the last token of its right operand
@pytest.mark.parametrize("source, expected", [
    ("a + b * c", ("+", (1, 1, 1, 10), "LValue",
                   ("*", (1, 5, 1, 10), "LValue", "LValue"))),
    ("a - b - c", ("-", (1, 1, 1, 10),
                   ("-", (1, 1, 1, 6), "LValue", "LValue"), "LValue")),
    ("(a + b) * c", ("*", (1, 1, 1, 12),
                     ("+", (1, 2, 1, 7), "LValue", "LValue"), "LValue")),
    ("a * (b + c)", ("*", (1, 1, 1, 12), "LValue",
                     ("+", (1, 6, 1, 11), "LValue", "LValue"))),
    ("((a))  || b && c = 1",
     ("||", (1, 1, 1, 21), "LValue",
      ("&&", (1, 11, 1, 21), "LValue",
       ("=", (1, 16, 1, 21), "LValue", "Constant")))),
    ("x[i + 1] % (2)", ("%", (1, 1, 1, 15), "LValue[]", "Constant")),
])
def test_binop_spans(source, expected):
    assert _binop_spans(parse_expression(source)) == expected


def _spans_valid(node, n_lines):
    """Checks every span under node; returns how many it checked."""
    checked = 0
    span = getattr(node, "span", None)
    if span is not None:
        assert 1 <= span.line <= n_lines
        assert span.col >= 1
        assert (span.end_line, span.end_col) >= (span.line, span.col)
        checked += 1
    for name in node._fields:
        value = getattr(node, name)
        for item in value if isinstance(value, tuple) else (value,):
            if hasattr(item, "_fields"):
                checked += _spans_valid(item, n_lines)
    return checked


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_position_coverage(path):
    source = path.read_text()
    checked = _spans_valid(parse(source), source.count("\n") + 1)
    # a walker that stops early checks far fewer spans than the source
    # has names and numbers
    assert checked >= sum(tok.kind in ("ident", "int")
                          for tok in tokenize(source)) // 2


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse("   // nothing here\n")
