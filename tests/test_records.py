"""Record semantics: equality, hash, repr, immutability and replace."""

import copy
import pickle

import pytest

from rooplpp import MemoryConfig, Span, TypeError_, parse_statement
from rooplpp import syntax as ast
from rooplpp.classes import build_class_map

A = Span(1, 2, 1, 5)
B = Span(7, 1, 9, 3)


def test_node_equality_and_hash_ignore_span():
    x, y = ast.LValue("x", span=A), ast.LValue("x", span=B)
    assert x == y and hash(x) == hash(y)
    assert ast.LValue("x") != ast.LValue("y")
    assert ast.LValue("x") != ast.LValue("x", ast.Constant(0))
    left = parse_statement("x += 1")
    right = parse_statement("\n\n   x   +=   1")
    assert left.span != right.span
    assert left == right and hash(left) == hash(right)
    assert len({left, right}) == 1


def test_node_repr_omits_span():
    assert repr(ast.Constant(3, span=A)) == "Constant(value=3)"
    assert repr(ast.INT) == "IntType()"


def test_span_and_type_error_compare_every_field():
    assert Span(1, 2, 1, 5) == A and hash(Span(1, 2, 1, 5)) == hash(A)
    assert A != Span(1, 2, 1, 6)
    assert TypeError_("T-Var", "m", A) == TypeError_("T-Var", "m", A)
    assert TypeError_("T-Var", "m", A) != TypeError_("T-Var", "m", B)
    assert TypeError_("T-Var", "m").span == Span()
    assert repr(A) == "Span(line=1, col=2, end_line=1, end_col=5)"


def test_fields_are_frozen():
    node = ast.Constant(3)
    with pytest.raises(AttributeError):
        node.value = 4
    with pytest.raises(AttributeError):
        del node.value
    with pytest.raises(AttributeError):
        A.line = 9
    with pytest.raises(AttributeError):
        node.extra = 1
    assert node.value == 3


def test_replace_changes_only_the_named_fields():
    stmt = ast.Assign(ast.LValue("x"), "+=", ast.Constant(1), span=A)
    changed = stmt.replace(op="-=")
    assert changed.op == "-=" and changed.span == A
    assert changed.target is stmt.target and stmt.op == "+="
    assert A.replace(col=4) == Span(1, 4, 1, 5)
    assert MemoryConfig().replace(word_bits=16) == MemoryConfig(word_bits=16)
    with pytest.raises(TypeError):
        stmt.replace(nope=1)


def test_constructor_defaults_and_errors():
    assert ast.LValue("x").index is None
    assert ast.LValue("x").span == Span()
    assert ast.AllocDesc(name="Node").length is None
    assert MemoryConfig(stack_words=64) == MemoryConfig(32, 10, 64, 0)
    with pytest.raises(TypeError):
        ast.Constant()
    with pytest.raises(TypeError):
        ast.Constant(1, value=2)
    with pytest.raises(TypeError):
        ast.Constant(1, A, 3)
    with pytest.raises(TypeError):
        ast.Constant(1, colour="red")


def test_class_info_fields_stay_a_field():
    # `fields` is a field name of ClassDecl and ClassInfo; the record
    # machinery keeps its own field list under `_fields`
    program = ast.Program((ast.ClassDecl(
        "C", None, ((ast.INT, "x"),),
        (ast.MethodDecl("main", (), ast.Skip()),)),))
    info = build_class_map(program)["C"]
    assert info.fields == ((ast.INT, "x"),)
    assert program.classes[0]._fields == ("name", "parent", "fields",
                                          "methods", "span", "field_spans")


def test_copy_and_pickle_round_trip():
    stmt = parse_statement("if x = 0 then x += 1 else skip fi x = 1")
    assert copy.copy(stmt) == stmt
    assert copy.deepcopy(stmt) == stmt
    restored = pickle.loads(pickle.dumps(stmt))
    assert restored == stmt and restored.span == stmt.span
