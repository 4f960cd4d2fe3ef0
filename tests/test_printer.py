import random

import pytest
from hypothesis import given, strategies as st

from rooplpp import invert_program, parse, parse_expression, parse_statement, pretty_print
from rooplpp import syntax as ast
from rooplpp.printer import print_expr, print_stmt

from astgen import make_program, random_statement
from conftest import CORPUS


def test_minimal_round_trip():
    program = parse("class C method main() skip")
    assert parse(pretty_print(program)) == program


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_round_trip(path):
    program = parse(path.read_text())
    assert parse(pretty_print(program)) == program


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_inverted_corpus_prints_and_reparses(path):
    inverted = invert_program(parse(path.read_text()))
    assert parse(pretty_print(inverted)) == inverted


def test_statement_round_trip_random():
    rng = random.Random(7)
    for _ in range(300):
        stmt = random_statement(rng, depth=3)
        text = "\n".join(print_stmt(stmt))
        assert parse_statement(text) == stmt


def test_generated_program_round_trip():
    for seed in range(30):
        program, _ = make_program(seed)
        assert parse(pretty_print(program)) == program


_exprs = st.deferred(lambda: st.one_of(
    st.integers(min_value=0, max_value=2**31 - 1).map(ast.Constant),
    st.sampled_from(["a", "b", "c"]).map(ast.LValue),
    st.just(ast.Nil()),
    st.builds(ast.LValue, st.sampled_from(["a", "b"]), _exprs),
    st.builds(ast.BinOp, st.sampled_from(ast.BIN_OPS), _exprs, _exprs),
))


@given(_exprs)
def test_expression_round_trip(expr):
    assert parse_expression(print_expr(expr)) == expr


def test_minimal_parenthesization():
    expr = parse_expression("(a + b) * c - d")
    assert print_expr(expr) == "(a + b) * c - d"
    assert print_expr(parse_expression("a + b * c")) == "a + b * c"
    assert print_expr(parse_expression("a - (b - c)")) == "a - (b - c)"
