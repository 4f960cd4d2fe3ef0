import pytest

from rooplpp import build_class_map, check_program, parse, parse_expression
from rooplpp import syntax as ast
from rooplpp.classes import main_class_of
from rooplpp.syntax import vars_of

from conftest import CORPUS, FIXTURES_DIR


def check_source(source):
    program = parse(source)
    return check_program(program, build_class_map(program))


def rules_of(errors):
    return [e.rule for e in errors]


WORLD = """
class Cell
    Cell next
    int data

    method poke(int v)
        data += v

class Main
    Cell head
    Cell spare
    int x
    int y
    int[] nums
    Cell[] cells

    method helper(int a, Cell c)
        a += 1

    method main()
        BODY
"""


def check_body(body):
    indented = "\n".join("        " + line for line in body.strip().split("\n"))
    return check_source(WORLD.replace("        BODY", indented))


# ---------------------------------------------------------------- vars_of

def test_vars_of_equations():
    assert vars_of(ast.Constant(3)) == frozenset()
    assert vars_of(ast.Nil()) == frozenset()
    assert vars_of(parse_expression("x")) == {"x"}
    assert vars_of(parse_expression("x[y + 1]")) == {"x", "y"}
    assert vars_of(parse_expression("a + b * a")) == {"a", "b"}


# ------------------------------------------------------------- expressions

def test_int_arithmetic_ok():
    assert check_body("x += 1 + 2 * 3") == []


def test_object_nil_comparison_ok():
    assert check_body("if head = nil then skip else skip fi head = nil") == []


def test_object_arithmetic_rejected():
    errors = check_body("x += head + 1")
    assert "T-BinOpInt" in rules_of(errors)


def test_object_ordering_rejected():
    errors = check_body("if head < spare then skip else skip fi 1")
    assert "T-BinOpObj" in rules_of(errors)


def test_nil_without_context_rejected():
    errors = check_body("x += 1 + nil")
    assert "T-Nil" in rules_of(errors)


def test_array_element_types():
    assert check_body("x += nums[y]") == []
    errors = check_body("x += x[0]")
    assert "T-ArrElemVar" in rules_of(errors)


def test_array_index_must_be_int():
    errors = check_body("x += nums[head]")
    assert "T-ArrElemVar" in rules_of(errors)


# -------------------------------------------------------------- statements

def test_self_reference_rejected():
    errors = check_body("x += x + 1")
    assert rules_of(errors) == ["T-AssVar"]


def test_array_cell_self_reference_rejected():
    errors = check_body("nums[5] += nums[5] + 1")
    assert "T-ArrElemAss" in rules_of(errors)


def test_index_vars_cannot_appear_on_rhs():
    errors = check_body("nums[y] += y")
    assert "T-ArrElemAss" in rules_of(errors)
    assert check_body("nums[y] += x") == []


def test_assign_needs_int_variable():
    errors = check_body("head += 1")
    assert "T-AssVar" in rules_of(errors)


def test_swap_same_type():
    assert check_body("x <=> y") == []
    assert check_body("head <=> spare") == []
    errors = check_body("x <=> head")
    assert "T-SwpVar" in rules_of(errors)


def test_swap_array_cell_covariance():
    source = """
class Base
    method nop() skip

class Derived inherits Base
    method nop2() skip

class Main
    Base[] items
    Derived d
    Base b

    method main()
        items[0] <=> d
        items[1] <=> b
"""
    assert check_source(source) == []


def test_swap_covariance_wrong_direction_rejected():
    source = """
class Base
    method nop() skip

class Derived inherits Base
    method nop2() skip

class Main
    Derived[] items
    Base b

    method main()
        items[0] <=> b
"""
    errors = check_source(source)
    assert "T-SwpVar" in rules_of(errors)


def test_conditions_must_be_int():
    errors = check_body("if head then skip else skip fi 1")
    assert "T-If" in rules_of(errors)
    errors = check_body("from head do skip loop skip until 1")
    assert "T-Loop" in rules_of(errors)


def test_local_block_types():
    assert check_body("local int t = x + 1\nskip\ndelocal int t = x + 1") == []
    assert check_body("local Cell c = nil\nskip\ndelocal Cell c = nil") == []
    errors = check_body("local Cell c = x\nskip\ndelocal Cell c = x")
    assert "T-LocalBlock" in rules_of(errors)


def test_new_delete_descriptor_agreement():
    assert check_body("new Cell spare\ndelete Cell spare") == []
    errors = check_body("new Cell nums")
    assert "T-ObjNew" in rules_of(errors)
    errors = check_body("new int[3] head")
    assert "T-ArrNew" in rules_of(errors)


def test_new_int_array_into_cell_rejected():
    # grammar admits it, but no variable can have type int[][]
    errors = check_body("new int[3] nums[0]")
    assert "T-ArrNew" in rules_of(errors)


def test_new_object_into_class_array_cell_ok():
    assert check_body("new Cell cells[2]\ndelete Cell cells[2]") == []


def test_copy_requires_exact_type():
    assert check_body("copy Cell head spare") == []
    source_errors = check_body("copy Cell head nums")
    assert "T-Cp" in rules_of(source_errors)


def test_copy_subtype_rejected():
    source = """
class Base
    method nop() skip

class Derived inherits Base
    method nop2() skip

class Main
    Base b
    Derived d

    method main()
        copy Base b d
"""
    errors = check_source(source)
    assert "T-Cp" in rules_of(errors)


def test_call_argument_distinctness():
    errors = check_body(
        "local int a = 0\nlocal Cell c = nil\n"
        "call helper(a, a)\n"
        "delocal Cell c = nil\ndelocal int a = 0")
    assert "T-Call" in rules_of(errors)


def test_call_arity_mismatch():
    errors = check_body("local int a = 0\ncall helper(a)\ndelocal int a = 0")
    assert "T-Call" in rules_of(errors)


def test_local_call_rejects_fields_as_arguments():
    errors = check_body("call helper(x, head)")
    assert "T-Call" in rules_of(errors)


def test_object_call_allows_fields_as_arguments():
    assert check_body("new Cell head\ncall head::poke(x)") == []


def test_object_call_callee_not_argument():
    source = """
class Cell
    method pass(Cell c)
        skip

class Main
    Cell a

    method main()
        call a::pass(a)
"""
    errors = check_source(source)
    assert "T-CallO" in rules_of(errors)


def test_uncall_follows_call_rules():
    errors = check_body("uncall helper(x, head)")
    assert "T-Uc" in rules_of(errors)
    errors = check_body("uncall head::missing()")
    assert "T-Uco" in rules_of(errors)


def test_argument_subtyping():
    source = """
class Base
    method nop() skip

class Derived inherits Base
    method nop2() skip

class User
    method use(Base b)
        skip

class Main
    User u
    Derived d
    Base b

    method main()
        new User u
        new Derived d
        call u::use(d)
"""
    assert check_source(source) == []


# ---------------------------------------------------------------- programs

def test_missing_main():
    errors = check_source((FIXTURES_DIR / "static" / "no_main.rplpp").read_text())
    assert "T-Prog" in rules_of(errors)


def test_main_must_be_nullary():
    errors = check_source((FIXTURES_DIR / "static" / "unary_main.rplpp").read_text())
    assert "T-Prog" in rules_of(errors)
    program = parse((FIXTURES_DIR / "static" / "unary_main.rplpp").read_text())
    with pytest.raises(ValueError, match="no nullary main"):
        main_class_of(program)


def test_multiple_mains_rejected():
    errors = check_source("""
class A
    method main() skip
class B
    method main() skip
""")
    assert "T-Prog" in rules_of(errors)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_is_well_typed(path):
    assert check_source(path.read_text()) == []


def test_object_block_shadowing_warns_not_errors():
    source = """
class Cell
    int data

    method poke(int v)
        data += v

class Main
    int t

    method main()
        construct Cell t
            skip
        destruct t
"""
    program = parse(source)
    warnings = []
    errors = check_program(program, build_class_map(program),
                           warnings=warnings)
    assert errors == []
    assert warnings and "shadows" in warnings[0]


_ONTO_ITSELF = "copy onto its own source can never succeed"
_UNCOPY_ONTO_ITSELF = "uncopy onto its own source fails or cannot be undone"


@pytest.mark.parametrize("body, warned", [
    ("copy Cell head head", _ONTO_ITSELF),
    ("uncopy Cell head head", _UNCOPY_ONTO_ITSELF),
    ("copy int[2] nums nums", _ONTO_ITSELF),
    ("uncopy Cell cells[x + 1] cells[x + 1]", _UNCOPY_ONTO_ITSELF),
    ("copy Cell head spare", None),
    ("uncopy Cell cells[x] cells[y]", None),
    ("construct Cell fresh skip destruct fresh", None),
])
def test_copy_onto_its_own_source_warns_not_errors(body, warned):
    program = parse(WORLD.replace("BODY", body))
    warnings = []
    assert check_program(program, build_class_map(program),
                         warnings=warnings) == []
    # each warning is "line:col: message"
    assert [w.split(": ", 1)[1] for w in warnings] == (
        [warned] if warned else [])


@pytest.mark.parametrize("body", ["copy Nope head head",
                                  "copy Cell cells[head] cells[head]"])
def test_copy_onto_itself_failing_its_rule_only_errors(body):
    program = parse(WORLD.replace("BODY", body))
    warnings = []
    assert check_program(program, build_class_map(program),
                         warnings=warnings)
    assert warnings == []


def test_error_list_deterministic():
    source = (FIXTURES_DIR / "static" / "self_assign.rplpp").read_text()
    assert check_source(source) == check_source(source)


def test_all_violations_reported():
    errors = check_body("x += x + 1\ny += y + 1")
    assert rules_of(errors) == ["T-AssVar", "T-AssVar"]
