import pytest

from rooplpp import ClassError, array_type_of, build_class_map, parse
from rooplpp.classes import block_words
from rooplpp import syntax as ast

SHAPES = """
class Shape
    int x
    int y
    method move(int dx) x += dx

class Circle inherits Shape
    int radius
    method area(int out) out += radius * radius * 3

class Rectangle inherits Shape
    int a
    int b
    method area(int out) out += a * b
"""


@pytest.fixture
def shapes():
    return build_class_map(parse(SHAPES))


def test_resolved_fields_own_then_inherited(shapes):
    assert [f for _, f in shapes["Shape"].fields] == ["x", "y"]
    assert [f for _, f in shapes["Circle"].fields] == ["radius", "x", "y"]
    assert [f for _, f in shapes["Rectangle"].fields] == ["a", "b", "x", "y"]


def test_field_offsets_start_after_header(shapes):
    # field i of the object at address a is the word a + 2 + i
    offsets = {f: 2 + i for i, (_, f) in enumerate(shapes["Circle"].fields)}
    assert offsets["radius"] == 2
    assert sorted(offsets.values()) == [2, 3, 4]


def test_allocation_words(shapes):
    assert shapes["Shape"].alloc_words == 4        # 2 fields + header
    assert shapes["Circle"].alloc_words == 8       # block_words(5)
    assert shapes["Rectangle"].alloc_words == 8    # block_words(6)


def test_header_only_class_allocates_two_words():
    cmap = build_class_map(parse("class Empty method nop() skip"))
    assert cmap["Empty"].alloc_words == 2


def test_alloc_words_always_power_of_two(shapes):
    for info in shapes.entries.values():
        w = info.alloc_words
        assert w >= 2 and (w & (w - 1)) == 0
        assert w >= info.used == len(info.fields) + 2


def test_class_ids_dense_in_declaration_order(shapes):
    assert [shapes[n].class_id for n in ("Shape", "Circle", "Rectangle")] == [1, 2, 3]


def test_subtyping(shapes):
    assert shapes.subtype_of("Circle", "Shape")
    assert shapes.subtype_of("Shape", "Shape")
    assert not shapes.subtype_of("Shape", "Circle")
    assert not shapes.subtype_of("Circle", "Rectangle")


def test_subtype_unknown_class(shapes):
    with pytest.raises(ClassError):
        shapes.subtype_of("Circle", "Square")


def test_inheritance_cycle_rejected():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("""
class A inherits B
    method m() skip
class B inherits A
    method m() skip
"""))
    assert exc.value.kind == "CycleError"


def test_unknown_parent_rejected():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("class A inherits Ghost method m() skip"))
    assert exc.value.kind == "UnknownParent"


def test_duplicate_class_rejected():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("class A method m() skip class A method m() skip"))
    assert exc.value.kind == "DuplicateClass"


def test_duplicate_method_rejected():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("class A method m() skip method m() skip"))
    assert exc.value.kind == "DuplicateMethod"


def test_field_shadowing_rejected():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("""
class A
    int v
    method m() skip
class B inherits A
    int v
    method m() skip
"""))
    assert exc.value.kind == "DuplicateField"


def test_override_replaces_base_method():
    program = parse("""
class A
    int v
    method poke() v += 1
class B inherits A
    method poke() v += 2
""")
    cmap = build_class_map(program)
    base = cmap["A"].methods["poke"]
    derived = cmap["B"].methods["poke"]
    assert derived is not base
    assert derived is program.classes[1].methods[0]


def test_override_signature_must_match():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("""
class A
    method poke() skip
class B inherits A
    method poke(int extra) extra += 1
"""))
    assert exc.value.kind == "BadOverride"


def test_derived_field_names_superset_of_base():
    cmap = build_class_map(parse(SHAPES))
    base = {f for _, f in cmap["Shape"].fields}
    derived = {f for _, f in cmap["Circle"].fields}
    assert base <= derived


def test_array_type_of():
    assert array_type_of(ast.INT_ARRAY) == ast.INT
    assert array_type_of(ast.ClassArrayType("Shape")) == ast.ClassRef("Shape")
    with pytest.raises(ClassError) as exc:
        array_type_of(ast.INT)
    assert exc.value.kind == "NotAnArray"


def test_unknown_field_type_rejected():
    with pytest.raises(ClassError) as exc:
        build_class_map(parse("class A Ghost g method m() skip"))
    assert exc.value.kind == "UnknownClass"


@pytest.mark.parametrize("source, kind, at", [
    ("class A\n    int x\n    int[] x\n    method m() skip\n",
     "DuplicateField", (3, 5, 3, 12)),
    ("class A\n    int v\n    method m() skip\n"
     "class B inherits A\n    int w\n    int v\n    method n() skip\n",
     "DuplicateField", (6, 5, 6, 10)),
    ("class A\n    int x\n    Ghost[] g\n    method m() skip\n",
     "UnknownClass", (3, 5, 3, 14)),
])
def test_field_errors_carry_the_field_span(source, kind, at):
    with pytest.raises(ClassError) as exc:
        build_class_map(parse(source))
    span = exc.value.span
    assert exc.value.kind == kind
    assert (span.line, span.col, span.end_line, span.end_col) == at


def test_field_spans_take_no_part_in_equality_or_repr():
    program = parse("class A\n    int x\n    method m() skip\n")
    cls = program.classes[0]
    bare = cls.replace(field_spans=None)
    assert cls.field_spans[0].line == 2
    assert bare == cls and hash(bare) == hash(cls) and repr(bare) == repr(cls)
    with pytest.raises(ClassError) as exc:  # no spans: the class's own
        build_class_map(program.replace(classes=(
            bare.replace(fields=bare.fields * 2),)))
    assert exc.value.span == cls.span


def test_block_words_is_the_one_rounding_rule():
    assert [block_words(n) for n in range(0, 10)] == \
        [2, 2, 2, 4, 4, 8, 8, 8, 8, 16]
    for n in range(1, 600):
        size = block_words(n)
        assert size >= max(n, 2) and size & (size - 1) == 0
        assert size == 2 or size // 2 < n
