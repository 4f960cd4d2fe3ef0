import contextlib
import json
import random
import subprocess
import sys
from collections import Counter

import pytest

from rooplpp import (BACKWARD, FORWARD, ConfigError, ExecutionError,
                     Interpreter, MachineState, MemoryConfig, MemoryImage,
                     RuntimeErrorKind, apply_binop, build_class_map,
                     census, check_program, init_memory,
                     invert_program, main_class_of, parse, parse_statement,
                     run_program)
from rooplpp import machine, syntax as ast
from rooplpp.machine import division

from astgen import make_program
from conftest import CORPUS, corpus_path, load_pipeline

E = RuntimeErrorKind
SMALL = MemoryConfig(num_freelists=5, stack_words=64)


# ----------------------------------------------------------------- binops

@pytest.mark.parametrize("op,v1,v2,expected", [
    ("+", 2, 3, 5),
    ("-", 2, 3, -1 & 0xFFFFFFFF),
    ("*", 6, 7, 42),
    ("^", 0b1100, 0b1010, 0b0110),
    ("&", 0b1100, 0b1010, 0b1000),
    ("|", 0b1100, 0b1010, 0b1110),
    ("/", 7, 2, 3),
    ("/", -7 & 0xFFFFFFFF, 2, -3 & 0xFFFFFFFF),   # truncation toward zero
    ("%", 7, 3, 1),
    ("%", -7 & 0xFFFFFFFF, 3, -1 & 0xFFFFFFFF),   # remainder keeps dividend sign
    ("%", 7, -3 & 0xFFFFFFFF, 1),
    ("&&", 0, 5, 0),
    ("&&", 2, 5, 1),
    ("||", 0, 0, 0),
    ("||", 0, 9, 1),
    ("<", 1, 2, 1),
    ("<", 2, 1, 0),
    (">", 2, 1, 1),
    ("<=", 1, 1, 1),
    (">=", 1, 2, 0),
    ("=", 4, 4, 1),
    ("=", 4, 5, 0),
    ("!=", 4, 5, 1),
    ("!=", 4, 4, 0),
])
def test_binop_table(op, v1, v2, expected):
    assert apply_binop(op, v1, v2) == expected


def test_comparisons_are_signed():
    minus_one = -1 & 0xFFFFFFFF
    assert apply_binop("<", minus_one, 1) == 1
    assert apply_binop(">", minus_one, 1) == 0


def test_arithmetic_wraps():
    top = 0x7FFFFFFF
    assert apply_binop("+", top, 1) == 0x80000000
    assert apply_binop("*", 1 << 20, 1 << 20, 32) == 0


# the most negative word, -2^(bits - 1): `/` and `%` by a literal below
# the sign bit run inline only for a dividend below it, so this one takes
# the helpers; by -1 the quotient wraps to the sign word again
@pytest.mark.parametrize("bits, op, divisor, expected", [
    (16, "/", 3, 0xD556),
    (16, "%", 3, 0xFFFE),
    (16, "/", 0xFFFF, 0x8000),
    (16, "%", 0xFFFF, 0),
    (32, "/", 3, 0xD5555556),
    (32, "%", 3, 0xFFFFFFFE),
    (32, "/", 0xFFFFFFFF, 0x80000000),
    (32, "%", 0xFFFFFFFF, 0),
    (64, "/", 3, 0xD555555555555556),
    (64, "%", 3, 0xFFFFFFFFFFFFFFFE),
    (64, "/", 0xFFFFFFFFFFFFFFFF, 0x8000000000000000),
    (64, "%", 0xFFFFFFFFFFFFFFFF, 0),
])
def test_division_of_the_sign_word(bits, op, divisor, expected):
    assert apply_binop(op, 1 << (bits - 1), divisor, bits) == expected


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        apply_binop("/", 1, 0)
    with pytest.raises(ZeroDivisionError):
        apply_binop("%", 1, 0)
    with pytest.raises(ValueError, match="unknown operator"):
        apply_binop("**", 1, 2)


# --------------------------------------------------- small-world harness

WORLD = """
class Helper
    int a
    int b

    method bump(int v)
        a += v

class Main
    int x
    int y
    Helper h
    Helper g
    int[] nums

    method twist(int v)
        x += v * 2

    method main()
        skip
"""


def world():
    program = parse(WORLD)
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    return program, class_map


def run_body(body, direction=FORWARD, config=SMALL):
    program, class_map = world()
    main = program.classes[1]
    methods = tuple(m.replace(body=parse_statement(body))
                    if m.name == "main" else m for m in main.methods)
    patched = ast.Program((program.classes[0], main.replace(methods=methods)))
    class_map = build_class_map(patched)
    errors = check_program(patched, class_map)
    assert not errors, errors
    return run_program(patched, class_map, config, direction=direction)


def expect_error(body, kind, direction=FORWARD):
    with pytest.raises(ExecutionError) as exc:
        run_body(body, direction)
    assert exc.value.kind == kind
    return exc.value


# ------------------------------------------------------------ expressions

def test_literals_and_nil():
    result = run_body("x += 7")
    assert result.fields["x"] == 7
    result = run_body("if h = nil then x += 1 else skip fi h = nil")
    assert result.fields["x"] == 1


def test_array_element_lookup():
    result = run_body("""
new int[3] nums
nums[0] += 5
nums[1] += 6
nums[2] += 9
x += nums[2]
""")
    assert result.fields["x"] == 9


def test_expression_evaluation_is_pure():
    # evaluating `nums[1] + 1` as a condition and as an assertion leaves
    # every memory word as it was
    before = run_body("new int[3] nums nums[1] += 4")
    after = run_body("new int[3] nums nums[1] += 4 "
                     "if nums[1] + 1 = 5 then skip else skip "
                     "fi nums[1] + 1 = 5")
    assert after.state.memory.words == before.state.memory.words
    assert run_body("new int[3] nums nums[1] += 4 "
                    "x += nums[1] + 1").fields["x"] == 5


TWO_ARRAYS = """
class Main
    int[] a
    int[] b
    int x
    int y

    method main()
        BODY
"""


# a kind's test id is its constant's name, as it was while kinds were an
# enum, so that the test ids stay the same
_KIND_IDS = {value: "RuntimeErrorKind." + name
             for name, value in vars(E).items() if name.isupper()}


@pytest.mark.parametrize("body,kind,message", [
    ("x += a[b[0]]", E.UNINITIALIZED_ARRAY, "array a has not been allocated"),
    ("new int[2] a x += a[b[0]]", E.UNINITIALIZED_ARRAY,
     "array b has not been allocated"),
    ("new int[2] a x += a[1 / y]", E.DIVISION_BY_ZERO, "division by zero in /"),
], ids=_KIND_IDS.get)
def test_index_that_can_fail_is_checked_after_its_array(body, kind, message):
    # the array's own check runs before the code of an index that can fail
    program = parse(TWO_ARRAYS.replace("BODY", body))
    with pytest.raises(ExecutionError) as exc:
        run_program(program, build_class_map(program), SMALL)
    assert (exc.value.kind, exc.value.message) == (kind, message)


@pytest.mark.parametrize("bits", [16, 32, 64])
@pytest.mark.parametrize("index", ["x - 1", "0 - 1"])
@pytest.mark.parametrize("direction, body", [
    (FORWARD, "new int[3] nums nums[INDEX] += 1"),
    # backward, the inverse of `delete`, a `new`, runs first
    (BACKWARD, "nums[INDEX] += 1 delete int[3] nums"),
])
def test_a_negative_index_is_out_of_bounds(bits, index, direction, body):
    """An index is tested only against the length word, as an unsigned
    word: -1 is the largest word, above every length."""
    config = MemoryConfig(word_bits=bits, num_freelists=5, stack_words=64)
    with pytest.raises(ExecutionError) as exc:
        run_body(body.replace("INDEX", index), direction, config)
    assert (exc.value.kind, exc.value.message) == (
        E.INDEX_OUT_OF_BOUNDS, "index -1 outside [0, 3) of nums")


@pytest.mark.parametrize("body,message", [
    ("x += y / 0", "division by zero in /"),
    ("x += y % 0", "division by zero in %"),
])
def test_literal_zero_divisor_fails_at_its_division(body, message):
    # the check of a literal 0 divisor stays; the span is `y / 0`'s
    program = parse(TWO_ARRAYS.replace("BODY", body))
    with pytest.raises(ExecutionError) as exc:
        run_program(program, build_class_map(program), SMALL)
    error, span = exc.value, exc.value.span
    assert (error.kind, error.message) == (E.DIVISION_BY_ZERO, message)
    assert (span.line, span.col, span.end_line, span.end_col) == (9, 14, 9, 19)


# -------------------------------------------------- assignment and swaps

def test_assign_forward_and_backward():
    assert run_body("x += 5").fields["x"] == 5
    result = run_body("x += 5 x -= 2").fields
    assert result["x"] == 3
    # backward execution undoes: running `x += 5` backward subtracts
    assert run_body("x += 5", direction=BACKWARD).fields["x"] == -5


def test_wraparound_assignment():
    result = run_body("x += 2147483647 x += 1")
    assert result.fields["x"] == -2147483648


def test_swap_between_local_and_field():
    result = run_body("""
local int t = 9
x <=> t
delocal int t = 0
""")
    assert result.fields["x"] == 9


def test_swap_array_cells():
    result = run_body("""
new int[4] nums
nums[0] += 3
nums[3] += 8
nums[0] <=> nums[3]
x += nums[0]
y += nums[3]
""")
    assert result.fields["x"] == 8 and result.fields["y"] == 3


# ------------------------------------------------------------ control flow

def test_if_assertion_must_match_branch():
    result = run_body("if x = 0 then y += 1 else skip fi y = 1")
    assert result.fields["y"] == 1
    err = expect_error("if x = 0 then x += 1 else skip fi x = 0",
                       E.ASSERTION_FAILED_IF)
    assert "then" in err.message


def test_failed_if_assertion_after_the_else_branch():
    err = expect_error("if x = 1 then skip else x += 1 fi x = 1",
                       E.ASSERTION_FAILED_IF)
    assert err.message == "exit assertion is true after the else branch"


def test_loop_counts():
    result = run_body("""
from x = 0 do
    x += 1
    y += x
loop skip
until x = 5
""")
    assert result.fields == {"x": 5, "y": 15, "h": 0, "g": 0, "nums": 0}


def test_loop_entry_and_reentry_assertions():
    expect_error("x += 1 from x = 0 do skip loop skip until x = 5",
                 E.ASSERTION_FAILED_LOOP_ENTRY)
    expect_error("from x = 0 do x ^= 1 loop skip until x = 2",
                 E.ASSERTION_FAILED_LOOP)


# ------------------------------------------------------------ local blocks

def test_local_block_value_and_mismatch():
    result = run_body("""
local int t = x + 3
y += t
delocal int t = x + 3
""")
    assert result.fields["y"] == 3
    expect_error("local int t = 0 t += 1 delocal int t = 0",
                 E.DELOCAL_MISMATCH)


def test_local_object_block_is_reference_copy():
    result = run_body("""
new Helper h
local Helper t = h
call t::bump(y)
delocal Helper t = h
delete Helper h
""", direction=FORWARD)
    # bump(y) adds y (= 0); object deleted cleanly afterwards
    assert result.fields["h"] == 0


def test_object_block_allocates_and_frees():
    result = run_body("""
construct Helper t
    x += 1
destruct t
""")
    assert result.fields["x"] == 1
    snap = result.state.memory.snapshot_free_lists()
    assert snap.total_free_words == 32


# --------------------------------------------------------- new and delete

def test_new_writes_header_and_refcount():
    result = run_body("new Helper h")
    mem = result.state.memory
    addr = result.fields["h"]
    assert addr != 0
    assert mem.words[addr] == 1          # class id of Helper
    assert mem.words[addr + 1] == 1      # fresh reference count


def test_delete_enforces_zero_fields():
    expect_error("""
new Helper h
local int v = 5
call h::bump(v)
delocal int v = 5
delete Helper h
""", E.NON_ZERO_FIELDS_ON_DELETE)


def test_array_new_delete_round_trip():
    result = run_body("""
new int[5] nums
nums[2] += 9
nums[2] -= 9
delete int[5] nums
""")
    assert result.fields["nums"] == 0
    assert result.state.memory.snapshot_free_lists().total_free_words == 32


def test_array_delete_length_cross_check():
    expect_error("new int[5] nums delete int[4] nums",
                 E.ARRAY_LENGTH_MISMATCH)


def test_new_into_array_cell():
    program = parse("""
class Item
    int tag

    method mark(int v)
        tag ^= v

class Main
    Item[] items
    int x

    method main()
        new Item[2] items
        new Item items[1]
        call items[1]::mark(x)
        delete Item items[1]
""")
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    result = run_program(program, class_map, SMALL)
    mem = result.state.memory
    base = result.fields["items"]
    assert mem.words[base] == 2
    assert mem.words[base + 2 + 1] == 0  # cell cleared by delete


# --------------------------------------------------------- copy and uncopy

def test_copy_increments_refcount():
    result = run_body("""
new Helper h
copy Helper h g
""")
    mem = result.state.memory
    addr = result.fields["h"]
    assert result.fields["g"] == addr
    assert mem.words[addr + 1] == 2


def test_uncopy_restores():
    result = run_body("""
new Helper h
copy Helper h g
uncopy Helper h g
delete Helper h
""")
    assert result.fields == {"x": 0, "y": 0, "h": 0, "g": 0, "nums": 0}


def test_delete_with_live_copy_is_dangling():
    expect_error("new Helper h copy Helper h g delete Helper h",
                 E.DANGLING_REFERENCE_ON_DELETE)


def test_array_reference_copies():
    program = parse("""
class Main
    int[] a
    int[] b
    int x

    method main()
        new int[3] a
        a[0] += 7
        copy int[3] a b
        x += b[0]
        uncopy int[3] a b
        a[0] -= 7
        delete int[3] a
""")
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    result = run_program(program, class_map, SMALL)
    assert result.fields == {"a": 0, "b": 0, "x": 7}


def test_local_array_block_is_reference_copy():
    result = run_body("""
new int[4] nums
nums[1] += 6
local int[] view = nums
x += view[1]
delocal int[] view = nums
nums[1] -= 6
delete int[4] nums
""")
    assert result.fields["x"] == 6 and result.fields["nums"] == 0


def test_uncopy_wrong_pair_fails():
    expect_error("""
new Helper h
new Helper g
uncopy Helper h g
""", E.UNCOPY_MISMATCH)


# ----------------------------------------------------------------- calls

def test_local_call_and_uncall():
    result = run_body("""
local int v = 3
call twist(v)
delocal int v = 3
""")
    assert result.fields["x"] == 6
    result = run_body("""
local int v = 3
uncall twist(v)
delocal int v = 3
""")
    assert result.fields["x"] == -6


def test_arguments_are_by_reference():
    program = parse("""
class Main
    int x

    method zero(int v)
        v -= 5

    method main()
        x += 5
        local int t = 0
        t <=> x
        call zero(t)
        delocal int t = 0
""")
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    assert run_program(program, class_map, SMALL).fields["x"] == 0


def test_dynamic_dispatch_uses_runtime_class():
    program = parse("""
class Animal
    int sound

    method speak()
        sound += 1

    method hear(int out)
        out ^= sound

class Dog inherits Animal
    method speak()
        sound += 100

class Main
    Dog dog
    Animal[] pen
    int out

    method main()
        new Dog dog
        new Animal[1] pen
        pen[0] <=> dog            // subclass value into base-class array
        call pen[0]::speak()
        call pen[0]::hear(out)
        pen[0] <=> dog
""")
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    result = run_program(program, class_map, SMALL)
    assert result.fields["out"] == 100


def test_uncall_runs_body_backward():
    result = run_body("""
new Helper h
local int v = 4
call h::bump(v)
uncall h::bump(v)
delocal int v = 4
delete Helper h
""")
    assert result.fields["h"] == 0


def test_call_on_nil_is_uninitialized():
    expect_error("call h::bump(x)", E.UNINITIALIZED_OBJECT)


def test_uncall_through_array_cell():
    program = parse("""
class Item
    int tag

    method mark(int v)
        tag += v

class Main
    Item[] items
    int x

    method main()
        new Item[1] items
        new Item items[0]
        x += 9
        call items[0]::mark(x)
        uncall items[0]::mark(x)
        delete Item items[0]
        delete Item[1] items
        x -= 9
""")
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    result = run_program(program, class_map, SMALL)
    assert result.fields == {"items": 0, "x": 0}
    assert result.state.memory.snapshot_free_lists().total_free_words == 32


# ------------------------------------------------------------- whole runs

def test_trivial_program_all_zero():
    program = parse("class C int a int b method main() skip")
    class_map = build_class_map(program)
    result = run_program(program, class_map, SMALL)
    assert result.fields == {"a": 0, "b": 0}
    snap = result.state.memory.snapshot_free_lists()
    assert snap.sizes_present() == (32,)


def test_step_limit():
    src = parse("""
class Main
    int x
    method main()
        from x = 0 do x += 1 loop skip until x < 0
""")
    cmap = build_class_map(src)
    with pytest.raises(ExecutionError) as exc:
        run_program(src, cmap, SMALL, step_limit=500)
    assert exc.value.kind == E.STEP_LIMIT_EXCEEDED


def test_step_limit_counts_on_from_a_given_state():
    program = parse(corpus_path("LinkedList").read_text())
    class_map = build_class_map(program)
    state = run_program(program, class_map).state
    limit = state.steps + 5
    with pytest.raises(ExecutionError) as exc:
        run_program(program, class_map, direction=BACKWARD, step_limit=limit,
                    state=state)
    assert exc.value.kind == E.STEP_LIMIT_EXCEEDED
    assert exc.value.message == "exceeded %d steps" % limit
    assert state.steps == limit + 1


def test_errors_carry_span_and_trace():
    err = expect_error(
        "x += 5 new Helper h call h::bump(x) delete Helper h",
        E.NON_ZERO_FIELDS_ON_DELETE)
    assert err.span.line > 0
    assert isinstance(err.trace, tuple)


def test_error_inside_call_records_the_call_site():
    program = parse("""
class Main
    int x

    method boom()
        if x = 0 then x += 1 else skip fi x = 0

    method main()
        call boom()
""")
    class_map = build_class_map(program)
    with pytest.raises(ExecutionError) as exc:
        run_program(program, class_map, SMALL)
    assert exc.value.kind == E.ASSERTION_FAILED_IF
    assert len(exc.value.trace) == 1
    assert "in" in str(exc.value)


def test_error_names_the_method_of_each_call_frame():
    program = parse("""
class Node
    int v

    method boom()
        if v = 0 then v += 1 else skip fi v = 0

class Leaf inherits Node
    int w

    method nop()
        skip

class Main
    Leaf n

    method go()
        uncall n::boom()

    method main()
        new Leaf n
        call go()
""")
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    with pytest.raises(ExecutionError) as exc:
        run_program(program, class_map, SMALL)
    assert exc.value.kind == E.ASSERTION_FAILED_IF
    # an inherited method is named by the receiver's concrete class
    assert [str(frame) for frame in exc.value.trace] == [
        "Main::go at 22:9", "Leaf::boom at 18:9"]
    assert str(exc.value).endswith(
        "\n  in Main::go at 22:9\n  in Leaf::boom at 18:9")


_TWO_CALLS = """
class Main
FIELD
    method nop()
        skip

    method main()
        call nop()
        call nop()
"""


def test_a_call_needs_one_word_of_frame_room():
    """Four stack words hold the field-less main object, its slot and one
    call's word: the first call dispatches through `X`, the second through
    the site cache.  One field more leaves no room for the first call."""
    config = MemoryConfig(stack_words=4)
    program = parse(_TWO_CALLS.replace("FIELD", ""))
    assert run_program(program, build_class_map(program), config).steps == 4
    program = parse(_TWO_CALLS.replace("FIELD", "    int x"))
    with pytest.raises(ExecutionError) as exc:
        run_program(program, build_class_map(program), config)
    assert exc.value.kind == E.STACK_OVERFLOW
    main = program.classes[0].methods[1]
    assert exc.value.span == main.body.stmts[0].span  # the first call


# ------------------------------------------ reversibility property checks

def _baseline_words(program, config):
    main = program.classes[1]
    methods = tuple(m.replace(body=ast.Skip()) if m.name == "main" else m
                    for m in main.methods)
    blank = ast.Program((program.classes[0], main.replace(methods=methods)))
    return run_program(blank, build_class_map(blank), config).state


@pytest.mark.parametrize("seed", range(30))
def test_forward_then_inverted_forward_restores(seed):
    program, _ = make_program(seed, length=6)
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    config = SMALL
    result = run_program(program, class_map, config)
    inverse = invert_program(program)
    run_program(inverse, build_class_map(inverse), config, state=result.state)
    reference = _baseline_words(program, config)
    assert result.state.memory.words == reference.memory.words
    assert result.state.memory.heap_end == reference.memory.heap_end
    assert result.state.frame_top == reference.frame_top


@pytest.mark.parametrize("seed", range(30, 50))
def test_backward_equals_inverted_forward(seed):
    program, _ = make_program(seed, length=6)
    class_map = build_class_map(program)
    via_backward = run_program(program, class_map, SMALL).state
    run_program(program, class_map, SMALL, direction=BACKWARD,
                state=via_backward)
    forward2 = run_program(program, class_map, SMALL)
    inverse = invert_program(program)
    run_program(inverse, build_class_map(inverse), SMALL, state=forward2.state)
    assert via_backward.memory.words == forward2.state.memory.words


# ------------------------------------------------------ refcount sweeps

@pytest.mark.parametrize("name", ["LinkedList", "BinaryTree",
                                  "DoublyLinkedList", "RTM"])
def test_refcounts_consistent_after_corpus_run(name):
    source = corpus_path(name).read_text()
    program = parse(source)
    class_map = build_class_map(program)
    result = run_program(program, class_map)
    census(result.state, class_map, main_class_of(program))


@pytest.mark.parametrize("seed", range(10))
def test_refcounts_consistent_after_random_runs(seed):
    program, _ = make_program(seed, length=8)
    class_map = build_class_map(program)
    result = run_program(program, class_map, SMALL)
    census(result.state, class_map, main_class_of(program))


def test_refcounts_survive_rewind_replay_cycles():
    program = parse(corpus_path("LinkedList").read_text())
    class_map = build_class_map(program)
    result = run_program(program, class_map)
    rewound = run_program(program, class_map, direction=BACKWARD,
                          state=result.state)
    replay = run_program(program, class_map, state=rewound.state)
    assert replay.fields["total"] == 55
    census(replay.state, class_map, main_class_of(program))


def test_a_state_is_checked_again_before_each_run():
    program = parse(corpus_path("LinkedList").read_text())
    class_map = build_class_map(program)
    result = run_program(program, class_map)
    head = result.state.memory.words[result.main_address + 2]
    result.state.memory.words[head + 1] += 1      # the head's refcount
    with pytest.raises(ConfigError, match="bad reference in the state"):
        run_program(program, class_map, direction=BACKWARD,
                    state=result.state)


def test_refcount_sweep_refuses_a_block_past_memory():
    program = parse(corpus_path("RTM").read_text())
    class_map = build_class_map(program)
    result = run_program(program, class_map)
    mem = result.state.memory
    tape = mem.words[result.main_address + 2]     # RTM's first field
    mem.words[tape] = mem.stack_base               # the array's length
    with pytest.raises(ConfigError, match=f"block at {tape} overruns"):
        census(result.state, class_map, main_class_of(program))


def test_refcount_sweep_refuses_a_bad_object_header():
    program = parse(corpus_path("LinkedList").read_text())
    class_map = build_class_map(program)
    result = run_program(program, class_map)
    head = result.state.memory.words[result.main_address + 2]
    result.state.memory.words[head] = 99
    with pytest.raises(ConfigError, match="not an object header"):
        census(result.state, class_map, main_class_of(program))


def test_census_refuses_the_main_object_held_as_an_array():
    # read as an array, Main (class id 2, one field) would reach past memory
    program = parse("class A\n    int x\n\n    method nop()\n        skip\n\n"
                    "class Main\n    A[] xs\n\n"
                    "    method main()\n        skip\n")
    class_map = build_class_map(program)
    result = run_program(program, class_map)
    main = result.main_address
    result.state.memory.words[main + 2] = main
    with pytest.raises(ConfigError, match=f"block at {main} is held both as "
                                          "ClassRef and ClassArrayType"):
        census(result.state, class_map, main_class_of(program))


# ------------------------------------------------- generated functions

CHURN = """
class Mark
    method touch()
        skip

class Cell
    Cell next
    int data

    method setData(int v)
        data ^= v

class Churn
    Cell head
    int round

    method nest(int d)
        if d > 0 then
            local int n = d + 1
            local int[] xs = nil
            new int[n] xs
            xs[0] += d
            local int e = d - 1
            call nest(e)
            delocal int e = d - 1
            xs[0] -= d
            delete int[n] xs
            delocal int[] xs = nil
            delocal int n = d + 1
        else
            construct Mark m
                call m::touch()
            destruct m
        fi d > 0

    method main()
        from round = 0 do
            round += 1
            local int d = 4
            call nest(d)
            delocal int d = 4
            new Cell head
            delete Cell head
        loop skip
        until round = 3
"""


def test_allocator_wrapped_on_the_class_sees_every_allocation(monkeypatch):
    # bench/traced.py times the heap by wrapping these two methods on the
    # class while a run is in progress
    program = parse(CHURN)
    class_map = build_class_map(program)
    calls = {"malloc": 0, "free": 0}
    malloc, free = MemoryImage.malloc, MemoryImage.free

    def counted_malloc(mem, osize):
        calls["malloc"] += 1
        return malloc(mem, osize)

    def counted_free(mem, addr, osize):
        calls["free"] += 1
        return free(mem, addr, osize)

    monkeypatch.setattr(MemoryImage, "malloc", counted_malloc)
    monkeypatch.setattr(MemoryImage, "free", counted_free)
    result = run_program(program, class_map, SMALL)
    monkeypatch.undo()
    kinds = Counter()
    run_program(program, class_map, SMALL,
                tracer=lambda record: kinds.update([record["rule"]]))
    assert result.fields["round"] == 3
    assert calls == {"malloc": kinds["New"] + kinds["ObjectBlock"],
                     "free": kinds["Delete"] + kinds["ObjectBlock"]}
    assert calls["malloc"] == 18


def _code_names(code):
    """Global and attribute names read by `code` and the code it nests."""
    names = set(code.co_names)
    for const in code.co_consts:
        if hasattr(const, "co_names"):
            names |= _code_names(const)
    return names


def test_untraced_code_holds_no_trace_code():
    program = parse(corpus_path("LinkedList").read_text())
    class_map = build_class_map(program)
    info = class_map[main_class_of(program)]
    names = {}
    for tracer in (None, print):
        state = MachineState(init_memory(MemoryConfig()))
        run, _ = Interpreter(class_map, state, 10_000_000,
                             tracer)._method(info, "main", False)
        names[tracer] = _code_names(run.__code__)
    # the touched list, its clear and append, and the record
    trace_names = {"J", "clear", "append", "T"}
    assert trace_names <= names[print]
    assert not trace_names & names[None]


def test_emitted_code_fails_only_through_f_m_and_x(monkeypatch):
    """A failed check calls `F`, an allocator fault `M` and a call-site
    miss `X`: no function emitted for the corpus, in either direction,
    traced or not, reads another interpreter helper but the record `T`."""
    emitted, method = [], Interpreter._method

    def recorded(self, *args):
        run, label = method(self, *args)
        emitted.append(run)
        return run, label
    monkeypatch.setattr(Interpreter, "_method", recorded)
    for path in CORPUS:
        program, class_map = load_pipeline(path)
        for tracer in (None, lambda record: None):
            state = run_program(program, class_map, tracer=tracer).state
            run_program(program, class_map, direction=BACKWARD,
                        tracer=tracer, state=state)
    read = set()
    for run in emitted:  # with the functions a deep statement spills into
        namespace = run.__globals__
        helpers = {name for name, value in namespace.items()
                   if isinstance(getattr(value, "__self__", None),
                                 Interpreter)}
        for value in namespace.values():
            code = getattr(value, "__code__", None)
            if code is not None and code.co_filename == "<rooplpp>":
                read |= _code_names(code) & helpers
    assert read == {"F", "M", "X", "T"}


SHAPES = """
class Main
    int x
    int y
    int i

    method bump(int v)
        v += x

    method main()
        from i = 0 do
            i += 1
        loop
            call bump(y)
        until i = 3
"""


def test_only_repeated_field_addresses_and_loops_get_a_prologue(monkeypatch):
    """`main` loops and names i, the word `o + 4`, five times: it computes
    that address once, at entry, and takes `w` and `L` as locals; y, named
    once, stays `o + 3`.  `bump` names x once and does not loop, so it
    has no prologue."""
    texts, compiled = [], machine._compiled

    def recorded(text, filename, mode):
        if filename == "<rooplpp>":
            texts.append(text.splitlines())
        return compiled(text, filename, mode)
    monkeypatch.setattr(machine, "_compiled", recorded)
    program = parse(SHAPES)
    assert run_program(program, build_class_map(program)).fields == {
        "x": 0, "y": 0, "i": 3}
    (main, *main_body), (bump, *bump_body) = texts
    assert main == "def m(t, o, n, b, *, w=w, L=L):"
    assert main_body[0] == " o4 = o + 4"
    main_body = "\n".join(main_body[1:])
    assert (main_body.count("o4"), main_body.count("o + 4"),
            main_body.count("o + 3")) == (5, 0, 1)
    assert bump == "def m(t, o, p0, n, b):"
    assert bump_body[0].startswith(" if (n := n + 1) > L:")
    assert "\n".join(bump_body).count("o + 2") == 1


def test_division_of_non_negative_words_calls_no_helper(monkeypatch):
    calls = Counter()

    def counted(word_bits):
        def wrap(name, helper):
            def call(v1, v2):
                calls[name] += 1
                return helper(v1, v2)
            return call
        return {name: wrap(name, helper)
                for name, helper in division(word_bits).items()}
    monkeypatch.setattr(machine, "division", counted)
    loop = ("local int k = 0 "
            "from k = 0 do skip loop "
            "y += (x + k) % 8 y += x / (k + 1) y += k % (x + 1) y += k / 3 "
            "k += 1 until k = 20 "
            "delocal int k = 20")
    run_body("x += 5 " + loop)
    assert calls == {}
    run_body("x -= 5 " + loop)
    assert calls["Q"] and calls["R"]


def test_successful_run_calls_no_interpreter_helper(monkeypatch):
    """Emitted code runs every statement, allocation included, itself:
    a run that fails no check calls only `_method`, and `dispatch` at a
    call-site miss."""
    calls = Counter()

    def counted(name, method):
        def call(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return call
    for name, method in vars(Interpreter).items():
        if callable(method) and not name.startswith("__") and name not in (
                "_method", "dispatch"):
            monkeypatch.setattr(Interpreter, name, counted(name, method))
    for path in CORPUS:
        program, class_map = load_pipeline(path)
        state = run_program(program, class_map).state
        run_program(program, class_map, direction=BACKWARD, state=state)
    assert calls == {}


# ------------------------------------------------ code compiled once a process

_COMPILING: list[list] = []  # the innermost `_compiles` block's list


def _audit(event, args):
    if event == "compile" and _COMPILING:
        _COMPILING[-1].append(args[0])


sys.addaudithook(_audit)  # a hook stays for the life of the process


@contextlib.contextmanager
def _compiles():
    """The sources compiled inside the block: `compile`, and `exec` or
    `eval` of a text, raise the audit event "compile"."""
    texts = []
    _COMPILING.append(texts)
    try:
        yield texts
    finally:
        _COMPILING.pop()


def _outcome(result):
    mem = result.state.memory
    return (result.fields, result.steps, list(mem.words),
            mem.snapshot_free_lists())


def _round_trip(program, class_map, step_limit=10_000_000):
    """The outcomes of a run and of its rewind, both under `step_limit`."""
    forward = run_program(program, class_map, step_limit=step_limit)
    ran = _outcome(forward)
    return ran, _outcome(run_program(program, class_map, direction=BACKWARD,
                                     step_limit=step_limit,
                                     state=forward.state))


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_a_second_run_compiles_nothing(path):
    program, class_map = load_pipeline(path)
    first = _round_trip(program, class_map)
    with _compiles() as texts:
        again = _round_trip(program, class_map)
        # the rewind's count goes on from the run's, so this limit is met
        limited = _round_trip(program, class_map, first[1][1])
    assert texts == []
    assert again == first
    assert limited == first


def test_a_second_run_folds_constants_without_compiling():
    first = run_body("x += 2 * 3")
    assert first.fields["x"] == 6
    with _compiles() as texts:
        again = run_body("x += 2 * 3")
    assert texts == []
    assert again.fields == first.fields


# main's text is the same for both `step, local` pairs; its call sites
# dispatch to different methods
_SAME_MAIN = """
class Helper
    method go(int x)
        x += %d

class Program
    int x
    Helper h

    method main()
        new Helper h
        call h::go(x)
        call %s()
        delete Helper h

    method inc()
        x += 10

    method dec()
        x -= 100
"""


def test_cached_code_shares_no_run_state(tmp_path, monkeypatch):
    texts, compiled = [], machine._compiled

    def recorded(text, *args):
        texts.append(text)
        return compiled(text, *args)
    monkeypatch.setattr(machine, "_compiled", recorded)
    mains, fields = [], []
    for step, local in ((1, "inc"), (2, "dec")):
        path = tmp_path / (local + ".rplpp")
        path.write_text(_SAME_MAIN % (step, local))
        program, class_map = load_pipeline(path)
        texts.clear()
        result = run_program(program, class_map)
        free = result.state.memory.snapshot_free_lists().lists
        fresh = subprocess.run(
            [sys.executable, "-m", "rooplpp.cli", "run", "--json", str(path)],
            capture_output=True, text=True, check=True)
        assert json.loads(fresh.stdout) == {
            "fields": result.fields, "steps": result.steps,
            "freelists": {str(size): list(addrs) for size, addrs in free}}
        fields.append(result.fields)
        mains.append(texts[0])  # main is emitted before it runs a call
    assert mains[0] == mains[1]
    assert fields == [{"x": 11, "h": 0}, {"x": -98, "h": 0}]
