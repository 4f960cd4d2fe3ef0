"""Acceptance suite: one test per criterion, exact tolerances.

Each criterion prints one pass/fail line on the real stdout so the
verdicts are visible even under pytest's capture.
"""

import random
import sys
import time
from contextlib import redirect_stderr
from io import StringIO

import pytest

from rooplpp import (MemoryConfig, build_class_map, check_program,
                     init_memory, invert_program, invert_stmt, parse,
                     run_program)
from rooplpp import cli
from rooplpp import syntax as ast

from astgen import make_program, random_statement
from conftest import FIXTURES_DIR, corpus_path, same_words
from oracles import BstOracle, ListBuddy, doubly_linked_oracle, increment_tape

CORPUS_NAMES = ("Fibonacci", "LinkedList", "BinaryTree", "DoublyLinkedList",
                "RTM")


def _verdict(number, label):
    def hook(outcome):
        print(f"criterion {number}: {outcome:4s} {label}", file=sys.__stdout__)
    return hook


def criterion(number, label):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            report = _verdict(number, label)
            try:
                fn(*args, **kwargs)
            except BaseException:
                report("FAIL")
                raise
            report("pass")
        wrapper.__name__ = fn.__name__
        return wrapper
    return decorate


def run_cli(args):
    buf = StringIO()
    try:
        with redirect_stderr(buf):
            cli.main(args)
    except SystemExit as exc:
        return exc.code, buf.getvalue()
    raise AssertionError("cli did not exit")


def front_end(name):
    program = parse(corpus_path(name).read_text())
    class_map = build_class_map(program)
    errors = check_program(program, class_map)
    assert not errors, errors
    return program, class_map


def read_field(result, name):
    return result.fields[name]


def obj_field(mem, class_map, addr, field):
    info = class_map.by_id[mem.words[addr]]
    offset = 2 + [name for _, name in info.fields].index(field)
    return mem.words[addr + offset]


# ---------------------------------------------------------------- 1

@criterion(1, "corpus programs all pass cmd_check, under one second")
def test_criterion_1_corpus_well_typed():
    start = time.perf_counter()
    for name in CORPUS_NAMES:
        code, _ = run_cli(["check", str(corpus_path(name))])
        assert code == 0, name
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------- 2

@criterion(2, "RTM rewrites tape 1101 to 0011 in the final heap")
def test_criterion_2_rtm_tape():
    program, class_map = front_end("RTM")
    start = time.perf_counter()
    result = run_program(program, class_map)  # default step limit
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    mem = result.state.memory
    tape = read_field(result, "tape")
    assert tape != 0
    length = mem.words[tape]
    cells = [mem.words[tape + 2 + i] for i in range(length)]
    # head started one blank left of the input; the number occupies 1..4
    assert cells[1:5] == [0, 0, 1, 1]
    assert cells[1:5] == increment_tape([1, 1, 0, 1])[:4]
    assert cells[0] == 0 and all(c == 0 for c in cells[5:])
    assert read_field(result, "state") == 3


# ---------------------------------------------------------------- 3

@criterion(3, "1000 random statement sequences restore memory bit-exactly")
def test_criterion_3_reversibility():
    config = MemoryConfig(num_freelists=5, stack_words=64)
    start = time.perf_counter()
    checked = 0
    seed = 0
    while checked < 1000:
        program, _ = make_program(seed, length=8)
        seed += 1
        class_map = build_class_map(program)
        assert check_program(program, class_map) == []
        result = run_program(program, class_map, config)
        inverse = invert_program(program)
        run_program(inverse, build_class_map(inverse), config,
                    state=result.state)
        reference = _blank_run(program, config)
        assert result.state.memory.words == reference.memory.words, seed - 1
        assert result.state.memory.heap_end == reference.memory.heap_end
        assert result.state.frame_top == reference.frame_top
        checked += 1
    assert time.perf_counter() - start < 60.0


def _blank_run(program, config):
    main = program.classes[1]
    methods = tuple(m.replace(body=ast.Skip()) if m.name == "main" else m
                    for m in main.methods)
    blank = ast.Program((program.classes[0], main.replace(methods=methods)))
    return run_program(blank, build_class_map(blank), config).state


# ---------------------------------------------------------------- 4

@criterion(4, "inverter involution on 10^4 ASTs; inversion preserves typing")
def test_criterion_4_inverter_algebra():
    rng = random.Random(2024)
    for _ in range(10_000):
        stmt = random_statement(rng, depth=3)
        assert invert_stmt(invert_stmt(stmt)) == stmt
    for name in CORPUS_NAMES:
        program, _ = front_end(name)
        inverted = invert_program(program)
        class_map = build_class_map(inverted)
        assert check_program(inverted, class_map) == [], name
    for seed in range(100):
        program, _ = make_program(seed)
        class_map = build_class_map(program)
        assert check_program(program, class_map) == []
        inverted = invert_program(program)
        inv_map = build_class_map(inverted)
        assert check_program(inverted, inv_map) == [], seed


# ---------------------------------------------------------------- 5

@criterion(5, "buddy allocator splits the 16-word heap as hand-stepped")
def test_criterion_5_buddy_traces():
    mem = init_memory(MemoryConfig(num_freelists=4, stack_words=8))
    hp = mem.hp
    oracle = ListBuddy(4, hp)

    def snap():
        return {size: list(addrs)
                for size, addrs in mem.snapshot_free_lists().lists}

    assert snap() == {2: [], 4: [], 8: [], 16: [hp]}

    first = mem.malloc(2)
    assert first == oracle.malloc(2) == hp + 14
    assert snap() == {2: [hp + 12], 4: [hp + 8], 8: [hp], 16: []}
    assert mem.snapshot_free_lists().sizes_present() == (2, 4, 8)

    second = mem.malloc(8)
    assert second == oracle.malloc(8) == hp
    assert snap() == {2: [hp + 12], 4: [hp + 8], 8: [], 16: []}
    assert mem.snapshot_free_lists().sizes_present() == (2, 4)

    third = mem.malloc(4)
    assert third == oracle.malloc(4) == hp + 8
    assert snap() == {2: [hp + 12], 4: [], 8: [], 16: []}
    assert mem.snapshot_free_lists().sizes_present() == (2,)

    assert snap() == {size: list(addrs)
                      for size, addrs in oracle.snapshot().items()}


# ---------------------------------------------------------------- 6

@criterion(6, "LIFO frees restore the lists; other orders conserve")
def test_criterion_6_lifo_vs_garbage():
    config = MemoryConfig(num_freelists=4, stack_words=8)
    baseline = init_memory(config)
    rng = random.Random(6)
    for trial in range(60):
        mem = init_memory(config)
        live = []
        for _ in range(rng.randrange(1, 100)):
            if live and rng.random() < 0.5:
                addr, size = live.pop()       # exact reverse order
                mem.free(addr, size)
            else:
                size = rng.choice((1, 2, 3, 4, 6, 8, 16))
                try:
                    live.append((mem.malloc(size), size))
                except Exception:
                    continue
        for addr, size in reversed(live):
            mem.free(addr, size)
        assert same_words(mem, baseline), trial

    # a deallocation order that is not the reverse of allocation
    mem = init_memory(config)
    hp = mem.hp
    a = mem.malloc(2)
    b = mem.malloc(8)
    c = mem.malloc(4)
    d = mem.malloc(2)
    for addr, size in ((a, 2), (b, 8), (c, 4), (d, 2)):
        mem.free(addr, size)
    snap = mem.snapshot_free_lists()
    assert snap.total_free_words == 16
    assert not same_words(mem, baseline)
    lists = dict(snap.lists)
    assert lists[2] == (hp + 12, hp + 14)
    assert lists[4] == (hp + 8,)
    assert lists[8] == (hp,)


# ---------------------------------------------------------------- 7

EXPECTED_KINDS = {
    "assert_if": "AssertionFailed-if",
    "assert_loop_entry": "AssertionFailed-loop-entry",
    "assert_loop": "AssertionFailed-loop",
    "nonzero_fields": "NonZeroFieldsOnDelete",
    "nonzero_cells": "NonZeroCellsOnDelete",
    "delocal_mismatch": "DelocalMismatch",
    "new_target": "NewTargetNotNil",
    "copy_target": "CopyTargetNotNil",
    "uninit_object": "UninitializedObject",
    "uninit_array": "UninitializedArray",
    "index_bounds": "IndexOutOfBounds",
    "dangling_delete": "DanglingReferenceOnDelete",
    "div_zero": "DivisionByZero",
    "stack_overflow": "StackOverflow",
    "step_limit": "StepLimitExceeded",
    "nil_delete": "NilDereference",
    "array_length_mismatch": "ArrayLengthMismatch",
    "invalid_array_length": "InvalidArrayLength",
    "uncopy_mismatch": "UncopyMismatch",
    "out_of_memory": "OutOfMemory",
    "corrupt_free": "CorruptFree",
    "dispatch_subtype": "UninitializedObject",
}


@criterion(7, "every runtime-error fixture exits 1 with its error kind")
def test_criterion_7_runtime_error_matrix():
    assert len(EXPECTED_KINDS) >= 15
    for name, kind in EXPECTED_KINDS.items():
        path = FIXTURES_DIR / "errors" / f"{name}.rplpp"
        code, stderr = run_cli(["run", "--step-limit", "5000", str(path)])
        assert code == 1, (name, code)
        assert kind in stderr, (name, kind, stderr)


# ---------------------------------------------------------------- 8

@criterion(8, "data-structure runs match irreversible oracles")
def test_criterion_8_differential_oracles():
    # linked list: ten cells with data 1..10
    program, class_map = front_end("LinkedList")
    result = run_program(program, class_map)
    values = list(range(1, 11))
    assert read_field(result, "listLength") == len(values)
    assert read_field(result, "count") == len(values)
    assert read_field(result, "total") == sum(values)
    mem = result.state.memory
    walked = []
    addr = read_field(result, "head")
    while addr != 0:
        walked.append(obj_field(mem, class_map, addr, "data"))
        addr = obj_field(mem, class_map, addr, "next")
    assert walked == values

    # binary tree: sum invariant under double mirror, plus serialized walk
    program, class_map = front_end("BinaryTree")
    result = run_program(program, class_map)
    oracle = BstOracle()
    for v in (5, 3, 8):
        oracle.insert(v)
    assert read_field(result, "total") == oracle.total()
    assert read_field(result, "mirroredTotal") == oracle.total()
    mem = result.state.memory

    def preorder(addr):
        if addr == 0:
            return []
        return ([obj_field(mem, class_map, addr, "value")]
                + preorder(obj_field(mem, class_map, addr, "left"))
                + preorder(obj_field(mem, class_map, addr, "right")))

    assert preorder(read_field(result, "root")) == oracle.preorder()

    # a single mirror yields the mirrored walk
    single = _single_mirror_program(program)
    single_map = build_class_map(single)
    assert check_program(single, single_map) == []
    sresult = run_program(single, single_map)
    smem = sresult.state.memory

    def spreorder(addr):
        if addr == 0:
            return []
        return ([obj_field(smem, single_map, addr, "value")]
                + spreorder(obj_field(smem, single_map, addr, "left"))
                + spreorder(obj_field(smem, single_map, addr, "right")))

    assert spreorder(read_field(sresult, "root")) == \
        oracle.mirrored().preorder()

    # doubly linked list: data and index fields per cell
    program, class_map = front_end("DoublyLinkedList")
    result = run_program(program, class_map)
    expected = doubly_linked_oracle([i * i for i in range(1, 11)])
    assert read_field(result, "length") == len(expected)
    mem = result.state.memory
    addr = read_field(result, "head")
    walked = []
    prev = 0
    while addr != 0:
        walked.append((obj_field(mem, class_map, addr, "data"),
                       obj_field(mem, class_map, addr, "index")))
        assert obj_field(mem, class_map, addr, "left") == prev
        assert obj_field(mem, class_map, addr, "self") == addr
        prev = addr
        addr = obj_field(mem, class_map, addr, "right")
    assert walked == expected


def _single_mirror_program(program):
    """BinaryTree corpus with the second mirror call removed."""
    tree = program.classes[1]
    main = next(m for m in tree.methods if m.name == "main")
    stmts = list(main.body.stmts)
    assert isinstance(stmts[-1], ast.ObjectCall) or \
        isinstance(stmts[-1], ast.LocalCall)
    trimmed = ast.Seq(tuple(stmts[:-1]))
    methods = tuple(m.replace(body=trimmed) if m.name == "main" else m
                    for m in tree.methods)
    return ast.Program((program.classes[0], tree.replace(methods=methods)))
