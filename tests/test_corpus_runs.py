"""End-to-end properties of the corpus programs: expected outputs,
machine-level round trips through the program inverter, conservation of
heap words, and width-independence."""

import pytest

from rooplpp import (BACKWARD, MemoryConfig, build_class_map, census,
                     check_program, invert_program, main_class_of, parse,
                     run_program)

from conftest import corpus_path
from oracles import fib_pair

EXPECTED_FIELDS = {
    "Fibonacci": {"x1": 5, "x2": 8, "n": 0},
    "LinkedList": {"listLength": 10, "total": 55, "count": 10},
    "BinaryTree": {"total": 16, "mirroredTotal": 16},
    "DoublyLinkedList": {"length": 10},
    "RTM": {"pos": 3, "state": 3, "steps": 3},
}


def run_corpus(name, config=MemoryConfig(), direction="forward", state=None):
    program = parse(corpus_path(name).read_text())
    class_map = build_class_map(program)
    assert check_program(program, class_map) == []
    return program, class_map, run_program(program, class_map, config,
                                           direction=direction, state=state)


@pytest.mark.parametrize("name", sorted(EXPECTED_FIELDS))
def test_expected_outputs(name):
    _, _, result = run_corpus(name)
    for field, value in EXPECTED_FIELDS[name].items():
        assert result.fields[field] == value, field


def test_fibonacci_matches_oracle():
    _, _, result = run_corpus("Fibonacci")
    assert (result.fields["x1"], result.fields["x2"]) == fib_pair(4)


@pytest.mark.parametrize("name", sorted(EXPECTED_FIELDS))
def test_heap_words_conserved(name):
    program, class_map, result = run_corpus(name)
    live, free, _ = census(result.state, class_map, main_class_of(program))
    assert free == result.state.memory.snapshot_free_lists().total_free_words
    assert free + live == 1024


@pytest.mark.parametrize("name", sorted(EXPECTED_FIELDS))
def test_backward_execution_rewinds(name):
    program, class_map, result = run_corpus(name)
    rewound = run_program(program, class_map, direction=BACKWARD,
                          state=result.state)
    assert all(v == 0 for v in rewound.fields.values())
    _, _, baseline = run_corpus(name)
    fresh = baseline.state.memory
    # compare against a never-executed image: rerun main on the rewound
    # state and expect the original outputs again
    replay = run_program(program, class_map, state=rewound.state)
    assert replay.fields == result.fields


@pytest.mark.parametrize("name", sorted(EXPECTED_FIELDS))
def test_inverted_program_round_trip(name):
    # running the inverted program forward from the forward-final state
    # restores the initial machine state bit-exactly
    program, class_map, result = run_corpus(name)
    inverted = invert_program(program)
    inv_map = build_class_map(inverted)
    assert check_program(inverted, inv_map) == []
    restored = run_program(inverted, inv_map, state=result.state)
    assert all(v == 0 for v in restored.fields.values())
    snap = restored.state.memory.snapshot_free_lists()
    assert snap.sizes_present() == (1024,)
    blank = run_program(
        parse("class Blank method main() skip"),
        build_class_map(parse("class Blank method main() skip")))
    # heap region identical to an untouched image
    mem = restored.state.memory
    ref = blank.state.memory
    assert mem.words[:mem.heap_end] == ref.words[:ref.heap_end]


@pytest.mark.parametrize("bits", [16, 32, 64])
def test_word_width_independent_results(bits):
    config = MemoryConfig(word_bits=bits)
    for name in ("Fibonacci", "LinkedList", "RTM"):
        _, _, result = run_corpus(name, config)
        for field, value in EXPECTED_FIELDS[name].items():
            assert result.fields[field] == value


def test_wraparound_differs_by_width():
    source = """
class Main
    int x

    method main()
        x += 32767
        x += 1
"""
    program = parse(source)
    class_map = build_class_map(program)
    narrow = run_program(program, class_map, MemoryConfig(word_bits=16))
    assert narrow.fields["x"] == -32768
    wide = run_program(program, class_map, MemoryConfig(word_bits=32))
    assert wide.fields["x"] == 32768
