"""Differential check of the executor against recorded results.

`fixtures/executor_golden.json` was written by the direction-aware tree
walker that preceded the closure compiler and the generated functions
that replaced it; only the call depth of `errors/stack_overflow` was
rewritten since, when a frame-region overflow began to name the call
stack.  Every case is re-run here and must reproduce, exactly: a hash of the heap words, the free lists, the step
count, the frame top, a hash of the `--trace` records, and the error kind,
span, message and call depth of a failing run.

Cases: every corpus program forward and then backward from its saved
state, every runtime-error fixture, every program of `fixtures/alloc`
(a failure branch of `new`, `delete`, `construct`/`destruct`, `copy` or
`uncopy` each, under `ALLOC_CONFIG`), and `astgen.make_program` seeds
0-199 forward, then backward from the forward state, and backward from a
fresh state.  The traced run of each case must end in the same error and
words as the untraced one.

Rewrite the fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_executor_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rooplpp import (BACKWARD, FORWARD, ExecutionError, MachineState,
                     MemoryConfig, build_class_map, parse, run_program)
from rooplpp.machine import fresh_state
from rooplpp.statefile import load_state, save_state

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from astgen import make_program  # noqa: E402
from conftest import clone_memory  # noqa: E402

GOLDEN = TESTS_DIR / "fixtures" / "executor_golden.json"
ASTGEN_CONFIG = MemoryConfig(num_freelists=6, stack_words=128)
# a 64-word heap; `oom_growth` runs with one more top-size block
ALLOC_CONFIG = ASTGEN_CONFIG
ALLOC_GROWTH = MemoryConfig(num_freelists=6, stack_words=128, grow_blocks=1)
ERROR_STEP_LIMIT = 5000


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _error(program, class_map, config, **run):
    """The recorded form of the error the run raises, or None."""
    try:
        run_program(program, class_map, config, **run)
    except ExecutionError as exc:
        return [exc.kind, [exc.span.line, exc.span.col,
                                 exc.span.end_line, exc.span.end_col],
                exc.message, len(exc.trace)]
    return None


def _record(program, class_map, config, direction, state, step_limit):
    """Run once untraced on `state` and once traced on a clone of it, each
    under `step_limit`; both must end alike."""
    twin = MachineState(clone_memory(state.memory))
    twin.frame_top, twin.steps = state.frame_top, state.steps
    records = []
    out = {}
    error = _error(program, class_map, config, direction=direction,
                   step_limit=step_limit, state=state)
    if error is not None:
        out["error"] = error
    assert _error(program, class_map, config, direction=direction,
                  step_limit=step_limit, state=twin,
                  tracer=records.append) == error
    assert (twin.memory.words, twin.frame_top, twin.steps) == (
        state.memory.words, state.frame_top, state.steps)
    mem = state.memory
    out.update({
        "words": _digest(repr(mem.words) + f"/{mem.heap_end}"),
        "free_lists": mem.dump_free_lists(),
        "steps": state.steps,
        "frame_top": state.frame_top,
        "trace": _digest(json.dumps(records)),
    })
    return out


def _corpus_cases():
    for path in sorted((TESTS_DIR / "corpus").glob("*.rplpp")):
        program = parse(path.read_text())
        class_map = build_class_map(program)
        config = MemoryConfig()
        state = fresh_state(program, class_map, config)
        yield f"corpus/{path.stem}/forward", _record(
            program, class_map, config, FORWARD, state, 10_000_000)
        with tempfile.TemporaryDirectory() as tmp:
            saved = str(Path(tmp) / "state")
            save_state(saved, state)
            state = load_state(saved)
        yield f"corpus/{path.stem}/reverse", _record(
            program, class_map, config, BACKWARD, state, 10_000_000)


def _error_cases():
    for path in sorted((TESTS_DIR / "fixtures" / "errors").glob("*.rplpp")):
        program = parse(path.read_text())
        class_map = build_class_map(program)
        config = MemoryConfig()
        state = fresh_state(program, class_map, config)
        yield f"errors/{path.stem}", _record(program, class_map, config,
                                             FORWARD, state, ERROR_STEP_LIMIT)


def _alloc_cases():
    for path in sorted((TESTS_DIR / "fixtures" / "alloc").glob("*.rplpp")):
        program = parse(path.read_text())
        class_map = build_class_map(program)
        config = ALLOC_GROWTH if path.stem == "oom_growth" else ALLOC_CONFIG
        state = fresh_state(program, class_map, config)
        yield f"alloc/{path.stem}", _record(program, class_map, config,
                                            FORWARD, state, ERROR_STEP_LIMIT)


def _astgen_cases(seeds=range(200)):
    for seed in seeds:
        program, _ = make_program(seed, length=8)
        class_map = build_class_map(program)
        config = ASTGEN_CONFIG
        state = fresh_state(program, class_map, config)
        yield f"astgen/{seed}/forward", _record(program, class_map, config,
                                                FORWARD, state, 100_000)
        yield f"astgen/{seed}/rewind", _record(program, class_map, config,
                                               BACKWARD, state, 100_000)
        state = fresh_state(program, class_map, config)
        yield f"astgen/{seed}/backward", _record(program, class_map, config,
                                                 BACKWARD, state, 100_000)


def all_cases() -> dict:
    cases = {}
    for group in (_corpus_cases(), _error_cases(), _alloc_cases(),
                  _astgen_cases()):
        cases.update(group)
    return cases


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", ["corpus", "errors", "alloc", "astgen"])
def test_executor_matches_golden(golden, group):
    produce = {"corpus": _corpus_cases, "errors": _error_cases,
               "alloc": _alloc_cases, "astgen": _astgen_cases}[group]
    produced = dict(produce())
    expected = {k: v for k, v in golden.items() if k.startswith(group + "/")}
    assert sorted(produced) == sorted(expected)
    mismatched = [k for k in produced if produced[k] != expected[k]]
    assert not mismatched, (mismatched[:5],
                            [(produced[k], expected[k]) for k in mismatched[:2]])


def test_golden_covers_errors_and_successes(golden):
    errors = [k for k, v in golden.items() if "error" in v]
    assert all(k in errors for k in golden
               if k.startswith(("errors/", "alloc/")))
    assert not any(k in errors for k in golden if k.startswith("corpus/"))
    assert sum(k.endswith("/rewind") and k not in errors for k in golden) > 150


# Each failure branch of the allocation statements a program can reach:
# (golden case, error kind, message).  A check in an array length's own
# expression is the expression's, recorded once per statement.
ALLOCATION_BRANCHES = [
    # new, object form, then array form
    ("errors/new_target", "NewTargetNotNil", "target of new Thing is not nil"),
    ("alloc/oom_object", "OutOfMemory", "no block of 4 words available"),
    ("alloc/new_cell_target_bounds", "IndexOutOfBounds",
     "index 5 outside [0, 2) of cs"),
    ("alloc/new_array_target", "NewTargetNotNil",
     "target of new array is not nil"),
    ("alloc/new_array_target_first", "NewTargetNotNil",
     "target of new array is not nil"),
    ("alloc/new_length_check", "DivisionByZero", "division by zero in /"),
    ("errors/invalid_array_length", "InvalidArrayLength",
     "array length 0 is not positive"),
    ("alloc/new_negative_length", "InvalidArrayLength",
     "array length -2 is not positive"),
    ("errors/out_of_memory", "OutOfMemory", "no block of 2002 words available"),
    ("alloc/oom_growth", "OutOfMemory", "no block of 62 words available"),
    # delete, object form, then array form
    ("errors/nil_delete", "NilDereference", "delete Thing on a nil reference"),
    ("errors/dangling_delete", "DanglingReferenceOnDelete",
     "object still has 2 references"),
    ("errors/nonzero_fields", "NonZeroFieldsOnDelete",
     "field count is not zero-cleared"),
    ("errors/corrupt_free", "CorruptFree", "merge partner 1029 is not the "
     "only block in its free list (word 1029 = 1033)"),
    ("alloc/delete_nil_array", "NilDereference", "delete of a nil array"),
    ("alloc/delete_nil_before_length", "NilDereference",
     "delete of a nil array"),
    ("alloc/delete_length_check", "DivisionByZero", "division by zero in /"),
    ("alloc/delete_zero_length", "InvalidArrayLength",
     "array length 0 is not positive"),
    ("errors/array_length_mismatch", "ArrayLengthMismatch",
     "delete names length 2, array was allocated with 3"),
    ("alloc/delete_array_dangling", "DanglingReferenceOnDelete",
     "array still has 2 references"),
    ("errors/nonzero_cells", "NonZeroCellsOnDelete",
     "cell 1 is not zero-cleared"),
    ("alloc/call_depth_cells", "NonZeroCellsOnDelete",
     "cell 0 is not zero-cleared"),
    ("alloc/delete_array_corrupt_free", "CorruptFree", "merge partner 59 is "
     "not the only block in its free list (word 59 = 67)"),
    # construct allocates and destruct deletes an object
    ("alloc/construct_oom", "OutOfMemory", "no block of 4 words available"),
    ("alloc/destruct_nil", "NilDereference", "delete Cell on a nil reference"),
    ("alloc/destruct_dangling", "DanglingReferenceOnDelete",
     "object still has 2 references"),
    ("alloc/destruct_nonzero", "NonZeroFieldsOnDelete",
     "field v is not zero-cleared"),
    # copy and uncopy, object form, then array form
    ("alloc/copy_nil_object", "UninitializedObject",
     "copy from a nil reference"),
    ("errors/copy_target", "CopyTargetNotNil", "copy target is not nil"),
    ("alloc/copy_length_check", "DivisionByZero", "division by zero in /"),
    ("alloc/copy_nil_array", "UninitializedArray", "copy from a nil reference"),
    ("alloc/copy_array_target", "CopyTargetNotNil", "copy target is not nil"),
    ("alloc/uncopy_nil_object", "UninitializedObject",
     "uncopy from a nil reference"),
    ("errors/uncopy_mismatch", "UncopyMismatch",
     "uncopy operands reference different values"),
    ("alloc/uncopy_last_reference", "UncopyMismatch",
     "reference count would drop below one"),
    ("alloc/uncopy_nil_array", "UninitializedArray",
     "uncopy from a nil reference"),
    ("alloc/uncopy_array_mismatch", "UncopyMismatch",
     "uncopy operands reference different values"),
    ("alloc/uncopy_last_array", "UncopyMismatch",
     "reference count would drop below one"),
]

# Failure branches no program reaches, and why:
# - `delete`'s "word at A is not an object header": every non-nil word of
#   a class type addresses a live object, since `new`, `copy` and local
#   blocks count each word holding it and `delete` needs a count of 1 and
#   zeroes that word;
# - `construct`'s "target of new C is not nil": its word was just pushed
#   below the frame top, and every word there is zero;
# - dispatch's "word at A is not an object header", for the same reason
#   as `delete`'s: a call on a non-nil word reads a live object's header
#   (`errors/dispatch_subtype` reaches "class C has no method m");
# - the allocator's CorruptFree faults other than "merge partner is not
#   the only block": a program writes only the fields and cells of live
#   blocks and frees only blocks it allocated, so no freed block is dirty,
#   off a block boundary or past the heap, and no malloc finds a dirty
#   block; adjacent blocks on one list below the top size (top-size
#   blocks never merge) and a merge that leaves a list behind were not
#   reached by 20,000 random malloc/free sequences of live blocks.
#   `heap_golden.json` records the second on the allocator alone, and
#   `test_heap.py` the first.


def test_golden_covers_every_allocation_branch(golden):
    recorded = {k: (v["error"][0], v["error"][2])
                for k, v in golden.items() if "error" in v}
    missing = [(key, kind, message) for key, kind, message in
               ALLOCATION_BRANCHES if recorded.get(key) != (kind, message)]
    assert not missing
    assert golden["alloc/call_depth_cells"]["error"][3] == 1


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
