import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rooplpp import (BACKWARD, ExecutionError, MachineState, MemoryConfig,
                     MemoryImage, build_class_map, machine, main_class_of,
                     parse, run_program)
from rooplpp.statefile import _HEADER, load_state, save_state

from conftest import (CORPUS, CORPUS_DIR, FIXTURES_DIR, corpus_path,
                      load_pipeline, set_state_header)


def cli(*args):
    return subprocess.run([sys.executable, "-m", "rooplpp.cli", *args],
                          capture_output=True, text=True)


# ------------------------------------------------------------------ check

def test_check_ok():
    result = cli("check", str(corpus_path("LinkedList")))
    assert result.returncode == 0
    assert result.stdout.strip() == "ok"


def test_check_type_error_exit_2():
    result = cli("check", str(FIXTURES_DIR / "static" / "dup_args.rplpp"))
    assert result.returncode == 2
    assert "T-Call" in result.stderr


def test_check_parse_error_exit_3():
    result = cli("check", str(FIXTURES_DIR / "static" / "truncated.rplpp"))
    assert result.returncode == 3
    assert "syntax error" in result.stderr


def test_missing_file_exit_4():
    result = cli("check", str(CORPUS_DIR / "Nope.rplpp"))
    assert result.returncode == 4


@pytest.mark.parametrize("command", ["check", "invert", "run"])
def test_endless_source_is_refused_at_its_limit(command):
    """A source is read no further than 2^20 characters; under a 1 GiB
    address-space cap, a command that read it whole would fail fast
    instead of exhausting the host's memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "rooplpp.cli", command, "/dev/zero"],
        capture_output=True, text=True, preexec_fn=cap, timeout=60)
    assert result.returncode == 4, result.stderr
    assert result.stderr == ("error: /dev/zero: source longer than 1048576 "
                             "characters\n")
    assert result.stdout == ""


def test_source_at_the_limit_checks(tmp_path):
    """A program padded with a comment to exactly 2^20 characters checks;
    one character more is refused."""
    program = "class Main\n    int x\n    method main()\n        x += 1\n//"
    path = tmp_path / "padded.rplpp"
    for extra, code, stdout in ((0, 0, "ok\n"), (1, 4, "")):
        padding = (1 << 20) - len(program) - 1 + extra
        path.write_text(program + "x" * padding + "\n")
        result = cli("check", str(path))
        assert (result.returncode, result.stdout) == (code, stdout)
    assert result.stderr == ("error: %s: source longer than 1048576 "
                             "characters\n" % path)


@pytest.mark.parametrize("name", ["self_assign", "cell_self_assign",
                                  "object_arith", "no_main", "unary_main"])
def test_static_fixtures_exit_2(name):
    result = cli("check", str(FIXTURES_DIR / "static" / f"{name}.rplpp"))
    assert result.returncode == 2


# -------------------------------------------------------------------- run

def test_run_prints_fields_in_declaration_order():
    result = cli("run", str(corpus_path("Fibonacci")))
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["x1 = 5", "x2 = 8", "n = 0"]


def test_run_json():
    result = cli("run", "--json", str(corpus_path("Fibonacci")))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["fields"] == {"x1": 5, "x2": 8, "n": 0}
    assert payload["steps"] > 0
    assert payload["freelists"]["1024"] == [11]


def test_run_runtime_error_exit_1():
    result = cli("run", str(FIXTURES_DIR / "errors" / "assert_if.rplpp"))
    assert result.returncode == 1
    assert "AssertionFailed-if" in result.stderr


def test_run_dump_heap():
    result = cli("run", "--dump-heap", str(corpus_path("Fibonacci")))
    assert result.returncode == 0
    assert "2^10: 11 -> 0" in result.stdout
    assert "00000000:" in result.stdout


def test_dump_heap_prints_eight_words_a_line(tmp_path):
    path = tmp_path / "cells.rplpp"
    path.write_text("class Program\n    int[] a\n\n    method main()\n"
                    "        new int[2] a\n        a[1] += 5\n")
    result = cli("run", "--freelists", "3", "--dump-heap", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == """a = 8
2^1: 0
2^2: 4 -> 0
2^3: 0
00000000: 00000000 00000000 00000004 00000000 00000000 00000000 00000000 \
00000000
00000008: 00000002 00000001 00000000 00000005
"""


# fields named with a Latin-1 letter, two CJK ideographs and a letter
# above U+FFFF, which `json.dumps` writes as a surrogate pair
_UNICODE_FIELDS = """
class Program
    int \u00e9
    int \u65e5\u672c
    int \U0001d518

    method main()
        \u00e9 -= 1
        \u65e5\u672c -= 300
        \U0001d518 += 5
        \U0001d518 -= 70000
"""


def _expected_json_and_heap(result):
    """What `run --json --dump-heap` printed before the --json line was
    formatted without json: `json.dumps` of the fields, count and free
    lists, then the free lists and the heap words."""
    mem = result.state.memory
    line = json.dumps({"fields": result.fields, "steps": result.steps,
                       "freelists": {str(size): list(addrs) for size, addrs
                                     in mem.snapshot_free_lists().lists}})
    return "%s\n%s\n%s\n" % (line, mem.dump_free_lists(), mem.hex_dump())


@pytest.mark.parametrize("name", [p.stem for p in CORPUS] + ["unicode"])
def test_json_line_is_json_dumps(name, tmp_path):
    path = corpus_path(name)
    if name == "unicode":
        path = tmp_path / "unicode.rplpp"
        path.write_text(_UNICODE_FIELDS, encoding="utf-8")
    state = str(tmp_path / "forward.state")
    forward = subprocess.run(
        [sys.executable, "-m", "rooplpp.cli", "run", "--json", "--dump-heap",
         "--save-state", state, str(path)], capture_output=True)
    rewound = subprocess.run(
        [sys.executable, "-m", "rooplpp.cli", "run", "--resume", state,
         "--reverse", "--json", "--dump-heap", str(path)], capture_output=True)
    assert forward.returncode == rewound.returncode == 0, forward.stderr
    program, class_map = load_pipeline(path)
    ran = run_program(program, class_map)
    assert forward.stdout == _expected_json_and_heap(ran).encode()
    back = run_program(program, class_map, direction=BACKWARD,
                       state=ran.state)
    assert rewound.stdout == _expected_json_and_heap(back).encode()
    if name == "unicode":
        assert json.loads(forward.stdout.splitlines()[0])["fields"] == {
            "\u00e9": -1, "\u65e5\u672c": -300, "\U0001d518": -69995}
        assert b"\\ud835\\udd18" in forward.stdout


def test_json_line_formats_every_value_as_json_dumps():
    from rooplpp.runner import json_line

    cases = [({}, 0, ()),
             ({"x": -(1 << 63), "_y1": (1 << 64) - 1}, 10 ** 12,
              ((2, ()), (4, (5, 9)), (1024, (11,)))),
             ({"\u00e9\u00e9x": 0, "a\U0001d518b\u0661": -7}, 3, ((2, (0,)),))]
    for fields, steps, lists in cases:
        assert json_line(fields, steps, lists) == json.dumps(
            {"fields": fields, "steps": steps,
             "freelists": {str(size): list(addrs) for size, addrs in lists}})


def test_run_flags_configure_memory():
    result = cli("run", "--json", "--freelists", "4", "--stack-words", "64",
                 str(corpus_path("Fibonacci")))
    payload = json.loads(result.stdout)
    assert payload["fields"]["x1"] == 5
    assert payload["freelists"]["16"] == [5]


def test_run_bad_config_exit_4():
    result = cli("run", "--freelists", "1", str(corpus_path("Fibonacci")))
    assert result.returncode == 4


def test_heap_grow_flag(tmp_path):
    source = """\
class Main
    int[] a
    int[] b

    method main()
        new int[700] a
        new int[700] b
"""
    path = tmp_path / "two_arrays.rplpp"
    path.write_text(source)
    fixed = cli("run", str(path))
    assert fixed.returncode == 1
    assert "OutOfMemory" in fixed.stderr
    grown = cli("run", "--heap-grow", "--json", str(path))
    assert grown.returncode == 0
    payload = json.loads(grown.stdout)
    assert payload["fields"]["a"] != 0 and payload["fields"]["b"] != 0


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS_DIR.glob(
    "*.rplpp")))
def test_trace_files_match_recorded_digests(tmp_path, name):
    """The --trace files of a forward run and of its --resume --reverse
    rewind, byte for byte: `fixtures/trace_digests.json` holds the SHA-256
    of the files that the closure executor, before generated functions,
    wrote for these two commands.  Record them again only for an intended
    change of the trace, as [forward, rewind] per corpus program."""
    state, forward, rewind = (tmp_path / n
                              for n in ("s", "f.jsonl", "b.jsonl"))
    path = str(corpus_path(name))
    assert cli("run", "--save-state", str(state), "--trace", str(forward),
               path).returncode == 0
    assert cli("run", "--resume", str(state), "--reverse", "--trace",
               str(rewind), path).returncode == 0
    digests = json.loads((FIXTURES_DIR / "trace_digests.json").read_text())
    assert [hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (forward, rewind)] == digests[name]


def test_run_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    result = cli("run", "--trace", str(trace), str(corpus_path("Fibonacci")))
    assert result.returncode == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert {"span", "rule", "direction", "touched"} <= set(records[0])
    assert any(r["rule"] == "Assign" for r in records)


def _deep_recursion(depth):
    return f"""\
class Main
    int n
    int hits

    method down()
        if n != 0 then
            n -= 1
            hits += 1
            call down()
            n += 1
        else
            skip
        fi n != 0

    method main()
        n += {depth}
        call down()
        uncall down()
        n -= {depth}
"""


def test_deep_recursion_then_uncall_within_host_limit(tmp_path):
    # 10,000 nested ROOPL++ calls must fit the executor's Python frame budget
    path = tmp_path / "deep.rplpp"
    path.write_text(_deep_recursion(10000))
    result = cli("run", "--stack-words", "200000", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["n = 0", "hits = 0"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before Python 3.11 every Python call also nests a C frame, so calls "
    "this deep need the executor's own worker thread (ROADMAP item 12)"))
def test_40000_deep_recursion_then_uncall(tmp_path):
    # one plain Python call per ROOPL++ call: no C stack per call on 3.11
    path = tmp_path / "deep.rplpp"
    path.write_text(_deep_recursion(40000))
    result = cli("run", "--stack-words", "200000", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["n = 0", "hits = 0"]


@pytest.mark.skipif(sys.version_info < (3, 11), reason=(
    "before Python 3.11 every Python call also nests a C frame"))
def test_host_limit_overflow_names_the_call_stack(monkeypatch):
    states = []  # the state `run_program` builds

    class Recorded(MachineState):
        def __init__(self, memory):
            super().__init__(memory)
            states.append(self)
    monkeypatch.setattr(machine, "MachineState", Recorded)
    program = parse(_deep_recursion(150000))
    class_map = build_class_map(program)
    with pytest.raises(ExecutionError) as info:
        run_program(program, class_map, MemoryConfig(stack_words=400_000))
    exc, main = info.value, class_map[main_class_of(program)].methods["main"]
    lines = str(exc).splitlines()
    assert lines[0] == (
        "%s: StackOverflow: call nesting exceeded the host limit" % main.span)
    assert exc.span == main.span and states[0].steps > 0
    # main's call of down, then the recursive calls, folded when printed
    assert len(exc.trace) > 90_000 and len(set(exc.trace[1:])) == 1
    assert len(lines) <= 6


def test_frame_overflow_names_the_call_stack():
    result = cli("run", str(FIXTURES_DIR / "errors" / "stack_overflow.rplpp"))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert lines[0].endswith(
        ":6:9: StackOverflow: frame region collided with the heap")
    # main's own call of dive, then the 509 recursive calls, folded
    assert lines[1:] == ["  in Main::dive at 10:9"] + [
        "  in Main::dive at 6:9"] * 3 + [
        "  [Previous line repeated 506 more times]"]


def test_run_step_limit_flag():
    result = cli("run", "--step-limit", "2000",
                 str(FIXTURES_DIR / "errors" / "step_limit.rplpp"))
    assert result.returncode == 1
    assert "StepLimitExceeded" in result.stderr


# ----------------------------------------------------- save/resume/reverse

def test_save_then_reverse_restores_initial_state(tmp_path):
    state = tmp_path / "final.state"
    forward = cli("run", "--save-state", str(state),
                  str(corpus_path("LinkedList")))
    assert forward.returncode == 0
    assert "listLength = 10" in forward.stdout

    back = cli("run", "--resume", str(state), "--reverse",
               str(corpus_path("LinkedList")))
    assert back.returncode == 0
    assert back.stdout.splitlines() == ["head = 0", "listLength = 0",
                                        "total = 0", "count = 0"]

    # and the reversed run's heap is the single initial block again
    state2 = tmp_path / "rewound.state"
    back2 = cli("run", "--resume", str(state), "--reverse", "--json",
                "--save-state", str(state2), str(corpus_path("LinkedList")))
    payload = json.loads(back2.stdout)
    assert payload["freelists"]["1024"] == [11]
    assert all(addrs == [] for size, addrs in payload["freelists"].items()
               if size != "1024")


def test_resume_forward_continues(tmp_path):
    # forward from a rewound state reproduces the original result
    state = tmp_path / "final.state"
    cli("run", "--save-state", str(state), str(corpus_path("Fibonacci")))
    rewound = tmp_path / "initial.state"
    cli("run", "--resume", str(state), "--reverse", "--save-state",
        str(rewound), str(corpus_path("Fibonacci")))
    replay = cli("run", "--resume", str(rewound), str(corpus_path("Fibonacci")))
    assert replay.stdout.splitlines() == ["x1 = 5", "x2 = 8", "n = 0"]


def test_resume_bad_file_exit_4(tmp_path):
    bad = tmp_path / "bad.state"
    bad.write_bytes(b"not a state file")
    result = cli("run", "--resume", str(bad), str(corpus_path("Fibonacci")))
    assert result.returncode == 4


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_resume_reads_no_further_than_the_header():
    """An endless file is refused at its header; under a 1 GiB address-space
    cap, a run that read it whole would fail fast instead of exhausting
    the host's memory."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = subprocess.run(
        [sys.executable, "-m", "rooplpp.cli", "run", "--resume", "/dev/zero",
         str(corpus_path("Fibonacci"))],
        capture_output=True, text=True, preexec_fn=cap, timeout=60)
    assert result.returncode == 4, result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")
    assert result.stdout == ""


def _saved_state(tmp_path):
    state = tmp_path / "good.state"
    cli("run", "--save-state", str(state), str(corpus_path("Fibonacci")))
    return state


def test_resume_truncated_file_exit_4(tmp_path):
    clipped = tmp_path / "clipped.state"
    clipped.write_bytes(_saved_state(tmp_path).read_bytes()[:5000])
    result = cli("run", "--resume", str(clipped), str(corpus_path("Fibonacci")))
    assert result.returncode == 4
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


def test_resume_corrupt_free_block_exit_4(tmp_path):
    state = load_state(str(_saved_state(tmp_path)))
    mem = state.memory
    size, addrs = next((size, addrs)
                       for size, addrs in mem.snapshot_free_lists().lists
                       if addrs)
    mem.words[addrs[0] + size - 1] = 1
    corrupt = tmp_path / "corrupt.state"
    save_state(str(corrupt), state)
    result = cli("run", "--resume", str(corrupt), "--reverse",
                 str(corpus_path("Fibonacci")))
    assert result.returncode == 4
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert "CorruptFree" in result.stderr


def test_resume_frame_top_out_of_range_exit_4(tmp_path):
    # LinkedList's main method calls, so a resumed reverse run pushes frames
    state = tmp_path / "good.state"
    cli("run", "--save-state", str(state), str(corpus_path("LinkedList")))
    blob = bytearray(state.read_bytes())
    set_state_header(blob, "frame_top", 10**9)
    patched = tmp_path / "patched.state"
    patched.write_bytes(bytes(blob))
    result = cli("run", "--resume", str(patched), "--reverse",
                 str(corpus_path("LinkedList")))
    assert result.returncode == 4
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "frame top" in result.stderr


def _one_error_line(result, code=4):
    assert result.returncode == code
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr
    return result.stderr


def test_resume_bad_pointer_exit_4(tmp_path):
    saved = tmp_path / "good.state"
    cli("run", "--save-state", str(saved), str(corpus_path("LinkedList")))
    state = load_state(str(saved))
    assert state.memory.words[1025] != 0          # a cell's `next` field
    state.memory.words[1025] = 10**9
    bad = tmp_path / "bad.state"
    save_state(str(bad), state)
    result = cli("run", "--resume", str(bad), "--reverse",
                 str(corpus_path("LinkedList")))
    assert _one_error_line(result) == (
        "error: bad reference in the state: read at 1000000000 out of "
        "bounds\n")


@pytest.mark.parametrize("length", [0x80000000, 0xFFFFFFFF])
def test_resume_refuses_an_array_length_at_the_sign_or_above(tmp_path,
                                                             length):
    """Generated code tests an index only against its array's length
    word, so no state whose length word is at or above the sign runs."""
    saved = tmp_path / "good.state"
    cli("run", "--save-state", str(saved), str(corpus_path("RTM")))
    state = load_state(str(saved))
    program = parse(corpus_path("RTM").read_text())
    info = build_class_map(program)[main_class_of(program)]
    tape = state.memory.words[state.memory.stack_base - info.used + 2]
    state.memory.words[tape] = length             # the tape's length word
    bad = tmp_path / "bad.state"
    save_state(str(bad), state)
    result = cli("run", "--resume", str(bad), "--reverse",
                 str(corpus_path("RTM")))
    assert _one_error_line(result) == (
        "error: bad reference in the state: block at %d overruns the heap\n"
        % tape)


CELL_ARRAY = """\
class Cell
    int data

    method nop()
        skip

class Main
    Cell[] cells

    method main()
        new Cell[1] cells
        local Cell c = nil
            new Cell c
            cells[0] <=> c
        delocal Cell c = nil
"""


def test_resume_sweeps_the_objects_of_a_class_array(tmp_path):
    path = tmp_path / "cells.rplpp"
    path.write_text(CELL_ARRAY)
    saved = tmp_path / "cells.state"
    assert cli("run", "--save-state", str(saved), str(path)).returncode == 0
    result = cli("run", "--resume", str(saved), "--reverse", str(path))
    assert (result.returncode, result.stdout) == (0, "cells = 0\n")
    state = load_state(str(saved))
    assert state.memory.words[1031 + 2] == 1027   # cells[0] holds the object
    state.memory.words[1027 + 1] = 2              # the object's refcount
    bad = tmp_path / "bad.state"
    save_state(str(bad), state)
    result = cli("run", "--resume", str(bad), "--reverse", str(path))
    assert _one_error_line(result) == (
        "error: bad reference in the state: object at 1027 has refcount 2, "
        "but 1 live bindings hold it\n")


HEAP4 = """\
class Cell
    int data

    method nop()
        skip

class Main
    Cell a
    Cell b
    int[] c
    Cell d
    Cell[] e

    method main()
        new Cell d
        new int[1] c
        new Cell a
        new Cell b
        delete Cell d
"""


@pytest.fixture(scope="module")
def heap4(tmp_path_factory):
    """HEAP4 and its final state: hp 11, heap end 1035, free blocks of 4
    words at 1031 and of 16 ... 512 below 1019; b, a and c at 1019, 1023
    and 1027; the main object at 2052, its fields a-e at 2054-2058, its
    slot 2051 the frame top.  Cell's class id is 1."""
    tmp = tmp_path_factory.mktemp("heap4")
    path, saved = tmp / "heap4.rplpp", tmp / "heap4.state"
    path.write_text(HEAP4)
    assert cli("run", "--save-state", str(saved), str(path)).returncode == 0
    return path, saved


# words written into HEAP4's state, and the line its resumed run prints
CRAFTED_HEAPS = {
    "alias_with_leak": ({2055: 1023, 1024: 2},       # b = a, leaving b's block
                        "bad heap in the state: words 1019 to 1022 are in "
                        "no block"),
    "leak": ({2055: 0}, "bad heap in the state: words 1019 to 1022 are in no "
             "block"),
    "live_blocks_overlap": ({2057: 1021, 1021: 1, 1022: 1},   # d inside b
                            "bad heap in the state: blocks at 1019 and 1021 "
                            "overlap"),
    "live_block_over_a_free_one": ({1027: 3},        # c's length 1 -> 3
                                   "bad heap in the state: blocks at 1027 "
                                   "and 1031 overlap"),
    "word_above_the_heap_end": ({1040: 7}, "word 1040 between the heap end "
                                "and the frame top 2051 is 7, not 0"),
    "live_block_at_an_odd_offset": ({2057: 1020, 1021: 1},   # d at b + 1
                                    "bad heap in the state: blocks at 1019 "
                                    "and 1020 overlap"),
    "int_array_names_an_object": ({2056: 1023, 1024: 2},      # c = a
                                  "bad reference in the state: block at 1023 "
                                  "is held both as ClassRef and IntArrayType"),
    # c = this, and c's block put on the free list of 4-word blocks
    "int_array_names_the_main_object": ({2056: 2052, 2: 1027, 1027: 1031,
                                         1028: 0},
                                        "bad reference in the state: block at "
                                        "2052 is held both as ClassRef and "
                                        "IntArrayType"),
    # e = this, read as an array of 2 cells (Main's class id) a and b, and
    # a's and b's refcounts 2 to match
    "object_array_names_the_main_object": ({2058: 2052, 1024: 2, 1020: 2},
                                           "bad reference in the state: block "
                                           "at 2052 is held both as ClassRef "
                                           "and ClassArrayType"),
    "word_past_an_objects_fields": ({1022: 5},        # b's fourth word
                                    "bad heap in the state: block at 1019 "
                                    "is not zero past its 3 words"),
    "word_past_an_arrays_cells": ({1030: 5},          # c's fourth word
                                  "bad heap in the state: block at 1027 is "
                                  "not zero past its 3 words"),
    "main_slot_holds_another_object": ({2051: 1023},
                                       "bad reference in the state: slot "
                                       "2051 does not hold the Main object "
                                       "at 2052"),
}


@pytest.mark.parametrize("name", sorted(CRAFTED_HEAPS))
def test_resume_refuses_a_heap_that_is_not_a_partition(tmp_path, heap4, name):
    path, saved = heap4
    state = load_state(str(saved))
    words, message = CRAFTED_HEAPS[name]
    for addr, value in words.items():
        state.memory.words[addr] = value
    bad = tmp_path / "bad.state"
    save_state(str(bad), state)
    result = cli("run", "--resume", str(bad), "--reverse", str(path))
    assert _one_error_line(result) == "error: %s\n" % message


# fields a and b, and xs and ys, are of two unrelated classes; an array's
# block does not record its class, so the first word holding it names it
TWO_CLASSES = """\
class X
    int v

    method m()
        v += 1

class Y
    int w

    method n()
        w += 1

class Program
    X a
    Y b
    X[] xs
    Y[] ys

    method main()
        new X a
        new Y b
        call a::m()
        call b::n()
        new X[1] xs
        new Y[1] ys
"""


def _swap_words(words, main, case):
    """Mutate the TWO_CLASSES state at `main`, its object, as `case` says."""
    a, b, xs, ys = (main + 2 + i for i in range(4))
    if case == "fields":
        words[a], words[b] = words[b], words[a]
    elif case == "arrays":  # ys holds xs's array too, and leaks its own
        words[ys] = words[xs]
        words[words[xs] + 1] = 2
    else:  # xs[0] holds b's object too
        words[words[xs] + 2] = words[b]
        words[words[b] + 1] = 2


@pytest.mark.parametrize("case, line", [
    ("fields", "field a of Program holds an object of class Y, not of X"),
    ("arrays", "field ys of Program holds an array of class X, not of Y"),
    ("cell", "cell 0 of the X[] at %s holds an object of class Y, not of X"),
])
def test_resume_refuses_a_reference_to_another_class(tmp_path, case, line):
    """Each word that holds a reference is checked against the class it
    declares; before that check, the swapped fields ran into a dispatch
    miss (`UninitializedObject: class X has no method n`, exit 1)."""
    path, saved = tmp_path / "two.rplpp", tmp_path / "two.state"
    path.write_text(TWO_CLASSES)
    assert cli("run", "--save-state", str(saved), str(path)).returncode == 0
    state = load_state(str(saved))
    words, main = state.memory.words, state.frame_top + 1
    assert words[main - 1] == main                 # the main object's slot
    xs = words[main + 4]
    _swap_words(words, main, case)
    save_state(str(saved), state)
    result = cli("run", "--resume", str(saved), "--reverse", str(path))
    assert _one_error_line(result) == (
        "error: bad reference in the state: %s\n"
        % (line % xs if case == "cell" else line))


def test_resume_refuses_a_base_object_in_a_subclass_field(tmp_path):
    """The type checker lets a swap put a `Base` into a `Derived` field;
    the program runs, but its state names the mismatch on resume."""
    source = (FIXTURES_DIR / "errors" / "dispatch_subtype.rplpp").read_text()
    path, saved = tmp_path / "hole.rplpp", tmp_path / "hole.state"
    path.write_text(source.replace("        call d::onlyDerived()\n", ""))
    assert cli("run", "--save-state", str(saved), str(path)).returncode == 0
    result = cli("run", "--resume", str(saved), "--reverse", str(path))
    assert _one_error_line(result) == (
        "error: bad reference in the state: field d of Main holds an object "
        "of class Base, not of Derived\n")


def test_resume_accepts_subclass_objects_in_base_class_places(tmp_path):
    """A `Derived` in a `Base` field and in a `Base[]` cell passes the
    census, and the state rewinds to all zero fields."""
    source = (FIXTURES_DIR / "errors" / "dispatch_subtype.rplpp").read_text()
    main = source.index("    method main()")
    path, saved = tmp_path / "sub.rplpp", tmp_path / "sub.state"
    path.write_text(source[:main] + "    method put(Base x)\n"
                    "        b0 <=> x\n\n"
                    "    method main()\n"
                    "        local Derived e = nil\n"
                    "        new Derived e\n"
                    "        call put(e)\n"
                    "        delocal Derived e = nil\n"
                    "        new Base[1] arr\n"
                    "        new Derived d\n"
                    "        arr[0] <=> d\n"
                    "        call b0::touch()\n")
    assert cli("run", "--save-state", str(saved), str(path)).returncode == 0
    result = cli("run", "--resume", str(saved), "--reverse", "--json",
                 str(path))
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    assert set(json.loads(result.stdout)["fields"].values()) == {0}


def test_state_identity_is_the_syntax_tree_not_the_text(tmp_path):
    """A state resumes under a copy of its program whose lines are indented
    otherwise, with a comment and redundant parentheses added."""
    source = corpus_path("LinkedList").read_text()
    copy = "// the same program, laid out otherwise\n" + re.sub(
        r"(?m)^((?:    )+)", lambda m: "  " * (len(m.group(1)) // 4), source)
    for text, parenthesized in (("until i = 10", "until ((i) = 10)"),
                                ("result += data", "result += (data)")):
        assert text in copy
        copy = copy.replace(text, parenthesized)
    path, saved = tmp_path / "copy.rplpp", tmp_path / "list.state"
    path.write_text(copy)
    assert cli("run", "--save-state", str(saved),
               str(corpus_path("LinkedList"))).returncode == 0
    result = cli("run", "--resume", str(saved), "--reverse", "--json",
                 str(path))
    assert (result.returncode, result.stderr) == (0, ""), result.stderr
    fields = json.loads(result.stdout)["fields"]
    assert len(fields) == 4 and set(fields.values()) == {0}


@pytest.mark.parametrize("flags", [
    ("--freelists", "12"), ("--word-bits", "16"), ("--stack-words", "4096"),
    ("--heap-grow",)])
def test_resume_refuses_a_flag_that_differs_from_the_state(heap4, flags):
    path, saved = heap4
    result = cli("run", "--resume", str(saved), "--reverse", *flags,
                 str(path))
    line = _one_error_line(result)
    assert line.startswith("error: %s " % flags[0]), line
    stored = {"--freelists": "10", "--word-bits": "32",
              "--stack-words": "1024", "--heap-grow": "0"}[flags[0]]
    assert line.endswith(" but the state has %s\n" % stored), line


def test_resume_accepts_flags_equal_to_the_state(heap4):
    path, saved = heap4
    result = cli("run", "--resume", str(saved), "--reverse", "--freelists",
                 "10", "--word-bits", "32", "--stack-words", "1024", str(path))
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "a = 0\nb = 0\nc = 0\nd = 0\ne = 0\n"


def test_resume_under_another_program_exit_4(tmp_path):
    saved = tmp_path / "list.state"
    cli("run", "--save-state", str(saved), str(corpus_path("LinkedList")))
    result = cli("run", "--resume", str(saved), "--reverse",
                 str(corpus_path("Fibonacci")))
    assert _one_error_line(result) == (
        "error: the state was saved by a different program\n")


def test_resume_under_the_inverse_program(tmp_path):
    # the inverted program run forward undoes the original's run
    saved = tmp_path / "list.state"
    cli("run", "--save-state", str(saved), str(corpus_path("LinkedList")))
    inverse = tmp_path / "inverse.rplpp"
    inverse.write_text(cli("invert", str(corpus_path("LinkedList"))).stdout)
    result = cli("run", "--resume", str(saved), str(inverse))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["head = 0", "listLength = 0",
                                          "total = 0", "count = 0"]


_LIST_STATE = {}


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_mutated_state_resumes_to_an_exit_code(rng):
    # byte-mutated LinkedList states end in SystemExit 0-4 in-process
    from rooplpp.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.state")
        if not _LIST_STATE:
            with contextlib.redirect_stdout(io.StringIO()):
                with pytest.raises(SystemExit):
                    main(["run", "--save-state", path,
                          str(corpus_path("LinkedList"))])
            with open(path, "rb") as fh:
                blob = _LIST_STATE["blob"] = fh.read()
            # the non-zero 32-bit words after the header
            _LIST_STATE["nonzero"] = [
                at for at in range(_HEADER.size, len(blob), 4)
                if any(blob[at:at + 4])]
        blob = bytearray(_LIST_STATE["blob"])
        for _ in range(rng.randint(1, 4)):
            where = rng.random()
            at = rng.randrange(_HEADER.size) if where < 0.3 else \
                rng.choice(_LIST_STATE["nonzero"]) + rng.randrange(4) \
                if where < 0.8 else rng.randrange(len(blob))
            blob[at] = rng.randrange(256)
        with open(path, "wb") as fh:
            fh.write(blob)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--resume", path, "--reverse", "--step-limit",
                      "100000", str(corpus_path("LinkedList"))])
    assert exc.value.code in range(5), out.getvalue()


def test_non_utf8_source_exit_3(tmp_path):
    path = tmp_path / "latin1.rplpp"
    path.write_bytes("// café\nclass Main\n".encode("latin-1"))
    for command in ("check", "run", "invert"):
        assert _one_error_line(cli(command, str(path)), 3) == (
            f"{path}: syntax error: not UTF-8 text (byte 6)\n")


def test_digit_that_int_rejects_exit_3(tmp_path):
    # `²` is a digit to str.isdigit but not to int(); `٣` is Arabic-Indic 3
    path = tmp_path / "digits.rplpp"
    source = "class Main\n    int x\n\n    method main()\n        x += {}\n"
    path.write_text(source.format("²"), encoding="utf-8")
    for command in ("check", "run"):
        assert _one_error_line(cli(command, str(path)), 3) == (
            f"{path}:5:14: syntax error: unexpected character '²'\n")
    path.write_text(source.format("٣"), encoding="utf-8")
    assert cli("run", str(path)).stdout == "x = 3\n"


@pytest.mark.parametrize("digits", [4301, 21])
def test_literal_past_64_bits_exit_3(tmp_path, digits):
    # 4,301 digits are past the host's limit for int(); 21 digits, even
    # those of 1 with leading zeros, are past the language's
    path = tmp_path / "long.rplpp"
    path.write_text("class Main\n    int x\n\n    method main()\n"
                    "        x += %s\n" % "1".rjust(digits, "0"))
    for command in ("check", "invert", "run"):
        assert _one_error_line(cli(command, str(path)), 3) == (
            "%s:5:14: syntax error: integer literal is 2^64 or more, or "
            "longer than 20 digits\n" % path)


def test_largest_literal_wraps_to_the_word(tmp_path):
    path = tmp_path / "max.rplpp"
    path.write_text("class Main\n    int x\n\n    method main()\n"
                    "        x += 18446744073709551615\n")
    assert cli("check", str(path)).stdout == "ok\n"
    assert "x -= 18446744073709551615" in cli("invert", str(path)).stdout
    assert cli("run", str(path)).stdout == "x = -1\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
def test_trace_write_failure_exit_4():
    result = cli("run", "--trace", "/dev/full", str(corpus_path("Fibonacci")))
    assert _one_error_line(result) == (
        "error: [Errno 28] No space left on device\n")


_FUZZ_TOKEN = re.compile(r"//.*|\w+|<=>|::|[-+^]=|&&|\|\||[<>!]=|\S")
_NON_ASCII = "²፯٣é\u00a0\u200b\u2028𝟘Ω€"


def _fuzzed(source, rng):
    """`source` after one to three edits: delete or duplicate a token,
    swap it for another of its kind, or put a non-ASCII character before
    it."""
    def kind(text):
        return text[0].isdigit(), text[0].isalpha() or text[0] == "_"

    for _ in range(rng.randint(1, 3)):
        tokens = [m for m in _FUZZ_TOKEN.finditer(source)
                  if not m.group().startswith("//")]
        m = rng.choice(tokens)
        text = m.group()
        edit = rng.randrange(4)
        if edit == 0:
            text = ""
        elif edit == 1:
            text = f"{text} {text}"
        elif edit == 2:
            text = rng.choice([t.group() for t in tokens
                               if kind(t.group()) == kind(text)])
        else:
            text = rng.choice(_NON_ASCII) + text
        source = source[:m.start()] + text + source[m.end():]
    return source


@pytest.mark.parametrize("name", sorted(p.stem for p in CORPUS_DIR.glob(
    "*.rplpp")))
def test_mutated_source_ends_in_an_exit_code(tmp_path, name):
    # seeded mutants of each corpus program end in SystemExit 0-4 in-process,
    # with an error message for every non-zero code
    from test_frontend_golden import run_cli

    source = corpus_path(name).read_text()
    path = tmp_path / "mutant.rplpp"
    for seed in range(100):
        path.write_text(_fuzzed(source, random.Random(f"{name}/{seed}")),
                        encoding="utf-8")
        for argv in (["check"], ["invert"], ["run", "--step-limit", "2000"]):
            code, _, err = run_cli(*argv, str(path))
            assert code in range(5) and (code == 0 or err), (seed, argv, err)


@pytest.mark.parametrize("flags", [
    ["--word-bits", "64", "--freelists", "30"],
    ["--freelists", "24"],
    ["--stack-words", str(2**24)],
    ["--freelists", "23", "--heap-grow"],
])
def test_arena_over_the_machine_limit_exit_4(flags):
    # validate refuses these before any word list is built
    result = cli("run", *flags, str(corpus_path("Fibonacci")))
    assert "exceed the arena limit of 16777216 words" in _one_error_line(result)


EIGHT_FIELDS = ("class Main\n" + "".join("    int %s\n" % f for f in "abcdefgh")
                + "\n    method main()\n        a += 1\n        h += 2\n")


def test_main_object_outside_the_frame_region_exit_4(tmp_path):
    """The main object (8 fields, 2 header words) and its slot take 11
    stack words.  With 10 the slot would lie in the heap's top free block,
    so the run is refused before it starts and leaves no state file."""
    path, state = tmp_path / "eight.rplpp", tmp_path / "eight.state"
    path.write_text(EIGHT_FIELDS)
    small = cli("run", "--freelists", "3", "--stack-words", "10",
                "--save-state", str(state), str(path))
    assert _one_error_line(small) == (
        "error: 10 stack words do not hold the Main object and its slot "
        "(11 words)\n")
    assert not state.exists()
    with_new = tmp_path / "new.rplpp"
    with_new.write_text(EIGHT_FIELDS.replace("int h", "int[] h").replace(
        "h += 2", "new int[2] h"))
    assert _one_error_line(cli("run", "--freelists", "3", "--stack-words",
                               "4", str(with_new))).startswith("error: 4 ")
    done = cli("run", "--freelists", "3", "--stack-words", "11",
               "--save-state", str(state), str(path))
    assert done.stdout.splitlines()[::7] == ["a = 1", "h = 2"]
    back = cli("run", "--resume", str(state), "--reverse", "--save-state",
               str(state), str(path))
    assert back.stdout == "".join("%s = 0\n" % f for f in "abcdefgh")
    words = load_state(str(state)).memory.words
    assert words[:12] == MemoryImage(MemoryConfig(
        num_freelists=3, stack_words=11)).words[:12]


def test_16_bit_machine_uses_every_address(tmp_path):
    """A 16-bit machine addresses words 0 to 65,535, so its arena holds
    2^16 words (1 + 10 list heads + 1,024 heap words + 64,501 stack words)
    and no more; no word ever holds `stack_base` itself."""
    state = tmp_path / "full.state"
    fib = str(corpus_path("Fibonacci"))
    done = cli("run", "--word-bits", "16", "--stack-words", "64501",
               "--save-state", str(state), fib)
    assert done.returncode == 0
    assert len(load_state(str(state)).memory.words) == 1 << 16
    back = cli("run", "--resume", str(state), "--reverse", fib)
    assert back.returncode == 0
    assert set(back.stdout.split()[2::3]) == {"0"}
    over = tmp_path / "over.state"
    result = cli("run", "--word-bits", "16", "--stack-words", "64502",
                 "--save-state", str(over), fib)
    assert _one_error_line(result) == (
        "error: 65537 words do not fit a 16-bit address\n")
    assert not over.exists()


@pytest.mark.parametrize("flag", ["--save-state", "--trace"])
def test_unwritable_output_path_exit_4(tmp_path, flag):
    target = tmp_path / "missing" / "out"
    result = cli("run", flag, str(target), str(corpus_path("Fibonacci")))
    assert result.returncode == 4
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("flag", ["--save-state=", "--trace=", "--resume="])
def test_empty_path_exit_4(flag):
    # an empty path names no file; it is not the flag left out
    result = cli("run", flag, str(corpus_path("Fibonacci")))
    assert _one_error_line(result).startswith("error: ")


_DIV_ZERO = str(FIXTURES_DIR / "errors" / "div_zero.rplpp")


def test_unusable_save_state_path_fails_before_the_run(tmp_path):
    # had it run, the program would end in a DivisionByZero and exit 1
    result = cli("run", "--save-state", str(tmp_path / "missing" / "x"),
                 _DIV_ZERO)
    assert _one_error_line(result).startswith("error: ")
    assert "DivisionByZero" not in result.stderr


def test_failed_run_writes_no_state_file(tmp_path):
    saved = _saved_state(tmp_path)
    before = saved.read_bytes()
    assert cli("run", "--save-state", str(saved), _DIV_ZERO).returncode == 1
    assert saved.read_bytes() == before
    fresh = tmp_path / "fresh.state"
    assert cli("run", "--save-state", str(fresh), _DIV_ZERO).returncode == 1
    assert not fresh.exists()


def test_resume_and_save_state_name_one_file(tmp_path):
    # the state is read before its path is checked for the save
    state, apart = tmp_path / "run.state", tmp_path / "apart.state"
    cli("run", "--save-state", str(state), str(corpus_path("LinkedList")))
    cli("run", "--resume", str(state), "--reverse", "--save-state",
        str(apart), str(corpus_path("LinkedList")))
    back = cli("run", "--resume", str(state), "--reverse", "--save-state",
               str(state), str(corpus_path("LinkedList")))
    assert back.stdout.splitlines() == ["head = 0", "listLength = 0",
                                        "total = 0", "count = 0"]
    assert state.read_bytes() == apart.read_bytes()


@pytest.mark.parametrize("flags", [
    ["--trace", "{program}"],
    ["--resume", "{state}", "--reverse", "--trace", "{state}"],
    ["--trace", "{out}", "--save-state", "{out}"],
    ["--trace", "{sub}/../out", "--save-state", "{out}"],
    ["--save-state", "{program}"],
], ids=["trace-program", "trace-resume", "trace-save", "trace-save-realpath",
        "save-program"])
def test_outputs_that_collide_exit_4(tmp_path, flags):
    """--trace may name neither the program nor either state file, and
    --save-state not the program (paths compared after `realpath`): the
    run is refused before anything is written, and every file is
    byte-unchanged."""
    program = tmp_path / "Fibonacci.rplpp"
    program.write_bytes(corpus_path("Fibonacci").read_bytes())
    (tmp_path / "sub").mkdir()
    files = {"program": program, "state": _saved_state(tmp_path),
             "out": tmp_path / "out"}
    files["out"].write_text("keep\n")
    before = {name: path.read_bytes() for name, path in files.items()}
    result = cli("run", *[arg.format(sub=tmp_path / "sub", **files)
                          for arg in flags], str(program))
    assert "would overwrite" in _one_error_line(result)
    assert {name: path.read_bytes() for name, path in files.items()} == before


@pytest.mark.parametrize("flags", [
    ["--trace", "{program_link}"],
    ["--resume", "{state}", "--reverse", "--trace", "{state_link}"],
    ["--trace", "{out_link}", "--save-state", "{out}"],
    ["--save-state", "{program_link}"],
], ids=["trace-program", "trace-resume", "trace-save", "save-program"])
def test_outputs_that_collide_through_a_hard_link_exit_4(tmp_path, flags):
    """A hard link is another path to the same file, not another file: each
    collision through one is refused like the path itself, and every file
    is byte-unchanged."""
    program = tmp_path / "Fibonacci.rplpp"
    program.write_bytes(corpus_path("Fibonacci").read_bytes())
    files = {"program": program, "state": _saved_state(tmp_path),
             "out": tmp_path / "out"}
    files["out"].write_text("keep\n")
    for name, path in list(files.items()):
        files[name + "_link"] = tmp_path / (name + ".link")
        os.link(path, files[name + "_link"])
    before = {name: path.read_bytes() for name, path in files.items()}
    result = cli("run", *[arg.format(**files) for arg in flags], str(program))
    assert "would overwrite" in _one_error_line(result)
    assert {name: path.read_bytes() for name, path in files.items()} == before


def test_reverse_from_fresh_state(tmp_path):
    # running backward from zeros computes the pre-image of the all-zero
    # output; running forward from that state yields zeros again
    source = "class Main\n    int x\n\n    method main()\n        x += 7\n"
    path = tmp_path / "bump.rplpp"
    path.write_text(source)
    state = tmp_path / "pre.state"
    back = cli("run", "--reverse", "--save-state", str(state), str(path))
    assert back.returncode == 0
    assert back.stdout.splitlines() == ["x = -7"]
    forward = cli("run", "--resume", str(state), str(path))
    assert forward.stdout.splitlines() == ["x = 0"]


# ------------------------------------------- known holes in reversibility

RECEIVER_DELETED = """\
class X
    int v

    method bump(C owner)
        call owner::drop()
        v += 1

class C
    X x

    method init()
        new X x

    method drop()
        delete X x

    method go(C me)
        call x::bump(me)

class Program
    C c
    C d

    method main()
        new C c
        copy C c d
        call c::init()
        call c::go(d)
"""


def test_receiver_deleted_while_its_method_runs(tmp_path):
    """Unsound, pinned until it is fixed: `bump` runs on an X that its own
    call deletes (the running call is no reference), then writes a field
    of the freed block.  `check` accepts it and the run finishes, but the
    dirty free block fails the rewind's census, and a later `new` that
    pops it fails the run itself."""
    path = tmp_path / "receiver.rplpp"
    path.write_text(RECEIVER_DELETED)
    assert cli("check", str(path)).stdout == "ok\n"
    state = tmp_path / "done.state"
    assert cli("run", "--save-state", str(state), str(path)).returncode == 0
    back = cli("run", "--resume", str(state), "--reverse", str(path))
    assert _one_error_line(back) == (
        "error: CorruptFree: free block at 1027 not zero-cleared "
        "(word 1029 = 1)\n")
    path.write_text(RECEIVER_DELETED + "        call c::init()\n")
    again = cli("run", str(path))
    assert again.returncode == 1
    assert again.stderr.splitlines()[0].endswith(
        ": CorruptFree: allocated block at 1027 not zero-cleared")


RECEIVER_DELETED_INTO_A_FREE_LIST = """\
class X
    int v

    method bump(C owner)
        call owner::drop()
        v += 1

class E
    method idle()
        skip

class C
    X x
    E e1
    E e2

    method init()
        new X x

    method drop()
        delete X x
        new E e1
        new E e2
        delete E e1

    method go(C me)
        call x::bump(me)

class Program
    C c
    C d
    int r

    method main()
        new C c
        copy C c d
        call c::init()
        call c::go(d)
        r += 1
"""


def test_receiver_deleted_into_a_free_list(tmp_path):
    """The same hole, pinned until it is fixed: `bump`'s stale `v += 1`
    lands on the link word of a free block, so the run finishes with a
    corrupt free list.  Walking the lists for `--json` or `--dump-heap`
    then fails as one runtime error line, not a Python traceback."""
    path = tmp_path / "freed.rplpp"
    path.write_text(RECEIVER_DELETED_INTO_A_FREE_LIST)
    assert cli("check", str(path)).stdout == "ok\n"
    assert cli("run", str(path)).returncode == 0
    for flag in ("--json", "--dump-heap"):
        result = cli("run", flag, str(path))
        assert result.returncode == 1, flag
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr
        assert result.stderr.rstrip("\n").endswith(
            "CorruptFree: free list 2 holds bad address 1")


# `swapout` swaps the two X of `c` while `bump` runs on the first
LOCAL_CALL_RECEIVER = """\
class X
    int v

    method inc()
        v += 1

    method get(int r)
        r += v

    method bump(C owner)
        call owner::swapout()
        call inc()

class C
    X x
    X y

    method init()
        new X x
        new X y

    method swapout()
        x <=> y

    method go(C me)
        call x::bump(me)

    method read(int a, int b)
        call x::get(a)
        call y::get(b)

class Program
    C c
    C d
    int inX
    int inY

    method main()
        new C c
        copy C c d
        call c::init()
        call c::go(d)
        call c::read(inX, inY)
"""


def test_local_call_dispatches_on_the_callers_slot(tmp_path):
    """Pinned: a local call reads its receiver from the word of the
    caller's frame that its object call was made through (the slot `t`,
    here `c.x`), not from the running method's receiver `o`.  `swapout`
    swaps `c.x` and `c.y` while `bump` runs on the first X, so `inc`
    runs on the second: `inX = 1, inY = 0`, not the `inX = 0, inY = 1`
    that the paper's `this` gives (whose rewind would then fail with
    NonZeroFieldsOnDelete).  Today the rewind restores zeros."""
    path = tmp_path / "local.rplpp"
    path.write_text(LOCAL_CALL_RECEIVER)
    assert cli("check", str(path)).stdout == "ok\n"
    state = tmp_path / "done.state"
    done = cli("run", "--save-state", str(state), str(path))
    assert done.stdout.splitlines()[2:] == ["inX = 1", "inY = 0"]
    back = cli("run", "--resume", str(state), "--reverse", "--save-state",
               str(state), str(path))
    assert back.stdout.split()[2::3] == ["0"] * 4
    mem = load_state(str(state)).memory
    assert mem.words[:mem.heap_end] == MemoryImage(
        mem.config).words[:mem.heap_end]


# `swapout` deletes the X whose `bump` is running and allocates a Z in its
# block, so `bump` reads the field `big` as its Y reference `f`
STALE_REFERENCE = """\
class Y
    int k

    method m()
        k += 1

class X
    Y f

    method bump(C owner)
        call owner::swapout()
        call f::m()

class Z
    int big

    method setbig()
        big += %d

class C
    X x
    Z z

    method init()
        new X x

    method swapout()
        delete X x
        new Z z
        call z::setbig()

    method go(C me)
        call x::bump(me)

class Program
    C c
    C d

    method main()
        new C c
        copy C c d
        call c::init()
        call c::go(d)
"""


@pytest.mark.parametrize("big, first", [
    (100000, "39:5: CorruptFree: word outside memory reached through a "
             "stale reference"),
    (2000, "12:9: CorruptFree: word at 2000 is not an object header"),
])
def test_stale_reference_is_a_runtime_error(tmp_path, big, first):
    """The hole above, read through: a reference to the freed X's block
    now holds a Z's field.  Word 100000 lies outside memory (the main
    method's span, as for the host limit); word 2000 lies inside, but
    holds no class id."""
    path = tmp_path / "stale.rplpp"
    path.write_text(STALE_REFERENCE % big)
    assert cli("check", str(path)).stdout == "ok\n"
    result = cli("run", str(path))
    assert (result.returncode, result.stdout) == (1, "")
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == [
        "%s:%s" % (path, first), "  in C::go at 43:9",
        "  in X::bump at 33:9"]


@pytest.mark.parametrize("first,second", [("b", "a"), ("a", "b")],
                         ids=["lifo", "allocation_order"])
def test_heap_growth_is_undone_by_the_rewind(tmp_path, first, second):
    """A grown heap starts as nine chained top-size blocks, so `malloc`
    never appends one and each `free` undoes its `malloc`: the rewind
    leaves every word below `stack_base` as in a fresh state and every free
    list as in a fresh image.  Freeing in allocation order puts two
    adjacent top-size blocks on the top-size list, which must not merge."""
    path = tmp_path / "grow.rplpp"
    path.write_text("class Main\n    int[] a\n    int[] b\n    int r\n\n"
                    "    method main()\n        new int[6] a\n"
                    "        new int[6] b\n        r += 1\n"
                    "        delete int[6] %s\n        delete int[6] %s\n"
                    % (first, second))
    done, back = tmp_path / "done.state", tmp_path / "back.state"
    for args in [("--freelists", "3", "--heap-grow", "--save-state", done),
                 ("--resume", done, "--reverse", "--save-state", back)]:
        result = cli("run", *map(str, args), str(path))
        assert (result.returncode, result.stderr) == (0, "")
    mem = load_state(str(back)).memory
    fresh = MemoryImage(mem.config)
    assert fresh.snapshot_free_lists().lists[2] == (
        8, tuple(range(4, 76, 8)))
    assert mem.snapshot_free_lists() == fresh.snapshot_free_lists()
    program = parse(path.read_text())
    assert mem.words == machine.fresh_state(
        program, build_class_map(program), mem.config).memory.words


# ----------------------------------------------------------------- invert

def test_invert_outputs_inverse_source():
    result = cli("invert", str(FIXTURES_DIR / "static" / "self_assign.rplpp"))
    assert result.returncode == 0
    assert "x -= x + 1" in result.stdout


def test_double_inversion_is_canonical_identity(tmp_path):
    once = cli("invert", str(corpus_path("LinkedList")))
    assert once.returncode == 0
    inv_path = tmp_path / "inv.rplpp"
    inv_path.write_text(once.stdout)
    twice = cli("invert", str(inv_path))
    canonical = cli("invert", str(tmp_path / "inv.rplpp"))
    assert twice.returncode == 0
    # inverting the inverse yields the canonical print of the original
    from rooplpp import parse, pretty_print
    original = parse(corpus_path("LinkedList").read_text())
    assert twice.stdout == pretty_print(original)


def test_inverted_corpus_passes_check(tmp_path):
    for name in ("LinkedList", "BinaryTree", "RTM"):
        inverted = cli("invert", str(corpus_path(name)))
        path = tmp_path / f"{name}_inv.rplpp"
        path.write_text(inverted.stdout)
        assert cli("check", str(path)).returncode == 0


def _nested_parens(depth):
    expr = "(" * depth + "1" + ")" * depth
    return f"class Main\n    int x\n\n    method main()\n        x += {expr}\n"


def _nested_ifs(depth):
    body = "x += 1"
    for _ in range(depth):
        body = f"if x = 0 then {body} else skip fi x = 1"
    return f"class Main\n    int x\n\n    method main()\n        {body}\n"


def test_check_accepts_400_nested_parentheses(tmp_path):
    path = tmp_path / "nested.rplpp"
    path.write_text(_nested_parens(400))
    result = cli("check", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "ok\n"


def _nested_loops(depth):
    body = "x += 1"
    for _ in range(depth):
        body = f"from x = 0 do {body} loop skip until x = 1"
    return f"class Main\n    int x\n\n    method main()\n        {body}\n"


def _hidden_fields(depth):
    # f's parameters hide the fields a and b, in the other order, and its
    # body spills into functions that take the parameters along
    body = "x += a y += b"
    for _ in range(depth):
        body = f"if a = a then {body} else skip fi a = a"
    return ("class Main\n    int x\n    int y\n    int a\n    int b\n\n"
            f"    method f(int b, int a)\n        {body}\n\n"
            "    method main()\n        local int u = 3\n"
            "        local int v = 5\n        call f(u, v)\n"
            "        delocal int v = 5\n        delocal int u = 3\n")


def _deep_expression(kind, first="x += 2"):
    if kind == "chain":
        expr = " + ".join(["x"] * 240)
    elif kind == "parens":
        expr = "x"
        for _ in range(240):
            expr = f"({expr} + 1)"
    else:
        expr = "x"
        for level in range(120):
            expr = f"({expr} / 3)" if level % 2 else f"({expr} % 7)"
    return ("class Main\n    int x\n    int y\n\n    method main()\n"
            f"        {first}\n        y += {expr}\n")


@pytest.mark.parametrize("source,fields", [
    (_deep_expression("chain"), ["x = 2", "y = 480"]),
    (_deep_expression("parens"), ["x = 2", "y = 242"]),
    (_nested_ifs(150), ["x = 1"]),
    (_nested_loops(150), ["x = 1"]),
    (_deep_expression("divs", "x -= 1000"), ["x = -1000", "y = 0"]),
    (_hidden_fields(60), ["x = 5", "y = 3", "a = 0", "b = 0"]),
], ids=["chain", "parens", "ifs", "loops", "divs", "hidden-fields"])
def test_run_nesting_deeper_than_a_python_function(tmp_path, source, fields):
    # past the brackets, indentation levels and nested loops that Python
    # compiles in one expression or function, forward and back
    path, state = tmp_path / "deep.rplpp", str(tmp_path / "deep.state")
    path.write_text(source)
    result = cli("run", "--save-state", state, str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == fields
    back = cli("run", "--resume", state, "--reverse", str(path))
    assert back.returncode == 0, back.stderr
    assert back.stdout.splitlines() == [f.split()[0] + " = 0" for f in fields]


@pytest.mark.parametrize("command", ["check", "run", "invert"])
@pytest.mark.parametrize("source", [_nested_parens(5000), _nested_ifs(1500)],
                         ids=["parens", "ifs"])
def test_nesting_too_deep_exit_3(tmp_path, command, source):
    path = tmp_path / "deep.rplpp"
    path.write_text(source)
    result = cli(command, str(path))
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        f"{path}: syntax error: nesting too deep"]


def test_invert_parse_error_exit_3():
    result = cli("invert", str(FIXTURES_DIR / "static" / "truncated.rplpp"))
    assert result.returncode == 3


# ------------------------------------------------------------ usage errors

@pytest.mark.parametrize("argv", [
    ["frob", "x"],
    [],
    ["run"],
    ["run", "--bogus", "P"],
    ["run", "--freelists", "abc", "P"],
    ["run", "--step-limit", "-1", "P"],
    ["run", "--step-limit", "many", "P"],
    ["run", "--word-bits", "8", "P"],
    ["check", "P", "extra"],
])
def test_bad_usage_exit_4_with_one_line(argv):
    argv = [str(corpus_path("Fibonacci")) if a == "P" else a for a in argv]
    result = cli(*argv)
    assert result.returncode == 4
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ")


def test_negative_step_limit_names_the_flag():
    result = cli("run", "--step-limit", "-1", str(corpus_path("Fibonacci")))
    assert "--step-limit" in result.stderr
    assert "StepLimitExceeded" not in result.stderr


def test_zero_step_limit_still_runs_into_the_limit():
    result = cli("run", "--step-limit", "0", str(corpus_path("Fibonacci")))
    assert result.returncode == 1
    assert "StepLimitExceeded" in result.stderr


@pytest.mark.parametrize("argv", [["-h"], ["run", "-h"], ["check", "--help"]])
def test_help_exits_0(argv):
    result = cli(*argv)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: rooplpp")


# ------------------------------------------------------------ process exit

def _buffered_cli(*args, **kwargs):
    """`cli` with stdout block-buffered, as wherever PYTHONUNBUFFERED is
    unset: the last write reaches the file only when the process flushes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "rooplpp.cli", *args],
                          env=env, **kwargs)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
@pytest.mark.parametrize("args", [["check"], ["invert"], ["run", "--json"],
                                  ["--help"]], ids=" ".join)
def test_failed_final_write_exit_4(args):
    with open("/dev/full", "w") as full:
        result = _buffered_cli(*args, str(corpus_path("LinkedList")),
                               stdout=full, stderr=subprocess.PIPE, text=True)
    assert result.returncode == 4
    assert result.stderr == "error: [Errno 28] No space left on device\n"


_WARNS_ONLY = """\
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


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses writes")
@pytest.mark.parametrize("args, code", [
    (["check", "Nope.rplpp"], 4),
    (["check", "static/dup_args.rplpp"], 2),
    (["check", "static/truncated.rplpp"], 3),
    (["run", "errors/div_zero.rplpp"], 1),
    (["run", "--bogus", "x"], 4),
    (["check", "WARNS_ONLY"], 0),
], ids=lambda value: value if isinstance(value, int) else " ".join(value))
def test_refused_stderr_keeps_exit_code(tmp_path, args, code):
    # the stderr line fails to print; the exit code stays the failure's own
    warns = tmp_path / "warns.rplpp"
    warns.write_text(_WARNS_ONLY)
    argv = [str(warns) if arg == "WARNS_ONLY" else
            str(FIXTURES_DIR / arg) if arg.endswith(".rplpp") else arg
            for arg in args]
    with open("/dev/full", "w") as full:
        result = _buffered_cli(*argv, stdout=subprocess.PIPE, stderr=full,
                               text=True)
    assert result.returncode == code
    # the same call with a working stderr prints one line or more there
    assert cli(*argv).stderr


def test_closed_pipe_exit_4():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _buffered_cli("run", "--json", str(corpus_path("LinkedList")),
                               stdout=write_end, stderr=subprocess.PIPE,
                               text=True)
    finally:
        os.close(write_end)
    assert result.returncode == 4
    assert result.stderr == "error: [Errno 32] Broken pipe\n"


def test_closed_stdout_exit_0():
    # with fd 1 closed, sys.stdout is None and the output goes nowhere
    result = _buffered_cli("check", str(corpus_path("LinkedList")),
                           preexec_fn=lambda: os.close(1))
    assert result.returncode == 0


def test_fast_exit_loses_no_output(tmp_path):
    from rooplpp.cli import main

    path = str(corpus_path("LinkedList"))

    def in_process(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        return out.getvalue()

    def argv(name):
        return ["run", "--json", "--dump-heap", "--freelists", "16",
                "--trace", str(tmp_path / f"{name}.jsonl"),
                "--save-state", str(tmp_path / f"{name}.state"), path]

    result = _buffered_cli(*argv("process"), capture_output=True)
    assert result.returncode == 0, result.stderr
    assert len(result.stdout) > 65536        # more than one buffer
    assert result.stdout == in_process(argv("in_process")).encode()

    # one record per executed statement
    trace = (tmp_path / "process.jsonl").read_text()
    assert trace == (tmp_path / "in_process.jsonl").read_text()
    steps = json.loads(result.stdout.splitlines()[0])["steps"]
    assert len([json.loads(line) for line in trace.splitlines()]) == steps
    rewound = in_process(["run", "--resume", str(tmp_path / "process.state"),
                          "--reverse", "--json", path])
    fields = json.loads(rewound)["fields"]
    assert fields and not any(fields.values())


# ---------------------------------------------------------------- start-up

# the process skips atexit, so the probe calls `main` in a fresh interpreter
_LOADED_AFTER_MAIN = """
import sys
from rooplpp import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    print(*sorted(sys.modules), file=sys.stderr)
    raise
"""


def _modules_after(*args):
    result = subprocess.run([sys.executable, "-c", _LOADED_AFTER_MAIN, *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stderr.split())


def test_cli_module_loads_no_front_end():
    probe = ("import sys; import rooplpp.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('rooplpp')))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.stdout.split() == ["['rooplpp',", "'rooplpp.cli']"]


# `python -m rooplpp.cli` with the function each subcommand calls first
# wrapped to print whether the cyclic collector is on
_COLLECTOR_PROBE = """
import gc, runpy, sys
import rooplpp.inverter, rooplpp.runner, rooplpp.typecheck

def probe(module, name):
    inner = getattr(module, name)
    def wrapper(*args, **kwargs):
        print("collector", gc.isenabled(), file=sys.stderr)
        return inner(*args, **kwargs)
    setattr(module, name, wrapper)

probe(rooplpp.typecheck, "check_program")
probe(rooplpp.inverter, "invert_program")
probe(rooplpp.runner, "run")
runpy.run_module("rooplpp.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("command", ["check", "invert", "run"])
def test_process_runs_without_the_collector(command):
    result = subprocess.run([sys.executable, "-c", _COLLECTOR_PROBE, command,
                             str(corpus_path("Fibonacci"))],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    # run calls the type checker and then the runner
    assert result.stderr.split("\n")[:-1] == (
        ["collector False"] * (2 if command == "run" else 1))


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_alone(enabled):
    import gc
    from rooplpp.cli import main

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for command in ("check", "invert", "run"):
            with contextlib.redirect_stdout(io.StringIO()), \
                    pytest.raises(SystemExit):
                main([command, str(corpus_path("Fibonacci"))])
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()


# the `rooplpp.*` modules every command but `--help` loads, and those of
# every `run`
_FRONT = {"rooplpp", "rooplpp.cli", "rooplpp.syntax", "rooplpp.classes",
          "rooplpp.parser"}
_RUN = _FRONT | {"rooplpp.typecheck", "rooplpp.runner", "rooplpp.machine",
                 "rooplpp.heap"}
# the command line is read without argparse and the gettext and locale
# modules it imports, and `run` loads `json` only to write a trace
_UNUSED = {"json", "argparse", "gettext", "locale", "dataclasses"}


def _assert_loads_exactly(args, expected):
    """The whole `rooplpp.*` set after `main(args)`, so that an added module
    shows as well as one loaded where it should not be, and none of the
    standard modules in `_UNUSED` but `json` under `--trace`."""
    modules = _modules_after(*args)
    loaded = {name for name in modules if name.split(".")[0] == "rooplpp"}
    assert loaded == expected, args
    assert modules & _UNUSED == (
        {"json"} if "--trace" in args else set()), args


def test_each_command_loads_exactly_its_modules():
    """`--help` reads neither a program nor a state; the tests below hold
    each command's own runs to their exact module sets."""
    _assert_loads_exactly(("--help",), {"rooplpp", "rooplpp.cli",
                                        "rooplpp.syntax"})


def test_check_loads_no_back_end():
    _assert_loads_exactly(("check", str(corpus_path("BinaryTree"))),
                          _FRONT | {"rooplpp.typecheck"})


def test_invert_loads_neither_checker_nor_interpreter():
    _assert_loads_exactly(("invert", str(corpus_path("BinaryTree"))),
                          _FRONT | {"rooplpp.inverter", "rooplpp.printer"})


def test_run_loads_json_only_for_json_or_trace(tmp_path):
    """The `--json` line is formatted without `json`."""
    path = str(corpus_path("BinaryTree"))
    for args in ((), ("--json",), ("--trace", str(tmp_path / "t"))):
        _assert_loads_exactly(("run", *args, path), _RUN)


def test_run_loads_the_inverter_only_to_run_backward(tmp_path):
    path, state = str(corpus_path("BinaryTree")), str(tmp_path / "s")
    uncall = tmp_path / "uncall.rplpp"
    uncall.write_text("class Program\n    int x\n\n    method main()\n"
                      "        uncall inc()\n\n    method inc()\n"
                      "        x += 1\n")
    _assert_loads_exactly(("run", "--json", "--save-state", state, path),
                          _RUN | {"rooplpp.statefile"})
    # the inverter only to emit a backward body
    _assert_loads_exactly(("run", "--resume", state, "--reverse", path),
                          _RUN | {"rooplpp.statefile", "rooplpp.inverter"})
    # RTM's one uncall is on a branch its tape never takes
    _assert_loads_exactly(("run", str(corpus_path("RTM"))), _RUN)
    _assert_loads_exactly(("run", str(uncall)), _RUN | {"rooplpp.inverter"})


def test_run_loads_the_state_file_code_only_for_state_flags(tmp_path):
    """A program's identity in a state file is the crc32 of its syntax
    tree's repr, so no `run` loads the printer, with state flags or
    without; the runs without them are in the tests above."""
    path, state = str(corpus_path("LinkedList")), str(tmp_path / "s")
    _assert_loads_exactly(("run", "--json", "--save-state", state, path),
                          _RUN | {"rooplpp.statefile"})
    _assert_loads_exactly(("run", "--resume", state, "--reverse", path),
                          _RUN | {"rooplpp.statefile", "rooplpp.inverter"})


def _modules_on_import(module):
    probe = ("import sys, %s; print(*sorted(m for m in sys.modules "
             "if m.startswith('rooplpp')))" % module)
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_state_checks_load_no_executor():
    """`statefile` holds every check a state passes before it runs, the
    census too, and loads no executor; the executor loads no type checker,
    and the state-file code only when it is given a state."""
    assert _modules_on_import("rooplpp.statefile") == {
        "rooplpp", "rooplpp.syntax", "rooplpp.classes",
        "rooplpp.heap", "rooplpp.statefile"}
    loaded = _modules_on_import("rooplpp.machine")
    assert "rooplpp.heap" in loaded                # the probe sees imports
    assert not loaded & {"rooplpp.typecheck", "rooplpp.statefile",
                         "rooplpp.inverter"}
    import rooplpp
    assert rooplpp.census.__module__ == "rooplpp.statefile"
    assert rooplpp.MachineState.__module__ == "rooplpp.heap"
    assert machine.MachineState is rooplpp.MachineState


def test_package_exports_resolve_lazily():
    probe = ("import sys, rooplpp; "
             "print(sorted(m for m in sys.modules if m.startswith('rooplpp')))")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True)
    assert result.stdout.split() == ["['rooplpp']"]
    import rooplpp
    for name in rooplpp.__all__:
        assert getattr(rooplpp, name) is not None, name
    assert set(rooplpp.__all__) <= set(dir(rooplpp))
    with pytest.raises(AttributeError):
        rooplpp.no_such_name
