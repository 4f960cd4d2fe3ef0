import contextlib
import hashlib
import io
import json
import os
import random
import re
import struct
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from rooplpp.statefile import load_state, save_state

from conftest import CORPUS_DIR, FIXTURES_DIR, corpus_path


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
    "this deep need the executor's own worker thread (ROADMAP item 3)"))
def test_40000_deep_recursion_then_uncall(tmp_path):
    # one plain Python call per ROOPL++ call: no C stack per call on 3.11
    path = tmp_path / "deep.rplpp"
    path.write_text(_deep_recursion(40000))
    result = cli("run", "--stack-words", "200000", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["n = 0", "hits = 0"]


def test_frame_overflow_names_the_call_stack():
    result = cli("run", str(FIXTURES_DIR / "errors" / "stack_overflow.rplpp"))
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert lines[0].endswith(
        ":6:9: StackOverflow: frame region collided with the heap")
    # main's own call of dive, then one line per recursive call
    assert lines[1] == "  in Main::dive at 10:9"
    assert set(lines[2:]) == {"  in Main::dive at 6:9"}
    assert len(lines) > 100


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
    struct.pack_into("<Q", blob, 32, 10**9)   # frame top
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
            # the non-zero 32-bit words after the 52-byte header
            _LIST_STATE["nonzero"] = [
                at for at in range(52, len(blob), 4) if any(blob[at:at + 4])]
        blob = bytearray(_LIST_STATE["blob"])
        for _ in range(rng.randint(1, 4)):
            where = rng.random()
            at = rng.randrange(52) if where < 0.3 else \
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
], ids=["chain", "parens", "ifs", "loops", "divs"])
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


# the command line is read without argparse and the gettext and locale
# modules it imports
_ARGPARSE = ("argparse", "gettext", "locale")


def test_check_loads_no_back_end():
    loaded = _modules_after("check", str(corpus_path("BinaryTree")))
    assert "rooplpp.typecheck" in loaded           # the probe sees imports
    for name in ("dataclasses", "json", "rooplpp.machine", "rooplpp.heap",
                 "rooplpp.statefile", "rooplpp.inverter", "rooplpp.printer",
                 *_ARGPARSE):
        assert name not in loaded, name


def test_invert_loads_neither_checker_nor_interpreter():
    loaded = _modules_after("invert", str(corpus_path("BinaryTree")))
    assert "rooplpp.inverter" in loaded
    for name in ("dataclasses", "rooplpp.typecheck", "rooplpp.machine",
                 "rooplpp.heap", "rooplpp.statefile", *_ARGPARSE):
        assert name not in loaded, name


def test_run_loads_json_only_for_json_or_trace(tmp_path):
    path = str(corpus_path("BinaryTree"))
    plain = _modules_after("run", path)
    assert "rooplpp.machine" in plain
    for name in ("json", *_ARGPARSE):
        assert name not in plain, name
    assert "json" in _modules_after("run", "--json", path)
    assert "json" in _modules_after("run", "--trace", str(tmp_path / "t"), path)


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
