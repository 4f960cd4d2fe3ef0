import json
import subprocess
import sys

import pytest

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


def test_run_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    result = cli("run", "--trace", str(trace), str(corpus_path("Fibonacci")))
    assert result.returncode == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records
    assert {"span", "rule", "direction", "touched"} <= set(records[0])
    assert any(r["rule"] == "Assign" for r in records)


def test_deep_recursion_then_uncall_within_host_limit(tmp_path):
    # 10,000 nested ROOPL++ calls must fit the executor's Python frame budget
    source = """\
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
        n += 10000
        call down()
        uncall down()
        n -= 10000
"""
    path = tmp_path / "deep.rplpp"
    path.write_text(source)
    result = cli("run", "--stack-words", "200000", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["n = 0", "hits = 0"]


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


@pytest.mark.parametrize("flag", ["--save-state", "--trace"])
def test_unwritable_output_path_exit_4(tmp_path, flag):
    target = tmp_path / "missing" / "out"
    result = cli("run", flag, str(target), str(corpus_path("Fibonacci")))
    assert result.returncode == 4
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize("command", ["check", "run", "invert"])
@pytest.mark.parametrize("source", [_nested_parens(3000), _nested_ifs(1500)],
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
