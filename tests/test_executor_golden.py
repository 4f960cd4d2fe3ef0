"""Differential check of the executor against recorded results.

`fixtures/executor_golden.json` was written by the direction-aware tree
walker that preceded the closure compiler and the generated functions
that replaced it; only the call depth of `errors/stack_overflow` was
rewritten since, when a frame-region overflow began to name the call
stack.  Every case is re-run here and must reproduce, exactly: a hash of the heap words, the free lists, the step
count, the frame top, a hash of the `--trace` records, and the error kind,
span, message and call depth of a failing run.

Cases: every corpus program forward and then backward from its saved
state, every runtime-error fixture, and `astgen.make_program` seeds 0-199
forward, then backward from the forward state, and backward from a fresh
state.

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
                     MemoryConfig, build_class_map, init_memory,
                     main_class_of, parse, run_program)
from rooplpp.statefile import load_state, save_state

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from astgen import make_program  # noqa: E402
from conftest import clone_memory  # noqa: E402

GOLDEN = TESTS_DIR / "fixtures" / "executor_golden.json"
ASTGEN_CONFIG = MemoryConfig(num_freelists=6, stack_words=128)
ERROR_STEP_LIMIT = 5000


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _fresh_state(program, class_map, config):
    """The state `run_program` builds for a fresh run, kept by the caller
    so that it stays inspectable after a runtime error."""
    state = MachineState(init_memory(config))
    info = class_map[main_class_of(program)]
    mem = state.memory
    obj = mem.stack_base - 2 - len(info.fields)
    state.frame_top = obj - 1
    mem.write_word(obj, info.class_id)
    mem.write_word(obj + 1, 1)
    mem.write_word(obj - 1, obj)
    return state


def _record(program, class_map, config, direction, state, step_limit):
    """Run once untraced on `state` and once traced on a clone of it, each
    under `step_limit`."""
    twin = MachineState(clone_memory(state.memory))
    twin.frame_top, twin.steps = state.frame_top, state.steps
    records = []
    out = {}
    try:
        run_program(program, class_map, config, direction=direction,
                    step_limit=step_limit, state=state)
    except ExecutionError as exc:
        out["error"] = [exc.kind.value, [exc.span.line, exc.span.col,
                                         exc.span.end_line, exc.span.end_col],
                        exc.message, len(exc.trace)]
    try:
        run_program(program, class_map, config, direction=direction,
                    step_limit=step_limit, state=twin, tracer=records.append)
    except ExecutionError:
        pass
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
        state = _fresh_state(program, class_map, config)
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
        state = _fresh_state(program, class_map, config)
        yield f"errors/{path.stem}", _record(program, class_map, config,
                                             FORWARD, state, ERROR_STEP_LIMIT)


def _astgen_cases(seeds=range(200)):
    for seed in seeds:
        program, _ = make_program(seed, length=8)
        class_map = build_class_map(program)
        config = ASTGEN_CONFIG
        state = _fresh_state(program, class_map, config)
        yield f"astgen/{seed}/forward", _record(program, class_map, config,
                                                FORWARD, state, 100_000)
        yield f"astgen/{seed}/rewind", _record(program, class_map, config,
                                               BACKWARD, state, 100_000)
        state = _fresh_state(program, class_map, config)
        yield f"astgen/{seed}/backward", _record(program, class_map, config,
                                                 BACKWARD, state, 100_000)


def all_cases() -> dict:
    cases = {}
    for group in (_corpus_cases(), _error_cases(), _astgen_cases()):
        cases.update(group)
    return cases


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", ["corpus", "errors", "astgen"])
def test_executor_matches_golden(golden, group):
    produce = {"corpus": _corpus_cases, "errors": _error_cases,
               "astgen": _astgen_cases}[group]
    produced = dict(produce())
    expected = {k: v for k, v in golden.items() if k.startswith(group + "/")}
    assert sorted(produced) == sorted(expected)
    mismatched = [k for k in produced if produced[k] != expected[k]]
    assert not mismatched, (mismatched[:5],
                            [(produced[k], expected[k]) for k in mismatched[:2]])


def test_golden_covers_errors_and_successes(golden):
    errors = [k for k, v in golden.items() if "error" in v]
    assert all(k in errors for k in golden if k.startswith("errors/"))
    assert not any(k in errors for k in golden if k.startswith("corpus/"))
    assert sum(k.endswith("/rewind") and k not in errors for k in golden) > 150


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_cases(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
