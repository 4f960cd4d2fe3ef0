"""The step limit, replayed at every step of a few programs.

`fixtures/step_limit_golden.json` holds, for every `step_limit` from 0 up
to the step count of a run, what the run ends in: the error kind and span
(null for a finished run), the step count, the frame top, a hash of the
memory words and a hash of the `--trace` records.  So every statement of
these programs once fails the limit, and the count, the statement named
and the partly-written memory at that point must all be reproduced.

Runs: LinkedList and RTM forward from a fresh state and backward from
their final state, and `astgen.make_program` seeds 0-19 forward.

Rewrite the fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_step_limit_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from rooplpp import (BACKWARD, FORWARD, ExecutionError, MachineState,
                     MemoryConfig, build_class_map, parse, run_program)

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from astgen import make_program  # noqa: E402
from conftest import clone_memory  # noqa: E402
from test_executor_golden import (ASTGEN_CONFIG, _digest,  # noqa: E402
                                  _fresh_state)

GOLDEN = TESTS_DIR / "fixtures" / "step_limit_golden.json"
CORPUS = ("LinkedList", "RTM")


def _copy(state):
    twin = MachineState(clone_memory(state.memory))
    twin.frame_top, twin.steps = state.frame_top, state.steps
    twin.program_crc = state.program_crc
    return twin


def _outcome(program, class_map, config, direction, start, step_limit):
    """[error kind, span, steps, frame top, words hash, trace hash] of a
    run on a copy of `start` with `step_limit`, once untraced and once
    traced; the error kind and span are null for a finished run."""
    out = [None, None]
    state, twin, records = _copy(start), _copy(start), []
    try:
        run_program(program, class_map, config, direction=direction,
                    step_limit=step_limit, state=state)
    except ExecutionError as exc:
        s = exc.span
        out = [exc.kind.value, [s.line, s.col, s.end_line, s.end_col]]
    try:
        run_program(program, class_map, config, direction=direction,
                    step_limit=step_limit, state=twin, tracer=records.append)
    except ExecutionError:
        pass
    mem = state.memory
    return out + [state.steps, state.frame_top,
                  _digest(repr(mem.words) + f"/{mem.heap_end}")[:12],
                  _digest(json.dumps(records))[:12]]


def _sweep(program, class_map, config, direction, start):
    """Outcomes for every limit below the run's step count, and at it."""
    outcomes = []
    while True:
        limit = start.steps + len(outcomes)
        outcomes.append(_outcome(program, class_map, config, direction,
                                 start, limit))
        if outcomes[-1][0] is None:
            return outcomes


def _cases(names=CORPUS, seeds=range(20)):
    for name in names:
        program = parse((TESTS_DIR / "corpus" / f"{name}.rplpp").read_text())
        class_map = build_class_map(program)
        config = MemoryConfig()
        fresh = _fresh_state(program, class_map, config)
        yield f"{name}/forward", _sweep(program, class_map, config, FORWARD,
                                        fresh)
        done = _copy(fresh)
        run_program(program, class_map, config, state=done)
        yield f"{name}/backward", _sweep(program, class_map, config,
                                         BACKWARD, done)
    for seed in seeds:
        program, _ = make_program(seed, length=8)
        class_map = build_class_map(program)
        fresh = _fresh_state(program, class_map, ASTGEN_CONFIG)
        yield f"astgen/{seed}/forward", _sweep(program, class_map,
                                               ASTGEN_CONFIG, FORWARD, fresh)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("group", ["corpus", "astgen"])
def test_step_limit_matches_golden(golden, group):
    cases = _cases(seeds=()) if group == "corpus" else _cases(names=())
    produced = dict(cases)
    expected = {k: v for k, v in golden.items()
                if k.startswith("astgen/") == (group == "astgen")}
    assert sorted(produced) == sorted(expected)
    for key, outcomes in produced.items():
        assert len(outcomes) == len(expected[key]), key
        for limit, (got, want) in enumerate(zip(outcomes, expected[key])):
            assert got == want, (key, limit)


if __name__ == "__main__":
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(o) for o in outs)
        + "\n]" for key, outs in dict(_cases()).items()) + "\n}\n")
    print(f"wrote {GOLDEN}")
