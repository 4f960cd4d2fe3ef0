"""Correctness checks on what the command line printed and saved.

Each check returns None when the output is right and a one-line reason
otherwise; it may also raise on output it cannot read, which the caller
counts as a failure.  The reference values come from ``workloads`` (the benchmark's
own model); only parsing, printing and state-file loading are borrowed
from ``rooplpp``.
"""

from __future__ import annotations

import json

from rooplpp import MemoryConfig, init_memory, invert_program, parse, pretty_print
from rooplpp.statefile import load_state

from workloads import NONNIL


def check_ok(stdout: str):
    if stdout.strip() != "ok":
        return f"check printed {stdout.strip()[:80]!r}, not 'ok'"
    return None


def fields_mismatch(fields: dict, expected: dict):
    if set(fields) != set(expected):
        return f"main fields {sorted(fields)}, expected {sorted(expected)}"
    for name, want in expected.items():
        got = fields[name]
        if want == NONNIL:
            if got == 0:
                return f"field {name} is nil"
        elif got != want:
            return f"field {name} = {got}, expected {want}"
    return None


def parse_run_json(stdout: str):
    try:
        out = json.loads(stdout)
        return out["fields"], out["steps"]
    except (ValueError, KeyError, TypeError):
        return None, None


def check_forward(source, stdout: str, state_path):
    """Fields against the model, plus any heap cells the source names."""
    fields, steps = parse_run_json(stdout)
    if fields is None:
        return f"run printed no JSON result: {stdout[:80]!r}"
    bad = fields_mismatch(fields, source.expected)
    if bad:
        return bad
    if not isinstance(steps, int) or steps < 1:
        return f"run reported {steps!r} steps"
    if source.heap_cells:
        array, first, cells = source.heap_cells
        words = load_state(str(state_path)).memory.words
        start = fields[array] + 2 + first
        got = tuple(words[start:start + len(cells)])
        if got != cells:
            return f"{array} cells from {first} are {got}, expected {cells}"
    return None


def config_of(workload) -> MemoryConfig:
    return MemoryConfig(num_freelists=workload.num_freelists,
                        stack_words=workload.stack_words)


def check_rewound(workload, stdout: str, forward_path, rewound_path):
    """The rewound image must equal a fresh one word for word.

    The exceptions are the main object's class-id, reference count and
    this-slot words, which a fresh run also writes before its first step.
    """
    fields, _ = parse_run_json(stdout)
    if fields is None:
        return f"rewind printed no JSON result: {stdout[:80]!r}"
    nonzero = {k: v for k, v in fields.items() if v != 0}
    if nonzero:
        return f"rewound fields are not zero: {nonzero}"
    fresh = init_memory(config_of(workload))
    forward = load_state(str(forward_path))
    rewound = load_state(str(rewound_path))
    obj = fresh.stack_base - 2 - len(fields)
    this_slot = obj - 1
    class_id = forward.memory.words[obj]
    if class_id == 0:
        return f"forward state has no main object header at {obj}"
    expected = list(fresh.words)
    expected[obj], expected[obj + 1], expected[this_slot] = class_id, 1, obj
    words = rewound.memory.words
    if len(words) != len(expected):
        return f"rewound image has {len(words)} words, expected {len(expected)}"
    for addr, (got, want) in enumerate(zip(words, expected)):
        if got != want:
            return f"rewound word {addr} = {got}, fresh image has {want}"
    if rewound.memory.heap_end != fresh.heap_end:
        return f"rewound heap ends at {rewound.memory.heap_end}, not {fresh.heap_end}"
    if rewound.frame_top != this_slot:
        return f"rewound frame top {rewound.frame_top}, expected {this_slot}"
    return None


def check_inverted(source_text: str, inverted_text: str):
    """Inverting the printed inverse again must give the original print."""
    again = pretty_print(invert_program(parse(inverted_text)))
    if again != pretty_print(parse(source_text)):
        return "invert is not an involution on this program"
    return None
