"""In-process traced pass: time each call into each module's public API.

The spans are taken from here, around calls into ``rooplpp``; nothing in
the package is changed except that, for the duration of one call,
``parser.tokenize`` and ``MemoryImage.malloc/free`` are replaced by
timing wrappers and put back afterwards.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from rooplpp import (BACKWARD, MemoryConfig, MemoryImage, build_class_map,
                     check_program, invert_program, pretty_print, run_program)
from rooplpp import parser as rparser
from rooplpp.statefile import load_state, save_state

import checks
from proc import invoke
from workloads import block_size

now = time.perf_counter

STMT_KINDS = ("Skip", "Assign", "Swap", "If", "Loop", "LocalBlock",
              "ObjectBlock", "New", "Delete", "Copy", "Uncopy", "LocalCall",
              "LocalUncall", "ObjectCall", "ObjectUncall")
BLOCK_SIZES = tuple(2 << i for i in range(8))          # 2 .. 256 words
SWEEP_HEAPS = (6, 10, 14, 16)                          # log2 heap words
SWEEP_SIZES = (2, 4, 8, 16, 32, 64)
SWEEP_REPS = 15
IMPORT_REPS = 5


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {"cli.import_ms": "ms",
             "parser.tokenize_ms": "ms", "parser.parse_ms": "ms",
             "parser.tokens": "count", "classes.build_ms": "ms",
             "typecheck.check_ms": "ms", "inverter.invert_ms": "ms",
             "printer.print_ms": "ms", "machine.run_ms": "ms",
             "machine.rewind_ms": "ms", "machine.steps": "count",
             "machine.us_per_step": "us", "machine.rewind_us_per_step": "us"}
    units.update({f"machine.steps.{k}": "count" for k in STMT_KINDS})
    for op in ("malloc", "free"):
        units.update({f"heap.{op}.count.{c}": "count" for c in BLOCK_SIZES})
        units.update({f"heap.{op}.us.{c}": "us" for c in BLOCK_SIZES})
    units.update({"heap.self_ms": "ms", "heap.share": "ratio",
                  "heap.free_words": "words",
                  "heap.largest_free_words": "words",
                  "statefile.save_ms": "ms", "statefile.load_ms": "ms",
                  "statefile.bytes": "bytes", "trace.overhead": "ratio"})
    units.update({f"heap.pair_us.h{h}.{c}": "us"
                  for h in SWEEP_HEAPS for c in SWEEP_SIZES})
    return units


class HeapSpans:
    """Per-call malloc/free times by block size, while installed."""

    def __init__(self):
        self.calls = {"malloc": defaultdict(list), "free": defaultdict(list)}

    def total_s(self) -> float:
        return sum(sum(v) for per in self.calls.values() for v in per.values())

    @contextmanager
    def installed(self):
        malloc, free = MemoryImage.malloc, MemoryImage.free
        mcalls, fcalls = self.calls["malloc"], self.calls["free"]

        def timed_malloc(mem, osize):
            t0 = now()
            try:
                return malloc(mem, osize)
            finally:
                mcalls[block_size(osize)].append(now() - t0)

        def timed_free(mem, addr, osize):
            t0 = now()
            try:
                return free(mem, addr, osize)
            finally:
                fcalls[block_size(osize)].append(now() - t0)

        MemoryImage.malloc, MemoryImage.free = timed_malloc, timed_free
        try:
            yield self
        finally:
            MemoryImage.malloc, MemoryImage.free = malloc, free


@contextmanager
def tokenize_span(sink: list):
    """Time parser.tokenize when parse() calls it."""
    tokenize = rparser.tokenize

    def timed(source):
        t0 = now()
        tokens = tokenize(source)
        sink.append((now() - t0, len(tokens)))
        return tokens

    rparser.tokenize = timed
    try:
        yield
    finally:
        rparser.tokenize = tokenize


def import_ms(work) -> float:
    """Fresh-process ``import rooplpp`` minus a bare interpreter start."""
    bare, loaded = [], []
    for _ in range(IMPORT_REPS):
        bare.append(invoke([sys.executable, "-c", "pass"], work).wall_s)
        call = invoke([sys.executable, "-c", "import rooplpp"], work)
        if call.code != 0:
            raise RuntimeError(f"import rooplpp failed: {call.stderr[-200:]}")
        loaded.append(call.wall_s)
    return (statistics.median(loaded) - statistics.median(bare)) * 1e3


def heap_sweep() -> dict:
    """Median us of one malloc+free pair per block size on fresh heaps."""
    out = {}
    for h in SWEEP_HEAPS:
        for c in SWEEP_SIZES:
            mem = MemoryImage(MemoryConfig(num_freelists=h))
            samples = []
            for _ in range(SWEEP_REPS):
                t0 = now()
                mem.free(mem.malloc(c), c)
                samples.append(now() - t0)
            out[f"heap.pair_us.h{h}.{c}"] = statistics.median(samples) * 1e6
    return out


def _timed(fn, *args, **kwargs):
    t0 = now()
    result = fn(*args, **kwargs)
    return result, now() - t0


def traced_pass(workload, work) -> tuple[dict, dict]:
    """One pass over every source; returns (metric values, failures by
    source name)."""
    config = checks.config_of(workload)
    acc = defaultdict(float)
    heap_fwd = HeapSpans()
    failures = {}
    largest = 0
    for src in workload.sources:
        tok = []
        with tokenize_span(tok):
            program, parse_s = _timed(rparser.parse, src.text)
        acc["parser.tokenize_ms"] += tok[0][0] * 1e3
        acc["parser.parse_ms"] += (parse_s - tok[0][0]) * 1e3
        acc["parser.tokens"] += tok[0][1]
        class_map, t = _timed(build_class_map, program)
        acc["classes.build_ms"] += t * 1e3
        errors, t = _timed(check_program, program, class_map)
        acc["typecheck.check_ms"] += t * 1e3
        if errors:
            failures[src.name] = f"type errors {errors[:1]}"
            continue
        inverted, t = _timed(invert_program, program)
        acc["inverter.invert_ms"] += t * 1e3
        _, t = _timed(pretty_print, inverted)
        acc["printer.print_ms"] += t * 1e3

        spent = heap_fwd.total_s()
        with heap_fwd.installed():
            result, run_s = _timed(run_program, program, class_map, config)
        heap_s = heap_fwd.total_s() - spent
        acc["machine.run_ms"] += run_s * 1e3
        acc["machine.steps"] += result.steps
        acc["heap.self_ms"] += heap_s * 1e3
        acc["_machine_s"] += run_s - heap_s
        bad = checks.fields_mismatch(result.fields, src.expected)
        if bad:
            failures[src.name] = bad
        snap = result.state.memory.snapshot_free_lists()
        acc["heap.free_words"] += snap.total_free_words
        largest = max([largest] + list(snap.sizes_present()))

        state_path = work / "traced.state"
        _, t = _timed(save_state, str(state_path), result.state)
        acc["statefile.save_ms"] += t * 1e3
        acc["statefile.bytes"] += os.path.getsize(state_path)
        state, t = _timed(load_state, str(state_path))
        acc["statefile.load_ms"] += t * 1e3

        before = state.steps
        heap_back = HeapSpans()
        with heap_back.installed():
            rewound, t = _timed(run_program, program, class_map, config,
                                direction=BACKWARD, state=state)
        acc["machine.rewind_ms"] += t * 1e3
        acc["_rewind_s"] += t - heap_back.total_s()
        acc["_rewind_steps"] += rewound.steps - before
        if any(rewound.fields.values()):
            failures.setdefault(src.name, f"rewound fields {rewound.fields}")

        counts = defaultdict(int)

        def count(record):
            counts[record["rule"]] += 1

        _, plain = _timed(run_program, program, class_map, config)
        _, traced = _timed(run_program, program, class_map, config,
                           tracer=count)
        acc["_plain_s"] += plain
        acc["_traced_s"] += traced
        for kind in STMT_KINDS:
            acc[f"machine.steps.{kind}"] += counts[kind]

    out = {k: v for k, v in acc.items() if not k.startswith("_")}
    out["heap.largest_free_words"] = largest
    out["machine.us_per_step"] = acc["_machine_s"] / max(acc["machine.steps"], 1) * 1e6
    out["machine.rewind_us_per_step"] = (acc["_rewind_s"]
                                         / max(acc["_rewind_steps"], 1) * 1e6)
    out["heap.share"] = acc["heap.self_ms"] / max(acc["machine.run_ms"], 1e-9)
    out["trace.overhead"] = acc["_traced_s"] / max(acc["_plain_s"], 1e-9)
    for op, per in heap_fwd.calls.items():
        for c in BLOCK_SIZES:
            out[f"heap.{op}.count.{c}"] = len(per.get(c, ()))
            out[f"heap.{op}.us.{c}"] = (statistics.median(per[c]) * 1e6
                                        if per.get(c) else 0.0)
    return out, failures
