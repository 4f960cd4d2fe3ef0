"""Differential check of the buddy allocator against recorded results.

`fixtures/heap_golden.json` was written by the recursive allocator that
preceded the two-loop `malloc`/`free`; its 72 seeds with growth blocks
were rewritten when a grown heap came to start as chained top-size
blocks.  Each case is a seeded sequence of
operations on one heap: mallocs, frees in and out of allocation order,
frees of bogus addresses and sizes, and stray non-zero words written
anywhere below `heap_end`.  After every operation the fixture holds its
result (the address, or the error kind and message) and a hash of the
words and `heap_end`, so a failing operation must also leave the same
partly-written memory behind.

Cases cover `num_freelists` 2-7 and `grow_blocks` 0-2.  Rewrite the
fixture only for an intended behaviour change:

    PYTHONPATH=src python tests/test_heap_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from rooplpp import ExecutionError, MemoryConfig, init_memory

GOLDEN = Path(__file__).parent / "fixtures" / "heap_golden.json"
SEEDS = range(108)
OPS = 40


def _size(rng, top_size):
    roll = rng.random()
    if roll < 0.03:
        return rng.choice((0, -1))
    if roll < 0.6:
        return rng.randint(1, 4)
    return rng.randint(1, top_size + 2)


def _replay(seed) -> list[str]:
    """Run one seeded sequence; one "result digest" line per operation."""
    rng = random.Random(seed)
    nf, grow = 2 + seed % 6, seed // 6 % 3
    # a stack as large as two top-size blocks keeps every block that a
    # stray pointer below heap_end names inside the arena
    mem = init_memory(MemoryConfig(num_freelists=nf, stack_words=2 << nf,
                                   grow_blocks=grow))
    live, lines = [], []
    for _ in range(OPS):
        roll = rng.random()
        try:
            if roll < 0.4 or not live:
                size = _size(rng, mem.top_size)
                result = mem.malloc(size)
                live.append((result, size))
            elif roll < 0.85:
                at = -1 if roll < 0.6 else rng.randrange(len(live))
                result = mem.free(*live.pop(at))
            elif roll < 0.93:
                result = mem.free(rng.randrange(mem.hp - 2, mem.heap_end + 4),
                                  _size(rng, mem.top_size))
            else:
                addr = rng.randrange(1, mem.heap_end)
                result = mem.words[addr] = rng.randrange(1, mem.heap_end)
        except ExecutionError as exc:
            result = f"{exc.kind}: {exc.message}"
        except ValueError as exc:
            result = f"ValueError: {exc}"
        words = repr(mem.words) + f"/{mem.heap_end}"
        lines.append(f"{result} {hashlib.sha256(words.encode()).hexdigest()[:12]}")
    return lines


def all_cases() -> dict:
    return {str(seed): _replay(seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_allocator_matches_golden(golden):
    assert sorted(golden, key=int) == [str(seed) for seed in SEEDS]
    for seed in SEEDS:
        produced, expected = _replay(seed), golden[str(seed)]
        for i, (got, want) in enumerate(zip(produced, expected)):
            assert got == want, (seed, i, expected[max(0, i - 3):i])
        assert len(produced) == len(expected) == OPS


@pytest.mark.parametrize("message", [
    "ValueError: osize must be positive",
    "is not a heap block",
    "is not on a block boundary",
    "overruns the heap",
    "not zero-cleared (word",
    "allocated block at",
    "is not the only block in its free list",
    "merge left a non-empty free list behind",
    "OutOfMemory: no block of",
])
def test_golden_hits_every_allocator_error(golden, message):
    # "holds adjacent blocks" has its own test in test_heap.py: the one
    # seed that reached it did so on the top-size list, where adjacent
    # blocks are now normal
    assert any(message in line for lines in golden.values() for line in lines)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_cases(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
