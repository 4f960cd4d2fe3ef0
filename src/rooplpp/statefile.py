"""Versioned binary machine-state dumps for resume/save.

Layout: magic ``RPPM``, u16 version, u8 word bits, u8 free-list count,
u32 stack words, u32 grow blocks, then u64 total words, heap end, frame
top and step count, followed by the raw word array little-endian.

Loading refuses a file whose length, word count or heap end does not match
its header, or whose free lists are malformed or hold a block that is not
zero-cleared past its link word (see `MemoryImage.check_free_blocks`).
"""

from __future__ import annotations

import struct

from .errors import ConfigError, MemoryFault
from .heap import MemoryConfig, MemoryImage
from .machine import MachineState

MAGIC = b"RPPM"
VERSION = 1

_HEADER = struct.Struct("<4sHBBII4Q")
_WORD_FORMATS = {16: "H", 32: "I", 64: "Q"}


def save_state(path: str, state: MachineState):
    mem = state.memory
    header = _HEADER.pack(MAGIC, VERSION, mem.word_bits, mem.num_freelists,
                          mem.config.stack_words, mem.config.grow_blocks,
                          len(mem.words), mem.heap_end, state.frame_top,
                          state.steps)
    words = struct.pack(f"<{len(mem.words)}{_WORD_FORMATS[mem.word_bits]}",
                        *mem.words)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(words)


def load_state(path: str) -> MachineState:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise ConfigError(f"{path} is not a machine-state file")
    (_, version, word_bits, num_freelists, stack_words, grow_blocks,
     total, heap_end, frame_top, steps) = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise ConfigError(f"unsupported state-file version {version}")
    config = MemoryConfig(word_bits=word_bits, num_freelists=num_freelists,
                          stack_words=stack_words, grow_blocks=grow_blocks)
    mem = MemoryImage(config)
    if total != mem.stack_base:
        raise ConfigError(f"{path}: word count {total} does not match the "
                          f"configuration ({mem.stack_base})")
    word_format = struct.Struct(f"<{total}{_WORD_FORMATS[word_bits]}")
    if len(blob) != _HEADER.size + word_format.size:
        raise ConfigError(f"{path}: {len(blob)} bytes, expected "
                          f"{_HEADER.size + word_format.size} for {total} "
                          "words")
    if not (mem.heap_end <= heap_end <= mem.heap_max
            and (heap_end - mem.hp) % mem.top_size == 0):
        raise ConfigError(f"{path}: heap end {heap_end} does not match the "
                          "configuration")
    mem.words = list(word_format.unpack_from(blob, _HEADER.size))
    mem.heap_end = heap_end
    try:
        mem.check_free_blocks()
    except MemoryFault as exc:
        raise ConfigError(f"{path}: {exc.kind}: {exc.message}") from None
    state = MachineState(mem)
    state.frame_top = frame_top
    state.steps = steps
    return state
