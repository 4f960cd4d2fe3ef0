"""Versioned binary machine-state dumps for resume/save.

Layout (version 2): magic ``RPPM``, u16 version, u8 word bits, u8
free-list count, u32 stack words, u32 grow blocks, then u64 total words,
heap end, frame top and step count, u32 `MachineState.program_crc` (0 if
no program ran; `run_program` checks it), then the words little-endian.
"""

import struct

from .errors import ConfigError
from .heap import MemoryConfig, MemoryImage
from .machine import MachineState

MAGIC = b"RPPM"
VERSION = 2

_HEADER = struct.Struct("<4sHBBII4QI")
_WORD_FORMATS = {16: "H", 32: "I", 64: "Q"}


def save_state(path, state):
    mem = state.memory
    header = _HEADER.pack(MAGIC, VERSION, mem.word_bits, mem.num_freelists,
                          mem.config.stack_words, mem.config.grow_blocks,
                          len(mem.words), mem.heap_end, state.frame_top,
                          state.steps, state.program_crc or 0)
    words = struct.pack("<%d%s" % (len(mem.words),
                                   _WORD_FORMATS[mem.word_bits]),
                        *mem.words)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(words)


def load_state(path):
    """The state saved at `path`, checked only for what the format promises:
    its length, word count and heap end match its header, and its frame top
    lies in the frame region.  What the words hold, heap, free lists and
    frames, `machine.census` checks when the state runs."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size or blob[:4] != MAGIC:
        raise ConfigError("%s is not a machine-state file" % path)
    (_, version, word_bits, num_freelists, stack_words, grow_blocks,
     total, heap_end, frame_top, steps, crc) = _HEADER.unpack_from(blob)
    if version != VERSION:
        raise ConfigError("unsupported state-file version %s" % version)
    config = MemoryConfig(word_bits=word_bits, num_freelists=num_freelists,
                          stack_words=stack_words, grow_blocks=grow_blocks)
    config.validate()
    # checked before the image is built, so a bad header allocates nothing
    if total != config.arena_words():
        raise ConfigError("%s: word count %s does not match the "
                          "configuration (%s)"
                          % (path, total, config.arena_words()))
    word_format = struct.Struct("<%s%s" % (total, _WORD_FORMATS[word_bits]))
    if len(blob) != _HEADER.size + word_format.size:
        raise ConfigError("%s: %s bytes, expected %s for %s words" % (
            path, len(blob), _HEADER.size + word_format.size, total))
    mem = MemoryImage(config)
    if not (mem.heap_end <= heap_end <= mem.heap_max
            and (heap_end - mem.hp) % mem.top_size == 0):
        raise ConfigError("%s: heap end %s does not match the "
                          "configuration" % (path, heap_end))
    if not mem.heap_max <= frame_top <= mem.stack_base:
        raise ConfigError("%s: frame top %s is outside the frame region "
                          "[%s, %s]" % (path, frame_top, mem.heap_max,
                                        mem.stack_base))
    # emptied first, so the fresh image's words are freed before the saved
    # ones are copied in; `words[:] =` would hold both until it is done
    mem.words.clear()
    mem.words += word_format.unpack_from(blob, _HEADER.size)
    mem.heap_end = heap_end
    state = MachineState(mem)
    state.frame_top = frame_top
    state.steps = steps
    state.program_crc = crc or None
    return state
