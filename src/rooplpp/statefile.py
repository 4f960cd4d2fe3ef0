"""Versioned machine-state dumps and every check a state must pass to run.

Layout (version 3): magic ``RPPM``, u16 version, u8 word bits, u8
free-list count, u32 stack words, u32 grow blocks, then u64 total words,
frame top and step count, u32 `MachineState.program_crc` (0 if no program
ran; `run_program` checks it), then the words little-endian.
"""

import struct

from .classes import block_words
from .syntax import ConfigError, ExecutionError
from .heap import MachineState, MemoryConfig, MemoryImage, main_address
from . import syntax as ast

MAGIC = b"RPPM"
VERSION = 3

_HEADER = struct.Struct("<4sHBBII3QI")
_WORD_FORMATS = {16: "H", 32: "I", 64: "Q"}


def save_state(path, state):
    mem = state.memory
    header = _HEADER.pack(MAGIC, VERSION, mem.word_bits, mem.num_freelists,
                          mem.config.stack_words, mem.config.grow_blocks,
                          len(mem.words), state.frame_top, state.steps,
                          state.program_crc or 0)
    words = struct.pack("<%d%s" % (len(mem.words),
                                   _WORD_FORMATS[mem.word_bits]),
                        *mem.words)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(words)


def load_state(path):
    """The state saved at `path`, checked only for what the format promises:
    its length and word count match its header and its frame top lies in
    the frame region, above the heap end its configuration fixes.  What the
    words hold, heap, free lists and frames, `census` checks when the state
    runs.  The file is read no further than its header says, so a bad
    header reads no words."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size or header[:4] != MAGIC:
            raise ConfigError("%s is not a machine-state file" % path)
        (_, version, word_bits, num_freelists, stack_words, grow_blocks,
         total, frame_top, steps, crc) = _HEADER.unpack(header)
        if version != VERSION:
            raise ConfigError("unsupported state-file version %s" % version)
        config = MemoryConfig(word_bits=word_bits, stack_words=stack_words,
                              num_freelists=num_freelists,
                              grow_blocks=grow_blocks)
        config.validate()
        # before the image is built: a bad header allocates nothing
        if total != config.arena_words():
            raise ConfigError("%s: word count %s does not match the "
                              "configuration (%s)"
                              % (path, total, config.arena_words()))
        word_format = struct.Struct("<%s%s"
                                    % (total, _WORD_FORMATS[word_bits]))
        body = fh.read(word_format.size + 1)  # one more shows a longer file
    expected = _HEADER.size + word_format.size
    if len(body) != word_format.size:
        raise ConfigError("%s: %s bytes, expected %s for %s words" % (
            path, _HEADER.size + len(body) if len(body) < word_format.size
            else "more than %s" % expected, expected, total))
    mem = MemoryImage(config)
    if not mem.heap_end <= frame_top <= mem.stack_base:
        raise ConfigError("%s: frame top %s is outside the frame region "
                          "[%s, %s]" % (path, frame_top, mem.heap_end,
                                        mem.stack_base))
    # emptied first, so the fresh image's words are freed before the saved
    # ones are copied in; `words[:] =` would hold both until it is done
    mem.words.clear()
    mem.words += word_format.unpack(body)
    return MachineState(mem, frame_top, steps, crc or None)


def census(state, class_map, main_class):
    """The one check of a state before it runs: the main object's slot
    holds it under its class's header, each object or array reachable from
    it is held by words of one kind (object, int[] or object array), each
    declaring its class or, for an object, a base class, has a reference
    count equal to their number, and is zero past its fields or cells,
    their blocks and the free ones tile [hp, heap_end), and the words from
    there to the frame top are 0.  Returns (live words, free words,
    largest free block); raises ConfigError otherwise."""
    mem, info = state.memory, class_map[main_class]
    words, heap_end, main = mem.words, mem.heap_end, main_address(mem, info)
    try:
        free = mem.check_free_blocks()
    except ExecutionError as exc:
        raise ConfigError("%s: %s" % (exc.kind, exc.message)) from None
    # address: its kind, words holding it, class (an array's: of elements)
    held = {main: [ast.ClassRef, 1, main_class]}
    live, queue, dirty = [], [main], []  # dirty: (block, words it uses)
    typed = []  # (block, declared class, holder, offset) per class word
    try:
        if (words[main - 1], words[main]) != (main, info.class_id):
            raise ValueError("slot %s does not hold the %s object at %s"
                             % (main - 1, info.name, main))
        while queue:
            addr = queue.pop()
            if addr >= mem.stack_base:
                raise ValueError("read at %s out of bounds" % addr)
            (kind, _, element), header = held[addr], words[addr]
            if kind is not ast.ClassRef:  # an array; its cells read lazily
                used = header + 2
                size = block_words(used)
                slots = () if kind is ast.IntArrayType else (
                    (i, ast.ClassRef, element) for i in range(2, used))
            elif header in class_map.by_id:
                cls = class_map.by_id[header]
                used, size, slots = cls.used, cls.alloc_words, cls.refs
                held[addr][2] = cls.name
            else:
                raise ValueError("word at %s is not an object header" % addr)
            if addr != main:
                if not mem.hp <= addr <= heap_end - size:
                    raise ValueError("block at %s overruns the heap" % addr)
                if any(words[addr + used:addr + size]):
                    dirty.append((addr, used))
                live.append((addr, size))
            for i, reached, declared in slots:
                ref = words[addr + i]
                if ref in held:
                    if held[ref][0] is not reached:
                        raise ValueError(
                            "block at %s is held both as %s and %s" % (
                                ref, held[ref][0].__name__, reached.__name__))
                    held[ref][1] += 1
                elif ref:
                    held[ref] = [reached, 1, declared]
                    queue.append(ref)
                if ref and declared:
                    typed.append((ref, declared, addr, i))
        for a, (_, n, _) in held.items():
            if words[a + 1] != n:
                raise ValueError("object at %s has refcount %s, but %s live "
                                 "bindings hold it" % (a, words[a + 1], n))
        for ref, declared, addr, i in typed:
            (kind, _, actual), (holder, _, name) = held[ref], held[addr]
            if actual != declared and (kind is not ast.ClassRef or not
                                       class_map.subtype_of(actual, declared)):
                raise ValueError("%s holds an %s of class %s, not of %s" % (
                    "field %s of %s" % (class_map[name].fields[i - 2][1], name)
                    if holder is ast.ClassRef else "cell %s of the %s[] at %s"
                    % (i - 2, name, addr), "object" if kind is ast.ClassRef
                    else "array", actual, declared))
    except ValueError as exc:
        raise ConfigError("bad reference in the state: %s" % exc) from None
    at = last = mem.hp
    for addr, size in sorted(free + live) + [(heap_end, 0)]:
        if addr != at:
            raise ConfigError("bad heap in the state: " + (
                "blocks at %s and %s overlap" % (last, addr) if addr < at
                else "words %s to %s are in no block" % (at, addr - 1)))
        last, at = addr, addr + size
    if dirty:
        raise ConfigError("bad heap in the state: block at %s is not zero "
                          "past its %s words" % dirty[0])
    unused = words[heap_end:state.frame_top]
    if any(unused):
        at = heap_end + next(i for i, word in enumerate(unused) if word)
        raise ConfigError("word %s between the heap end and the frame top %s"
                          " is %s, not 0" % (at, state.frame_top, words[at]))
    sizes = [size for _, size in free]
    return sum(size for _, size in live), sum(sizes), max(sizes, default=0)

