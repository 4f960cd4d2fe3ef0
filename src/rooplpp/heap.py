"""Word-addressed memory with the buddy allocator and its exact inverse.

Arena layout (word addresses):

    0                  reserved, nil
    1 .. nf            free-list heads; list i heads blocks of 2**(i+1) words
    hp = 1 + nf        heap; initially one free block of 2**nf words
    ...                optional growth room (whole top-size blocks)
    stack region       `stack_words` words at the top; frames grow downward

Free blocks chain through their first word (0 terminates).  Deallocation
runs the allocator statement-by-statement in reverse, so a block merges
with its split partner only when that partner is at the head of its free
list and adjacent below; the partner must also be the only block in the
list (its link word must be zero), otherwise the inverse control flow is
inconsistent and deallocation fails with CorruptFree.

Free-block invariant: every word of a free block other than its link word
is zero.  It holds by induction over allocator steps: `free` refuses a
block that is not zero-cleared, a merge joins two such blocks, and
`malloc` zeroes the link word of the block it pops.  So each merge level
reads only the partner's link word, and `free` costs O(number of free
lists) word reads, not O(heap).  Words that did not come from the
allocator can break the invariant; `check_free_blocks` sweeps every free
block for that case, and `statefile.load_state` runs it on every state it
loads.

Derived branch predicates for the inverse of the inner conditional, taken
mechanically from the reversible conditional semantics (evaluate the exit
assertion, run the inverted branch, require the entry condition to match):

    exit assertion true  (list empty, or head not adjacent below `p`)
        -> inverse of the pop: push `p`; afterwards the head must be nonzero
    exit assertion false (head == p - csize)
        -> inverse of the split: pop the partner, recursively free the
           merged double block; afterwards the list head must be zero
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError, MemoryFault


@dataclass(frozen=True)
class MemoryConfig:
    word_bits: int = 32
    num_freelists: int = 10
    stack_words: int = 1024
    grow_blocks: int = 0  # extra top-size blocks the heap may append

    def validate(self):
        if self.word_bits not in (16, 32, 64):
            raise ConfigError(f"word width must be 16, 32 or 64, got {self.word_bits}")
        if self.num_freelists < 2:
            raise ConfigError(f"need at least 2 free lists, got {self.num_freelists}")
        if self.stack_words < 4:
            raise ConfigError(f"stack of {self.stack_words} words is too small")
        if self.grow_blocks < 0:
            raise ConfigError("grow_blocks must be non-negative")


@dataclass(frozen=True)
class FreeListSnapshot:
    """Per size-class block addresses, in list order."""

    lists: tuple[tuple[int, tuple[int, ...]], ...]  # (size, addresses)

    def sizes_present(self) -> tuple[int, ...]:
        return tuple(size for size, addrs in self.lists if addrs)

    def addresses(self, size) -> tuple[int, ...]:
        for s, addrs in self.lists:
            if s == size:
                return addrs
        raise KeyError(size)

    @property
    def total_free_words(self) -> int:
        return sum(size * len(addrs) for size, addrs in self.lists)


class MemoryImage:
    """Flat word memory, single-owner mutable."""

    def __init__(self, config: MemoryConfig = MemoryConfig()):
        config.validate()
        self.config = config
        self.word_bits = config.word_bits
        self.mask = (1 << config.word_bits) - 1
        self.num_freelists = config.num_freelists
        self.flp = 1
        self.hp = self.flp + self.num_freelists
        self.top_size = 1 << self.num_freelists
        self.heap_end = self.hp + self.top_size
        self.heap_max = self.hp + self.top_size * (1 + config.grow_blocks)
        self.stack_base = self.heap_max + config.stack_words
        if self.stack_base > self.mask:
            raise ConfigError(
                f"{self.stack_base} words do not fit a {self.word_bits}-bit "
                "address")
        self.words = [0] * self.stack_base
        # the whole heap starts as one free block on the largest list
        self.words[self.flp + self.num_freelists - 1] = self.hp

    # ------------------------------------------------------- raw access

    def read_word(self, addr: int) -> int:
        if addr == 0:
            raise MemoryFault("NilFault", "read through nil")
        if not 0 < addr < self.stack_base:
            raise MemoryFault("AddressFault", f"read at {addr} out of bounds")
        return self.words[addr]

    def write_word(self, addr: int, value: int):
        if addr == 0:
            raise MemoryFault("NilFault", "write through nil")
        if not 0 < addr < self.stack_base:
            raise MemoryFault("AddressFault", f"write at {addr} out of bounds")
        self.words[addr] = value & self.mask

    # ------------------------------------------------------- allocator

    def _csize_for(self, osize: int) -> int:
        csize = 2
        while csize < osize:
            csize <<= 1
        return csize

    def malloc(self, osize: int) -> int:
        """Allocate the smallest power-of-two block holding osize words."""
        if osize < 1:
            raise ValueError(f"osize must be positive, got {osize}")
        while True:
            try:
                p = self._malloc1(0, osize, 0, 2)
                break
            except _NoBlock:
                if self.config.grow_blocks == 0 or osize > self.top_size:
                    raise MemoryFault(
                        "OutOfMemory",
                        f"no block of {osize} words available") from None
                self._append_top_block()
        block = self._csize_for(osize)
        for a in range(p, p + block):
            if self.words[a] != 0:
                raise MemoryFault("CorruptFree",
                                  f"allocated block at {p} not zero-cleared")
        return p

    def _append_top_block(self):
        if self.heap_end + self.top_size > self.heap_max:
            raise MemoryFault("OutOfMemory", "heap growth limit reached")
        addr = self.heap_end
        self.heap_end += self.top_size
        head_slot = self.flp + self.num_freelists - 1
        self.words[addr] = self.words[head_slot]
        self.words[head_slot] = addr

    def _malloc1(self, p, osize, counter, csize):
        flp = self.flp
        if csize < osize:
            if counter + 1 >= self.num_freelists:
                raise _NoBlock()
            return self._malloc1(p, osize, counter + 1, csize << 1)
        slot = flp + counter
        head = self.words[slot]
        if head != 0:
            # pop the head; its link word becomes the new head and is zeroed
            p += head
            self.words[slot] = (head - p) & self.mask
            self.words[slot], self.words[p] = self.words[p], self.words[slot]
            if not (self.words[slot] == 0 or p - csize != self.words[slot]):
                raise MemoryFault(
                    "CorruptFree",
                    f"free list {csize} holds adjacent blocks {p} and {p - csize}")
            return p
        # split: take a double block, keep the lower half on this list
        if counter + 1 >= self.num_freelists:
            raise _NoBlock()
        p = self._malloc1(p, osize, counter + 1, csize << 1)
        self.words[slot] = (self.words[slot] + p) & self.mask
        p += csize
        return p

    def free(self, addr: int, osize: int):
        """Exact statement-wise inverse of malloc for a zero-cleared block."""
        if osize < 1:
            raise ValueError(f"osize must be positive, got {osize}")
        csize = self._csize_for(osize)
        self._check_block(addr, csize)
        for a in range(addr, addr + csize):
            if self.words[a] != 0:
                raise MemoryFault("CorruptFree",
                                  f"freed block at {addr} not zero-cleared "
                                  f"(word {a} = {self.words[a]})")
        p = self._free1(addr, osize, 0, 2)
        if p != 0:
            raise MemoryFault("CorruptFree",
                              f"inverse allocation left pointer {p}, not 0")

    def _check_block(self, addr, csize):
        # non-LIFO merges can leave blocks off their power-of-two grid, so
        # only even parity is invariant
        if not self.hp <= addr < self.heap_end:
            raise MemoryFault("CorruptFree", f"{addr} is not a heap block")
        if (addr - self.hp) % 2 != 0:
            raise MemoryFault("CorruptFree",
                              f"{addr} is not on a block boundary")
        if addr + csize > self.heap_end:
            raise MemoryFault("CorruptFree",
                              f"block at {addr} overruns the heap")

    def _free1(self, p, osize, counter, csize):
        if counter >= self.num_freelists:
            raise MemoryFault("CorruptFree",
                              "merge cascaded past the largest size class")
        if csize < osize:
            return self._free1(p, osize, counter + 1, csize << 1)
        slot = self.flp + counter
        head = self.words[slot]
        if head == 0 or p - csize != head:
            # inverse of the pop: push p, old head becomes p's link word
            self.words[slot], self.words[p] = self.words[p], self.words[slot]
            self.words[slot] = (self.words[slot] + p) & self.mask
            p -= self.words[slot]
            if self.words[slot] == 0:
                raise MemoryFault("CorruptFree",
                                  "push left an empty free list")
            return p
        # inverse of the split: merge with the partner below, which must be
        # the sole block in this list; past its link word the partner is
        # zero by the free-block invariant, so the merged block is clean
        p -= csize
        self.words[slot] = (head - p) & self.mask
        if self.words[slot] != 0:
            raise MemoryFault("CorruptFree",
                              f"merge partner {p} is not the list head")
        if self.words[p] != 0:
            raise MemoryFault(
                "CorruptFree",
                f"merge partner {p} is not the only block in its free "
                f"list (word {p} = {self.words[p]})")
        p = self._free1(p, osize, counter + 1, csize << 1)
        if self.words[slot] != 0:
            raise MemoryFault("CorruptFree",
                              "merge left a non-empty free list behind")
        return p

    # ----------------------------------------------------- inspection

    def _free_chain(self, i, strict=True):
        """Yield the block addresses on free list i, head first.

        A strict walk raises CorruptFree at a cycle or at an address that is
        not a block of the list's size inside the heap.  A tolerant walk,
        for dumping a corrupt image, stops at an address outside memory or
        after heap_end hops instead.
        """
        size = 2 << i
        seen = set()
        hops = 0
        addr = self.words[self.flp + i]
        while addr != 0:
            if strict:
                if addr in seen:
                    raise MemoryFault("CorruptFree",
                                      f"free list {size} contains a cycle at {addr}")
                if not self.hp <= addr <= self.heap_end - size or \
                        (addr - self.hp) % 2:
                    raise MemoryFault("CorruptFree",
                                      f"free list {size} holds bad address {addr}")
                seen.add(addr)
            elif hops > self.heap_end:
                return
            yield addr
            hops += 1
            addr = self.words[addr] if 0 < addr < self.stack_base else 0

    def snapshot_free_lists(self) -> FreeListSnapshot:
        return FreeListSnapshot(tuple(
            (2 << i, tuple(self._free_chain(i)))
            for i in range(self.num_freelists)))

    def check_free_blocks(self):
        """Sweep the free lists in the style of `check_refcounts`.

        Every list must be well formed and every word of a free block past
        its link word must be zero (the free-block invariant the allocator
        relies on instead of scanning).  Raises MemoryFault("CorruptFree")
        at the first violation.
        """
        words = self.words
        for i in range(self.num_freelists):
            for addr in self._free_chain(i):
                end = addr + (2 << i)
                # bounded slices: one slice of a top-size block would copy
                # the whole heap, and indexing word by word is 4x slower
                for start in range(addr + 1, end, 1024):
                    chunk = words[start:min(start + 1024, end)]
                    if any(chunk):
                        a = start + next(k for k, w in enumerate(chunk) if w)
                        raise MemoryFault(
                            "CorruptFree",
                            f"free block at {addr} not zero-cleared "
                            f"(word {a} = {words[a]})")

    def dump_free_lists(self) -> str:
        return "\n".join(
            f"2^{i + 1}: " + " -> ".join(
                [str(addr) for addr in self._free_chain(i, strict=False)]
                + ["0"])
            for i in range(self.num_freelists))

    def hex_dump(self, start=None, end=None) -> str:
        start = 0 if start is None else start
        end = self.stack_base if end is None else end
        digits = self.word_bits // 4
        lines = []
        for base in range(start, end, 8):
            row = self.words[base:min(base + 8, end)]
            cells = " ".join(f"{w:0{digits}x}" for w in row)
            lines.append(f"{base:08x}: {cells}")
        return "\n".join(lines)

    def clone(self) -> "MemoryImage":
        other = MemoryImage.__new__(MemoryImage)
        other.__dict__.update(self.__dict__)
        other.words = list(self.words)
        return other

    def same_words(self, other: "MemoryImage") -> bool:
        return self.words == other.words and self.heap_end == other.heap_end


class _NoBlock(Exception):
    """Internal: the recursion ran past the largest size class."""


def init_memory(config: MemoryConfig = MemoryConfig()) -> MemoryImage:
    """Fresh image: zeroed arena, one top-size block on the last free list."""
    return MemoryImage(config)
