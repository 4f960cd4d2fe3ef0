"""Word-addressed memory with a reversible buddy allocator.

Arena layout (word addresses):

    0                  reserved, nil
    1 .. nf            free-list heads; list i heads blocks of 2**(i+1) words
    hp = 1 + nf        heap; initially one free block of 2**nf words
    ...                optional growth room (whole top-size blocks)
    stack region       `stack_words` words at the top; frames grow downward

Free blocks chain through their first word (0 terminates).  A request
takes a block of `classes.block_words` words.  `malloc` pops the first
non-empty list at or above that size, then splits downward: each lower
half heads the list below and the upper half goes on.  `free` undoes it:
while the head of the block's list is its partner directly below, it
merges with that partner, which must be the only block on the list (its
link word zero), else CorruptFree; then it pushes the block.  So a free
right after a malloc restores every word.

Free-block invariant: every word of a free block other than its link word
is zero.  `free` refuses a block that is not zero-cleared, a merge joins
two such blocks, and `malloc` zeroes the link word it pops, so each merge
level reads only the partner's link word: `free` costs O(number of free
lists) word reads, not O(heap).  `check_free_blocks`, which
`statefile.load_state` runs, sweeps every free block for words written
outside the allocator.  It, the snapshot and the dump all walk the lists
with `_free_chain`, which refuses a cycle or a stray address.
"""

from .classes import block_words
from .errors import ConfigError, Record

# machine limit on arena words (`stack_base`): 128 MiB of Python list
MAX_ARENA_WORDS = 1 << 24


class MemoryFault(Exception):
    """Low-level memory access failure; the interpreter wraps these."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind, self.message = kind, message


class MemoryConfig(Record):
    """`grow_blocks` is the number of extra top-size blocks the heap may
    append."""

    __slots__ = ("word_bits", "num_freelists", "stack_words", "grow_blocks")
    _defaults = {"word_bits": 32, "num_freelists": 10, "stack_words": 1024,
                 "grow_blocks": 0}

    def validate(self):
        if self.word_bits not in (16, 32, 64):
            raise ConfigError("word width must be 16, 32 or 64, got %s"
                              % self.word_bits)
        if self.num_freelists < 2:
            raise ConfigError("need at least 2 free lists, got %s"
                              % self.num_freelists)
        if self.stack_words < 4:
            raise ConfigError("stack of %s words is too small"
                              % self.stack_words)
        if self.grow_blocks < 0:
            raise ConfigError("grow_blocks must be non-negative")
        if self.num_freelists >= 24 or self.arena_words() > MAX_ARENA_WORDS:
            raise ConfigError(
                "%s free lists, %s growth blocks and %s stack words exceed "
                "the arena limit of %s words" % (
                    self.num_freelists, self.grow_blocks, self.stack_words,
                    MAX_ARENA_WORDS))

    def arena_words(self):
        """List heads, heap with its growth room, and stack: `stack_base`."""
        return (1 + self.num_freelists + self.stack_words
                + (1 << self.num_freelists) * (1 + self.grow_blocks))


class FreeListSnapshot(Record):
    """Per size-class block addresses, in list order."""

    __slots__ = ("lists",)  # ((size, (address, ...)), ...)

    def sizes_present(self):
        return tuple(size for size, addrs in self.lists if addrs)

    @property
    def total_free_words(self):
        return sum(size * len(addrs) for size, addrs in self.lists)


class MemoryImage:
    """Flat word memory, single-owner mutable."""

    def __init__(self, config=MemoryConfig()):
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
        self.stack_base = config.arena_words()
        if self.stack_base > self.mask:
            raise ConfigError(
                "%s words do not fit a %s-bit "
                "address" % (self.stack_base, self.word_bits))
        self.words = [0] * self.stack_base
        # the whole heap starts as one free block on the largest list
        self.words[self.flp + self.num_freelists - 1] = self.hp

    # ------------------------------------------------------- raw access

    def read_word(self, addr):
        if addr == 0:
            raise MemoryFault("NilFault", "read through nil")
        if not 0 < addr < self.stack_base:
            raise MemoryFault("AddressFault",
                              "read at %s out of bounds" % addr)
        return self.words[addr]

    def write_word(self, addr, value):
        if addr == 0:
            raise MemoryFault("NilFault", "write through nil")
        if not 0 < addr < self.stack_base:
            raise MemoryFault("AddressFault",
                              "write at %s out of bounds" % addr)
        self.words[addr] = value & self.mask

    def signed(self, word):
        """The two's-complement value of the word `word`."""
        return word - self.mask - 1 if word > self.mask >> 1 else word

    # ------------------------------------------------------- allocator

    def malloc(self, osize):
        """Allocate the smallest block holding osize words: pop the first
        non-empty list at or above its size class, then split downward."""
        if osize < 1:
            raise ValueError("osize must be positive, got %s" % osize)
        words, flp, nf = self.words, self.flp, self.num_freelists
        want = level = block_words(osize).bit_length() - 2
        while level < nf and not words[flp + level]:
            level += 1
        if level >= nf:
            if self.config.grow_blocks == 0 or osize > self.top_size:
                raise MemoryFault("OutOfMemory",
                                  "no block of %s words available" % osize)
            if self.heap_end + self.top_size > self.heap_max:
                raise MemoryFault("OutOfMemory", "heap growth limit reached")
            level = nf - 1  # the last list is empty: append a block to it
            words[flp + level] = self.heap_end
            words[self.heap_end] = 0
            self.heap_end += self.top_size
        slot, csize = flp + level, 2 << level
        p = words[slot]
        link = words[slot] = words[p]
        words[p] = 0
        if link and link == p - csize:
            raise MemoryFault(
                "CorruptFree",
                "free list %s holds adjacent blocks %s and %s"
                % (csize, p, p - csize))
        # split: the lower half heads the list below, go on with the upper
        while level > want:
            level -= 1
            csize >>= 1
            words[flp + level] = p
            p += csize
        if any(words[p:p + csize]):
            raise MemoryFault("CorruptFree",
                              "allocated block at %s not zero-cleared" % p)
        return p

    def free(self, addr, osize):
        """Return a zero-cleared block: while the head of its list is its
        partner directly below, merge with it; then push the block."""
        if osize < 1:
            raise ValueError("osize must be positive, got %s" % osize)
        csize = block_words(osize)
        # non-LIFO merges can leave blocks off their power-of-two grid, so
        # only even parity is invariant
        if not self.hp <= addr < self.heap_end:
            raise MemoryFault("CorruptFree", "%s is not a heap block" % addr)
        if (addr - self.hp) % 2 != 0:
            raise MemoryFault("CorruptFree",
                              "%s is not on a block boundary" % addr)
        if addr + csize > self.heap_end:
            raise MemoryFault("CorruptFree",
                              "block at %s overruns the heap" % addr)
        self._check_zero("freed", addr, addr, addr + csize)
        words, p = self.words, addr
        slot = first = self.flp + csize.bit_length() - 2
        while True:
            if slot >= self.flp + self.num_freelists:
                raise MemoryFault("CorruptFree",
                                  "merge cascaded past the largest size class")
            head = words[slot]
            if not head or head != p - csize:
                break
            # the partner must be the only block on its list; past its link
            # word it is zero by the free-block invariant
            p = head
            words[slot] = 0
            if words[p]:
                raise MemoryFault(
                    "CorruptFree",
                    "merge partner %s is not the only block in its free "
                    "list (word %s = %s)" % (p, p, words[p]))
            slot += 1
            csize <<= 1
        words[p] = head
        words[slot] = p
        # a stray pointer to a list-head word can make the merged block one
        # of the heads the merge emptied
        if first <= p < slot and head:
            raise MemoryFault("CorruptFree",
                              "merge left a non-empty free list behind")

    # ----------------------------------------------------- inspection

    def _free_chain(self, i):
        """Yield the block addresses on free list i, head first; raise
        CorruptFree at a cycle or at an address that is not a block of the
        list's size inside the heap."""
        size = 2 << i
        seen = set()
        addr = self.words[self.flp + i]
        while addr != 0:
            if addr in seen:
                raise MemoryFault("CorruptFree",
                                  "free list %s contains a cycle at %s"
                                  % (size, addr))
            if not self.hp <= addr <= self.heap_end - size or \
                    (addr - self.hp) % 2:
                raise MemoryFault("CorruptFree",
                                  "free list %s holds bad address %s"
                                  % (size, addr))
            seen.add(addr)
            yield addr
            addr = self.words[addr]

    def snapshot_free_lists(self):
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
        for i in range(self.num_freelists):
            for addr in self._free_chain(i):
                self._check_zero("free", addr, addr + 1, addr + (2 << i))

    def _check_zero(self, what, addr, start, end):
        """Raise CorruptFree at the first non-zero word in [start, end)."""
        words = self.words
        # bounded slices: one slice of a top-size block would copy the
        # whole heap, and indexing word by word is 4x slower
        for base in range(start, end, 1024):
            chunk = words[base:min(base + 1024, end)]
            if any(chunk):
                a = base + next(k for k, w in enumerate(chunk) if w)
                raise MemoryFault("CorruptFree",
                                  "%s block at %s not zero-cleared "
                                  "(word %s = %s)" % (what, addr, a, words[a]))

    def dump_free_lists(self):
        """One line per free list; a corrupt list raises CorruptFree."""
        return "\n".join(
            "2^%s: " % (i + 1) + " -> ".join(
                [str(addr) for addr in self._free_chain(i)] + ["0"])
            for i in range(self.num_freelists))

    def hex_dump(self, start, end):
        """Eight words a line, each line headed by its first address."""
        digits = self.word_bits // 4
        return "\n".join("%08x: " % base + " ".join(
            "%0*x" % (digits, w) for w in self.words[base:min(base + 8, end)])
            for base in range(start, end, 8))


def init_memory(config=MemoryConfig()):
    """Fresh image: zeroed arena, one top-size block on the last free list."""
    return MemoryImage(config)
