"""Word-addressed memory with a reversible buddy allocator.

Arena layout (word addresses):

    0                  reserved, nil
    1 .. nf            free-list heads; list i heads blocks of 2**(i+1) words
    hp = 1 + nf        heap: 1 + grow_blocks free blocks of 2**nf words,
                       chained on the top-size list in address order
    stack region       `stack_words` words at the top; frames grow downward

`MemoryImage.words` is the memory, with no accessor: generated code
writes it as `w[a] = v`, `machine.fresh_state` places the main object in
it, and the allocator below keeps the free lists in it.

Free blocks chain through their first word (0 terminates).  A request
takes a block of `classes.block_words` words.  `malloc` pops the first
non-empty list at or above that size, then splits downward: each lower
half heads the list below and the upper half goes on.  `free` undoes it:
while the head of the block's list is its partner directly below, it
merges with that partner, which must be the only block on the list (its
link word zero), else CorruptFree; then it pushes the block.  Top-size
blocks never merge, so several may lie side by side on their list.  So a
free right after a malloc restores every word, and the heap end is fixed
by the configuration.

Free-block invariant: every word of a free block other than its link word
is zero.  `free` refuses a block that is not zero-cleared, a merge joins
two such blocks, and `malloc` zeroes the link word it pops, so each merge
level reads only the partner's link word.  `free` and `malloc` still read
every word of the block they free or return, to check that it is zero, so
each costs O(block size + number of free lists) word reads, a block being
at most the top size.  `check_free_blocks`, the free half of
`statefile.census`, sweeps every free block for words written outside the
allocator.  It, the snapshot and the dump all walk the lists with
`_free_chain`, which refuses a cycle or a stray address.

A fault, of kind OutOfMemory or CorruptFree, is an `ExecutionError`
without a span: the executor adds the site of the statement that called
the allocator, and the census turns it into a ConfigError.
"""

from .classes import block_words
from .syntax import ConfigError, ExecutionError, Record

# machine limit on arena words (`stack_base`): 128 MiB of Python list
MAX_ARENA_WORDS = 1 << 24


class MemoryConfig(Record):
    """`grow_blocks` is the number of top-size blocks the heap holds
    beyond the first."""

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
        if self.arena_words() > 1 << self.word_bits:
            raise ConfigError("%s words do not fit a %s-bit address"
                              % (self.arena_words(), self.word_bits))

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
        hp, top = self.hp, self.top_size
        self.heap_end = end = hp + top * (1 + config.grow_blocks)
        self.stack_base = config.arena_words()
        self.words = [0] * self.stack_base
        # the heap starts as its top-size blocks on the largest list, in
        # address order: each links to the next, the last to 0
        self.words[self.flp + self.num_freelists - 1] = hp
        self.words[hp:end - top:top] = range(hp + top, end, top)

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
            raise ExecutionError("OutOfMemory",
                                 "no block of %s words available" % osize)
        slot, csize = flp + level, 2 << level
        p = words[slot]
        link = words[slot] = words[p]
        words[p] = 0
        # top-size blocks never merge, so only they may lie side by side
        if link and link == p - csize and level < nf - 1:
            raise ExecutionError(
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
            raise ExecutionError("CorruptFree",
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
            raise ExecutionError("CorruptFree",
                                 "%s is not a heap block" % addr)
        if (addr - self.hp) % 2 != 0:
            raise ExecutionError("CorruptFree",
                                 "%s is not on a block boundary" % addr)
        # a block above the top size would merge past the last list
        if addr + csize > self.heap_end or csize > self.top_size:
            raise ExecutionError("CorruptFree",
                                 "block at %s overruns the heap" % addr)
        self._check_zero("freed", addr, addr, addr + csize)
        words, p = self.words, addr
        slot = first = self.flp + csize.bit_length() - 2
        top = self.flp + self.num_freelists - 1
        while True:
            head = words[slot]
            if slot == top or not head or head != p - csize:
                break
            # the partner must be the only block on its list; past its link
            # word it is zero by the free-block invariant
            p = head
            words[slot] = 0
            if words[p]:
                raise ExecutionError(
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
            raise ExecutionError("CorruptFree",
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
                raise ExecutionError("CorruptFree",
                                     "free list %s contains a cycle at %s"
                                     % (size, addr))
            if not self.hp <= addr <= self.heap_end - size or \
                    (addr - self.hp) % 2:
                raise ExecutionError("CorruptFree",
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
        """The (address, words) of each free block, list by list, once
        every list is well formed and every word of a free block past its
        link word is zero (the free-block invariant the allocator relies on
        instead of scanning); else ExecutionError("CorruptFree")."""
        blocks = [(addr, 2 << i) for i in range(self.num_freelists)
                  for addr in self._free_chain(i)]
        for addr, size in blocks:
            self._check_zero("free", addr, addr + 1, addr + size)
        return blocks

    def _check_zero(self, what, addr, start, end):
        """Raise CorruptFree at the first non-zero word in [start, end)."""
        words = self.words
        # bounded slices: one slice of a top-size block would copy the
        # whole heap, and indexing word by word is 4x slower
        for base in range(start, end, 1024):
            chunk = words[base:min(base + 1024, end)]
            if any(chunk):
                a = base + next(k for k, w in enumerate(chunk) if w)
                raise ExecutionError("CorruptFree", "%s block at %s not "
                                     "zero-cleared (word %s = %s)"
                                     % (what, addr, a, words[a]))

    def dump_free_lists(self):
        """One line per free list; a corrupt list raises CorruptFree."""
        return "\n".join(
            "2^%s: " % (i + 1) + " -> ".join(
                [str(addr) for addr in self._free_chain(i)] + ["0"])
            for i in range(self.num_freelists))

    def hex_dump(self):
        """Words 0 to the heap end, eight a line, each line headed by its
        first address."""
        digits, end = self.word_bits // 4, self.heap_end
        return "\n".join("%08x: " % base + " ".join(
            "%0*x" % (digits, w) for w in self.words[base:min(base + 8, end)])
            for base in range(0, end, 8))


def init_memory(config=MemoryConfig()):
    """Fresh image: zeroed arena, its top-size blocks on the last list."""
    return MemoryImage(config)


class MachineState:
    """What a state file holds, and no more."""

    def __init__(self, memory, frame_top=None, steps=0, program_crc=None):
        self.memory = memory
        self.frame_top = memory.stack_base if frame_top is None else frame_top
        self.steps = steps
        # crc32 of the repr of the program that ran last, spans left out: a
        # renamed syntax class or field changes it, and so the file format
        self.program_crc = program_crc


def main_address(memory, info):
    """The main object's address: it ends just below `stack_base`."""
    return memory.stack_base - info.used
