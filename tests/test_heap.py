import random

import pytest

from rooplpp import ConfigError, MemoryConfig, MemoryFault, init_memory

from oracles import ListBuddy

SMALL = MemoryConfig(num_freelists=4, stack_words=8)


def fresh(config=SMALL):
    return init_memory(config)


def sizes_present(mem):
    return set(mem.snapshot_free_lists().sizes_present())


# ------------------------------------------------------------------- init

def test_init_default_heap_is_one_1024_block():
    mem = init_memory(MemoryConfig())
    snap = mem.snapshot_free_lists()
    assert snap.sizes_present() == (1024,)
    assert snap.addresses(1024) == (mem.hp,)
    assert snap.total_free_words == 1024


def test_init_small_heap_is_one_16_block():
    mem = fresh()
    snap = mem.snapshot_free_lists()
    assert snap.sizes_present() == (16,)
    assert snap.addresses(16) == (mem.hp,)


def test_init_words_zero_except_last_free_list():
    mem = fresh()
    expect = [0] * mem.stack_base
    expect[mem.flp + mem.num_freelists - 1] = mem.hp
    assert mem.words == expect


@pytest.mark.parametrize("config", [
    MemoryConfig(num_freelists=1),
    MemoryConfig(word_bits=24),
    MemoryConfig(stack_words=1),
    MemoryConfig(word_bits=16, num_freelists=16, stack_words=8),
])
def test_bad_config_rejected(config):
    with pytest.raises(ConfigError):
        init_memory(config)


# ---------------------------------------------------------------- malloc

def test_first_small_allocation_splits_down():
    # frozen by hand-stepping the allocator on a fresh 16-word heap
    mem = fresh()
    hp = mem.hp
    addr = mem.malloc(2)
    assert addr == hp + 14
    snap = mem.snapshot_free_lists()
    assert snap.addresses(8) == (hp,)
    assert snap.addresses(4) == (hp + 8,)
    assert snap.addresses(2) == (hp + 12,)
    assert snap.addresses(16) == ()


def test_canonical_allocation_sequence():
    # sizes 2, 8, 4: free-list shapes shrink {8,4,2} -> {4,2} -> {2}
    mem = fresh()
    hp = mem.hp
    assert mem.malloc(2) == hp + 14
    assert sizes_present(mem) == {8, 4, 2}
    assert mem.malloc(8) == hp
    assert sizes_present(mem) == {4, 2}
    assert mem.malloc(4) == hp + 8
    assert sizes_present(mem) == {2}
    assert mem.snapshot_free_lists().addresses(2) == (hp + 12,)


def test_request_rounding_and_minimum():
    mem = fresh()
    a = mem.malloc(1)   # rounds up to 2
    b = mem.malloc(3)   # rounds up to 4
    assert (a - mem.hp) % 2 == 0
    assert (b - mem.hp) % 4 == 0


def test_oversized_request_out_of_memory():
    mem = fresh()
    with pytest.raises(MemoryFault) as exc:
        mem.malloc(17)
    assert exc.value.kind == "OutOfMemory"


def test_exhaustion_out_of_memory():
    mem = fresh()
    mem.malloc(16)
    with pytest.raises(MemoryFault) as exc:
        mem.malloc(2)
    assert exc.value.kind == "OutOfMemory"


def test_zero_on_alloc_after_recycling():
    mem = fresh()
    a = mem.malloc(4)
    for i in range(4):
        mem.write_word(a + i, 0xBEEF + i)
    for i in range(4):
        mem.write_word(a + i, 0)
    mem.free(a, 4)
    b = mem.malloc(4)
    assert all(mem.read_word(b + i) == 0 for i in range(4))


# ------------------------------------------------------------------ free

def test_single_alloc_free_restores_init():
    mem = fresh()
    baseline = fresh()
    addr = mem.malloc(2)
    mem.free(addr, 2)
    assert mem.same_words(baseline)


def test_non_opposite_deallocation_differs_but_conserves():
    # alloc 2, 8, 4, 2; free the first 2-block, then 8, 4, 2
    mem = fresh()
    hp = mem.hp
    a = mem.malloc(2)
    b = mem.malloc(8)
    c = mem.malloc(4)
    d = mem.malloc(2)
    mem.free(a, 2)
    mem.free(b, 8)
    mem.free(c, 4)
    mem.free(d, 2)
    snap = mem.snapshot_free_lists()
    assert snap.addresses(2) == (hp + 12, hp + 14)
    assert snap.addresses(4) == (hp + 8,)
    assert snap.addresses(8) == (hp,)
    assert snap.addresses(16) == ()
    assert snap.total_free_words == 16
    assert not mem.same_words(fresh())


def test_lifo_free_restores_init_random():
    rng = random.Random(20)
    baseline = fresh()
    for _ in range(50):
        mem = fresh()
        live = []
        for _ in range(rng.randrange(1, 8)):
            size = rng.choice((1, 2, 3, 4, 6, 8))
            try:
                live.append((mem.malloc(size), size))
            except MemoryFault:
                break
        for addr, size in reversed(live):
            mem.free(addr, size)
        assert mem.same_words(baseline)


def test_freeing_nonzero_block_is_corrupt():
    mem = fresh()
    addr = mem.malloc(2)
    mem.write_word(addr + 1, 9)
    with pytest.raises(MemoryFault) as exc:
        mem.free(addr, 2)
    assert exc.value.kind == "CorruptFree"


def test_freeing_misaligned_address_is_corrupt():
    mem = fresh()
    mem.malloc(4)
    with pytest.raises(MemoryFault) as exc:
        mem.free(mem.hp + 1, 4)
    assert exc.value.kind == "CorruptFree"


def test_unaligned_merge_is_reachable_and_consistent():
    # characterization: freeing the upper half of one split pair right
    # below an allocated block merges into a 4-block off the 4-word grid;
    # the region is contiguous free memory and the allocator stays exact
    mem = fresh()
    hp = mem.hp
    assert mem.malloc(2) == hp + 14
    x = mem.malloc(2)           # hp + 12
    y = mem.malloc(2)           # hp + 10, splitting (8, 10)
    assert (x, y) == (hp + 12, hp + 10)
    mem.malloc(2)               # hp + 8
    mem.free(y, 2)
    mem.free(x, 2)
    snap = mem.snapshot_free_lists()
    assert snap.addresses(4) == (hp + 10,)
    assert snap.addresses(8) == (hp,)
    assert snap.total_free_words == 12
    # the inverse splits it back apart at the same addresses
    assert mem.malloc(2) == x
    assert mem.malloc(2) == y


def test_merge_with_non_singleton_list_is_corrupt():
    # blocks: a=hp+14 b=hp+12 c=hp+10 d=hp+8; freeing a then c then b asks
    # b to merge with head c while c still links to a
    mem = fresh()
    a = mem.malloc(2)
    b = mem.malloc(2)
    c = mem.malloc(2)
    mem.malloc(2)
    mem.free(a, 2)
    mem.free(c, 2)
    with pytest.raises(MemoryFault) as exc:
        mem.free(b, 2)
    assert exc.value.kind == "CorruptFree"


# ------------------------------------------------------------ invariants

def _random_trace(seed, ops=60):
    rng = random.Random(seed)
    mem = fresh()
    oracle = ListBuddy(mem.num_freelists, mem.hp)
    live = {}
    for _ in range(ops):
        if live and rng.random() < 0.45:
            addr = rng.choice(sorted(live))
            size = live.pop(addr)
            try:
                mem.free(addr, size)
            except MemoryFault:
                # hit the merge restriction; the state is post-mortem
                # territory now, so end this trace
                return
            oracle.free(addr, size)
        else:
            size = rng.choice((1, 2, 3, 4, 8))
            try:
                addr = mem.malloc(size)
            except MemoryFault:
                continue
            assert oracle.malloc(size) == addr
            live[addr] = size
        mem.check_free_blocks()
        yield mem, oracle, dict(live)


@pytest.mark.parametrize("seed", range(8))
def test_matches_list_oracle_and_conserves(seed):
    for mem, oracle, live in _random_trace(seed):
        snap = mem.snapshot_free_lists()
        assert {size: list(addrs) for size, addrs in snap.lists} == \
            {size: list(addrs) for size, addrs in oracle.snapshot().items()}
        live_words = sum(
            max(2, 1 << (size - 1).bit_length()) for size in live.values())
        assert snap.total_free_words + live_words == 16
        # disjointness; blocks stay on even boundaries (full power-of-two
        # alignment is not preserved by non-LIFO merges)
        spans = []
        for size, addrs in snap.lists:
            for addr in addrs:
                assert (addr - mem.hp) % 2 == 0
                spans.append((addr, addr + size))
        for addr, size in live.items():
            block = max(2, 1 << (size - 1).bit_length())
            spans.append((addr, addr + block))
        spans.sort()
        for (a1, e1), (a2, _) in zip(spans, spans[1:]):
            assert e1 <= a2


def test_exact_inverse_of_random_sequences():
    rng = random.Random(99)
    for _ in range(40):
        mem = fresh()
        trace = []
        for _ in range(rng.randrange(1, 10)):
            size = rng.choice((1, 2, 4, 8))
            try:
                addr = mem.malloc(size)
            except MemoryFault:
                break
            trace.append((addr, size))
            mem.check_free_blocks()
            if rng.random() < 0.3 and trace:
                undo_addr, undo_size = trace.pop()
                mem.free(undo_addr, undo_size)
                mem.check_free_blocks()
        snapshot = mem.clone()
        extra = []
        for _ in range(3):
            try:
                extra.append((mem.malloc(2), 2))
            except MemoryFault:
                break
            mem.check_free_blocks()
        for addr, size in reversed(extra):
            mem.free(addr, size)
            mem.check_free_blocks()
        assert mem.same_words(snapshot)


class _CountingWords(list):
    """Word list that counts indexed reads."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("log_heap", [16, 20])
def test_free_reads_logarithmic_in_heap_size(log_heap):
    # one malloc+free pair cascades through every size class; a free that
    # scanned merge partners word by word read the whole heap (65,623
    # reads on 2^16 words, 1,048,683 on 2^20)
    mem = init_memory(MemoryConfig(num_freelists=log_heap, stack_words=8))
    baseline = mem.clone()
    mem.words = _CountingWords(mem.words)
    mem.free(mem.malloc(2), 2)
    assert mem.words.reads < 200
    assert mem.same_words(baseline)


# ------------------------------------------------------- free-block sweep

def test_sweep_detects_nonzero_free_block_interior():
    mem = fresh()
    mem.malloc(2)                   # leaves free blocks hp, hp+8, hp+12
    mem.check_free_blocks()
    mem.words[mem.hp + 9] = 7       # second word of the free 4-block
    with pytest.raises(MemoryFault) as exc:
        mem.check_free_blocks()
    assert exc.value.kind == "CorruptFree"
    assert f"word {mem.hp + 9} = 7" in exc.value.message


@pytest.mark.parametrize("offset", [1, 1024, 1025, 4095])
def test_sweep_scans_every_word_of_a_large_free_block(offset):
    mem = init_memory(MemoryConfig(num_freelists=12, stack_words=8))
    mem.check_free_blocks()
    mem.words[mem.hp + offset] = 1
    with pytest.raises(MemoryFault) as exc:
        mem.check_free_blocks()
    assert f"word {mem.hp + offset} = 1" in exc.value.message


def test_sweep_detects_malformed_list():
    mem = fresh()
    mem.words[mem.flp] = mem.hp + 1     # odd address on the 2-word list
    with pytest.raises(MemoryFault) as exc:
        mem.check_free_blocks()
    assert exc.value.kind == "CorruptFree"


# ------------------------------------------------------------ raw access

def test_read_write_word():
    mem = fresh()
    mem.write_word(mem.hp + 1, 42)
    assert mem.read_word(mem.hp + 1) == 42
    assert mem.read_word(mem.hp + 2) == 0


def test_nil_guard():
    mem = fresh()
    with pytest.raises(MemoryFault) as exc:
        mem.read_word(0)
    assert exc.value.kind == "NilFault"
    with pytest.raises(MemoryFault):
        mem.write_word(0, 1)


def test_address_bounds():
    mem = fresh()
    with pytest.raises(MemoryFault) as exc:
        mem.read_word(mem.stack_base + 10)
    assert exc.value.kind == "AddressFault"


def test_word_wraparound_on_write():
    mem = init_memory(MemoryConfig(word_bits=16, num_freelists=4,
                                   stack_words=8))
    mem.write_word(mem.hp, 0x1FFFF)
    assert mem.read_word(mem.hp) == 0xFFFF


# ------------------------------------------------------------- snapshots

def test_snapshot_detects_cycle():
    mem = fresh()
    mem.words[mem.flp] = mem.hp
    mem.words[mem.hp] = mem.hp
    with pytest.raises(MemoryFault) as exc:
        mem.snapshot_free_lists()
    assert exc.value.kind == "CorruptFree"


def test_dump_format():
    mem = fresh()
    dump = mem.dump_free_lists()
    assert f"2^4: {mem.hp} -> 0" in dump
    assert dump.splitlines()[0].startswith("2^1:")


# ---------------------------------------------------------------- growth

def test_growth_appends_top_size_block():
    config = MemoryConfig(num_freelists=4, stack_words=8, grow_blocks=2)
    mem = init_memory(config)
    first = mem.malloc(16)
    second = mem.malloc(16)
    third = mem.malloc(16)
    assert (second, third) == (first + 16, first + 32)
    assert mem.heap_end == mem.hp + 48
    with pytest.raises(MemoryFault):
        mem.malloc(16)


def test_growth_disabled_by_default():
    mem = fresh()
    mem.malloc(16)
    with pytest.raises(MemoryFault) as exc:
        mem.malloc(1)
    assert exc.value.kind == "OutOfMemory"
