"""Hypothesis property tests for the operator table and the allocator."""

from hypothesis import given, settings, strategies as st

from rooplpp import MemoryConfig, apply_binop, init_memory

words = st.integers(min_value=0, max_value=2**32 - 1)
nonzero_words = words.filter(lambda w: (w & 0x7FFFFFFF) != 0 or w == 0x80000000)


@given(words, words)
def test_add_sub_invert(a, b):
    assert apply_binop("-", apply_binop("+", a, b), b) == a
    assert apply_binop("+", apply_binop("-", a, b), b) == a


@given(words, words)
def test_xor_is_self_inverse(a, b):
    assert apply_binop("^", apply_binop("^", a, b), b) == a


@given(words, words)
def test_comparisons_are_boolean_and_coherent(a, b):
    lt = apply_binop("<", a, b)
    gt = apply_binop(">", a, b)
    le = apply_binop("<=", a, b)
    ge = apply_binop(">=", a, b)
    eq = apply_binop("=", a, b)
    ne = apply_binop("!=", a, b)
    for v in (lt, gt, le, ge, eq, ne):
        assert v in (0, 1)
    assert eq + ne == 1
    assert lt + gt + eq == 1          # trichotomy on signed words
    assert le == lt | eq
    assert ge == gt | eq


@given(words, words)
def test_logical_operators(a, b):
    assert apply_binop("&&", a, b) == (1 if a and b else 0)
    assert apply_binop("||", a, b) == (0 if not a and not b else 1)


@given(words, nonzero_words)
def test_division_identity(a, b):
    q = apply_binop("/", a, b)
    r = apply_binop("%", a, b)
    back = apply_binop("+", apply_binop("*", q, b), r)
    assert back == a


sizes = st.lists(st.integers(min_value=1, max_value=16), min_size=0,
                 max_size=40)


@settings(max_examples=60, deadline=None)
@given(sizes)
def test_lifo_discipline_restores_free_lists(requests):
    config = MemoryConfig(num_freelists=5, stack_words=8)
    mem = init_memory(config)
    baseline = init_memory(config)
    live = []
    for size in requests:
        try:
            live.append((mem.malloc(size), size))
        except Exception:
            break
    mem.check_free_blocks()
    for addr, size in reversed(live):
        mem.free(addr, size)
    mem.check_free_blocks()
    assert mem.same_words(baseline)


@settings(max_examples=60, deadline=None)
@given(sizes, st.randoms(use_true_random=False))
def test_interleaved_lifo_stack_restores(requests, rng):
    # frees always target the most recent live allocation, mixed with
    # further allocations: a stack discipline, so the image must restore
    config = MemoryConfig(num_freelists=5, stack_words=8)
    mem = init_memory(config)
    baseline = init_memory(config)
    live = []
    for size in requests:
        if live and rng.random() < 0.5:
            addr, s = live.pop()
            mem.free(addr, s)
        try:
            live.append((mem.malloc(size), size))
        except Exception:
            continue
    mem.check_free_blocks()
    for addr, s in reversed(live):
        mem.free(addr, s)
    mem.check_free_blocks()
    assert mem.same_words(baseline)
