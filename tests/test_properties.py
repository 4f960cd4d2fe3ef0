"""Hypothesis property tests for the operator table and the allocator.

The operator properties hold at every word width, and `apply_binop`
evaluates the same Python text the executor emits for each operator."""

from hypothesis import assume, given, settings, strategies as st

from rooplpp import MemoryConfig, apply_binop, init_memory

widths = st.sampled_from((16, 32, 64))
raw = st.integers(min_value=0, max_value=2**64 - 1)


def word(bits, value):
    return value & ((1 << bits) - 1)


@given(widths, raw, raw)
def test_add_sub_invert(bits, a, b):
    a, b = word(bits, a), word(bits, b)
    assert apply_binop("-", apply_binop("+", a, b, bits), b, bits) == a
    assert apply_binop("+", apply_binop("-", a, b, bits), b, bits) == a


@given(widths, raw, raw)
def test_xor_is_self_inverse(bits, a, b):
    a, b = word(bits, a), word(bits, b)
    assert apply_binop("^", apply_binop("^", a, b, bits), b, bits) == a


@given(widths, raw, raw)
def test_comparisons_are_boolean_and_coherent(bits, a, b):
    a, b = word(bits, a), word(bits, b)
    lt, gt, le, ge, eq, ne = (apply_binop(op, a, b, bits)
                              for op in ("<", ">", "<=", ">=", "=", "!="))
    for v in (lt, gt, le, ge, eq, ne):
        assert v in (0, 1)
    assert eq + ne == 1
    assert lt + gt + eq == 1          # trichotomy on signed words
    assert le == lt | eq
    assert ge == gt | eq
    signed = [v - (1 << bits) if v >> (bits - 1) else v for v in (a, b)]
    assert lt == (1 if signed[0] < signed[1] else 0)


@given(widths, raw, raw)
def test_logical_operators(bits, a, b):
    a, b = word(bits, a), word(bits, b)
    assert apply_binop("&&", a, b, bits) == (1 if a and b else 0)
    assert apply_binop("||", a, b, bits) == (0 if not a and not b else 1)


@given(widths, raw, raw)
def test_division_identity(bits, a, b):
    a, b = word(bits, a), word(bits, b)
    assume(b != 0)
    q = apply_binop("/", a, b, bits)
    r = apply_binop("%", a, b, bits)
    back = apply_binop("+", apply_binop("*", q, b, bits), r, bits)
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
