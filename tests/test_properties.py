"""Hypothesis property tests for the operator table and the allocator.

The operator properties hold at every word width, and `apply_binop`
evaluates the same Python text the executor emits for each operator."""

from hypothesis import assume, example, given, settings, strategies as st

from rooplpp import (BACKWARD, MemoryConfig, apply_binop, build_class_map,
                     init_memory, parse, run_program)

from conftest import same_words

widths = st.sampled_from((16, 32, 64))
raw = st.integers(min_value=0, max_value=2**64 - 1)


def word(bits, value):
    return value & ((1 << bits) - 1)


def signed(bits, value):
    return value - (1 << bits) if value >> (bits - 1) else value


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
    assert lt == (1 if signed(bits, a) < signed(bits, b) else 0)


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


DIVIDING = """
class Main
    int x
    int z
    int y1
    int y2
    int y3
    int y4

    method main()
        x += X
        z += Z
        y1 += x / C
        y2 += x % C
        y3 += x / z
        y4 += x % z
"""
# either sign, with small magnitudes and words next to a sign bit drawn often
signed_words = st.one_of(
    raw, st.integers(min_value=-1000, max_value=1000),
    st.sampled_from((2**15, 2**31, 2**63)).flatmap(
        lambda sign: st.integers(min_value=sign - 2, max_value=sign + 1)))


@settings(max_examples=100, deadline=None)
@given(widths, signed_words, signed_words,
       st.sampled_from(("1", "2", "8", "7", "SIGN-1", "-3")))
# the sign word as dividend, which the inline path must leave to Q and R
@example(16, 2**15, -1, "2")
@example(32, 2**31, 3, "7")
@example(64, 2**63, -1, "SIGN-1")
def test_emitted_division_matches_apply_binop(bits, x, z, c):
    # a divisor below the sign bit may take the inline path; the literal
    # of the word -3 lies above it and always calls the helpers
    sign = 1 << (bits - 1)
    x, z = word(bits, x), word(bits, z) or 1
    c = {"SIGN-1": sign - 1, "-3": word(bits, -3)}.get(c) or int(c)
    program = parse(DIVIDING.replace("X", str(x)).replace("Z", str(z))
                    .replace("C", str(c)))
    class_map = build_class_map(program)
    config = MemoryConfig(word_bits=bits)
    result = run_program(program, class_map, config)
    expected = [apply_binop(op, x, d, bits)
                for d in (c, z) for op in ("/", "%")]
    assert [word(bits, result.fields[f"y{i}"]) for i in (1, 2, 3, 4)] == \
        expected
    # and apply_binop, which evaluates the emitted text, agrees with
    # division written out on the signed values
    a = signed(bits, x)
    for d, quotient_and_remainder in zip((c, z), (expected[:2], expected[2:])):
        d = signed(bits, d)
        q = abs(a) // abs(d) * (-1 if (a < 0) != (d < 0) else 1)
        assert quotient_and_remainder == [word(bits, q), word(bits, a - q * d)]
    back = run_program(program, class_map, config, BACKWARD,
                       state=result.state)
    assert set(back.fields.values()) == {0}


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
    assert same_words(mem, baseline)


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
    assert same_words(mem, baseline)
