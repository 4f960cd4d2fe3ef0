import struct

import pytest

from rooplpp import ConfigError, MemoryConfig, build_class_map, parse, run_program
from rooplpp.statefile import load_state, save_state

from conftest import corpus_path


def _run(name, config=MemoryConfig()):
    program = parse(corpus_path(name).read_text())
    class_map = build_class_map(program)
    return run_program(program, class_map, config)


@pytest.mark.parametrize("config", [
    MemoryConfig(),
    MemoryConfig(word_bits=16, num_freelists=6, stack_words=128),
    MemoryConfig(word_bits=64, num_freelists=6, stack_words=128),
])
def test_round_trip(tmp_path, config):
    result = _run("Fibonacci", config)
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    loaded = load_state(str(path))
    assert loaded.memory.words == result.state.memory.words
    assert loaded.memory.word_bits == config.word_bits
    assert loaded.memory.heap_end == result.state.memory.heap_end
    assert loaded.frame_top == result.state.frame_top
    assert loaded.steps == result.state.steps


def test_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.state"
    path.write_bytes(b"XXXX")
    with pytest.raises(ConfigError):
        load_state(str(path))
    result = _run("Fibonacci")
    good = tmp_path / "good.state"
    save_state(str(good), result.state)
    blob = good.read_bytes()
    clipped = tmp_path / "clipped.state"
    clipped.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(Exception):
        load_state(str(clipped))


def test_version_rejected(tmp_path):
    result = _run("Fibonacci")
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # version little-endian low byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError):
        load_state(str(path))


@pytest.mark.parametrize("keep", [100, 5000, -1])
def test_wrong_length_is_config_error(tmp_path, keep):
    result = _run("Fibonacci")
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    blob = path.read_bytes()
    path.write_bytes(blob[:keep] if keep > 0 else blob + b"\0\0\0\0")
    with pytest.raises(ConfigError, match="bytes, expected"):
        load_state(str(path))


def test_heap_end_outside_configuration_rejected(tmp_path):
    result = _run("Fibonacci")
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 24, 10**9)   # heap end, after the word count
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="heap end"):
        load_state(str(path))


def test_nonzero_free_block_interior_rejected(tmp_path):
    result = _run("Fibonacci")
    mem = result.state.memory
    size, addrs = next((size, addrs)
                       for size, addrs in mem.snapshot_free_lists().lists
                       if addrs)
    mem.words[addrs[0] + size - 1] = 3
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    with pytest.raises(ConfigError, match="CorruptFree"):
        load_state(str(path))
