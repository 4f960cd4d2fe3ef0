import subprocess
import sys

import pytest

from rooplpp import (ConfigError, MachineState, MemoryConfig, build_class_map,
                     init_memory, invert_program, parse, run_program)
from rooplpp import statefile
from rooplpp.statefile import load_state, save_state

from conftest import corpus_path, set_state_header


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
    set_state_header(blob, "version", 99)
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


def test_nonzero_free_block_interior_rejected(tmp_path):
    result = _run("Fibonacci")
    mem = result.state.memory
    size, addrs = next((size, addrs)
                       for size, addrs in mem.snapshot_free_lists().lists
                       if addrs)
    mem.words[addrs[0] + size - 1] = 3
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    program = parse(corpus_path("Fibonacci").read_text())
    with pytest.raises(ConfigError, match="CorruptFree"):
        run_program(program, build_class_map(program),
                    state=load_state(str(path)))


def _with_frame_top(tmp_path, frame_top):
    result = _run("Fibonacci")
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    blob = bytearray(path.read_bytes())
    set_state_header(blob, "frame_top", frame_top)
    path.write_bytes(bytes(blob))
    return path, result.state.memory


@pytest.mark.parametrize("where", ["below_heap_end", "above_stack_base",
                                   "huge"])
def test_frame_top_outside_frame_region_rejected(tmp_path, where):
    mem = _run("Fibonacci").state.memory
    frame_top = {"below_heap_end": mem.heap_end - 1,
                 "above_stack_base": mem.stack_base + 1,
                 "huge": 10**9}[where]
    path, _ = _with_frame_top(tmp_path, frame_top)
    with pytest.raises(ConfigError, match="frame top"):
        load_state(str(path))


@pytest.mark.parametrize("edge", ["heap_end", "stack_base"])
def test_frame_top_at_region_edges_accepted(tmp_path, edge):
    mem = _run("Fibonacci").state.memory
    frame_top = getattr(mem, edge)
    path, _ = _with_frame_top(tmp_path, frame_top)
    assert load_state(str(path)).frame_top == frame_top


def test_program_checksum_round_trip(tmp_path):
    result = _run("Fibonacci")
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    assert load_state(str(path)).program_crc == result.state.program_crc
    assert result.state.program_crc is not None
    # a state no program ran stores 0 and loads as None
    save_state(str(path), MachineState(init_memory(MemoryConfig())))
    assert load_state(str(path)).program_crc is None


# crc32 of each corpus program and of its inverse, as version-3 state files
# store them: a resumed run compares against these.  They are the CRCs of
# the syntax trees' reprs, so changing one is a format change and bumps
# `statefile.VERSION`
PINNED_CRCS = {
    "BinaryTree": (1161274225, 3026501894),
    "DoublyLinkedList": (3138820091, 3459161974),
    "Fibonacci": (4258364403, 1308341196),
    "LinkedList": (1589898423, 3716439831),
    "RTM": (3321580764, 3833402716),
}


@pytest.mark.parametrize("name", sorted(PINNED_CRCS))
def test_program_checksums_are_pinned(tmp_path, name):
    program = parse(corpus_path(name).read_text())
    crc, inverse_crc = PINNED_CRCS[name]
    result = run_program(program, build_class_map(program))
    assert result.state.program_crc == crc
    inverse = invert_program(program)
    path = tmp_path / "m.state"
    save_state(str(path), result.state)
    resumed = run_program(inverse, build_class_map(inverse), MemoryConfig(),
                          state=load_state(str(path)))
    assert resumed.state.program_crc == inverse_crc


@pytest.mark.parametrize("version", [1, 2])
def test_earlier_versions_rejected(tmp_path, version):
    path = tmp_path / "m.state"
    save_state(str(path), _run("Fibonacci").state)
    blob = bytearray(path.read_bytes())
    set_state_header(blob, "version", version)
    path.write_bytes(bytes(blob))
    with pytest.raises(ConfigError, match="^unsupported state-file version "
                                          "%s$" % version):
        load_state(str(path))
    done = subprocess.run(
        [sys.executable, "-m", "rooplpp.cli", "run", "--resume", str(path),
         "--reverse", str(corpus_path("Fibonacci"))],
        capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (
        4, "", "error: unsupported state-file version %s\n" % version)


@pytest.mark.parametrize("num_freelists", [20, 23, 30])
def test_header_checked_before_the_image_is_built(tmp_path, monkeypatch,
                                                  num_freelists):
    path = tmp_path / "m.state"
    save_state(str(path), _run("Fibonacci").state)
    blob = bytearray(path.read_bytes())
    set_state_header(blob, "num_freelists", num_freelists)
    path.write_bytes(bytes(blob))

    def no_image(config):
        raise AssertionError("built an image for a bad header")
    monkeypatch.setattr(statefile, "MemoryImage", no_image)
    with pytest.raises(ConfigError, match="word count|arena limit"):
        load_state(str(path))


def test_address_width_checked_before_the_image_is_built(tmp_path,
                                                         monkeypatch):
    # a well-formed 16-bit state of 2^16 + 1 words: its header, word
    # count and length agree, but its addresses do not fit 16 bits
    path = tmp_path / "m.state"
    config = MemoryConfig(word_bits=16, num_freelists=6, stack_words=128)
    save_state(str(path), _run("Fibonacci", config).state)
    blob = bytearray(path.read_bytes())
    total = (1 << 16) + 1
    more = total - config.arena_words()           # stack words to add
    set_state_header(blob, "stack_words", config.stack_words + more)
    set_state_header(blob, "total_words", total)
    path.write_bytes(bytes(blob) + bytes(2 * more))

    def no_image(config):
        raise AssertionError("built an image for a bad header")
    monkeypatch.setattr(statefile, "MemoryImage", no_image)
    with pytest.raises(ConfigError, match="^65537 words do not fit a "
                                          "16-bit address$"):
        load_state(str(path))
