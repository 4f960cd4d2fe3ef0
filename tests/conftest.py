import pathlib
import re
import struct
import sys

import pytest

TESTS_DIR = pathlib.Path(__file__).parent
CORPUS_DIR = TESTS_DIR / "corpus"
FIXTURES_DIR = TESTS_DIR / "fixtures"

sys.path.insert(0, str(TESTS_DIR))

CORPUS = sorted(CORPUS_DIR.glob("*.rplpp"))


def corpus_path(name) -> pathlib.Path:
    return CORPUS_DIR / f"{name}.rplpp"


@pytest.fixture
def corpus_source():
    def load(name):
        return corpus_path(name).read_text()
    return load


def load_pipeline(path):
    """parse + class-analyze + type-check a file; asserts it is clean."""
    from rooplpp import build_class_map, check_program, parse
    program = parse(pathlib.Path(path).read_text())
    class_map = build_class_map(program)
    errors = check_program(program, class_map)
    assert not errors, errors
    return program, class_map


def clone_memory(mem):
    """A copy of the memory image `mem` with a word list of its own."""
    other = type(mem).__new__(type(mem))
    other.__dict__.update(mem.__dict__)
    other.words = list(mem.words)
    return other


def same_words(mem, other):
    """Whether two memory images hold the same words and heap end."""
    return mem.words == other.words and mem.heap_end == other.heap_end


# the state-file header's fields, in the order of `statefile._HEADER`
STATE_HEADER_FIELDS = ("magic", "version", "word_bits", "num_freelists",
                       "stack_words", "grow_blocks", "total_words",
                       "frame_top", "steps", "program_crc")


def set_state_header(blob, field, value):
    """Write `value` into the header field `field` of the state-file bytes
    `blob`, at the offset and width that `statefile._HEADER` lays out."""
    from rooplpp.statefile import _HEADER
    codes = []
    for count, code in re.findall(r"(\d*)([a-zA-Z])", _HEADER.format):
        codes += [count + code] if code == "s" else [code] * int(count or 1)
    assert len(codes) == len(STATE_HEADER_FIELDS), _HEADER.format
    at = STATE_HEADER_FIELDS.index(field)
    struct.pack_into("<" + codes[at], blob,
                     struct.calcsize("<" + "".join(codes[:at])), value)
