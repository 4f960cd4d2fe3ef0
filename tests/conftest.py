import pathlib
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
