"""ROOPL++ toolchain: parser, class analyzer, type checker, statement
inverter and a reversible interpreter over a simulated word memory.

The public names below load their module on first access (PEP 562), so
importing one submodule, such as `rooplpp.cli`, does not load the rest.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ClassMap": "classes", "array_type_of": "classes",
    "build_class_map": "classes",
    "ClassError": "syntax", "ConfigError": "syntax",
    "ExecutionError": "syntax", "ParseError": "syntax", "Span": "syntax",
    "TypeError_": "syntax",
    "FreeListSnapshot": "heap", "MemoryConfig": "heap",
    "MemoryImage": "heap", "init_memory": "heap",
    "invert_program": "inverter", "invert_stmt": "inverter",
    "BACKWARD": "machine", "FORWARD": "machine",
    "Interpreter": "machine", "MachineState": "heap",
    "RuntimeErrorKind": "machine", "apply_binop": "machine",
    "census": "statefile",
    "run_program": "machine",
    "parse": "parser", "parse_expression": "parser",
    "parse_statement": "parser",
    "pretty_print": "printer",
    "check_program": "typecheck", "main_class_of": "classes",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(import_module("%s.%s" % (__name__, module)), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
