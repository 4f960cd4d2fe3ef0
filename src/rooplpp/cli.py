"""Command-line driver.

Exit codes: 0 ok, 1 runtime error, 2 type error, 3 parse error,
4 IO/config error or bad command-line usage.

Each subcommand imports only the modules it uses: `check` stops after the
type checker, `invert` skips it, and only `run` loads the interpreter.
"""

from __future__ import annotations

import argparse
import sys

from .classes import build_class_map
from .errors import ClassError, ConfigError, ExecutionError, ParseError
from .parser import parse

OK, EXIT_RUNTIME, EXIT_TYPE, EXIT_PARSE, EXIT_IO = 0, 1, 2, 3, 4


# errors printed after the source path, and the code each exits with
_SOURCE_ERRORS = {ParseError: EXIT_PARSE, ClassError: EXIT_TYPE,
                  ExecutionError: EXIT_RUNTIME}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        program = parse(fh.read())
    return program, build_class_map(program)


def _front_end(path):
    from .typecheck import check_program

    program, class_map = _parse(path)
    warnings = []
    errors = check_program(program, class_map, warnings=warnings)
    for note in warnings:
        print(f"{path}:{note}", file=sys.stderr)
    if errors:
        for err in errors:
            print(err.render(path), file=sys.stderr)
        raise SystemExit(EXIT_TYPE)
    return program, class_map


def cmd_check(args):
    _front_end(args.path)
    print("ok")
    return OK


def cmd_run(args):
    import json

    from .heap import MemoryConfig
    from .machine import BACKWARD, FORWARD, run_program
    from .statefile import load_state, save_state

    program, class_map = _front_end(args.path)
    config = MemoryConfig(word_bits=args.word_bits,
                          num_freelists=args.freelists,
                          stack_words=args.stack_words,
                          grow_blocks=8 if args.heap_grow else 0)
    config.validate()

    state = None
    if args.resume:
        state = load_state(args.resume)
        state.step_limit = args.step_limit

    trace_fh = None
    tracer = None
    if args.trace:
        trace_fh = open(args.trace, "w", encoding="utf-8")
        tracer = lambda record: print(json.dumps(record), file=trace_fh)

    direction = BACKWARD if args.reverse else FORWARD
    try:
        result = run_program(program, class_map, config, direction=direction,
                             step_limit=args.step_limit, tracer=tracer,
                             state=state)
    finally:
        if trace_fh is not None:
            trace_fh.close()

    if args.save_state:
        save_state(args.save_state, result.state)

    mem = result.state.memory
    if args.json:
        snapshot = mem.snapshot_free_lists()
        print(json.dumps({
            "fields": result.fields,
            "steps": result.steps,
            "freelists": {str(size): list(addrs)
                          for size, addrs in snapshot.lists},
        }))
    else:
        for name, value in result.fields.items():
            print(f"{name} = {value}")
    if args.dump_heap:
        print(mem.dump_free_lists())
        print(mem.hex_dump(0, mem.heap_end))
    return OK


def cmd_invert(args):
    from .inverter import invert_program
    from .printer import pretty_print

    program, _ = _parse(args.path)
    sys.stdout.write(pretty_print(invert_program(program)))
    return OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports bad usage as one `error:` line and exit code 4."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _non_negative(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def build_arg_parser():
    parser = _ArgumentParser(
        prog="rooplpp",
        description="ROOPL++ toolchain: check, run, invert")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_ArgumentParser)

    p_check = sub.add_parser("check", help="parse and type-check a program")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_check)

    p_run = sub.add_parser("run", help="execute a program")
    p_run.add_argument("path")
    p_run.add_argument("--freelists", type=int, default=10, metavar="N",
                       help="number of free lists (heap is 2^N words)")
    p_run.add_argument("--word-bits", type=int, default=32,
                       choices=(16, 32, 64))
    p_run.add_argument("--stack-words", type=int, default=1024, metavar="N")
    p_run.add_argument("--heap-grow", action="store_true",
                       help="allow appending up to 8 extra top-size blocks")
    p_run.add_argument("--step-limit", type=_non_negative, default=10_000_000,
                       metavar="N")
    p_run.add_argument("--reverse", action="store_true",
                       help="execute the main method backward")
    p_run.add_argument("--json", action="store_true")
    p_run.add_argument("--dump-heap", action="store_true")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write one JSON record per executed statement")
    p_run.add_argument("--resume", metavar="STATE",
                       help="start from a saved machine state")
    p_run.add_argument("--save-state", metavar="STATE",
                       help="write the final machine state")
    p_run.set_defaults(func=cmd_run)

    p_inv = sub.add_parser("invert", help="print the inverted program")
    p_inv.add_argument("path")
    p_inv.set_defaults(func=cmd_invert)
    return parser


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        code = args.func(args)
    except tuple(_SOURCE_ERRORS) as exc:
        print(f"{args.path}:{exc}", file=sys.stderr)
        code = _SOURCE_ERRORS[type(exc)]
    except UnicodeDecodeError as exc:
        print(f"{args.path}: syntax error: not UTF-8 text (byte {exc.start})",
              file=sys.stderr)
        code = EXIT_PARSE
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_IO
    except RecursionError:
        # only the front end recurses with the host's recursion limit
        print(f"{args.path}: syntax error: nesting too deep", file=sys.stderr)
        code = EXIT_PARSE
    raise SystemExit(code)


if __name__ == "__main__":
    main()
