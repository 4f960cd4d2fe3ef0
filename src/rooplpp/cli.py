"""Command-line driver.

Exit codes: 0 ok, 1 runtime error, 2 type error, 3 parse error,
4 IO/config error or bad command-line usage.

Each subcommand imports only the modules it uses: `check` stops after the
type checker, `invert` skips it, and only `run` loads the interpreter.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
    if args.json or args.trace is not None:
        import json
    from .heap import MemoryConfig
    from .machine import BACKWARD, FORWARD, run_program
    from .statefile import load_state, save_state

    program, class_map = _front_end(args.path)
    config = MemoryConfig(args.word_bits, args.freelists, args.stack_words,
                          grow_blocks=8 if args.heap_grow else 0)
    config.validate()

    state = result = None
    if args.resume is not None:
        state = load_state(args.resume)
        state.step_limit = args.step_limit
    made = args.save_state is not None and not os.path.exists(args.save_state)
    if args.save_state is not None:  # fail before the run; truncate nothing
        open(args.save_state, "ab").close()

    trace_fh = tracer = None
    try:
        if args.trace is not None:
            trace_fh = open(args.trace, "w", encoding="utf-8")
            tracer = lambda record: print(json.dumps(record), file=trace_fh)
        result = run_program(
            program, class_map, config, BACKWARD if args.reverse else FORWARD,
            step_limit=args.step_limit, tracer=tracer, state=state)
    finally:
        if trace_fh is not None:
            trace_fh.close()
        if made and result is None:  # a failed run makes no state file
            os.remove(args.save_state)

    if args.save_state is not None:
        save_state(args.save_state, result.state)

    mem = result.state.memory
    if args.json:
        print(json.dumps({"fields": result.fields, "steps": result.steps,
                          "freelists": {str(size): list(addrs) for size, addrs
                                        in mem.snapshot_free_lists().lists}}))
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


USAGE = """\
usage: rooplpp check|invert PATH
       rooplpp run [--freelists N] [--word-bits 16|32|64] [--stack-words N]
                   [--heap-grow] [--step-limit N] [--reverse] [--json]
                   [--dump-heap] [--trace FILE] [--resume STATE]
                   [--save-state STATE] PATH

A flag goes before or after PATH as --flag VALUE or --flag=VALUE, and a
unique prefix names it (--rev); the last of a repeated flag wins, and --
ends the flags.
"""

# each `run` flag: its default and its value type, "int", "path" or "switch"
RUN_FLAGS = {
    "--freelists": (10, "int"), "--word-bits": (32, "int"),
    "--stack-words": (1024, "int"), "--heap-grow": (False, "switch"),
    "--step-limit": (10_000_000, "int"), "--reverse": (False, "switch"),
    "--json": (False, "switch"), "--dump-heap": (False, "switch"),
    "--trace": (None, "path"), "--resume": (None, "path"),
    "--save-state": (None, "path"),
}


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_IO)


def _flag(token, names):
    """None if `token` is an argument, else the flag of `names` that it or
    its unique prefix names ("" for none) and its `=value` or None.  As in
    argparse, a negative number or a token with a space is an argument."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token[1] == "-":
        found = [flag for flag in names if flag.startswith(name)]
    else:                     # as in argparse, -hh and -h=h mean -h -h
        found = ["--help"] * (token[1] == "h")
        value = token[3:] if token[2:3] == "=" else token[2:]
        eq = token != "-h" and (not value or value.strip("h") != "")
    if len(found) > 1:
        _usage_error(f"ambiguous option: {token} could match "
                     + ", ".join(found))
    if found:
        return found[0], value if eq else None
    whole, dot, fraction = token[1:].partition(".")
    number = (fraction if dot else whole).isdecimal() and (
        not whole or whole.isdecimal())
    return None if number or " " in token else ("", None)


def _int(flag, text):
    """--word-bits takes 16, 32 or 64 and --step-limit no negative int."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or (value not in (16, 32, 64) if flag == "--word-bits"
                         else value < 0 and flag == "--step-limit"):
        _usage_error(f"argument {flag}: invalid value {text!r}")
    return value


def parse_args(argv):
    """`argv` as the `cmd_*` functions read it: `command`, `path`, `func`
    and, for `run`, one attribute per flag.  -h or --help prints USAGE and
    exits 0; bad usage prints one `error:` line and exits 4, in argparse's
    order: an ambiguous prefix, a bad value, a missing operand, the rest."""
    commands = {"check": cmd_check, "run": cmd_run, "invert": cmd_invert}
    command = path = None
    flags, options, extras, i = {}, {}, [], 0
    while i < len(argv):
        token, i = argv[i], i + 1
        found = (kinds[i - 1] if command else  # only --help precedes it
                 None if token == "--" else _flag(token, ("--help",)))
        flag, value = found or (None, None)
        if flag in flags and flags[flag][1] != "switch":
            if value is None:
                if i >= cut or kinds[i]:
                    _usage_error(f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            if flags[flag][1] == "int":
                value = _int(flag, value)
            options[flag] = value
        elif flag:
            if value is not None:
                _usage_error(f"argument {flag}: ignored explicit argument "
                             f"{value!r}")
            if flag == "--help":
                print(USAGE, end="")
                raise SystemExit(OK)
            options[flag] = True
        elif found:
            extras.append(token)
        elif command is None:
            if token not in commands:
                _usage_error(f"argument command: invalid choice: {token!r} "
                             "(choose from 'check', 'run', 'invert')")
            # what each later token is, up to the `--` at `cut`: an
            # ambiguous prefix fails before any other error
            command, flags = token, RUN_FLAGS if token == "run" else {}
            cut = argv.index("--", i) if "--" in argv[i:] else len(argv)
            kinds = [None] * len(argv)
            kinds[i:cut] = [_flag(t, ("--help", *flags)) for t in argv[i:cut]]
        elif i - 1 == cut:       # the path takes a `--` next to it
            if path is not None and path_at != cut - 1:
                extras.append(token)
        elif path is None:
            path, path_at = token, i - 1
        else:
            extras.append(token)
    for operand, value in (("command", command), ("path", path)):
        if value is None:
            _usage_error(f"the following arguments are required: {operand}")
    if extras:
        _usage_error("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, path=path, func=commands[command],
                           **{f[2:].replace("-", "_"): options.get(f, default)
                              for f, (default, _) in flags.items()})


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
