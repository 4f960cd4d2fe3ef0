"""Command-line driver.

Exit codes: 0 ok, 1 runtime error, 2 type error, 3 parse error,
4 IO/config error or bad command-line usage.

Each subcommand imports only the modules it uses, and this module imports
none of them until a subcommand runs: `check` loads the front end and
stops after the type checker, `invert` loads the parser, class analysis,
inverter and printer, and only `run` loads the interpreter and `runner`.
`run` itself loads `json` only for `--trace`, the inverter only to run a
body backward or to resume a state that another program saved, and the
state-file code only for `--resume` or `--save-state`.

The `rooplpp` process runs without the cyclic garbage collector, which in
a process this short frees nothing, and ends with `os._exit` once its
output is flushed, so it skips the interpreter's teardown: atexit handlers
do not run in it.  Code that embeds the CLI calls `main(argv)`, which
raises SystemExit and leaves the collector as it found it.

Every stderr line goes through `_stderr`: a stderr that refuses writes
changes no exit code.
"""

import gc
import os
import sys

SimpleNamespace = type(sys.implementation)  # as `types` defines it

OK, EXIT_RUNTIME, EXIT_TYPE, EXIT_PARSE, EXIT_IO = 0, 1, 2, 3, 4
# the longest source read, in characters: about 100 times the largest
# program the tests or the benchmark run
_MAX_SOURCE = 1 << 20


def _stderr(line):
    """Print `line` to stderr, ignoring a stderr that refuses it (a full
    disk, a closed pipe), so that the exit code stays the failure's own."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _parse(path):
    from .classes import build_class_map
    from .syntax import ConfigError
    from .parser import parse

    with open(path, encoding="utf-8") as fh:
        text = fh.read(_MAX_SOURCE + 1)
    if len(text) > _MAX_SOURCE:
        raise ConfigError("%s: source longer than %d characters"
                          % (path, _MAX_SOURCE))
    program = parse(text)
    return program, build_class_map(program)


def _front_end(path):
    from .typecheck import check_program

    program, class_map = _parse(path)
    warnings = []
    errors = check_program(program, class_map, warnings=warnings)
    for note in warnings:
        _stderr("%s:%s" % (path, note))
    if errors:
        for err in errors:
            _stderr(err.render(path))
        raise SystemExit(EXIT_TYPE)
    return program, class_map


def cmd_check(args):
    _front_end(args.path)
    print("ok")
    return OK


def cmd_run(args):
    program, class_map = _front_end(args.path)
    from .runner import run
    run(args, program, class_map)
    return OK


def cmd_help(args):
    print(USAGE, end="")
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
    "--freelists": (None, "int"), "--word-bits": (None, "int"),
    "--stack-words": (None, "int"), "--heap-grow": (None, "switch"),
    "--step-limit": (10_000_000, "int"), "--reverse": (False, "switch"),
    "--json": (False, "switch"), "--dump-heap": (False, "switch"),
    "--trace": (None, "path"), "--resume": (None, "path"),
    "--save-state": (None, "path"),
}


def _usage_error(message):
    _stderr("error: " + message)
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
        _usage_error("ambiguous option: %s could match " % token
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
        _usage_error("argument %s: invalid value %r" % (flag, text))
    return value


def parse_args(argv):
    """`argv` as the `cmd_*` functions read it: `command`, `path`, `func`
    and, for `run`, one attribute per flag.  -h or --help ends the parse
    with only `func`, `cmd_help`; bad usage prints one `error:` line and
    exits 4, in argparse's order: an ambiguous prefix, a bad value, a
    missing operand, the rest."""
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
                    _usage_error("argument %s: expected one argument" % flag)
                value, i = argv[i], i + 1
            if flags[flag][1] == "int":
                value = _int(flag, value)
            options[flag] = value
        elif flag:
            if value is not None:
                _usage_error("argument %s: ignored explicit argument "
                             "%r" % (flag, value))
            if flag == "--help":
                return SimpleNamespace(func=cmd_help)
            options[flag] = True
        elif found:
            extras.append(token)
        elif command is None:
            if token not in commands:
                _usage_error("argument command: invalid choice: %r "
                             "(choose from 'check', 'run', 'invert')" % token)
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
            _usage_error("the following arguments are required: %s" % operand)
    if extras:
        _usage_error("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=command, path=path, func=commands[command],
                           **{f[2:].replace("-", "_"): options.get(f, default)
                              for f, (default, _) in flags.items()})


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    from .syntax import ClassError, ConfigError, ExecutionError, ParseError

    # errors printed after the source path, and the code each exits with
    source_errors = {ParseError: EXIT_PARSE, ClassError: EXIT_TYPE,
                     ExecutionError: EXIT_RUNTIME}
    try:
        code = args.func(args)
        # a failed last write is an OSError here; stdout is None when
        # fd 1 is closed
        if sys.stdout is not None:
            sys.stdout.flush()
    except tuple(source_errors) as exc:
        _stderr("%s:%s" % (args.path, exc))
        code = source_errors[type(exc)]
    except UnicodeDecodeError as exc:
        _stderr("%s: syntax error: not UTF-8 text (byte %d)"
                % (args.path, exc.start))
        code = EXIT_PARSE
    except (ConfigError, OSError) as exc:
        _stderr("error: %s" % exc)
        code = EXIT_IO
    except RecursionError:
        # only the front end recurses with the host's recursion limit
        _stderr("%s: syntax error: nesting too deep" % args.path)
        code = EXIT_PARSE
    raise SystemExit(code)


def entry():
    """Run `main` as the whole process: switch the cyclic collector off
    before anything is imported, flush both streams, then end with
    `os._exit`, skipping the atexit handlers, final collection and module
    teardown that would follow.  A flush that fails here has failed in
    `main` already, which reported it."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                try:
                    stream.flush()
                except OSError:
                    pass
        os._exit(exc.code)


if __name__ == "__main__":
    entry()
