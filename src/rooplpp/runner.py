"""The `run` subcommand's work after the front end, in a module of its own
so that `check` and `invert` do not compile it: run a checked program
forward or backward, from a fresh image or a saved state, and print its
fields, its free lists and heap, its trace and its state as asked.

It loads `json` only for `--trace` (the `--json` line is formatted here)
and the state-file code only for `--resume` or `--save-state`."""

import os

from .heap import MemoryConfig
from .machine import BACKWARD, FORWARD, run_program


def _quoted(name):
    """`name` as `json.dumps` writes it: an identifier holds only letters,
    digits and `_`, so the one escape is ensure_ascii's lowercase \\uXXXX
    for each non-ASCII character, a surrogate pair above U+FFFF."""
    text = []
    for char in name:
        code = ord(char)
        if code < 0x80:
            text.append(char)
        elif code < 0x10000:
            text.append("\\u%04x" % code)
        else:
            code -= 0x10000
            text.append("\\u%04x\\u%04x" % (0xD800 | code >> 10,
                                            0xDC00 | code & 0x3FF))
    return '"%s"' % "".join(text)


def json_line(fields, steps, free_lists):
    """The `--json` line, byte for byte `json.dumps({"fields": fields,
    "steps": steps, "freelists": {str(size): list(addrs), ...}})` over the
    (size, addresses) pairs of `free_lists`."""
    return '{"fields": {%s}, "steps": %d, "freelists": {%s}}' % (
        ", ".join("%s: %d" % (_quoted(name), value)
                  for name, value in fields.items()),
        steps,
        ", ".join('"%d": [%s]' % (size, ", ".join(map(str, addrs)))
                  for size, addrs in free_lists))


def run(args, program, class_map):
    """Run `program` as the options of `cli.parse_args` in `args` say."""
    config = MemoryConfig(args.word_bits, args.freelists, args.stack_words,
                          grow_blocks=8 if args.heap_grow else 0)
    config.validate()

    state = result = None
    if args.resume is not None:
        from .statefile import load_state
        state = load_state(args.resume)
    made = args.save_state is not None and not os.path.exists(args.save_state)
    if args.save_state is not None:  # fail before the run; truncate nothing
        open(args.save_state, "ab").close()

    trace_fh = tracer = None
    try:
        if args.trace is not None:
            import json
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
        from .statefile import save_state
        save_state(args.save_state, result.state)

    mem = result.state.memory
    if args.json:
        print(json_line(result.fields, result.steps,
                        mem.snapshot_free_lists().lists))
    else:
        for name, value in result.fields.items():
            print("%s = %s" % (name, value))
    if args.dump_heap:
        print(mem.dump_free_lists())
        print(mem.hex_dump(0, mem.heap_end))
