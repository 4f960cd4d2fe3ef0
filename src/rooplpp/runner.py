"""The `run` subcommand's work after the front end, in a module of its own
so that `check` and `invert` do not compile it: run a checked program
forward or backward, from a fresh image or a saved state, and print its
fields, its free lists and heap, its trace and its state as asked."""

import os

from .heap import MemoryConfig
from .machine import BACKWARD, FORWARD, run_program
from .statefile import load_state, save_state


def run(args, program, class_map):
    """Run `program` as the options of `cli.parse_args` in `args` say."""
    if args.json or args.trace is not None:
        import json
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
            print("%s = %s" % (name, value))
    if args.dump_heap:
        print(mem.dump_free_lists())
        print(mem.hex_dump(0, mem.heap_end))
