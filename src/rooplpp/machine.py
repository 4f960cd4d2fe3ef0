"""Executor: each method body runs as one generated Python function,
which writes memory and calls the allocator itself.

Values are machine words; object values are the addresses of their
headers and 0 encodes nil.  An object at address a stores its class id at
a and a reference count at a+1, fields follow.  An array stores its
length at a and a reference count at a+1, cells follow.

`emit` owns the generated code and the convention it keeps: it builds
each method's entry and reads what the frames on a failing stack hold.  A
body is emitted on its first invocation in a run, once per (concrete
class, method, direction); `main` runs the same way, over the main object,
but pushes no frame word and no call-stack label.  The inverter is
imported only to emit a backward body or to match a resumed state's
checksum, and `statefile.census` only to check a state passed in."""

import sys
import zlib

from .classes import main_class_of
from .errors import ConfigError, ExecutionError, Record
from .heap import (MachineState, MemoryConfig, MemoryFault, init_memory,
                   main_address)
from .emit import BACKWARD, FORWARD, E, Emitter, division, emitted, frames


class RunResult(Record):
    __slots__ = ("fields", "steps", "state", "main_address")


class Interpreter:
    """Runs method bodies, each emitted once per (class id, method,
    direction), over one machine state for one run of `step_limit` steps
    at most; with a `tracer`, in their traced variant.  Emitted code writes
    every word and calls the allocator on the image `H` itself; it calls
    the helpers below only through `F` and `M` (failed check or allocator
    call), `X` (dispatch miss) and `T` (trace record), with its site's
    tuple: span, local blocks pushed, what else the emitter knew."""

    def __init__(self, class_map, state, step_limit, tracer):
        self.class_map, self.state = class_map, state
        self.step_limit, self.tracer = step_limit, tracer
        self.mem = mem = state.memory
        self.words = words = mem.words
        self.methods = {}
        self.touched = []  # words written by the traced statement
        self.globals = {"w": words, "F": self.fail, "X": self.dispatch,
                        "M": self.heap_fault, "H": mem, "K": class_map.by_id,
                        "MemoryFault": MemoryFault, **division(mem.word_bits)}
        if tracer is not None:
            self.globals.update(J=self.touched, T=self.record)

    def _method(self, info, name, backward):
        """(function, label) of `name` on `info`, emitted once."""
        key = (info.class_id, name, backward)
        if key not in self.methods:
            self.methods[key] = (Emitter(self, backward).compile(info, name),
                                 info.name + "::" + name)
        return self.methods[key]

    def error(self, site, kind, message, frame=None):
        """Raise `kind` at `site`, with the count, frame base and call stack
        that `frames` reads from `frame` (by default here) out, if any; the
        frame top keeps local blocks' words pushed and calls' popped."""
        held, trace = frames(frame or sys._getframe()), ()
        if held:
            self.state.steps, base, trace = held
            self.state.frame_top = base - site[1] + len(trace)
        raise ExecutionError(kind, message, site[0], trace=trace)

    def fail(self, site, *values):
        """Raise the error of check `site`; a message that names run-time
        values is a function of them."""
        _, _, kind, message = site
        self.error(site, kind, message(*values) if values else message)

    def heap_fault(self, site, fault):
        self.error(site, E(fault.kind), fault.message)

    def dispatch(self, site, obj, base):
        """(function, label) of the call at `site` on the object `obj`."""
        span, pushed, cache, method, backward = site
        if obj == 0:
            self.error(site, E.UNINITIALIZED_OBJECT,
                       "call of %s on a nil reference" % method)
        info = self.class_map.by_id.get(self.words[obj])
        if info is None:  # a stale reference, to a block freed and reused
            self.error(site, E.CORRUPT_FREE,
                       "word at %d is not an object header" % obj)
        if method not in info.methods:
            self.error(site, E.UNINITIALIZED_OBJECT,
                       "class %s has no method %s" % (info.name, method))
        if info.class_id not in cache:
            run, label = self._method(info, method, backward)
            cache[info.class_id] = run, "%s at %s" % (label, span)
        if base - pushed - 1 < self.mem.heap_max:  # no room for the call
            self.error(site, E.STACK_OVERFLOW,
                       "frame region collided with the heap")
        return cache[info.class_id]

    def record(self, site):
        s, _, rule, direction = site
        touched = self.touched  # an enclosing statement may append
        self.tracer({"span": [s.line, s.col, s.end_line, s.end_col],
                     "rule": rule, "direction": direction,
                     "touched": sorted(set(touched)) if len(touched) > 1
                     else touched[:]})


def run_program(program, class_map,
                config=MemoryConfig(),
                direction=FORWARD,
                step_limit=10_000_000,
                tracer=None,
                state=None):
    """Instantiate the main object and execute its main method; the step
    count goes on from the state's, up to `step_limit`, and `tracer`, if
    given, gets each statement's trace record.

    A pre-built `state` (e.g. from a state file) resumes execution over
    existing memory in its own configuration: `config` shapes only a
    fresh image, in which the main object is placed in the frame region.
    A state last run by a program other than this one or its inverse, or
    that fails the `census`, raises ConfigError.
    """
    main_cls = main_class_of(program)
    info = class_map[main_cls]
    checksum = _checksum(program)
    if state is None:
        state = fresh_state(program, class_map, config)
    else:
        if state.program_crc not in (None, checksum):
            from .inverter import invert_program
            if state.program_crc != _checksum(invert_program(program)):
                raise ConfigError("the state was saved by a different "
                                  "program")
        from .statefile import census
        census(state, class_map, main_cls)
    obj_addr = main_address(state.memory, info)
    state.program_crc = checksum
    interp = Interpreter(class_map, state, step_limit, tracer)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        run, _ = interp._method(info, "main", direction == BACKWARD)
        state.steps = run(obj_addr - 1, obj_addr, state.steps, state.frame_top)
    except (RecursionError, IndexError) as exc:
        # the host limit, or in emitted code a stale reference (to a block
        # freed and reused) read as an address: read off the innermost frame
        from traceback import walk_tb
        *_, (frame, _) = walk_tb(exc.__traceback__)
        site = info.methods["main"].span, 0
        if isinstance(exc, RecursionError):
            interp.error(site, E.STACK_OVERFLOW,
                         "call nesting exceeded the host limit", frame)
        if not emitted(frame):
            raise
        interp.error(site, E.CORRUPT_FREE, "word outside memory reached "
                     "through a stale reference", frame)
    finally:
        sys.setrecursionlimit(old_limit)
    signed, words = state.memory.signed, state.memory.words
    fields = {fname: signed(words[obj_addr + 2 + i])
              for i, (fty, fname) in enumerate(info.fields)}
    return RunResult(fields, state.steps, state, obj_addr)


def fresh_state(program, class_map, config):
    """A fresh image in `config` with the main object placed in the frame
    region, held by its slot just below it, the frame top."""
    state = MachineState(init_memory(config))
    info, words = class_map[main_class_of(program)], state.memory.words
    obj_addr = main_address(state.memory, info)
    if obj_addr - 1 < state.memory.heap_max:
        raise ConfigError("%s stack words do not hold the %s object and its "
                          "slot (%s words)" % (config.stack_words, info.name,
                                               info.used + 1))
    state.frame_top = obj_addr - 1
    words[obj_addr - 1], words[obj_addr], words[obj_addr + 1] = \
        obj_addr, info.class_id, 1
    return state


def _checksum(program):
    return zlib.crc32(repr(program).encode())  # reprs ignore spans
