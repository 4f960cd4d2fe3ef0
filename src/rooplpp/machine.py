"""Executor: each method body runs as one generated Python function.

Values are machine words; object values are the addresses of their
headers and 0 encodes nil.  An object at address a stores its class id at
a and a reference count at a+1, fields follow.  An array stores its
length at a and a reference count at a+1, cells follow.

A body is emitted (`emit.Emitter`) on its first invocation in a run, once
per (concrete class, method, direction), a backward body from its inverse;
each distinct text is compiled once per process, and each run executes it
in a namespace of its own.  `main` runs the same way, over the main
object, but pushes no frame word and no call-stack label.  The inverter is
imported only to emit a backward body, or to compare a resumed state's
checksum with the inverse program's.
"""

import sys
import zlib

from .errors import ConfigError, ExecutionError, Record
from .heap import MemoryConfig, MemoryFault, init_memory
from .emit import BACKWARD, FORWARD, E, Emitter, division
from .typecheck import main_class_of
from . import syntax as ast

_FAULT_KINDS = {"NilFault": E.NIL_DEREFERENCE, "AddressFault": E.ADDRESS_FAULT,
                "OutOfMemory": E.OUT_OF_MEMORY, "CorruptFree": E.CORRUPT_FREE}


class MachineState:
    def __init__(self, memory, step_limit=10_000_000):
        self.memory = memory
        self.frame_top = memory.stack_base
        self.steps = 0
        self.step_limit = step_limit
        self.live_slots = []  # the roots
        self.tracer = None
        self.program_crc = None  # crc32 of repr(program) of the last run
        self._touched = []

    def signed(self, word):
        bits = self.memory.word_bits
        return word - (1 << bits) if word & (1 << (bits - 1)) else word


class RunResult(Record):
    __slots__ = ("fields", "steps", "state", "main_address")


class Interpreter:
    """Runs method bodies, each emitted once per (class id, method,
    direction), over one machine state for one run; with `state.tracer`
    set, read once here, in their traced variant.  Emitted code calls the
    helpers below through the globals `F` and `A` (failed checks), `X`
    (dispatch miss), `N`, `D` and `U` (new, delete, copy) and `T` (trace
    record), each with the tuple of its site: the span, the local blocks
    pushed and what else the emitter knew."""

    def __init__(self, class_map, state):
        self.class_map, self.state = class_map, state
        self.mem = mem = state.memory
        self.words = words = mem.words
        self.methods = {}
        self.tracer = state.tracer

        def poke(addr, value):
            words[addr] = value
            state._touched.append(addr)
        self.put = words.__setitem__ if self.tracer is None else poke
        self.globals = {"w": words, "F": self.fail, "A": self.cell_fault,
                        "X": self.dispatch, "N": self.new, "D": self.delete,
                        "U": self.copy, **division(mem.word_bits)}
        if self.tracer is not None:
            self.globals.update(P=poke, T=self.record, S=state)

    def _method(self, info, name, backward):
        """(function, label) of `name` on `info`, emitted once; a backward
        body is emitted from the inverse of the method's body."""
        key = (info.class_id, name, backward)
        if key not in self.methods:
            mdecl, fields = info.methods[name], info.fields
            names = {x: "o + %d" % i for i, (_, x) in enumerate(fields, 2)}
            params = ["p%d" % i for i in range(len(mdecl.params))]
            names.update(zip((x for _, x in mdecl.params), params))
            body = mdecl.body
            if backward:
                from .inverter import invert_stmt
                body = invert_stmt(body)
            run = Emitter(self, backward).compile(
                ["t", "o", *params, "n", "b"], body, names)
            self.methods[key] = run, info.name + "::" + name
        return self.methods[key]

    def error(self, site, kind, message):
        """Raise `kind` at `site`, with the count, frame base and call stack
        read off the Python stack: the innermost emitted function failed,
        and each that is making a call holds its label in `lb`.  The frame
        top keeps the local blocks' words pushed and the calls' popped."""
        frames, frame = [], sys._getframe()
        while frame is not None:
            if frame.f_code.co_filename == "<rooplpp>":
                frames.append(frame)
            frame = frame.f_back
        trace = tuple(caller.f_locals["lb"] for callee, caller in
                      zip(frames, frames[1:]) if callee.f_code.co_name == "m")
        span, pushed = site[:2]
        here = frames[0].f_locals
        self.state.steps = here["n"]
        self.state.frame_top = here["b"] - pushed + len(trace)
        raise ExecutionError(kind, message, span, trace=trace[::-1])

    def fail(self, site, *values):
        """Raise the error of check `site`; a message that names run-time
        values is a function of them."""
        _, _, kind, message = site
        self.error(site, kind, message(*values) if values else message)

    def cell_fault(self, site, array, index):
        name = site[2]
        if not array:
            self.error(site, E.UNINITIALIZED_ARRAY,
                       "array %s has not been allocated" % name)
        self.error(site, E.INDEX_OUT_OF_BOUNDS, "index %d outside [0, %d) of"
                   " %s" % (self.state.signed(index), self.words[array], name))

    def dispatch(self, site, obj, base):
        """(function, label) of the call at `site` on the object `obj`."""
        span, pushed, cache, method, backward = site
        if obj == 0:
            self.error(site, E.UNINITIALIZED_OBJECT,
                       "call of %s on a nil reference" % method)
        info = self._class_at(site, obj)
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
        _, _, where, rule, direction = site
        touched = self.state._touched  # an enclosing statement may append
        self.tracer({"span": [*where], "rule": rule, "direction": direction,
                     "touched": sorted(set(touched)) if len(touched) > 1
                     else touched[:]})

    def _class_at(self, site, addr):
        try:
            return self.class_map.by_id(self.words[addr])
        except KeyError:
            self.error(site, E.CORRUPT_FREE,
                       "word at %d is not an object header" % addr)

    def _length(self, site, value):
        length = self.state.signed(value)
        if length < 1:
            self.error(site, E.INVALID_ARRAY_LENGTH,
                       "array length %d is not positive" % length)
        return length

    def _heap(self, site, operation, *args):
        try:
            return operation(*args)  # looked up per call: tools wrap them
        except MemoryFault as fault:
            self.error(site, _FAULT_KINDS[fault.kind], fault.message)

    def new(self, site, slot, length=None):
        """Allocate the object or array of `site` into the word at `slot`."""
        _, _, desc, info = site
        if self.words[slot]:
            self.error(site, E.NEW_TARGET_NOT_NIL, "target of new "
                       + (desc.name if info else "array") + " is not nil")
        header = info.class_id if info else self._length(site, length)
        addr = self._heap(site, self.mem.malloc,
                          info.alloc_words if info else header + 2)
        self.put(addr, header)
        self.put(addr + 1, 1)
        self.put(slot, addr)

    def delete(self, site, slot, length=None):
        """Free the zero-cleared, unshared object or array at `slot`."""
        desc = site[2]
        words, array = self.words, desc.is_array
        addr = words[slot]
        if addr == 0:
            self.error(site, E.NIL_DEREFERENCE, "delete of a nil array" if
                       array else "delete %s on a nil reference" % desc.name)
        info = None if array else self._class_at(site, addr)
        size = self._length(site, length) if array else info.payload_words
        if array and words[addr] != size:
            self.error(site, E.ARRAY_LENGTH_MISMATCH, "delete names length %d,"
                       " array was allocated with %d" % (size, words[addr]))
        if words[addr + 1] != 1:
            self.error(site, E.DANGLING_REFERENCE_ON_DELETE,
                       "%s still has %d references" % (
                           "array" if array else "object", words[addr + 1]))
        cells = words[addr + 2:addr + 2 + size]
        if any(cells):
            i = next(k for k, word in enumerate(cells) if word)
            kind = E.NON_ZERO_CELLS_ON_DELETE if array else \
                E.NON_ZERO_FIELDS_ON_DELETE
            self.error(site, kind, ("cell %d" % i if array else "field " +
                       info.fields[i][1]) + " is not zero-cleared")
        self.put(addr, 0)
        self.put(addr + 1, 0)
        self._heap(site, self.mem.free, addr,
                   size + 2 if array else info.alloc_words)
        self.put(slot, 0)

    def copy(self, site, src, dst):
        """copy or uncopy the reference in the word at `src` to `dst`."""
        _, _, desc, uncopy = site
        words, value = self.words, self.words[src]
        for failed, kind, message in (
                (value == 0, E.UNINITIALIZED_ARRAY if desc.is_array else
                 E.UNINITIALIZED_OBJECT,
                 ("uncopy" if uncopy else "copy") + " from a nil reference"),
                (not uncopy and words[dst], E.COPY_TARGET_NOT_NIL,
                 "copy target is not nil"),
                (uncopy and words[dst] != value, E.UNCOPY_MISMATCH,
                 "uncopy operands reference different values"),
                (uncopy and words[value + 1] < 2, E.UNCOPY_MISMATCH,
                 "reference count would drop below one")):
            if failed:
                self.error(site, kind, message)
        self.put(dst, 0 if uncopy else value)
        self.put(value + 1, words[value + 1] - 1 if uncopy
                 else (words[value + 1] + 1) & self.mem.mask)


def run_program(program, class_map,
                config=MemoryConfig(),
                direction=FORWARD,
                step_limit=10_000_000,
                tracer=None,
                state=None):
    """Instantiate the main object and execute its main method.

    A pre-built `state` (e.g. from a state file) resumes execution over
    existing memory; otherwise a fresh image is initialized and the main
    object is placed in the frame region.  A state last run by a program
    other than this one or its inverse, or whose references fail
    `check_refcounts` before its first run here, raises ConfigError.
    """
    main_cls = main_class_of(program)
    info = class_map[main_cls]
    checksum = _checksum(program)
    fresh = state is None
    if fresh:
        state = MachineState(init_memory(config), step_limit=step_limit)
    elif state.program_crc not in (None, checksum):
        from .inverter import invert_program
        if state.program_crc != _checksum(invert_program(program)):
            raise ConfigError("the state was saved by a different program")
    state.program_crc = checksum
    state.tracer = tracer
    obj_addr = state.memory.stack_base - 2 - len(info.fields)
    this_slot = obj_addr - 1
    if fresh:
        state.frame_top = this_slot
        state.memory.write_word(obj_addr, info.class_id)
        state.memory.write_word(obj_addr + 1, 1)
        state.memory.write_word(this_slot, obj_addr)
    root = (this_slot, ast.ClassRef(main_cls))
    if root not in state.live_slots:
        state.live_slots.append(root)
        if not fresh:
            _check_resumed(state, class_map, this_slot)
    interp = Interpreter(class_map, state)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        run, _ = interp._method(info, "main", direction == BACKWARD)
        state.steps = run(this_slot, obj_addr, state.steps, state.frame_top)
    except RecursionError as exc:
        tb = exc.__traceback__
        while tb is not None:  # the count of the innermost call made
            if tb.tb_frame.f_code.co_filename == "<rooplpp>":
                state.steps = tb.tb_frame.f_locals["n"]
            tb = tb.tb_next
        raise ExecutionError(E.STACK_OVERFLOW,
                             "call nesting exceeded the host limit",
                             info.methods["main"].span)
    finally:
        sys.setrecursionlimit(old_limit)
    fields = {fname: state.signed(state.memory.read_word(obj_addr + 2 + i))
              for i, (fty, fname) in enumerate(info.fields)}
    return RunResult(fields, state.steps, state, obj_addr)


def _checksum(program):
    return zlib.crc32(repr(program).encode())  # reprs ignore spans


def _check_resumed(state, class_map, this_slot):
    """Frames must lie below the main object, and every reference must
    pass `check_refcounts`, before the executor trusts the words."""
    if state.frame_top > this_slot:
        raise ConfigError("frame top %s is above the main "
                          "object's slot %s" % (state.frame_top, this_slot))
    try:
        check_refcounts(state, class_map)
    except (AssertionError, MemoryFault) as exc:
        raise ConfigError("bad reference in the state: %s" % exc) from None


def check_refcounts(state, class_map):
    """Debug sweep: reference counts of every object and array reachable
    from the live typed slots must equal the number of slots holding the
    address, and each must lie inside memory.  Returns (counts, kinds)
    keyed by address; raises AssertionError or MemoryFault otherwise."""
    mem = state.memory
    counts = {}
    kinds = {}
    queue = []

    def visit_slot(addr, ty):
        value = 0 if isinstance(ty, ast.IntType) else mem.read_word(addr)
        if value == 0:
            return
        counts[value] = counts.get(value, 0) + 1
        if value not in kinds:
            kinds[value] = ty
            queue.append((value, ty))

    for addr, ty in state.live_slots:
        visit_slot(addr, ty)
    while queue:
        addr, ty = queue.pop()
        if isinstance(ty, ast.ClassRef):
            try:
                info = class_map.by_id(mem.read_word(addr))
            except KeyError:
                raise AssertionError(
                    "word at %s is not an object header" % addr) from None
            size = len(info.fields)
        else:
            size = mem.read_word(addr)  # array length
        if addr + 2 + size > mem.stack_base:
            raise AssertionError("block at %s overruns memory" % addr)
        if isinstance(ty, ast.ClassRef):
            for i, (fty, _) in enumerate(info.fields):
                visit_slot(addr + 2 + i, fty)
        elif isinstance(ty, ast.ClassArrayType):
            for i in range(size):
                visit_slot(addr + 2 + i, ast.ClassRef(ty.name))
    for addr, n in counts.items():
        stored = mem.read_word(addr + 1)
        if stored != n:
            raise AssertionError(
                "object at %s has refcount %s, but %s live "
                "bindings hold it" % (addr, stored, n))
    return counts, kinds
