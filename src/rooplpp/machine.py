"""Executor: each method body is compiled once into closures.

Values are machine words; object values are the addresses of their
headers and 0 encodes nil.  An object at address a stores its class id at
a and a reference count at a+1, fields follow.  An array stores its
length at a and a reference count at a+1, cells follow.

A body is compiled into nested Python closures (Feeley & Lapalme, "Using
closures for code generation", 1987) on its first invocation, once per
(concrete class, method, direction) and run.  A backward body is compiled
from its source-level inverse, so uncall and a reversed run execute
forward code.  A compiled body runs over a frame: the addresses of the
words holding its variables.  Index 0 is the this-slot, then come the
fields (`obj + 2 + i`), the parameters (the caller's slots, so passing is
by reference) and the local blocks.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .classes import ClassMap
from .errors import ExecutionError, MemoryFault, RuntimeErrorKind
from .heap import MemoryConfig, MemoryImage, init_memory
from .inverter import INVERSE_KIND, invert_stmt
from .typecheck import main_class_of
from . import syntax as ast

E = RuntimeErrorKind

FORWARD = "forward"
BACKWARD = "backward"

# trace records of a backward body name the source statement's kind
_SOURCE_KIND = {a.__name__: b.__name__ for a, b in INVERSE_KIND.items()}
_FAULT_KINDS = {"NilFault": E.NIL_DEREFERENCE, "AddressFault": E.ADDRESS_FAULT,
                "OutOfMemory": E.OUT_OF_MEMORY, "CorruptFree": E.CORRUPT_FREE}


def _operators(word_bits: int) -> dict:
    """Binary operator table over two's-complement words: arithmetic wraps
    at the word width and comparisons return 1 when the relation holds."""
    mask = (1 << word_bits) - 1
    sign = 1 << (word_bits - 1)

    def signed(v):
        return v - (1 << word_bits) if v & sign else v

    # truncating division: the quotient is negative when the signs differ
    # and the remainder takes the dividend's sign; `//` by 0 raises
    def divide(v1, v2):
        if v1 < sign and v2 < sign:
            return v1 // v2
        q = abs(signed(v1)) // abs(signed(v2))
        return (-q if (v1 ^ v2) & sign else q) & mask

    def remainder(v1, v2):
        if v1 < sign and v2 < sign:
            return v1 % v2
        r = abs(signed(v1)) % abs(signed(v2))
        return (-r if v1 & sign else r) & mask

    # flipping the sign bit maps two's-complement order to unsigned order
    return {
        "+": lambda v1, v2: (v1 + v2) & mask,
        "-": lambda v1, v2: (v1 - v2) & mask,
        "*": lambda v1, v2: (v1 * v2) & mask,
        "^": lambda v1, v2: v1 ^ v2,
        "&": lambda v1, v2: v1 & v2,
        "|": lambda v1, v2: v1 | v2,
        "/": divide,
        "%": remainder,
        "&&": lambda v1, v2: 1 if v1 and v2 else 0,
        "||": lambda v1, v2: 1 if v1 or v2 else 0,
        "<": lambda v1, v2: 1 if (v1 ^ sign) < (v2 ^ sign) else 0,
        ">": lambda v1, v2: 1 if (v1 ^ sign) > (v2 ^ sign) else 0,
        "<=": lambda v1, v2: 1 if (v1 ^ sign) <= (v2 ^ sign) else 0,
        ">=": lambda v1, v2: 1 if (v1 ^ sign) >= (v2 ^ sign) else 0,
        "=": lambda v1, v2: 1 if v1 == v2 else 0,
        "!=": lambda v1, v2: 1 if v1 != v2 else 0,
    }


_OPERATORS = {bits: _operators(bits) for bits in (16, 32, 64)}


def apply_binop(op: str, v1: int, v2: int, word_bits: int = 32) -> int:
    """`op` from the operator table of `word_bits`-wide words; `/` and `%`
    by zero raise ZeroDivisionError."""
    ops = _OPERATORS.get(word_bits) or _operators(word_bits)
    if op not in ops:
        raise ValueError(f"unknown operator {op!r}")
    return ops[op](v1, v2)


@dataclass
class Env:
    """Variable -> (slot address, declared type); this_slot holds the
    address of the word containing the current object's address."""

    bindings: dict[str, tuple[int, ast.TypeName]]
    this_slot: int | None = None


class MachineState:
    def __init__(self, memory: MemoryImage, step_limit: int = 10_000_000):
        self.memory = memory
        self.frame_top = memory.stack_base
        self.steps = 0
        self.step_limit = step_limit
        self.live_slots: list[tuple[int, ast.TypeName]] = []
        self.tracer = None
        self._touched: list[int] = []

    def signed(self, word):
        bits = self.memory.word_bits
        return word - (1 << bits) if word & (1 << (bits - 1)) else word

    def push_frame_word(self, span):
        if self.frame_top - 1 < self.memory.heap_max:
            raise ExecutionError(E.STACK_OVERFLOW,
                                 "frame region collided with the heap", span)
        self.frame_top -= 1
        return self.frame_top


@dataclass
class RunResult:
    fields: dict[str, int]
    steps: int
    state: MachineState
    main_address: int
    env: Env


class Interpreter:
    """Compiles statements to closures over one machine state and runs
    them.  Method bodies are cached per (class id, method, direction) for
    the interpreter's life, one run; `state.tracer` is read once, here."""

    def __init__(self, class_map: ClassMap, state: MachineState):
        self.class_map = class_map
        self.state = state
        self.mem = state.memory
        self.words = words = state.memory.words
        self.ops = _OPERATORS[self.mem.word_bits]  # widths are validated
        self.call_stack: list[str] = []
        self.methods: dict[tuple[int, str, bool], tuple] = {}
        self.tracer = state.tracer

        def poke(addr, value):
            words[addr] = value
            state._touched.append(addr)
        self.put = words.__setitem__ if self.tracer is None else poke

    def exec_stmt(self, env: Env, stmt: ast.Statement, direction=FORWARD):
        """Run one statement in `env`; backward runs its inverse."""
        names, frame = self._env_frame(env)
        self._compile(stmt, names, direction == BACKWARD)(frame)

    def eval_expr(self, env: Env, expr: ast.Expression) -> int:
        names, frame = self._env_frame(env)
        return self._expr(expr, names)(frame)

    @staticmethod
    def _env_frame(env):
        names = {name: 1 + i for i, name in enumerate(env.bindings)}
        return names, [env.this_slot, *(a for a, _ in env.bindings.values())]

    def _method(self, info, name, backward):
        """(body, field count, label) of `name` on `info`, compiled once."""
        key = (info.class_id, name, backward)
        if key not in self.methods:
            mdecl = info.methods[name]
            names = {x: 1 + i for i, (_, x) in
                     enumerate(info.fields + mdecl.params)}  # params win
            run = self._compile(mdecl.body, names, backward)
            self.methods[key] = run, len(info.fields), f"{info.name}::{name}"
        return self.methods[key]

    def _compile(self, stmt, names, backward):
        """Compile `stmt`, or its inverse for a backward body."""
        self.backward = backward  # read by _stmt for the trace records
        return self._stmt(invert_stmt(stmt) if backward else stmt, names)

    def fail(self, kind, message, span):
        raise ExecutionError(kind, message, span, trace=tuple(self.call_stack))

    # ------------------------------------------------------ expressions
    # Each compiles to a closure from the frame to a word.

    def _expr(self, expr, names):
        words = self.words
        if isinstance(expr, ast.Constant):
            value = expr.value & self.mem.mask
            return lambda a: value
        if isinstance(expr, ast.Nil):
            return lambda a: 0
        if isinstance(expr, ast.Variable):
            k = names[expr.name]
            return lambda a: words[a[k]]
        if isinstance(expr, ast.ArrayElement):
            cell = self._cell(expr.name, expr.index, expr.span, names)
            return lambda a: words[cell(a)]
        if isinstance(expr, ast.BinOp):
            return self._binop(expr, names)
        raise TypeError(f"not an expression: {expr!r}")

    def _binop(self, expr, names):
        words, left, right = self.words, expr.left, expr.right
        c = right.value & self.mem.mask \
            if isinstance(right, ast.Constant) else None
        f = op = self.ops[expr.op]
        if expr.op in ("/", "%") and not c:
            fail, span = self.fail, expr.span

            def f(v1, v2):
                if v2 == 0:
                    fail(E.DIVISION_BY_ZERO, f"division by zero in {expr.op}",
                         span)
                return op(v1, v2)
        # variable and constant operands are read in place
        lf, rf = self._expr(left, names), self._expr(right, names)
        lk = names[left.name] if isinstance(left, ast.Variable) else None
        if c is not None:
            if lk is not None:
                return lambda a: f(words[a[lk]], c)
            return lambda a: f(lf(a), c)
        if lk is not None and isinstance(right, ast.Variable):
            rk = names[right.name]
            return lambda a: f(words[a[lk]], words[a[rk]])
        return lambda a: f(lf(a), rf(a))

    def _cell(self, name, index_expr, span, names):
        """Closure giving the checked address of `name[index]`."""
        words, fail, signed = self.words, self.fail, self.state.signed
        sign = 1 << (self.mem.word_bits - 1)
        k, index = names[name], self._expr(index_expr, names)

        def cell(a):
            base = words[a[k]]
            if base == 0:
                fail(E.UNINITIALIZED_ARRAY,
                     f"array {name} has not been allocated", span)
            length = words[base]
            i = index(a)
            if i >= length or i >= sign:
                fail(E.INDEX_OUT_OF_BOUNDS,
                     f"index {signed(i)} outside [0, {length}) of {name}",
                     span)
            return base + 2 + i
        return cell

    def _lvalue(self, lv, names):
        """Closure giving the address of the word `lv` names."""
        if lv.is_cell:
            return self._cell(lv.name, lv.index, lv.span, names)
        k = names[lv.name]
        return lambda a: a[k]

    def _length(self, desc, names, span):
        """Closure giving the positive length of an array descriptor."""
        length, fail, signed = self._expr(desc.length, names), self.fail, \
            self.state.signed

        def checked(a):
            n = signed(length(a))
            if n < 1:
                fail(E.INVALID_ARRAY_LENGTH,
                     f"array length {n} is not positive", span)
            return n
        return checked

    # ------------------------------------------------------- statements
    # Each compiles to a closure that runs it over the frame.  A local
    # block appends its slot to the frame and pops it on exit, so its
    # index is one past every name in scope.

    def _stmt(self, stmt, names):
        if isinstance(stmt, ast.Seq):
            parts = tuple(self._stmt(s, names) for s in stmt.stmts)

            def seq(a):
                for part in parts:
                    part(a)
            return seq
        kind = type(stmt).__name__
        act = getattr(self, "_c_" + kind)(stmt, names)
        st, fail, span, tracer = self.state, self.fail, stmt.span, self.tracer
        rule = _SOURCE_KIND.get(kind, kind) if self.backward else kind
        direction = BACKWARD if self.backward else FORWARD
        where = (span.line, span.col, span.end_line, span.end_col)

        def step(a):
            st.steps += 1
            if st.steps > st.step_limit:
                fail(E.STEP_LIMIT_EXCEEDED,
                     f"exceeded {st.step_limit} steps", span)
            if tracer is None:
                return act(a)
            st._touched = []
            act(a)
            # an enclosing statement may still append to this list
            touched = st._touched
            tracer({"span": [*where], "rule": rule, "direction": direction,
                    "touched": sorted(set(touched)) if len(touched) > 1
                    else touched[:]})
        return step

    def _c_Skip(self, stmt, names):
        return lambda a: None

    def _c_Assign(self, stmt, names):
        f, value = self.ops[stmt.op[0]], self._expr(stmt.expr, names)
        words, put, target = self.words, self.put, \
            self._lvalue(stmt.target, names)

        def assign(a):
            addr = target(a)
            put(addr, f(words[addr], value(a)))
        return assign

    def _c_Swap(self, stmt, names):
        left = self._lvalue(stmt.left, names)
        right = self._lvalue(stmt.right, names)
        words, put = self.words, self.put

        def swap(a):
            la, ra = left(a), right(a)
            lv, rv = words[la], words[ra]
            put(la, rv)
            put(ra, lv)
        return swap

    def _c_If(self, stmt, names):
        cond = self._expr(stmt.cond, names)
        assertion = self._expr(stmt.assertion, names)
        then = self._stmt(stmt.then_body, names)
        other = self._stmt(stmt.else_body, names)
        fail, span = self.fail, stmt.span

        def if_(a):
            taken = cond(a) != 0
            (then if taken else other)(a)
            after = assertion(a) != 0
            if after != taken:
                fail(E.ASSERTION_FAILED_IF,
                     f"exit assertion is {'true' if after else 'false'} "
                     f"after the {'then' if taken else 'else'} branch", span)
        return if_

    def _c_Loop(self, stmt, names):
        entry = self._expr(stmt.assertion, names)
        exit_ = self._expr(stmt.cond, names)
        do = self._stmt(stmt.do_body, names)
        loop = self._stmt(stmt.loop_body, names)
        fail, span = self.fail, stmt.span

        def from_(a):
            if entry(a) == 0:
                fail(E.ASSERTION_FAILED_LOOP_ENTRY,
                     "loop entry assertion is false", span)
            do(a)
            while exit_(a) == 0:
                loop(a)
                if entry(a) != 0:
                    fail(E.ASSERTION_FAILED_LOOP,
                         "loop entry assertion became true again", span)
                do(a)
        return from_

    @staticmethod
    def _scope(names, var):
        return {**names, var: max(names.values(), default=0) + 1}

    def _c_LocalBlock(self, stmt, names):
        entry = self._expr(stmt.entry, names)
        exit_ = self._expr(stmt.exit, names)  # the local is out of scope
        inner = self._stmt(stmt.body, self._scope(names, stmt.var))
        st, words, put, fail = self.state, self.words, self.put, self.fail
        live, mask, span, ty = st.live_slots, self.mem.mask, stmt.span, \
            stmt.var_type
        counted = not isinstance(ty, ast.IntType)

        def local(a):
            v1 = entry(a)
            slot = st.push_frame_word(span)
            put(slot, v1)
            if counted and v1 != 0:
                put(v1 + 1, (words[v1 + 1] + 1) & mask)
            live.append((slot, ty))
            a.append(slot)
            inner(a)
            a.pop()
            v2 = exit_(a)
            cur = words[slot]
            if cur != v2:
                fail(E.DELOCAL_MISMATCH,
                     f"{stmt.var} holds {st.signed(cur)}, delocal expects "
                     f"{st.signed(v2)}", span)
            if counted and cur != 0:
                if words[cur + 1] < 2:
                    fail(E.CORRUPT_FREE,
                         "reference count would drop below one", span)
                put(cur + 1, words[cur + 1] - 1)
            live.pop()
            put(slot, 0)
            st.frame_top += 1
        return local

    def _c_ObjectBlock(self, stmt, names):
        # construct c x  s  destruct x  is new/delete around a local nil
        # block: allocate at entry and deallocate at exit in either direction
        names = self._scope(names, stmt.var)
        inner = self._stmt(stmt.body, names)
        desc, span = ast.AllocDesc(stmt.class_name), stmt.span
        target = ast.LValue(stmt.var, span=span)
        new = self._c_New(ast.New(desc, target, span=span), names)
        delete = self._c_Delete(ast.Delete(desc, target, span=span), names)
        st, live, ty = self.state, self.state.live_slots, desc.declared_type()

        def block(a):
            slot = st.push_frame_word(span)
            live.append((slot, ty))
            a.append(slot)
            new(a)
            inner(a)
            delete(a)
            a.pop()
            live.pop()
            st.frame_top += 1
        return block

    # ------------------------------------------------- new/delete/copy

    def _c_New(self, stmt, names):
        target, desc, span = self._lvalue(stmt.target, names), stmt.desc, \
            stmt.span
        words, put, fail = self.words, self.put, self.fail
        length = self._length(desc, names, span) if desc.is_array else None
        info = None if desc.is_array else self.class_map[desc.name]
        what = "array" if info is None else desc.name

        def new(a):
            slot = target(a)
            if words[slot] != 0:
                fail(E.NEW_TARGET_NOT_NIL, f"target of new {what} is not nil",
                     span)
            header = info.class_id if length is None else length(a)
            size = info.alloc_words if length is None else header + 2
            try:
                addr = self.mem.malloc(size)
            except MemoryFault as fault:
                fail(_FAULT_KINDS[fault.kind], fault.message, span)
            put(addr, header)
            put(addr + 1, 1)
            put(slot, addr)
        return new

    def _c_Delete(self, stmt, names):
        target, desc, span = self._lvalue(stmt.target, names), stmt.desc, \
            stmt.span
        words, put, fail = self.words, self.put, self.fail
        length = self._length(desc, names, span) if desc.is_array else None

        def delete(a):
            slot = target(a)
            addr = words[slot]
            if addr == 0:
                fail(E.NIL_DEREFERENCE, "delete of a nil array" if length
                     else f"delete {desc.name} on a nil reference", span)
            info = None if length else self._class_at(addr, span)
            payload = length(a) if length else info.payload_words
            if length and words[addr] != payload:
                fail(E.ARRAY_LENGTH_MISMATCH, f"delete names length {payload}"
                     f", array was allocated with {words[addr]}", span)
            if words[addr + 1] != 1:
                fail(E.DANGLING_REFERENCE_ON_DELETE,
                     f"{'array' if length else 'object'} still has "
                     f"{words[addr + 1]} references", span)
            cells = words[addr + 2:addr + 2 + payload]
            if any(cells):
                i = next(i for i, w in enumerate(cells) if w)
                if info is None:
                    fail(E.NON_ZERO_CELLS_ON_DELETE,
                         f"cell {i} is not zero-cleared", span)
                fail(E.NON_ZERO_FIELDS_ON_DELETE,
                     f"field {info.fields[i][1]} is not zero-cleared", span)
            put(addr, 0)
            put(addr + 1, 0)
            try:
                self.mem.free(addr, payload + 2 if length
                              else info.alloc_words)
            except MemoryFault as fault:
                fail(_FAULT_KINDS[fault.kind], fault.message, span)
            put(slot, 0)
        return delete

    def _class_at(self, addr, span):
        try:
            return self.class_map.by_id(self.words[addr])
        except KeyError:
            self.fail(E.CORRUPT_FREE,
                      f"word at {addr} is not an object header", span)

    def _c_Copy(self, stmt, names):
        source = self._lvalue(stmt.source, names)
        target = self._lvalue(stmt.target, names)
        desc, uncopy = stmt.desc, isinstance(stmt, ast.Uncopy)
        length = self._expr(desc.length, names) if desc.is_array else None
        nil_kind = E.UNINITIALIZED_ARRAY if desc.is_array \
            else E.UNINITIALIZED_OBJECT
        words, put, fail, span = self.words, self.put, self.fail, stmt.span
        verb, mask = type(stmt).__name__.lower(), self.mem.mask

        def copy(a):
            if length is not None:
                length(a)  # only for its errors
            src, dst = source(a), target(a)
            value = words[src]
            if value == 0:
                fail(nil_kind, f"{verb} from a nil reference", span)
            if not uncopy:
                if words[dst] != 0:
                    fail(E.COPY_TARGET_NOT_NIL, "copy target is not nil",
                         span)
                put(dst, value)
                put(value + 1, (words[value + 1] + 1) & mask)
                return
            if words[dst] != value:
                fail(E.UNCOPY_MISMATCH,
                     "uncopy operands reference different values", span)
            if words[value + 1] < 2:
                fail(E.UNCOPY_MISMATCH,
                     "reference count would drop below one", span)
            put(value + 1, words[value + 1] - 1)
            put(dst, 0)
        return copy

    _c_Uncopy = _c_Copy

    # ------------------------------------------------------------ calls

    def _c_LocalCall(self, stmt, names):
        """Dispatch on the receiver's class id (cached per call site) to the
        callee body for the call's direction; its frame holds the receiver's
        fields and the caller's argument slots."""
        uncall = isinstance(stmt, (ast.LocalUncall, ast.ObjectUncall))
        callee = self._lvalue(stmt.callee, names) \
            if isinstance(stmt, (ast.ObjectCall, ast.ObjectUncall)) else None
        method, span, fail = stmt.method, stmt.span, self.fail
        args = tuple(names[arg] for arg in stmt.args)
        st, words, stack = self.state, self.words, self.call_stack
        targets = {}

        def call(a):
            slot = a[0] if callee is None else callee(a)
            obj = words[slot]
            if obj == 0:
                fail(E.UNINITIALIZED_OBJECT,
                     f"call of {method} on a nil reference", span)
            if words[obj] not in targets:
                info = self._class_at(obj, span)
                if method not in info.methods:
                    fail(E.UNINITIALIZED_OBJECT,
                         f"class {info.name} has no method {method}", span)
                run, nf, label = self._method(info, method, uncall)
                targets[words[obj]] = run, nf, f"{label} at {span}"
            run, nf, frame = targets[words[obj]]
            st.push_frame_word(span)
            stack.append(frame)
            try:
                run([slot, *range(obj + 2, obj + 2 + nf),
                     *map(a.__getitem__, args)])
            finally:
                stack.pop()
                st.frame_top += 1
        return call

    _c_LocalUncall = _c_ObjectCall = _c_ObjectUncall = _c_LocalCall


def run_program(program: ast.Program, class_map: ClassMap,
                config: MemoryConfig = MemoryConfig(),
                direction: str = FORWARD,
                step_limit: int = 10_000_000,
                tracer=None,
                state: MachineState | None = None) -> RunResult:
    """Instantiate the main object and execute its main method.

    A pre-built `state` (e.g. from a state file) resumes execution over
    existing memory; otherwise a fresh image is initialized and the main
    object is placed in the frame region.
    """
    main_cls = main_class_of(program)
    info = class_map[main_cls]
    fresh = state is None
    if fresh:
        state = MachineState(init_memory(config), step_limit=step_limit)
    state.tracer = tracer
    obj_addr = state.memory.stack_base - 2 - len(info.fields)
    this_slot = obj_addr - 1
    if fresh:
        state.frame_top = this_slot
        state.memory.write_word(obj_addr, info.class_id)
        state.memory.write_word(obj_addr + 1, 1)
        state.memory.write_word(this_slot, obj_addr)
    bindings = {fname: (obj_addr + 2 + i, fty)
                for i, (fty, fname) in enumerate(info.fields)}
    env = Env(bindings, this_slot=this_slot)
    root = (this_slot, ast.ClassRef(main_cls))
    if root not in state.live_slots:
        state.live_slots.append(root)
    interp = Interpreter(class_map, state)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 100_000))
    try:
        interp.exec_stmt(env, info.methods["main"].body, direction)
    except RecursionError:
        raise ExecutionError(E.STACK_OVERFLOW,
                             "call nesting exceeded the host limit",
                             info.methods["main"].span)
    finally:
        sys.setrecursionlimit(old_limit)
    fields = {fname: state.signed(state.memory.read_word(obj_addr + 2 + i))
              for i, (fty, fname) in enumerate(info.fields)}
    return RunResult(fields, state.steps, state, obj_addr, env)


def check_refcounts(state: MachineState, class_map: ClassMap):
    """Debug sweep: reference counts of every object and array reachable
    from the live typed slots must equal the number of slots holding the
    address.  Returns (counts, kinds) keyed by address; raises on
    mismatch."""
    mem = state.memory
    counts: dict[int, int] = {}
    kinds: dict[int, ast.TypeName] = {}
    queue: list[tuple[int, ast.TypeName]] = []

    def visit_slot(addr, ty):
        if isinstance(ty, ast.IntType):
            return
        value = mem.read_word(addr)
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
            info = class_map.by_id(mem.read_word(addr))
            for i, (fty, _) in enumerate(info.fields):
                visit_slot(addr + 2 + i, fty)
        elif isinstance(ty, ast.ClassArrayType):
            length = mem.read_word(addr)
            for i in range(length):
                visit_slot(addr + 2 + i, ast.ClassRef(ty.name))
    for addr, n in counts.items():
        stored = mem.read_word(addr + 1)
        if stored != n:
            raise AssertionError(
                f"object at {addr} has refcount {stored}, but {n} live "
                "bindings hold it")
    return counts, kinds


def live_heap_words(state: MachineState, class_map: ClassMap) -> int:
    """Total block words of live heap objects reachable from the roots."""
    from .classes import next_pow2
    mem = state.memory
    _, kinds = check_refcounts(state, class_map)
    total = 0
    for addr, ty in kinds.items():
        if not mem.hp <= addr < mem.heap_end:
            continue  # the main object lives in the frame region
        if isinstance(ty, ast.ClassRef):
            total += class_map.by_id(mem.read_word(addr)).alloc_words
        else:
            total += max(2, next_pow2(mem.read_word(addr) + 2))
    return total
