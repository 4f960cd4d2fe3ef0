"""Executor: each method body runs as one generated Python function,
which writes memory and calls the allocator itself; this module holds
the whole calling convention of that code.

Values are machine words; object values are the addresses of their
headers and 0 encodes nil.  An object at address a stores its class id at
a and a reference count at a+1, fields follow.  An array stores its
length at a and a reference count at a+1, cells follow.

A method body becomes the source of one Python function, every name
resolved to its word's address as the paper's compiler resolves it to an
offset (field i of the receiver o is the word at `o + 2 + i`).  A body is
emitted on its first invocation in a run, once per (concrete class,
method, direction); `main` runs the same way, over the main object, but
pushes no frame word and no call-stack label.  Only failing checks and
`/` or `%` of a negative word call helpers, and allocation statements
call the allocator on the memory image.  Sites, call-site caches and the
step limit are globals of the namespace the code runs in, so a text
depends only on the body, direction, tracing and `MemoryConfig`, and each
is compiled once per process.  Text is built with %, not f-strings
(faster to compile).  The inverter is imported only to emit a backward
body or to match a resumed state's checksum, and `statefile.census` only
to check a state passed in."""

import functools
import sys
import zlib

from . import syntax as ast
from .classes import main_class_of
from .syntax import ConfigError, ExecutionError, Record
from .heap import MachineState, MemoryConfig, init_memory, main_address

FORWARD = "forward"
BACKWARD = "backward"


class RuntimeErrorKind:
    """The kinds of run-time error: the strings `ExecutionError.kind` holds."""
    ASSERTION_FAILED_IF = "AssertionFailed-if"
    ASSERTION_FAILED_LOOP_ENTRY = "AssertionFailed-loop-entry"
    ASSERTION_FAILED_LOOP = "AssertionFailed-loop"
    NON_ZERO_FIELDS_ON_DELETE = "NonZeroFieldsOnDelete"
    NON_ZERO_CELLS_ON_DELETE = "NonZeroCellsOnDelete"
    DELOCAL_MISMATCH = "DelocalMismatch"
    NEW_TARGET_NOT_NIL = "NewTargetNotNil"
    COPY_TARGET_NOT_NIL = "CopyTargetNotNil"
    UNINITIALIZED_OBJECT = "UninitializedObject"
    UNINITIALIZED_ARRAY = "UninitializedArray"
    INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
    DANGLING_REFERENCE_ON_DELETE = "DanglingReferenceOnDelete"
    DIVISION_BY_ZERO = "DivisionByZero"
    STACK_OVERFLOW = "StackOverflow"
    STEP_LIMIT_EXCEEDED = "StepLimitExceeded"
    NIL_DEREFERENCE = "NilDereference"
    # Conditions beyond the core list, kept explicit rather than folded into
    # a neighbouring kind.
    ARRAY_LENGTH_MISMATCH = "ArrayLengthMismatch"
    INVALID_ARRAY_LENGTH = "InvalidArrayLength"
    UNCOPY_MISMATCH = "UncopyMismatch"
    OUT_OF_MEMORY = "OutOfMemory"
    CORRUPT_FREE = "CorruptFree"


E = RuntimeErrorKind

# Python refuses 200 nested brackets, 100 indentation levels and 20 nested
# blocks in one function; emitted code spills well before each limit
_MAX_BRACKETS, _MAX_DEPTH = 50, 15
# `compile`, keyed by its arguments: each text is compiled once per process
_compiled = functools.lru_cache(maxsize=4096)(compile)
# Python's spelling of an operator, where it differs
_PYTHON_OP = {"/": "//", "=": "==", "&&": "and", "||": "or"}


def _binop_text(op, left, right, word_bits,
                truth=False):
    """Python text of `left op right` over the texts of two words:
    arithmetic wraps, `/` and `%` are Python's `//` and `%` unless a word
    is negative, when they call Q and R, and a comparison or logic gives 1
    or 0, or with `truth` a value true exactly when it would give 1.
    Flipping the sign bit maps two's-complement to unsigned order."""
    mask, sign = (1 << word_bits) - 1, 1 << (word_bits - 1)
    if op in ("+", "-", "*"):
        return "((%s %s %s) & %d)" % (left, op, right, mask)
    if op in ("^", "&", "|"):
        return "(%s %s %s)" % (left, op, right)
    if op in ("/", "%"):
        # right is a literal or a name; one local q serves every division,
        # as each reads it back before other code can bind it
        call = "%s(%%s, %s)" % ("Q" if op == "/" else "R", right)
        if right.isdigit() and int(right) >= sign:
            return call % left
        test = "(q := %s)" % left
        if not right.isdigit():
            test = "(%s | %s)" % (test, right)
        return "(q %s %s if %s < %d else %s)" % (
            _PYTHON_OP.get(op, op), right, test, sign, call % "q")
    if op in ("<", ">", "<=", ">="):
        left, right = (str(int(x) ^ sign) if x.isdigit()
                       else "(%s ^ %d)" % (x, sign) for x in (left, right))
    text = "%s %s %s" % (left, _PYTHON_OP.get(op, op), right)
    return ("(%s)" if truth else "(1 if %s else 0)") % text


def division(word_bits):
    """Q and R over `word_bits`-wide words: the quotient truncates toward
    zero and the remainder takes the dividend's sign; `//` by 0 raises."""
    mask, sign = (1 << word_bits) - 1, 1 << (word_bits - 1)

    def Q(v1, v2):  # -v & mask is the magnitude of a negative word v
        q = (v1 if v1 < sign else -v1 & mask) // (
            v2 if v2 < sign else -v2 & mask)
        return (-q if (v1 ^ v2) & sign else q) & mask

    def R(v1, v2):
        r = (v1 if v1 < sign else -v1 & mask) % (
            v2 if v2 < sign else -v2 & mask)
        return (r if v1 < sign else -r) & mask
    return {"Q": Q, "R": R}


def apply_binop(op, v1, v2, word_bits=32):
    """`v1 op v2` on `word_bits`-wide words, evaluated from the text the
    executor emits; `/` and `%` by zero raise ZeroDivisionError."""
    if op not in ast.PRECEDENCE:
        raise ValueError("unknown operator %r" % (op,))
    return eval(_compiled(_binop_text(op, str(v1), str(v2), word_bits),
                          "<fold>", "eval"), division(word_bits))


class Emitter:
    """Source of one method body in one direction: the function `m(t, o,
    p0, ..., n, b)` and those that deeply nested statements spill into.  t
    is the receiver's slot and o the receiver (field i is the word at
    `o + 2 + i`), each p the address of the caller's argument word (so
    passing is by reference), n the step count, which `m` returns, and b
    the frame base, the frame top on entry: the k-th local block pushed
    holds its slot at `b - k`, and a call pushes its word below the
    innermost one; a function making a call holds the callee's label in
    `lb`.  `names` maps each variable in scope to the text of its word's
    address: a parameter's is its name, a field's the mark `{k}` for `o +
    k`, which `function` resolves once its text is known.  The checks of
    an expression are emitted, in evaluation order, before the text that
    reads it, which cannot fail.

    An array cell needs one bound test, `k >= w[a]` on the unsigned
    index: `new` refuses a length at or above the sign, and a block is a
    power of two words inside a heap below 2^bits words, so a state whose
    length word is at or above the sign fails the census.  Every length
    word is thus below the sign, and a negative index fails the test as
    the large unsigned word it is."""

    def __init__(self, interp, backward):
        self.interp, self.backward = interp, backward
        self.traced, mem = interp.tracer is not None, interp.mem
        self.bits, self.mask, self.heap_end = mem.word_bits, mem.mask, \
            mem.heap_end
        self.sign, self.limit = 1 << (self.bits - 1), interp.step_limit
        # the namespace the code runs in: helpers, step limit, sites, caches
        self.bound = {**interp.globals, "L": self.limit}
        self.functions, self.lines = [], []  # emitted, being emitted
        self.indent = self.temps = self.pushed = 0

    def compile(self, info, name):
        """The function `m` running method `name` of `info`, or its inverse."""
        method = info.methods[name]
        names = {x: "p%d" % i for i, (_, x) in enumerate(method.params)}
        for k, (_, x) in enumerate(info.fields, 2):
            names.setdefault(x, "{%d}" % k)  # unless a parameter hides it
        if self.backward:
            from .inverter import invert_stmt
        self.function("m", invert_stmt(method.body) if self.backward
                      else method.body, names)
        exec(_compiled("\n".join(self.functions), "<rooplpp>", "exec"),
             self.bound)
        return self.bound["m"]

    def function(self, name, body, names):
        """Emit `def name(t, o, ..., n, b)`, its `...` the locals among the
        addresses in `names`, running `body`; the text calling it.  A field
        address named twice or more is computed once, at entry, into a
        local, and a loop reads `w` and `L` as keyword-only defaults."""
        params = ", ".join(["t", "o", *(
            a for a in names.values() if a.isidentifier()), "n", "b"])
        outer = self.lines, self.indent
        self.lines, self.indent = [], 1
        self.stmt(body, names)
        self.emit("return n")
        text = "\n".join(self.lines)
        head = "def %s(%s%s):" % (name, params, ", *, w=w, L=L" if
                                 "while True:" in text else "")
        for mark in names.values():
            if mark[0] == "{":  # field word `o + k`, marked `{k}`
                k = mark[1:-1]
                if text.count(mark) > 1:
                    head += "\n o%s = o + %s" % (k, k)
                    text = text.replace(mark, "o" + k)
                text = text.replace(mark, "o + " + k)
        self.functions.append(head + "\n" + text)
        self.lines, self.indent = outer
        return "%s(%s)" % (name, params)

    def emit(self, line):
        self.lines.append(" " * self.indent + line)

    def site(self, span, *data):
        """Name bound to (span, local blocks pushed, *data) for a helper."""
        name = self.temp("s")
        self.bound[name] = span, self.pushed, *data
        return name

    def temp(self, prefix):
        self.temps += 1
        return prefix + str(self.temps)

    def check(self, test, kind, message, span, *values):
        """Emit `if test:` raising the error `kind` with `message`."""
        site = self.site(span, kind, message)
        self.emit("if %s: F(%s)" % (test, ", ".join([site, *values])))

    def write(self, addr, value, test=""):
        """Emit the write of `value` to the word at `addr`, if `test`; the
        traced variant appends `addr` to the touched list `J` on the line."""
        self.emit(("if %s: " % test if test else "") + "w[%s] = %s" % (
            addr, value) + ("; J.append(%s)" % addr if self.traced else ""))

    def value(self, expr, names, truth=False):
        """Text of the word `expr` gives, or with `truth` of its truth."""
        if isinstance(expr, ast.Constant):
            return str(expr.value & self.mask)
        if isinstance(expr, ast.Nil):
            return "0"
        if isinstance(expr, ast.LValue):
            return "w[%s]" % self.lvalue(expr, names)
        if not isinstance(expr, ast.BinOp):
            raise TypeError("not an expression: %r" % (expr,))
        op, logic = expr.op, expr.op in ("&&", "||")
        left, right = (self.value(expr.left, names, logic),
                       self.value(expr.right, names, logic))
        if op in ("/", "%") and not (right.isdigit() and right != "0"):
            divisor = self.temp("d")
            self.check("not (%s := %s)" % (divisor, right), E.DIVISION_BY_ZERO,
                       "division by zero in " + op, expr.span)
            right = divisor
        elif left.isdigit() and right.isdigit():
            return str(apply_binop(op, int(left), int(right), self.bits))
        text = _binop_text(op, left, right, self.bits, truth)
        if text.count("(") + text.count("[") <= _MAX_BRACKETS:
            return text
        spilled = self.temp("e")  # brackets bound how deep text nests
        self.emit("%s = %s" % (spilled, text))
        return spilled

    def lvalue(self, node, names):
        """Address text of the word the place `node` names; a cell's once
        its array is allocated and then its index, evaluated after that
        check, lies inside it."""
        if not node.is_cell:
            return names[node.name]
        name, base, k = node.name, self.temp("a"), self.temp("i")
        self.check("not (%s := w[%s])" % (base, names[name]),
                   E.UNINITIALIZED_ARRAY, "array %s has not been allocated"
                   % name, node.span)
        i, signed = self.value(node.index, names), self.interp.mem.signed
        if i.isdigit():
            k, address = i, "%s + %d" % (base, 2 + int(i))
        else:
            i, address = "(%s := %s)" % (k, i), "%s + 2 + %s" % (base, k)
        self.check("%s >= w[%s]" % (i, base), E.INDEX_OUT_OF_BOUNDS,
                   lambda k, n: "index %d outside [0, %d) of %s" % (
                       signed(k), n, name), node.span, k, "w[%s]" % base)
        return address

    def stmt(self, stmt, names):
        if isinstance(stmt, ast.Seq):
            for s in stmt.stmts:
                self.stmt(s, names)
            return
        if self.indent >= _MAX_DEPTH:
            call = self.function(self.temp("g"), stmt, names)
            return self.emit("n = " + call)
        kind, span = type(stmt).__name__, stmt.span
        self.check("(n := n + 1) > L", E.STEP_LIMIT_EXCEEDED,
                   "exceeded %d steps" % self.limit, span)
        if self.traced:
            self.emit("J.clear()")
        getattr(self, "_" + kind)(stmt, names)
        if self.traced:
            rule = kind
            if self.backward:  # a record names the source statement's kind
                from .inverter import INVERSE_KIND
                rule = INVERSE_KIND.get(type(stmt), type(stmt)).__name__
            record = self.site(span, rule,
                               BACKWARD if self.backward else FORWARD)
            self.emit("T(%s)" % record)

    def push(self, span):
        """Emit the push of a frame word; the local holding its address."""
        slot = "l%d" % self.pushed
        self.check("(%s := b - %d) < %d" % (slot, self.pushed + 1,
                                            self.heap_end),
                   E.STACK_OVERFLOW, "frame region collided with the heap",
                   span)
        self.pushed += 1
        return slot

    def _Skip(self, stmt, names):
        pass

    def _Assign(self, stmt, names):
        target = self.lvalue(stmt.target, names)
        value = self.value(stmt.expr, names)
        self.write(target, _binop_text(stmt.op[0], "w[%s]" % target, value,
                                       self.bits))

    def _Swap(self, stmt, names):
        left = self.lvalue(stmt.left, names)
        right = self.lvalue(stmt.right, names)
        self.emit("v = w[%s]" % left)
        self.write(left, "w[%s]" % right)
        self.write(right, "v")

    def _If(self, stmt, names):
        taken = self.temp("c")
        for head, body in (("if (%s := %s):" % (
                taken, self.value(stmt.cond, names, True)), stmt.then_body),
                           ("else:", stmt.else_body)):
            self.emit(head)
            self.indent += 1
            self.stmt(body, names)
            self.indent -= 1
        assertion = self.value(stmt.assertion, names, True)
        self.check("(not %s) != (not %s)" % (assertion, taken),
                   E.ASSERTION_FAILED_IF, lambda taken: "exit assertion is "
                   "%s after the %s branch" % (("false", "then") if taken else
                                                ("true", "else")),
                   stmt.span, taken)

    def _Loop(self, stmt, names):
        self.check("not " + self.value(stmt.assertion, names, True),
                   E.ASSERTION_FAILED_LOOP_ENTRY,
                   "loop entry assertion is false", stmt.span)
        self.emit("while True:")
        self.indent += 1
        self.stmt(stmt.do_body, names)
        self.emit("if %s: break" % self.value(stmt.cond, names, True))
        self.stmt(stmt.loop_body, names)
        self.check(self.value(stmt.assertion, names, True),
                   E.ASSERTION_FAILED_LOOP,
                   "loop entry assertion became true again", stmt.span)
        self.indent -= 1

    def _LocalBlock(self, stmt, names):
        counted = not isinstance(stmt.var_type, ast.IntType)
        value = self.value(stmt.entry, names)
        slot = self.push(stmt.span)
        self.write(slot, value)
        if counted:
            self.write("v + 1", "(w[v + 1] + 1) & %d" % self.mask,
                       "(v := w[%s])" % slot)
        self.stmt(stmt.body, {**names, stmt.var: slot})
        value, signed = self.value(stmt.exit, names), self.interp.mem.signed
        self.check("(v := %s) != w[%s]" % (value, slot), E.DELOCAL_MISMATCH,
                   lambda cur, v2: "%s holds %d, delocal expects %d" % (
                       stmt.var, signed(cur), signed(v2)), stmt.span,
                   "w[%s]" % slot, "v")
        if counted:
            self.check("(v := w[%s]) and w[v + 1] < 2" % slot, E.CORRUPT_FREE,
                       "reference count would drop below one", stmt.span)
            self.write("v + 1", "w[v + 1] - 1", "v")
        self.write(slot, "0")
        self.pushed -= 1

    def _ObjectBlock(self, stmt, names):
        # construct c x  s  destruct x  is new/delete around a local nil
        # block: allocate at entry and deallocate at exit in either direction
        names = {**names, stmt.var: self.push(stmt.span)}
        new = ast.New(ast.AllocDesc(stmt.class_name), ast.LValue(stmt.var),
                      stmt.span)
        self._New(new, names)
        self.stmt(stmt.body, names)
        self._Delete(new, names)
        self.pushed -= 1

    def _New(self, stmt, names):
        """The target word is nil, then an array's length is positive."""
        desc, span = stmt.desc, stmt.span
        slot = self.lvalue(stmt.target, names)
        self.check("w[%s]" % slot, E.NEW_TARGET_NOT_NIL,
                   "target of new %s is not nil" % (
                       "array" if desc.is_array else desc.name), span)
        if desc.is_array:
            header = self.length(desc, names, span)
            size = header + " + 2"
        else:  # the class id and block size are bound, not in the text
            info, size, header = self.interp.class_map[desc.name], \
                self.temp("z"), self.temp("z")
            self.bound.update({size: info.alloc_words, header: info.class_id})
        addr = self.temp("a")
        self.emit("try: %s = H.malloc(%s)" % (addr, size))
        self.emit("except ExecutionError as x: M(%s, x)" % self.site(span))
        self.write(addr, header)
        self.write(addr + " + 1", "1")
        self.write(slot, addr)

    def _Delete(self, stmt, names):
        """An object's class is the entry its header names in `K`, the
        class table `ClassMap.by_id`."""
        desc, span, array = stmt.desc, stmt.span, stmt.desc.is_array
        slot, addr = self.lvalue(stmt.target, names), self.temp("a")
        self.check("not (%s := w[%s])" % (addr, slot), E.NIL_DEREFERENCE,
                   "delete of a nil array" if array else
                   "delete %s on a nil reference" % desc.name, span)
        if array:
            length = self.length(desc, names, span)
            self.check("w[%s] != %s" % (addr, length), E.ARRAY_LENGTH_MISMATCH,
                       lambda k, n: "delete names length %d, array was "
                       "allocated with %d" % (k, n), span, length,
                       "w[%s]" % addr)
            end, size = "%s + 2 + %s" % (addr, length), length + " + 2"
        else:
            info = self.temp("c")
            self.check("not (%s := K.get(w[%s]))" % (info, addr),
                       E.CORRUPT_FREE, lambda a: "word at %d is not an object"
                       " header" % a, span, addr)
            end, size = addr + " + %s.used" % info, info + ".alloc_words"
        self.check("w[%s + 1] != 1" % addr, E.DANGLING_REFERENCE_ON_DELETE,
                   lambda n: "%s still has %d references" % (
                       "array" if array else "object", n), span,
                   "w[%s + 1]" % addr)
        words = self.interp.words  # the message names the first non-zero
        self.check("any(w[%s + 2:%s])" % (addr, end),
                   E.NON_ZERO_CELLS_ON_DELETE if array else
                   E.NON_ZERO_FIELDS_ON_DELETE, lambda a, n: "%s %s is not "
                   "zero-cleared" % ("cell" if array else "field", next(
                       x for i, x in enumerate(range(n) if array else (
                           f for _, f in n.fields)) if words[a + 2 + i])),
                   span, addr, length if array else info)
        self.write(addr, "0")
        self.write(addr + " + 1", "0")
        self.emit("try: H.free(%s, %s)" % (addr, size))
        self.emit("except ExecutionError as x: M(%s, x)" % self.site(span))
        self.write(slot, "0")

    def length(self, desc, names, span):
        """Text of the positive length of an array descriptor."""
        length = self.value(desc.length, names)
        if length.isdigit() and 0 < int(length) < self.sign:
            return length
        k, signed = self.temp("k"), self.interp.mem.signed
        self.check("(%s := %s) >= %d or not %s" % (k, length, self.sign, k),
                   E.INVALID_ARRAY_LENGTH, lambda k: "array length %d is not "
                   "positive" % signed(k), span, k)
        return k

    def _Copy(self, stmt, names):
        """copy or uncopy; the checks of an array's length come first."""
        array, uncopy = stmt.desc.is_array, isinstance(stmt, ast.Uncopy)
        if array:
            self.value(stmt.desc.length, names)  # only for its checks
        source = self.lvalue(stmt.source, names)
        target = self.lvalue(stmt.target, names)
        self.check("not (v := w[%s])" % source, E.UNINITIALIZED_ARRAY if array
                   else E.UNINITIALIZED_OBJECT, "%s from a nil reference" % (
                       "uncopy" if uncopy else "copy"), stmt.span)
        if uncopy:
            self.check("w[%s] != v" % target, E.UNCOPY_MISMATCH,
                       "uncopy operands reference different values", stmt.span)
            self.check("w[v + 1] < 2", E.UNCOPY_MISMATCH,
                       "reference count would drop below one", stmt.span)
        else:
            self.check("w[%s]" % target, E.COPY_TARGET_NOT_NIL,
                       "copy target is not nil", stmt.span)
        self.write(target, "0" if uncopy else "v")
        self.write("v + 1", "w[v + 1] - 1" if uncopy else
                   "(w[v + 1] + 1) & %d" % self.mask)

    _Uncopy = _Copy

    def _LocalCall(self, stmt, names):
        """Dispatch on the receiver's class id, cached per call site (a
        call that fails a check misses it), and call with the receiver's
        slot, the receiver, the caller's argument slots, the count and the
        base of the callee's frame, one word below the innermost pushed."""
        slot = self.lvalue(stmt.callee, names) if hasattr(stmt, "callee") \
            else "t"
        site = self.site(stmt.span, {}, stmt.method, isinstance(
            stmt, (ast.LocalUncall, ast.ObjectUncall)))
        self.bound["C" + site] = self.bound[site][2]
        args = ", ".join([slot, "r", *(names[arg] for arg in stmt.args), "n",
                          "b - %d" % (self.pushed + 1)])
        self.emit("f, lb = C%s.get((r := w[%s]) and b > %d and w[r]) or X(%s, "
                  "r, b)" % (site, slot, self.heap_end + self.pushed, site))
        self.emit("n = f(%s)" % args)

    _LocalUncall = _ObjectCall = _ObjectUncall = _LocalCall


class _Failure(Exception):
    """(site, kind, message) of a run-time error, for `run_program`."""


class Interpreter:
    """Runs method bodies, each emitted once per (class id, method,
    direction), over one machine state for one run of `step_limit` steps
    at most; with a `tracer`, in their traced variant.  Emitted code writes
    every word and calls the allocator on the image `H` itself; it calls
    the helpers below only through `F` (failed check), `M` (the allocator's
    `ExecutionError`, which has no span), `X` (dispatch miss) and `T`
    (trace record), with its site's tuple: span, local blocks pushed, what
    else the emitter knew; the first three fail by raising `_Failure`."""

    def __init__(self, class_map, state, step_limit, tracer):
        self.class_map, self.step_limit, self.tracer = \
            class_map, step_limit, tracer
        self.mem = mem = state.memory
        self.words = words = mem.words
        self.methods = {}
        self.touched = []  # words written by the traced statement
        self.globals = {"w": words, "F": self.fail, "X": self.dispatch,
                        "M": self.heap_fault, "H": mem, "K": class_map.by_id,
                        "ExecutionError": ExecutionError,
                        **division(mem.word_bits)}
        if tracer is not None:
            self.globals.update(J=self.touched, T=self.record)

    def _method(self, info, name, backward):
        """(function, label) of `name` on `info`, emitted once."""
        key = (info.class_id, name, backward)
        if key not in self.methods:
            self.methods[key] = (Emitter(self, backward).compile(info, name),
                                 info.name + "::" + name)
        return self.methods[key]

    def fail(self, site, *values):
        """Fail check `site`; a message that names run-time values is a
        function of them."""
        _, _, kind, message = site
        raise _Failure(site, kind, message(*values) if values else message)

    def heap_fault(self, site, fault):
        raise _Failure(site, fault.kind, fault.message)

    def dispatch(self, site, obj, base):
        """(function, label) of the call at `site` on the object `obj`."""
        span, pushed, cache, method, backward = site
        if obj == 0:
            raise _Failure(site, E.UNINITIALIZED_OBJECT,
                           "call of %s on a nil reference" % method)
        info = self.class_map.by_id.get(self.words[obj])
        if info is None:  # a stale reference, to a block freed and reused
            raise _Failure(site, E.CORRUPT_FREE,
                           "word at %d is not an object header" % obj)
        if method not in info.methods:
            raise _Failure(site, E.UNINITIALIZED_OBJECT, "class %s has no "
                           "method %s" % (info.name, method))
        if info.class_id not in cache:
            run, label = self._method(info, method, backward)
            cache[info.class_id] = run, "%s at %s" % (label, span)
        if base - pushed - 1 < self.mem.heap_end:  # no room for the call
            raise _Failure(site, E.STACK_OVERFLOW,
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
    except (_Failure, RecursionError, IndexError) as exc:
        # a failure; or, at `main`'s span, the host limit or in emitted code
        # a stale reference (to a block freed and reused) read as an address
        found, tb = [], exc.__traceback__  # emitted frames, outermost first
        while tb is not None:
            frame, tb = tb.tb_frame, tb.tb_next
            if frame.f_code.co_filename == "<rooplpp>":
                found.append(frame)
        site = info.methods["main"].span, 0
        if isinstance(exc, _Failure):
            site, kind, message = exc.args
        elif isinstance(exc, RecursionError):
            kind, message = E.STACK_OVERFLOW, \
                "call nesting exceeded the host limit"
        elif frame.f_code.co_filename != "<rooplpp>":  # the innermost
            raise
        else:
            kind, message = E.CORRUPT_FREE, \
                "word outside memory reached through a stale reference"
        # the callers' `lb` labels are the call stack; the frame top keeps
        # the innermost's local blocks pushed and every call's word popped
        trace = tuple(caller.f_locals["lb"] for caller, callee in zip(
            found, found[1:]) if callee.f_code.co_name == "m")
        if found:
            state.steps = found[-1].f_locals["n"]
            state.frame_top = found[-1].f_locals["b"] - site[1] + len(trace)
        raise ExecutionError(kind, message, site[0], trace=trace) from None
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
    if obj_addr - 1 < state.memory.heap_end:
        raise ConfigError("%s stack words do not hold the %s object and its "
                          "slot (%s words)" % (config.stack_words, info.name,
                                               info.used + 1))
    state.frame_top = obj_addr - 1
    words[obj_addr - 1], words[obj_addr], words[obj_addr + 1] = \
        obj_addr, info.class_id, 1
    return state


class RunResult(Record):
    __slots__ = ("fields", "steps", "state", "main_address")


def _checksum(program):
    return zlib.crc32(repr(program).encode())  # reprs ignore spans
