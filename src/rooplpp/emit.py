"""Code generation: a method body as the source of one Python function,
every name resolved to its word's address as the paper's compiler
resolves it to an offset; only failing checks and `/` or `%` of a negative
word call helpers (`machine.Interpreter`).  Sites, call-site caches and the
step limit are globals of the namespace the code runs in, so a text depends
only on the body, direction, tracing and `MemoryConfig`, and each is compiled
once per process.  Text is built with %, not f-strings (faster to compile)."""

import enum
import functools

from . import syntax as ast

FORWARD = "forward"
BACKWARD = "backward"


# defined here, on the run path, so that `check` and `invert` do not pay
# for creating the enum
class RuntimeErrorKind(enum.Enum):
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
    ADDRESS_FAULT = "AddressFault"


E = RuntimeErrorKind

# Python refuses 200 nested brackets, 100 indentation levels and 20 nested
# loops in one function; emitted code spills well before each limit
_MAX_BRACKETS, _MAX_INDENT, _MAX_LOOPS = 50, 50, 15
# `compile`, keyed by its arguments: each text is compiled once per process
_compiled = functools.lru_cache(maxsize=4096)(compile)


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
        if right.isdigit() and not 0 < int(right) < sign:
            return call % left
        test = "(q := %s)" % left
        if not right.isdigit():
            test = "(%s | %s)" % (test, right)
        return "(q %s %s if %s < %d else %s)" % (
            "//" if op == "/" else "%", right, test, sign, call % "q")
    if op in ("&&", "||"):
        text = "%s %s %s" % (left, "and" if op == "&&" else "or", right)
    elif op in ("=", "!="):
        text = "%s %s %s" % (left, "==" if op == "=" else "!=", right)
    else:
        left, right = (str(int(x) ^ sign) if x.isdigit()
                       else "(%s ^ %d)" % (x, sign) for x in (left, right))
        text = "%s %s %s" % (left, op, right)
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
    return eval(_binop_text(op, str(v1), str(v2), word_bits),
                division(word_bits))


class Emitter:
    """Source of one method body in one direction: the function `m(t, o,
    p0, ..., n, b)` and those that deeply nested statements spill into.  t
    is the receiver's slot and o the receiver (field i is the word at
    `o + 2 + i`), each p the address of the caller's argument word (so
    passing is by reference), n the step count, which `m` returns, and b
    the frame base, the frame top on entry: the k-th local block pushed
    holds its slot at `b - k`, and a call pushes its word below the
    innermost one.  `names` maps each variable in scope to the text of its
    word's address.  The checks of an expression are emitted, in
    evaluation order, before the text that reads it, which cannot fail."""

    def __init__(self, interp, backward):
        self.interp, self.backward = interp, backward
        self.traced, mem = interp.tracer is not None, interp.mem
        self.bits, self.mask, self.heap_max = mem.word_bits, mem.mask, \
            mem.heap_max
        self.sign, self.limit = 1 << (self.bits - 1), interp.step_limit
        self.bound = {"L": self.limit}  # step limit, sites and caches by name
        self.functions, self.lines = [], []  # emitted, being emitted
        self.indent = self.loops = self.temps = self.pushed = 0

    def compile(self, params, body, names):
        """The function `m(params)` that runs `body` and returns the count."""
        self.function("m", params, body, names)
        namespace = {**self.interp.globals, **self.bound}
        exec(_compiled("\n".join(self.functions), "<rooplpp>", "exec"),
             namespace)
        return namespace["m"]

    def function(self, name, params, body, names):
        outer = self.lines, self.indent, self.loops
        self.lines = ["def %s(%s):" % (name, ", ".join(params))]
        self.indent, self.loops = 1, 0
        self.stmt(body, names)
        self.emit("return n")
        self.functions.append("\n".join(self.lines))
        self.lines, self.indent, self.loops = outer

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

    @staticmethod
    def call(helper, site, *args):
        """Text of a call of `helper` with the site and `args`."""
        return "%s(%s)" % (helper, ", ".join([site, *args]))

    def check(self, test, kind, message, span, *values):
        """Emit `if test:` raising the error `kind` with `message`."""
        site = self.site(span, kind, message)
        self.emit("if %s: %s" % (test, self.call("F", site, *values)))

    def write(self, addr, value, test=""):
        """Emit the write of `value` to the word at `addr`, if `test`."""
        self.emit(("if %s: " % test if test else "") + (
            "P(%s, %s)" if self.traced else "w[%s] = %s") % (addr, value))

    def value(self, expr, names, truth=False):
        """Text of the word `expr` gives, or with `truth` of its truth."""
        if isinstance(expr, ast.Constant):
            return str(expr.value & self.mask)
        if isinstance(expr, ast.Nil):
            return "0"
        if isinstance(expr, ast.Variable):
            return "w[%s]" % names[expr.name]
        if isinstance(expr, ast.ArrayElement):
            return "w[%s]" % self.cell(expr, names)
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
        elif left.isdigit() and right.isdigit():  # fold, compiled once
            return str(eval(_compiled(_binop_text(op, left, right, self.bits),
                                      "<fold>", "eval"), division(self.bits)))
        text = _binop_text(op, left, right, self.bits, truth)
        if text.count("(") + text.count("[") <= _MAX_BRACKETS:
            return text
        spilled = self.temp("e")  # brackets bound how deep text nests
        self.emit("%s = %s" % (spilled, text))
        return spilled

    def cell(self, node, names):
        """Address text of the cell `node` names: the array is allocated,
        then the index, evaluated after that check, lies inside it."""
        name, base, k = node.name, self.temp("a"), self.temp("i")
        mark = len(self.lines)
        i = self.value(node.index, names)
        if i.isdigit() and int(i) < self.sign:
            k, bounds = i, "%s >= w[%s]" % (i, base)
            address = "%s + %d" % (base, 2 + int(i))
        else:
            bounds = "(%s := %s) >= w[%s] or %s >= %d" % (k, i, base, k,
                                                          self.sign)
            address = "%s + 2 + %s" % (base, k)
        fault = self.call("A", self.site(node.span, name), base,
                          "%s and %s" % (base, k))
        unset = "not (%s := w[%s])" % (base, names[name])
        if len(self.lines) == mark:  # the index cannot fail
            self.emit("if %s or %s: %s" % (unset, bounds, fault))
        else:
            self.lines.insert(mark, " " * self.indent + "if %s: %s" % (
                unset, fault))
            self.emit("if %s: %s" % (bounds, fault))
        return address

    def lvalue(self, lv, names):
        """Address text of the word `lv` names."""
        return self.cell(lv, names) if lv.is_cell else names[lv.name]

    def stmt(self, stmt, names):
        if isinstance(stmt, ast.Seq):
            for s in stmt.stmts:
                self.stmt(s, names)
            return
        if self.indent >= _MAX_INDENT or self.loops >= _MAX_LOOPS:
            frame = ["t", "o", *(a for a in names.values()
                                 if a.isidentifier()), "n", "b"]
            name = self.temp("g")
            self.emit("n = %s(%s)" % (name, ", ".join(frame)))
            return self.function(name, frame, stmt, names)
        kind, span = type(stmt).__name__, stmt.span
        self.check("(n := n + 1) > L", E.STEP_LIMIT_EXCEEDED,
                   "exceeded %d steps" % self.limit, span)
        if self.traced:
            self.emit("S._touched = []")
        getattr(self, "_" + kind)(stmt, names)
        if self.traced:
            rule = kind
            if self.backward:  # a record names the source statement's kind
                from .inverter import INVERSE_KIND
                rule = INVERSE_KIND.get(type(stmt), type(stmt)).__name__
            record = self.site(span, (span.line, span.col, span.end_line,
                                      span.end_col), rule,
                               BACKWARD if self.backward else FORWARD)
            self.emit("T(%s)" % record)

    def push(self, span):
        """Emit the push of a frame word; the local holding its address."""
        slot = "l%d" % self.pushed
        self.check("(%s := b - %d) < %d" % (slot, self.pushed + 1,
                                            self.heap_max),
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
        self.loops += 1
        self.stmt(stmt.do_body, names)
        self.emit("if %s: break" % self.value(stmt.cond, names, True))
        self.stmt(stmt.loop_body, names)
        self.check(self.value(stmt.assertion, names, True),
                   E.ASSERTION_FAILED_LOOP,
                   "loop entry assertion became true again", stmt.span)
        self.indent -= 1
        self.loops -= 1

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
        desc = ast.AllocDesc(stmt.class_name)
        slot = self.push(stmt.span)
        site = self.site(stmt.span, desc, self.interp.class_map[desc.name])
        self.emit(self.call("N", site, slot))
        self.stmt(stmt.body, {**names, stmt.var: slot})
        self.emit(self.call("D", site, slot))
        self.pushed -= 1

    def _New(self, stmt, names):
        """new or delete; the check of an array's target word precedes the
        checks inside its length."""
        desc, slot = stmt.desc, self.lvalue(stmt.target, names)
        new, args = isinstance(stmt, ast.New), [slot]
        if desc.is_array:
            self.check(("w[%s]" if new else "not w[%s]") % slot,
                       E.NEW_TARGET_NOT_NIL if new else E.NIL_DEREFERENCE,
                       "target of new array is not nil" if new
                       else "delete of a nil array", stmt.span)
            args.append(self.value(desc.length, names))
        info = None if desc.is_array else self.interp.class_map[desc.name]
        self.emit(self.call("N" if new else "D",
                            self.site(stmt.span, desc, info), *args))

    _Delete = _New

    def _Copy(self, stmt, names):
        if stmt.desc.is_array:
            self.value(stmt.desc.length, names)  # only for its checks
        source = self.lvalue(stmt.source, names)
        target = self.lvalue(stmt.target, names)
        site = self.site(stmt.span, stmt.desc, isinstance(stmt, ast.Uncopy))
        self.emit(self.call("U", site, source, target))

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
        self.emit("f, lb = C%s.get((r := w[%s]) and b > %d and w[r]) or %s" % (
            site, slot, self.heap_max + self.pushed,
            self.call("X", site, "r", "b")))
        self.emit("n = f(%s)" % args)

    _LocalUncall = _ObjectCall = _ObjectUncall = _LocalCall
