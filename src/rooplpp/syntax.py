"""Abstract syntax for ROOPL++ and the error types shared across the
toolchain, over `Record`, the immutable value base of `Span`, the syntax
nodes and the other value types.

Node equality is structural and ignores source spans, so parse/print
round-trips compare cleanly.  Exit codes live in the CLI: runtime errors
are 1, type errors 2, parse errors 3, IO/config errors 4.  Every exception
type is here but the executor's private `machine._Failure`.
"""

from itertools import groupby
from operator import attrgetter


class Record:
    """Immutable value with named fields.

    A subclass names its fields in `__slots__` (base-class fields first)
    and may give defaults in `_defaults`.  Equality, hash and repr use
    every field not listed in `_uncompared`.  Setting or deleting an
    attribute raises AttributeError; `replace` builds a changed copy.
    """

    __slots__ = ()
    _defaults = {}
    _uncompared = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = [name for klass in reversed(cls.__mro__)
                 for name in klass.__dict__.get("__slots__", ())]
        cls._fields = tuple(names)
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        compared = tuple(n for n in names if n not in cls._uncompared)
        if len(compared) > 1:
            key = attrgetter(*compared)
        elif compared:
            get = attrgetter(*compared)
            key = lambda obj: (get(obj),)  # noqa: E731
        else:
            key = lambda obj: ()  # noqa: E731
        cls._key = staticmethod(key)
        cls._repr_format = "%s(%s)" % (cls.__qualname__, ", ".join(
            "%s=%%r" % name for name in compared))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._complete(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    @classmethod
    def _complete(cls, args, kwargs):
        names = cls._fields
        if len(args) > len(names):
            raise TypeError("%s takes %s fields, "
                            "got %s" % (cls.__name__, len(names), len(args)))
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError("%s missing field %r" % (cls.__name__, name))
        if kwargs:
            raise TypeError("%s got unexpected or repeated "
                            "fields %s" % (cls.__name__, sorted(kwargs)))
        return values

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a "
                             "%s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a "
                             "%s" % (name, type(self).__name__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if other is self:
            return True
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return self._repr_format % self._key(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self._fields)

    def replace(self, **changes):
        """A copy with the given fields changed."""
        values = [changes.pop(name) if name in changes else getattr(self, name)
                  for name in self._fields]
        return type(self)(*values, **changes)


class Span(Record):
    """Half-open source region; line/col are 1-based."""

    __slots__ = ("line", "col", "end_line", "end_col")

    def __init__(self, line=0, col=0, end_line=0, end_col=0):
        _set_line(self, line)
        _set_col(self, col)
        _set_end_line(self, end_line)
        _set_end_col(self, end_col)

    def __str__(self):
        return "%s:%s" % (self.line, self.col)


_set_line, _set_col, _set_end_line, _set_end_col = Span._setters
NO_SPAN = Span()


class ParseError(Exception):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, message, span, expected=()):
        super().__init__(message)
        self.message, self.span, self.expected = message, span, tuple(expected)

    def __str__(self):
        s = "%s: syntax error: %s" % (self.span, self.message)
        if self.expected:
            s += " (expected " + ", ".join(self.expected) + ")"
        return s


class ClassError(Exception):
    """Class analysis failure (cycles, duplicates, unknown parents)."""

    def __init__(self, kind, message, span=NO_SPAN):
        super().__init__(message)
        self.kind, self.message, self.span = kind, message, span

    def __str__(self):
        return "%s: %s: %s" % (self.span, self.kind, self.message)


class TypeError_(Record):
    """One type-rule violation. Name avoids shadowing the builtin."""

    __slots__ = ("rule", "message", "span")
    _defaults = {"span": NO_SPAN}

    def render(self, filename="<input>"):
        return "%s:%s:%s: %s: %s" % (filename, self.span.line, self.span.col,
                                     self.rule, self.message)


class ConfigError(Exception):
    """Invalid machine configuration (word width, free-list count, ...)."""


class ExecutionError(Exception):
    """Runtime error; halts execution, partial state stays inspectable.
    `kind` is a string of `machine.RuntimeErrorKind`."""

    def __init__(self, kind, message, span=NO_SPAN, trace=()):
        super().__init__(message)
        self.kind, self.message = kind, message
        self.span, self.trace = span, tuple(trace)

    def __str__(self):
        # calls outermost first; a run of over three equal calls is folded
        # into three and a count, as in a CPython traceback
        s = "%s: %s: %s" % (self.span, self.kind, self.message)
        for label, run in groupby(self.trace):
            n = len(list(run))
            s += ("\n  in %s" % label) * min(n, 3)
            if n > 3:
                s += "\n  [Previous line repeated %d more times]" % (n - 3)
        return s


MOD_OPS = ("+=", "-=", "^=")

# binding strength per operator, loosest 1, for the parser and the printer
PRECEDENCE = {
    "+": 6, "-": 6, "^": 6, "*": 7, "/": 7, "%": 7, "&": 4, "|": 3,
    "&&": 2, "||": 1, "<": 5, ">": 5, "=": 5, "!=": 5, "<=": 5, ">=": 5,
}

BIN_OPS = tuple(PRECEDENCE)


class Node(Record):
    """A syntax node: the trailing `span` field defaults to NO_SPAN and
    takes no part in equality, hash or repr."""

    __slots__ = ()
    _defaults = {"span": NO_SPAN}
    _uncompared = ("span",)


# ---------------------------------------------------------------- types

class TypeName(Record):
    __slots__ = ()


class IntType(TypeName):
    __slots__ = ()

    def __str__(self):
        return "int"


class ClassRef(TypeName):
    __slots__ = ("name",)

    def __str__(self):
        return self.name


class IntArrayType(TypeName):
    __slots__ = ()

    def __str__(self):
        return "int[]"


class ClassArrayType(TypeName):
    __slots__ = ("name",)

    def __str__(self):
        return "%s[]" % self.name


INT = IntType()
INT_ARRAY = IntArrayType()


# ---------------------------------------------------------- expressions

class Expression(Node):
    __slots__ = ()


class Constant(Expression):
    __slots__ = ("value", "span")


class LValue(Expression):
    """A place: a variable or one array cell, written by a statement or
    read by an expression."""

    __slots__ = ("name", "index", "span")
    _defaults = {**Node._defaults, "index": None}

    @property
    def is_cell(self):
        return self.index is not None


class Nil(Expression):
    __slots__ = ("span",)


class BinOp(Expression):
    __slots__ = ("op", "left", "right", "span")


def vars_of(expr):
    """Free variables of an expression."""
    if isinstance(expr, (Constant, Nil)):
        return frozenset()
    if isinstance(expr, LValue):
        names = frozenset((expr.name,))
        return names if expr.index is None else names | vars_of(expr.index)
    if isinstance(expr, BinOp):
        return vars_of(expr.left) | vars_of(expr.right)
    raise TypeError("not an expression: %r" % (expr,))


# ---------------------------------------------------- alloc descriptors

class AllocDesc(Node):
    """The d of new/delete/copy: a class, a class array or an int array.

    `length` is None for plain objects; `name` is None for int arrays.
    """

    __slots__ = ("name", "length", "span")
    _defaults = {**Node._defaults, "name": None, "length": None}

    @property
    def is_array(self):
        return self.length is not None

    @property
    def is_int_array(self):
        return self.is_array and self.name is None

    def declared_type(self):
        if not self.is_array:
            return ClassRef(self.name)
        if self.is_int_array:
            return INT_ARRAY
        return ClassArrayType(self.name)


# ------------------------------------------------------------ statements

class Statement(Node):
    __slots__ = ()


class Skip(Statement):
    __slots__ = ("span",)


class Seq(Statement):
    """Flattened statement sequence; never directly nests another Seq."""

    __slots__ = ("stmts", "span")  # a tuple


class Assign(Statement):
    __slots__ = ("target", "op", "expr", "span")  # op is one of MOD_OPS


class Swap(Statement):
    __slots__ = ("left", "right", "span")


class If(Statement):
    __slots__ = ("cond", "then_body", "else_body", "assertion", "span")


class Loop(Statement):
    __slots__ = ("assertion", "do_body", "loop_body", "cond", "span")


# the words of `if e then s else s fi e` and `from e do s loop s until e`,
# for the parser and the printer: each takes an expression, two statements
# and an expression, in this order
TWO_BODY_WORDS = {If: ("if", "then", "else", "fi"),
                  Loop: ("from", "do", "loop", "until")}


class ObjectBlock(Statement):
    __slots__ = ("class_name", "var", "body", "span")


class LocalBlock(Statement):
    __slots__ = ("var_type", "var", "entry", "body", "exit", "span")


class New(Statement):
    __slots__ = ("desc", "target", "span")


class Delete(Statement):
    __slots__ = ("desc", "target", "span")


class Copy(Statement):
    __slots__ = ("desc", "source", "target", "span")


class Uncopy(Statement):
    __slots__ = ("desc", "source", "target", "span")


class LocalCall(Statement):
    __slots__ = ("method", "args", "span")  # args: a tuple of variable names


class LocalUncall(Statement):
    __slots__ = ("method", "args", "span")


class ObjectCall(Statement):
    __slots__ = ("callee", "method", "args", "span")


class ObjectUncall(Statement):
    __slots__ = ("callee", "method", "args", "span")


# ------------------------------------------------------------ top level

class MethodDecl(Node):
    __slots__ = ("name", "params", "body", "span")  # params: ((type, name), ...)


class ClassDecl(Node):
    """`parent` is None for a root class; `fields` is ((type, name), ...)
    and `field_spans` their spans, or None for the class's own span."""

    __slots__ = ("name", "parent", "fields", "methods", "span", "field_spans")
    _defaults = {**Node._defaults, "field_spans": None}
    _uncompared = ("span", "field_spans")


class Program(Node):
    __slots__ = ("classes", "span")


def seq(stmts, span=NO_SPAN):
    """Build the flattened-sequence normal form from a statement list."""
    flat = []
    for s in stmts:
        if isinstance(s, Seq):
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat), span)
