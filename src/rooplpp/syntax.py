"""Abstract syntax for ROOPL++.

Node equality is structural and ignores source spans, so parse/print
round-trips compare cleanly.
"""

from .errors import NO_SPAN, Record

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
