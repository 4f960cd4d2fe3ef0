"""Source-level statement and program inversion.

`invert_stmt` is an involution.  Conditionals and loops exchange their
entry expression with their exit assertion; local blocks exchange the
initializer with the delocal expression.  Running a statement forward and
then its inverse forward restores the machine state exactly.

Whole-program inversion applies the modified inverter at the top of every
method body: calls and uncalls at that level are kept as they are (the
inversion of the callee body cancels against call/uncall flipping), while
everything beneath is inverted normally.
"""

from . import syntax as ast

_MOD_INVERSE = {"+=": "-=", "-=": "+=", "^=": "^="}

# statement kinds that invert to their partner with the same fields
_PAIRS = ((ast.New, ast.Delete), (ast.Copy, ast.Uncopy),
          (ast.LocalCall, ast.LocalUncall), (ast.ObjectCall, ast.ObjectUncall))
INVERSE_KIND = {**dict(_PAIRS), **{b: a for a, b in _PAIRS}}
_CALLS = (ast.LocalCall, ast.LocalUncall, ast.ObjectCall, ast.ObjectUncall)


def invert_stmt(stmt, keep_calls=False):
    """The inverse statement I[s].

    With `keep_calls` this is the modified inverter: calls and uncalls
    survive unchanged at every depth.  Invoking an inverted method then
    cancels against the body inversion, so whole-program inversion
    composes.
    """
    if keep_calls and isinstance(stmt, _CALLS):
        return stmt
    if isinstance(stmt, (ast.Skip, ast.Swap)):
        return stmt
    if isinstance(stmt, ast.Seq):
        return ast.Seq(tuple(invert_stmt(s, keep_calls)
                             for s in reversed(stmt.stmts)), stmt.span)
    if isinstance(stmt, ast.Assign):
        return ast.Assign(stmt.target, _MOD_INVERSE[stmt.op], stmt.expr,
                          stmt.span)
    if isinstance(stmt, (ast.If, ast.Loop)):
        head, body, other, tail = (getattr(stmt, f) for f in stmt._fields[:4])
        return type(stmt)(tail, invert_stmt(body, keep_calls),
                          invert_stmt(other, keep_calls), head, stmt.span)
    if isinstance(stmt, ast.ObjectBlock):
        return ast.ObjectBlock(stmt.class_name, stmt.var,
                               invert_stmt(stmt.body, keep_calls),
                               stmt.span)
    if isinstance(stmt, ast.LocalBlock):
        return ast.LocalBlock(stmt.var_type, stmt.var, stmt.exit,
                              invert_stmt(stmt.body, keep_calls), stmt.entry,
                              stmt.span)
    if type(stmt) in INVERSE_KIND:
        return INVERSE_KIND[type(stmt)](*[getattr(stmt, name)
                                          for name in stmt._fields])
    raise TypeError("not a statement: %r" % (stmt,))


def invert_program(program):
    """Invert every method body via the modified top-level inverter."""
    return program.replace(classes=tuple(
        cls.replace(methods=tuple(
            m.replace(body=invert_stmt(m.body, keep_calls=True))
            for m in cls.methods))
        for cls in program.classes))
