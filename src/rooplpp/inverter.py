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

from __future__ import annotations

from dataclasses import fields

from . import syntax as ast

_MOD_INVERSE = {"+=": "-=", "-=": "+=", "^=": "^="}

# statement kinds that invert to their partner with the same fields
_PAIRS = ((ast.New, ast.Delete), (ast.Copy, ast.Uncopy),
          (ast.LocalCall, ast.LocalUncall), (ast.ObjectCall, ast.ObjectUncall))
INVERSE_KIND = {**dict(_PAIRS), **{b: a for a, b in _PAIRS}}
_CALLS = (ast.LocalCall, ast.LocalUncall, ast.ObjectCall, ast.ObjectUncall)


def invert_stmt(stmt: ast.Statement, keep_calls: bool = False) -> ast.Statement:
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
                             for s in reversed(stmt.stmts)), span=stmt.span)
    if isinstance(stmt, ast.Assign):
        return ast.Assign(stmt.target, _MOD_INVERSE[stmt.op], stmt.expr,
                          span=stmt.span)
    if isinstance(stmt, ast.If):
        return ast.If(stmt.assertion, invert_stmt(stmt.then_body, keep_calls),
                      invert_stmt(stmt.else_body, keep_calls), stmt.cond,
                      span=stmt.span)
    if isinstance(stmt, ast.Loop):
        return ast.Loop(stmt.cond, invert_stmt(stmt.do_body, keep_calls),
                        invert_stmt(stmt.loop_body, keep_calls),
                        stmt.assertion, span=stmt.span)
    if isinstance(stmt, ast.ObjectBlock):
        return ast.ObjectBlock(stmt.class_name, stmt.var,
                               invert_stmt(stmt.body, keep_calls),
                               span=stmt.span)
    if isinstance(stmt, ast.LocalBlock):
        return ast.LocalBlock(stmt.var_type, stmt.var, stmt.exit,
                              invert_stmt(stmt.body, keep_calls), stmt.entry,
                              span=stmt.span)
    if type(stmt) in INVERSE_KIND:
        return INVERSE_KIND[type(stmt)](**{f.name: getattr(stmt, f.name)
                                           for f in fields(stmt)})
    raise TypeError(f"not a statement: {stmt!r}")


def invert_program(program: ast.Program) -> ast.Program:
    """Invert every method body via the modified top-level inverter."""
    classes = []
    for cls in program.classes:
        methods = tuple(
            ast.MethodDecl(m.name, m.params,
                           invert_stmt(m.body, keep_calls=True), span=m.span)
            for m in cls.methods)
        classes.append(ast.ClassDecl(cls.name, cls.parent, cls.fields,
                                     methods, span=cls.span))
    return ast.Program(tuple(classes), span=program.span)
