"""Canonical source rendering; parse(pretty_print(p)) == p structurally."""

from . import syntax as ast

_INDENT = "    "


def print_expr(expr, ambient=0):
    if isinstance(expr, ast.Constant):
        return str(expr.value)
    if isinstance(expr, ast.LValue):
        return expr.name if expr.index is None else "%s[%s]" % (
            expr.name, print_expr(expr.index))
    if isinstance(expr, ast.Nil):
        return "nil"
    if isinstance(expr, ast.BinOp):
        prec = ast.PRECEDENCE[expr.op]
        left = print_expr(expr.left, prec)
        # left-associative: a right child at equal precedence needs parens
        right = print_expr(expr.right, prec + 1)
        text = "%s %s %s" % (left, expr.op, right)
        if prec < ambient:
            return "(%s)" % text
        return text
    raise TypeError("not an expression: %r" % (expr,))


def _desc(d):
    return "%s[%s]" % (d.name or 'int', print_expr(d.length)) if d.is_array \
        else d.name


def print_stmt(stmt, depth=0):
    pad = _INDENT * depth
    if isinstance(stmt, ast.Skip):
        return [pad + "skip"]
    if isinstance(stmt, ast.Seq):
        lines = []
        for s in stmt.stmts:
            lines.extend(print_stmt(s, depth))
        return lines
    if isinstance(stmt, ast.Assign):
        return ["%s%s %s %s" % (pad, print_expr(stmt.target), stmt.op,
                                print_expr(stmt.expr))]
    if isinstance(stmt, ast.Swap):
        return ["%s%s <=> %s" % (pad, print_expr(stmt.left),
                                 print_expr(stmt.right))]
    if isinstance(stmt, (ast.If, ast.Loop)):
        opening, first, second, closing = ast.TWO_BODY_WORDS[type(stmt)]
        head, body, other, tail = (getattr(stmt, f) for f in stmt._fields[:4])
        return (
            ["%s%s %s %s" % (pad, opening, print_expr(head), first)]
            + print_stmt(body, depth + 1)
            + [pad + second]
            + print_stmt(other, depth + 1)
            + ["%s%s %s" % (pad, closing, print_expr(tail))]
        )
    if isinstance(stmt, ast.ObjectBlock):
        return (
            ["%sconstruct %s %s" % (pad, stmt.class_name, stmt.var)]
            + print_stmt(stmt.body, depth + 1)
            + ["%sdestruct %s" % (pad, stmt.var)]
        )
    if isinstance(stmt, ast.LocalBlock):
        return (
            ["%slocal %s %s = %s" % (pad, stmt.var_type, stmt.var,
                                     print_expr(stmt.entry))]
            + print_stmt(stmt.body, depth + 1)
            + ["%sdelocal %s %s = %s" % (pad, stmt.var_type, stmt.var,
                                         print_expr(stmt.exit))]
        )
    # new, delete, copy, uncopy, call or uncall
    word = type(stmt).__name__.lower().replace("local", "").replace("object", "")
    if isinstance(stmt, (ast.New, ast.Delete)):
        return ["%s%s %s %s" % (pad, word, _desc(stmt.desc),
                                print_expr(stmt.target))]
    if isinstance(stmt, (ast.Copy, ast.Uncopy)):
        return ["%s%s %s %s %s" % (pad, word, _desc(stmt.desc),
                                   print_expr(stmt.source),
                                   print_expr(stmt.target))]
    if isinstance(stmt, (ast.LocalCall, ast.LocalUncall, ast.ObjectCall,
                         ast.ObjectUncall)):
        callee = "%s::" % print_expr(stmt.callee) if hasattr(
            stmt, "callee") else ""
        return ["%s%s %s%s(%s)" % (pad, word, callee, stmt.method,
                                   ", ".join(stmt.args))]
    raise TypeError("not a statement: %r" % (stmt,))


def pretty_print(program):
    """Render a program as canonical source text."""
    lines = []
    for cls in program.classes:
        header = "class %s" % cls.name
        if cls.parent:
            header += " inherits %s" % cls.parent
        lines.append(header)
        for ty, name in cls.fields:
            lines.append("%s%s %s" % (_INDENT, ty, name))
        for method in cls.methods:
            lines.append("")
            params = ", ".join("%s %s" % (ty, name)
                               for ty, name in method.params)
            lines.append("%smethod %s(%s)" % (_INDENT, method.name, params))
            lines.extend(print_stmt(method.body, 2))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
