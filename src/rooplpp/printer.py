"""Canonical source rendering; parse(pretty_print(p)) == p structurally."""

from __future__ import annotations

from . import syntax as ast

_INDENT = "    "


def print_expr(expr: ast.Expression, ambient: int = 0) -> str:
    if isinstance(expr, ast.Constant):
        return str(expr.value)
    if isinstance(expr, (ast.Variable, ast.ArrayElement)):
        return _place(expr)
    if isinstance(expr, ast.Nil):
        return "nil"
    if isinstance(expr, ast.BinOp):
        prec = ast.PRECEDENCE[expr.op]
        left = print_expr(expr.left, prec)
        # left-associative: a right child at equal precedence needs parens
        right = print_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        if prec < ambient:
            return f"({text})"
        return text
    raise TypeError(f"not an expression: {expr!r}")


def _place(place) -> str:
    """A variable, array element or lvalue."""
    index = getattr(place, "index", None)
    return place.name if index is None else f"{place.name}[{print_expr(index)}]"


def _desc(d: ast.AllocDesc) -> str:
    return f"{d.name or 'int'}[{print_expr(d.length)}]" if d.is_array \
        else d.name


def print_stmt(stmt: ast.Statement, depth: int = 0) -> list[str]:
    pad = _INDENT * depth
    if isinstance(stmt, ast.Skip):
        return [pad + "skip"]
    if isinstance(stmt, ast.Seq):
        lines = []
        for s in stmt.stmts:
            lines.extend(print_stmt(s, depth))
        return lines
    if isinstance(stmt, ast.Assign):
        return [f"{pad}{_place(stmt.target)} {stmt.op} {print_expr(stmt.expr)}"]
    if isinstance(stmt, ast.Swap):
        return [f"{pad}{_place(stmt.left)} <=> {_place(stmt.right)}"]
    if isinstance(stmt, (ast.If, ast.Loop)):
        opening, first, second, closing = ast.TWO_BODY_WORDS[type(stmt)]
        head, body, other, tail = (getattr(stmt, f) for f in stmt._fields[:4])
        return (
            [f"{pad}{opening} {print_expr(head)} {first}"]
            + print_stmt(body, depth + 1)
            + [pad + second]
            + print_stmt(other, depth + 1)
            + [f"{pad}{closing} {print_expr(tail)}"]
        )
    if isinstance(stmt, ast.ObjectBlock):
        return (
            [f"{pad}construct {stmt.class_name} {stmt.var}"]
            + print_stmt(stmt.body, depth + 1)
            + [f"{pad}destruct {stmt.var}"]
        )
    if isinstance(stmt, ast.LocalBlock):
        return (
            [f"{pad}local {stmt.var_type} {stmt.var} = {print_expr(stmt.entry)}"]
            + print_stmt(stmt.body, depth + 1)
            + [f"{pad}delocal {stmt.var_type} {stmt.var} = {print_expr(stmt.exit)}"]
        )
    # new, delete, copy, uncopy, call or uncall
    word = type(stmt).__name__.lower().replace("local", "").replace("object", "")
    if isinstance(stmt, (ast.New, ast.Delete)):
        return [f"{pad}{word} {_desc(stmt.desc)} {_place(stmt.target)}"]
    if isinstance(stmt, (ast.Copy, ast.Uncopy)):
        return [f"{pad}{word} {_desc(stmt.desc)} {_place(stmt.source)} {_place(stmt.target)}"]
    if isinstance(stmt, (ast.LocalCall, ast.LocalUncall, ast.ObjectCall,
                         ast.ObjectUncall)):
        callee = f"{_place(stmt.callee)}::" if hasattr(stmt, "callee") else ""
        return [f"{pad}{word} {callee}{stmt.method}({', '.join(stmt.args)})"]
    raise TypeError(f"not a statement: {stmt!r}")


def pretty_print(program: ast.Program) -> str:
    """Render a program as canonical source text."""
    lines = []
    for cls in program.classes:
        header = f"class {cls.name}"
        if cls.parent:
            header += f" inherits {cls.parent}"
        lines.append(header)
        for ty, name in cls.fields:
            lines.append(f"{_INDENT}{ty} {name}")
        for method in cls.methods:
            lines.append("")
            params = ", ".join(f"{ty} {name}" for ty, name in method.params)
            lines.append(f"{_INDENT}method {method.name}({params})")
            lines.extend(print_stmt(method.body, 2))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
