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
    if not d.is_array:
        return d.name
    base = "int" if d.is_int_array else d.name
    return f"{base}[{print_expr(d.length)}]"


def _args(args) -> str:
    return "(" + ", ".join(args) + ")"


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
    if isinstance(stmt, ast.If):
        return (
            [f"{pad}if {print_expr(stmt.cond)} then"]
            + print_stmt(stmt.then_body, depth + 1)
            + [pad + "else"]
            + print_stmt(stmt.else_body, depth + 1)
            + [f"{pad}fi {print_expr(stmt.assertion)}"]
        )
    if isinstance(stmt, ast.Loop):
        return (
            [f"{pad}from {print_expr(stmt.assertion)} do"]
            + print_stmt(stmt.do_body, depth + 1)
            + [pad + "loop"]
            + print_stmt(stmt.loop_body, depth + 1)
            + [f"{pad}until {print_expr(stmt.cond)}"]
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
    if isinstance(stmt, ast.New):
        return [f"{pad}new {_desc(stmt.desc)} {_place(stmt.target)}"]
    if isinstance(stmt, ast.Delete):
        return [f"{pad}delete {_desc(stmt.desc)} {_place(stmt.target)}"]
    if isinstance(stmt, ast.Copy):
        return [f"{pad}copy {_desc(stmt.desc)} {_place(stmt.source)} {_place(stmt.target)}"]
    if isinstance(stmt, ast.Uncopy):
        return [f"{pad}uncopy {_desc(stmt.desc)} {_place(stmt.source)} {_place(stmt.target)}"]
    if isinstance(stmt, ast.LocalCall):
        return [f"{pad}call {stmt.method}{_args(stmt.args)}"]
    if isinstance(stmt, ast.LocalUncall):
        return [f"{pad}uncall {stmt.method}{_args(stmt.args)}"]
    if isinstance(stmt, ast.ObjectCall):
        return [f"{pad}call {_place(stmt.callee)}::{stmt.method}{_args(stmt.args)}"]
    if isinstance(stmt, ast.ObjectUncall):
        return [f"{pad}uncall {_place(stmt.callee)}::{stmt.method}{_args(stmt.args)}"]
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
