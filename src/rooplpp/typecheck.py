"""Static type checker.

Every rejected construct reports the name of the violated rule; the error
list is deterministic (AST order).  Nil has no type of its own: it adopts
any non-int type the context supplies, and is an error where no context
exists (e.g. `1 + nil`).
"""

from .classes import array_type_of, nullary_mains
from . import syntax as ast
from .syntax import NO_SPAN, TypeError_, vars_of

# The rule of each statement kind whose check is shared: new/delete,
# copy/uncopy and all four calls.  New and delete have an object rule and
# an array rule.
RULES = {
    "New": ("T-ObjNew", "T-ArrNew"), "Delete": ("T-ObjDlt", "T-ArrDlt"),
    "Copy": "T-Cp", "Uncopy": "T-Ucp",
    "LocalCall": "T-Call", "LocalUncall": "T-Uc",
    "ObjectCall": "T-CallO", "ObjectUncall": "T-Uco",
}


class Checker:
    """A type environment `env` maps variable names to types; `check_method`
    sets `current_class` and `field_names` for the method it checks."""

    def __init__(self, class_map):
        self.class_map = class_map
        self.errors = []
        self.warnings = []

    def error(self, rule, message, span=NO_SPAN):
        self.errors.append(TypeError_(rule, message, span))

    # ---------------------------------------------------------- types

    def assignable(self, actual, formal):
        """actual may be passed where formal is expected (subtyping on
        classes, invariance everywhere else)."""
        if actual == formal:
            return True
        if isinstance(actual, ast.ClassRef) and isinstance(formal, ast.ClassRef):
            return self.class_map.subtype_of(actual.name, formal.name)
        return False

    # ----------------------------------------------------- expressions

    def check_expr(self, env, expr,
                   expected=None):
        """Type of expr, or None after reporting an error.

        `expected` supplies the context type used to resolve Nil.
        """
        if isinstance(expr, ast.Constant):
            return ast.INT
        if isinstance(expr, ast.Nil):
            if expected is None or expected == ast.INT:
                self.error("T-Nil", "nil used where no object or array type "
                           "is expected", expr.span)
                return None
            return expected
        if isinstance(expr, ast.LValue):
            return self.place_type(env, expr, "T-ArrElemVar" if expr.is_cell
                                   else "T-Var")
        if isinstance(expr, ast.BinOp):
            return self.check_binop(env, expr)
        raise TypeError("not an expression: %r" % (expr,))

    def place_type(self, env, place, rule):
        """Type of a place, or None after reporting an error under `rule`."""
        ty = env.get(place.name)
        if ty is None:
            self.error(rule, "unbound variable %s" % place.name, place.span)
            return None
        if not place.is_cell:
            return ty
        if not isinstance(ty, (ast.IntArrayType, ast.ClassArrayType)):
            self.error(rule, "%s has type %s, not an array" % (place.name, ty),
                       place.span)
            return None
        self.expect_int(env, place.index, rule, "array index")
        return array_type_of(ty)

    def check_binop(self, env, expr):
        # a nil operand adopts the type of the other one, checked first
        if isinstance(expr.left, ast.Nil):
            if isinstance(expr.right, ast.Nil):
                self.error("T-Nil", "cannot compare nil with nil", expr.span)
                return None
            rt = self.check_expr(env, expr.right)
            lt = self.check_expr(env, expr.left, expected=rt)
        else:
            lt = self.check_expr(env, expr.left)
            rt = self.check_expr(env, expr.right, expected=lt)
        if lt is None or rt is None:
            return None
        if lt == ast.INT and rt == ast.INT:
            return ast.INT
        # non-integer operands admit only equality tests
        if lt == rt:
            if expr.op in ("=", "!="):
                return ast.INT
            self.error("T-BinOpObj",
                       "operator %s is not defined on %s operands"
                       % (expr.op, lt),
                       expr.span)
            return None
        if expr.op in ("=", "!="):
            self.error("T-BinOpObj", "cannot compare %s with %s" % (lt, rt),
                       expr.span)
            return None
        self.error("T-BinOpInt",
                   "operator %s needs int operands, got %s and %s"
                   % (expr.op, lt, rt),
                   expr.span)
        return None

    def expect_int(self, env, expr, rule, what):
        ty = self.check_expr(env, expr, expected=ast.INT)
        if ty is not None and ty != ast.INT:
            self.error(rule, "%s must be int, got %s" % (what, ty),
                       getattr(expr, "span", NO_SPAN))
            return False
        return ty is not None

    # ------------------------------------------------------ statements

    def check_stmt(self, env, stmt):
        method = getattr(self, "_check_" + type(stmt).__name__, None)
        if method is None:
            raise TypeError("not a statement: %r" % (stmt,))
        method(env, stmt)

    def _check_Skip(self, env, stmt):
        pass

    def _check_Seq(self, env, stmt):
        for s in stmt.stmts:
            self.check_stmt(env, s)

    def _check_Assign(self, env, stmt):
        target = stmt.target
        ty = env.get(target.name)
        if ty is None:
            self.error("T-AssVar", "unbound variable %s" % target.name,
                       stmt.span)
            return
        if target.is_cell:
            if not isinstance(ty, ast.IntArrayType):
                self.error("T-ArrElemAss",
                           "%s has type %s; assignable cells "
                           "need int[]" % (target.name, ty), stmt.span)
                return
            self.expect_int(env, target.index, "T-ArrElemAss", "array index")
            overlap = vars_of(target) & vars_of(stmt.expr)
            if overlap:
                self.error("T-ArrElemAss",
                           "right-hand side references %s"
                           % ", ".join(sorted(overlap)),
                           stmt.span)
            self.expect_int(env, stmt.expr, "T-ArrElemAss", "right-hand side")
            return
        if ty != ast.INT:
            self.error("T-AssVar",
                       "%s has type %s; %s needs int"
                       % (target.name, ty, stmt.op),
                       stmt.span)
            return
        if target.name in vars_of(stmt.expr):
            self.error("T-AssVar",
                       "%s occurs on its own right-hand side" % target.name,
                       stmt.span)
        self.expect_int(env, stmt.expr, "T-AssVar", "right-hand side")

    def _check_Swap(self, env, stmt):
        lt = self.place_type(env, stmt.left, "T-SwpVar")
        rt = self.place_type(env, stmt.right, "T-SwpVar")
        if lt is None or rt is None or lt == rt:
            return
        # a base-class array cell may exchange with a subclass variable
        if isinstance(lt, ast.ClassRef) and isinstance(rt, ast.ClassRef):
            if stmt.left.is_cell and self.assignable(rt, lt):
                return
            if stmt.right.is_cell and self.assignable(lt, rt):
                return
        self.error("T-SwpVar", "cannot swap %s with %s" % (lt, rt), stmt.span)

    def _check_If(self, env, stmt):
        self.expect_int(env, stmt.cond, "T-If", "if condition")
        self.check_stmt(env, stmt.then_body)
        self.check_stmt(env, stmt.else_body)
        self.expect_int(env, stmt.assertion, "T-If", "fi assertion")

    def _check_Loop(self, env, stmt):
        self.expect_int(env, stmt.assertion, "T-Loop", "from assertion")
        self.check_stmt(env, stmt.do_body)
        self.check_stmt(env, stmt.loop_body)
        self.expect_int(env, stmt.cond, "T-Loop", "until condition")

    def known_class(self, name, rule, span):
        """False after reporting `name` as an unknown class; None, which
        names no class, is known."""
        if name is None or name in self.class_map:
            return True
        self.error(rule, "unknown class %s" % name, span)
        return False

    def _check_ObjectBlock(self, env, stmt):
        if not self.known_class(stmt.class_name, "T-ObjBlock", stmt.span):
            return
        prior = env.get(stmt.var)
        if prior is not None and prior != ast.ClassRef(stmt.class_name):
            self.warnings.append(
                "%s: construct %s %s shadows variable %s of type %s" % (
                    stmt.span, stmt.class_name, stmt.var, stmt.var, prior))
        self.check_stmt({**env, stmt.var: ast.ClassRef(stmt.class_name)},
                        stmt.body)

    def _check_LocalBlock(self, env, stmt):
        ty = stmt.var_type
        if not self.known_class(getattr(ty, "name", None), "T-LocalBlock",
                                stmt.span):
            return
        for expr, what in ((stmt.entry, "local initializer"),
                           (stmt.exit, "delocal expression")):
            et = self.check_expr(env, expr, expected=ty)
            if et is not None and et != ty:
                self.error("T-LocalBlock",
                           "%s has type %s, expected %s" % (what, et, ty),
                           getattr(expr, "span", stmt.span))
        self.check_stmt({**env, stmt.var: ty}, stmt.body)

    def _desc_type(self, env, desc, rule):
        if not self.known_class(desc.name, rule, desc.span):
            return None
        if desc.is_array:
            self.expect_int(env, desc.length, rule, "array length")
        return desc.declared_type()

    def _check_new_delete(self, env, stmt):
        rule = RULES[type(stmt).__name__][stmt.desc.is_array]
        want = self._desc_type(env, stmt.desc, rule)
        got = self.place_type(env, stmt.target, rule)
        if want is None or got is None:
            return
        if got != want:
            self.error(rule, "target has type %s, descriptor says %s"
                       % (got, want),
                       stmt.span)

    def _check_copy_uncopy(self, env, stmt):
        rule, errors = RULES[type(stmt).__name__], len(self.errors)
        want = self._desc_type(env, stmt.desc, rule)
        st = self.place_type(env, stmt.source, rule)
        tt = self.place_type(env, stmt.target, rule)
        if want is None or st is None or tt is None:
            return
        # both operands must carry exactly the declared type
        if st != want or tt != want:
            self.error(rule,
                       "operands have types %s and %s, descriptor says %s"
                       % (st, tt, want),
                       stmt.span)
        elif stmt.source == stmt.target and len(self.errors) == errors:
            self.warnings.append("%s: %s onto its own source %s" % (
                stmt.span, type(stmt).__name__.lower(), "can never succeed"
                if type(stmt) is ast.Copy else "fails or cannot be undone"))

    def _check_call(self, env, stmt):
        """A local call names a method of the current class; an object
        call one of its callee's class."""
        rule = RULES[type(stmt).__name__]
        callee = getattr(stmt, "callee", None)
        if callee is None:
            class_name = self.current_class
        else:
            cty = self.place_type(env, callee, rule)
            if cty is None:
                return
            if not isinstance(cty, ast.ClassRef):
                self.error(rule, "callee has type %s, not an object" % cty,
                           stmt.span)
                return
            class_name = cty.name
        mdecl = self.class_map[class_name].methods.get(stmt.method)
        if mdecl is None:
            self.error(rule, "class %s has no method %s"
                       % (class_name, stmt.method),
                       stmt.span)
            return
        args = stmt.args
        if callee is not None and not callee.is_cell and callee.name in args:
            self.error(rule, "callee %s cannot also be an "
                       "argument" % callee.name, stmt.span)
        if len(args) != len(mdecl.params):
            self.error(rule,
                       "%s takes %s arguments, got %s"
                       % (stmt.method, len(mdecl.params), len(args)),
                       stmt.span)
            return
        if len(set(args)) != len(args):
            self.error(rule, "argument list must contain unique variables",
                       stmt.span)
        bad = [a for a in args if a in self.field_names]
        if callee is None and bad:
            self.error(rule,
                       "class fields cannot be passed to a local method: "
                       "%s" % ', '.join(bad), stmt.span)
        for arg, (pty, pname) in zip(args, mdecl.params):
            aty = env.get(arg)
            if aty is None:
                self.error(rule, "unbound argument %s" % arg, stmt.span)
                continue
            if not self.assignable(aty, pty):
                self.error(rule,
                           "argument %s has type %s, parameter "
                           "%s wants %s" % (arg, aty, pname, pty), stmt.span)

    _check_New = _check_Delete = _check_new_delete
    _check_Copy = _check_Uncopy = _check_copy_uncopy
    _check_LocalCall = _check_LocalUncall = _check_call
    _check_ObjectCall = _check_ObjectUncall = _check_call

    # --------------------------------------------------------- programs

    def check_method(self, class_name, mdecl):
        info = self.class_map[class_name]
        env = {fname: fty for fty, fname in info.fields}
        self.current_class, self.field_names = class_name, frozenset(env)
        for pty, pname in mdecl.params:
            env[pname] = pty
        self.check_stmt(env, mdecl.body)


def check_program(program, class_map, warnings=None):
    """All type errors for a program (empty list means well-typed).

    Non-fatal findings (e.g. an object block shadowing a live variable of
    another type) are appended to `warnings` when a list is given.
    """
    checker = Checker(class_map)
    nullary = nullary_mains(program)
    if not nullary:
        checker.error("T-Prog", "program has no nullary main method",
                      program.span)
    elif len(nullary) > 1:
        checker.error("T-Prog", "program has more than one main method",
                      nullary[1][1].span)
    for cls in program.classes:
        for mdecl in cls.methods:
            checker.check_method(cls.name, mdecl)
    if warnings is not None:
        warnings.extend(checker.warnings)
    return checker.errors
