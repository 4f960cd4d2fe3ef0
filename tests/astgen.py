"""Random AST and program generators for the property suites.

Two flavours:

* `random_statement` builds arbitrary well-formed ASTs (no typing
  discipline) for structural properties such as inverter involution.

* `GeneratedProgram`/`make_program` builds well-typed programs over a
  fixed two-class world whose main body also executes without runtime
  errors, for the reversibility and type-preservation suites.  The
  generator tracks which object variables are live and which are still
  nil, and restricts statements inside branches and loop bodies to
  state-balanced templates so repeated execution stays safe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from rooplpp import parse
from rooplpp import syntax as ast

# --------------------------------------------------------------- free ASTs

_NAMES = ("a", "b", "c", "d", "e")
_METHODS = ("m1", "m2", "m3")
_CLASSES = ("K", "L")


def random_expr(rng: random.Random, depth=3) -> ast.Expression:
    if depth <= 0 or rng.random() < 0.4:
        pick = rng.randrange(4)
        if pick == 0:
            return ast.Constant(rng.randrange(100))
        if pick == 1:
            return ast.LValue(rng.choice(_NAMES))
        if pick == 2:
            return ast.Nil()
        return ast.LValue(rng.choice(_NAMES), random_expr(rng, depth - 1))
    op = rng.choice(ast.BIN_OPS)
    return ast.BinOp(op, random_expr(rng, depth - 1),
                     random_expr(rng, depth - 1))


def _random_lvalue(rng) -> ast.LValue:
    if rng.random() < 0.3:
        return ast.LValue(rng.choice(_NAMES), random_expr(rng, 1))
    return ast.LValue(rng.choice(_NAMES))


def _random_desc(rng) -> ast.AllocDesc:
    pick = rng.randrange(3)
    if pick == 0:
        return ast.AllocDesc(rng.choice(_CLASSES))
    if pick == 1:
        return ast.AllocDesc(rng.choice(_CLASSES), random_expr(rng, 1))
    return ast.AllocDesc(None, random_expr(rng, 1))


def random_statement(rng: random.Random, depth=3) -> ast.Statement:
    """Arbitrary statement tree; structurally valid, not type-checked."""
    if depth <= 0:
        pick = rng.randrange(8)
        if pick == 0:
            return ast.Skip()
        if pick == 1:
            return ast.Assign(_random_lvalue(rng), rng.choice(ast.MOD_OPS),
                              random_expr(rng, 1))
        if pick == 2:
            return ast.Swap(_random_lvalue(rng), _random_lvalue(rng))
        if pick == 3:
            return ast.New(_random_desc(rng), _random_lvalue(rng))
        if pick == 4:
            return ast.Delete(_random_desc(rng), _random_lvalue(rng))
        if pick == 5:
            return ast.Copy(_random_desc(rng), _random_lvalue(rng),
                            _random_lvalue(rng))
        if pick == 6:
            args = tuple(rng.sample(_NAMES, rng.randrange(3)))
            if rng.random() < 0.5:
                return ast.LocalCall(rng.choice(_METHODS), args)
            return ast.ObjectCall(_random_lvalue(rng), rng.choice(_METHODS),
                                  args)
        args = tuple(rng.sample(_NAMES, rng.randrange(3)))
        if rng.random() < 0.5:
            return ast.LocalUncall(rng.choice(_METHODS), args)
        return ast.ObjectUncall(_random_lvalue(rng), rng.choice(_METHODS), args)
    pick = rng.randrange(6)
    if pick == 0:
        return ast.seq([random_statement(rng, depth - 1)
                        for _ in range(rng.randrange(2, 4))])
    if pick == 1:
        return ast.If(random_expr(rng, 1), random_statement(rng, depth - 1),
                      random_statement(rng, depth - 1), random_expr(rng, 1))
    if pick == 2:
        return ast.Loop(random_expr(rng, 1), random_statement(rng, depth - 1),
                        random_statement(rng, depth - 1), random_expr(rng, 1))
    if pick == 3:
        return ast.ObjectBlock(rng.choice(_CLASSES), rng.choice(_NAMES),
                               random_statement(rng, depth - 1))
    if pick == 4:
        ty = rng.choice((ast.INT, ast.ClassRef(rng.choice(_CLASSES)),
                         ast.INT_ARRAY))
        return ast.LocalBlock(ty, rng.choice(_NAMES), random_expr(rng, 1),
                              random_statement(rng, depth - 1),
                              random_expr(rng, 1))
    if pick == 5 and rng.random() < 0.5:
        return ast.Uncopy(_random_desc(rng), _random_lvalue(rng),
                          _random_lvalue(rng))
    return random_statement(rng, 0)


# ------------------------------------------------- runnable typed programs

_SKELETON = """\
class Pair
    int a
    int b

    method bump(int v)
        a += v
        b -= v * 2

    method flip(int v)
        a ^= v & 15
        b += v | 1

class Main
    int x
    int y
    int z
    Pair p
    Pair q
    int[] arr

    method stir(int v)
        y += v * 3

    method main()
        skip
"""

INT_VARS = ("x", "y", "z")
OBJ_VARS = ("p", "q")
ARR = "arr"
ARR_LEN = 6
PAIR_METHODS = ("bump", "flip")


@dataclass
class _ObjState:
    rc: int = 1
    dirty: bool = False


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.obj: dict[str, _ObjState | None] = {v: None for v in OBJ_VARS}
        self.arr_live = False
        self.fresh = 0

    # -- expressions -------------------------------------------------

    def int_expr(self, exclude=frozenset(), depth=2) -> ast.Expression:
        rng = self.rng
        usable = [v for v in INT_VARS if v not in exclude]
        if depth <= 0 or rng.random() < 0.45:
            if usable and rng.random() < 0.6:
                return ast.LValue(rng.choice(usable))
            if self.arr_live and ARR not in exclude and rng.random() < 0.3:
                return ast.LValue(ARR, ast.Constant(rng.randrange(ARR_LEN)))
            return ast.Constant(rng.randrange(10))
        op = rng.choice(("+", "-", "*", "^", "&", "|"))
        return ast.BinOp(op, self.int_expr(exclude, depth - 1),
                         self.int_expr(exclude, depth - 1))

    def guard(self, exclude=frozenset()) -> ast.Expression:
        # always 0/1-valued, so it can double as a flag value
        op = self.rng.choice(("<", ">", "<=", ">=", "=", "!="))
        return ast.BinOp(op, self.int_expr(exclude, 1),
                         ast.Constant(self.rng.randrange(8)))

    # -- balanced templates (safe anywhere, any number of times) ------

    def t_assign(self, locked):
        targets = [v for v in INT_VARS if v not in locked]
        if not targets:
            return ast.Skip()
        var = self.rng.choice(targets)
        op = self.rng.choice(ast.MOD_OPS)
        return ast.Assign(ast.LValue(var), op,
                          self.int_expr(exclude=frozenset((var,))))

    def t_cell_assign(self, locked):
        if not self.arr_live or ARR in locked:
            return self.t_assign(locked)
        idx = ast.Constant(self.rng.randrange(ARR_LEN))
        op = self.rng.choice(ast.MOD_OPS)
        return ast.Assign(ast.LValue(ARR, idx), op,
                          self.int_expr(exclude=frozenset((ARR,))))

    def t_swap(self, locked):
        usable = [v for v in INT_VARS if v not in locked]
        if len(usable) < 2:
            return ast.Skip()
        a, b = self.rng.sample(usable, 2)
        return ast.Swap(ast.LValue(a), ast.LValue(b))

    def t_obj_call(self, locked):
        live = [v for v, st in self.obj.items() if st is not None]
        if not live:
            return self.t_assign(locked)
        var = self.rng.choice(live)
        self.obj[var].dirty = True
        method = self.rng.choice(PAIR_METHODS)
        arg = self.rng.choice(INT_VARS)
        callee = ast.LValue(var)
        if self.rng.random() < 0.5:
            return ast.ObjectCall(callee, method, (arg,))
        return ast.ObjectUncall(callee, method, (arg,))

    def t_if(self, locked, depth):
        g = self.guard(exclude=locked)
        inner = locked | ast.vars_of(g)
        then_body = self.balanced_seq(inner, depth - 1)
        else_body = self.balanced_seq(inner, depth - 1)
        if self.rng.random() < 0.5:
            # textually different but equivalent exit assertion
            exit_ = ast.BinOp("|", g, ast.Constant(0))
        else:
            exit_ = g
        return ast.If(g, then_body, else_body, exit_)

    def t_flag_if(self, locked, depth):
        # fresh flag records which branch ran; the delocal expression
        # recomputes it from the unchanged guard
        g = self.guard(exclude=locked)
        flag = f"f{self.fresh}"
        self.fresh += 1
        inner = locked | ast.vars_of(g) | {flag}
        body = ast.seq([
            ast.If(g,
                   ast.seq([ast.Assign(ast.LValue(flag), "+=", ast.Constant(1)),
                            self.balanced_seq(inner, depth - 1)]),
                   self.balanced_seq(inner, depth - 1),
                   ast.BinOp("=", ast.LValue(flag), ast.Constant(1))),
        ])
        return ast.LocalBlock(ast.INT, flag, ast.Constant(0), body, g)

    def t_loop(self, locked, depth):
        i = f"i{self.fresh}"
        self.fresh += 1
        n = self.rng.randrange(1, 4)
        inner = locked | {i}
        body = ast.seq([self.balanced_seq(inner, depth - 1),
                        ast.Assign(ast.LValue(i), "+=", ast.Constant(1))])
        loop = ast.Loop(ast.BinOp("=", ast.LValue(i), ast.Constant(0)),
                        body, ast.Skip(),
                        ast.BinOp("=", ast.LValue(i), ast.Constant(n)))
        return ast.LocalBlock(ast.INT, i, ast.Constant(0), loop,
                              ast.Constant(n))

    def t_local_int(self, locked, depth):
        t = f"t{self.fresh}"
        self.fresh += 1
        init = self.int_expr(exclude=locked, depth=1)
        inner = locked | ast.vars_of(init) | {t}
        body = self.balanced_seq(inner, depth - 1)
        return ast.LocalBlock(ast.INT, t, init, body, init)

    def t_scratch_object(self, locked, depth):
        # allocate, disturb reversibly, restore, deallocate
        t = f"s{self.fresh}"
        self.fresh += 1
        method = self.rng.choice(PAIR_METHODS)
        arg = self.rng.choice(INT_VARS)
        inner = locked | {t, arg}
        middle = self.balanced_seq(inner, depth - 1)
        body = ast.seq([
            ast.New(ast.AllocDesc("Pair"), ast.LValue(t)),
            ast.ObjectCall(ast.LValue(t), method, (arg,)),
            middle,
            ast.ObjectUncall(ast.LValue(t), method, (arg,)),
            ast.Delete(ast.AllocDesc("Pair"), ast.LValue(t)),
        ])
        return ast.LocalBlock(ast.ClassRef("Pair"), t, ast.Nil(), body,
                              ast.Nil())

    def t_construct(self, locked, depth):
        t = f"c{self.fresh}"
        self.fresh += 1
        method = self.rng.choice(PAIR_METHODS)
        arg = self.rng.choice(INT_VARS)
        body = ast.seq([
            ast.ObjectCall(ast.LValue(t), method, (arg,)),
            self.balanced_seq(locked | {t, arg}, depth - 1),
            ast.ObjectUncall(ast.LValue(t), method, (arg,)),
        ])
        return ast.ObjectBlock("Pair", t, body)

    def t_local_call(self, locked):
        # stir writes y, so y must be free and absent from the argument
        if "y" in locked:
            return self.t_assign(locked)
        w = f"w{self.fresh}"
        self.fresh += 1
        init = self.int_expr(exclude=locked | {"y"}, depth=1)
        invoke = ast.LocalCall("stir", (w,)) if self.rng.random() < 0.5 \
            else ast.LocalUncall("stir", (w,))
        return ast.LocalBlock(ast.INT, w, init, invoke, init)

    def t_copy_pair(self, locked, depth):
        live = [v for v, st in self.obj.items() if st is not None]
        if not live:
            return self.t_assign(locked)
        var = self.rng.choice(live)
        r = f"r{self.fresh}"
        self.fresh += 1
        self.obj[var].dirty = True
        method = self.rng.choice(PAIR_METHODS)
        arg = self.rng.choice(INT_VARS)
        body = ast.seq([
            ast.Copy(ast.AllocDesc("Pair"), ast.LValue(var), ast.LValue(r)),
            ast.ObjectCall(ast.LValue(r), method, (arg,)),
            ast.Uncopy(ast.AllocDesc("Pair"), ast.LValue(var), ast.LValue(r)),
        ])
        return ast.LocalBlock(ast.ClassRef("Pair"), r, ast.Nil(), body,
                              ast.Nil())

    def balanced_one(self, locked, depth) -> ast.Statement:
        rng = self.rng
        leaves = [self.t_assign, self.t_cell_assign, self.t_swap,
                  self.t_obj_call, self.t_local_call]
        choices = list(leaves)
        if depth > 0:
            choices += [self.t_if, self.t_flag_if, self.t_loop,
                        self.t_local_int, self.t_scratch_object,
                        self.t_construct, self.t_copy_pair, self.t_copy_pair]
        template = rng.choice(choices)
        if template in leaves:
            return template(locked)
        return template(locked, depth)

    def balanced_seq(self, locked, depth) -> ast.Statement:
        n = self.rng.randrange(1, 4)
        return ast.seq([self.balanced_one(locked, depth) for _ in range(n)])

    # -- top-level statements (may shift persistent object state) -----

    def top_one(self, depth) -> ast.Statement:
        rng = self.rng
        roll = rng.random()
        if not self.arr_live and roll < 0.25:
            self.arr_live = True
            return ast.New(ast.AllocDesc(None, ast.Constant(ARR_LEN)),
                           ast.LValue(ARR))
        nil_vars = [v for v, st in self.obj.items() if st is None]
        if nil_vars and roll < 0.3:
            var = rng.choice(nil_vars)
            self.obj[var] = _ObjState()
            return ast.New(ast.AllocDesc("Pair"), ast.LValue(var))
        clean = [v for v, st in self.obj.items()
                 if st is not None and st.rc == 1 and not st.dirty]
        if clean and roll < 0.4:
            var = rng.choice(clean)
            self.obj[var] = None
            return ast.Delete(ast.AllocDesc("Pair"), ast.LValue(var))
        return self.balanced_one(frozenset(), depth)

    def main_body(self, length) -> ast.Statement:
        return ast.seq([self.top_one(depth=2) for _ in range(length)])


def skeleton_program() -> ast.Program:
    return parse(_SKELETON)


def make_program(seed: int, length=8) -> tuple[ast.Program, ast.Statement]:
    """Well-typed program whose main body runs without runtime errors."""
    rng = random.Random(seed)
    gen = _Gen(rng)
    body = gen.main_body(length)
    program = skeleton_program()
    main_cls = program.classes[1]
    new_methods = tuple(
        m.replace(body=body) if m.name == "main" else m
        for m in main_cls.methods)
    new_main = main_cls.replace(methods=new_methods)
    return ast.Program((program.classes[0], new_main)), body
