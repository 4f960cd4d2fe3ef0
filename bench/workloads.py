"""Seeded workload generators and the expected outputs of each program.

Every generated program comes with the main fields it must print, taken
from a Python model of that program written here.  The model works on
signed 32-bit integers and never calls into ``rooplpp``, so a defect in
the interpreter's arithmetic cannot hide behind a shared helper.

A workload is a list of ``Source`` objects plus the ``rooplpp run`` flags
they need.  Field expectations are either an exact integer or ``NONNIL``
for a reference whose address the comments do not give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

BITS = 32
_MOD = 1 << BITS
_SIGN = 1 << (BITS - 1)

NONNIL = "non-nil"


def wrap(v: int) -> int:
    """Reduce v to a signed 32-bit value."""
    v %= _MOD
    return v - _MOD if v >= _SIGN else v


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def binop(op: str, a: int, b: int) -> int:
    """ROOPL++ binary operators on signed 32-bit values.

    Arithmetic wraps, division truncates toward zero and the remainder
    takes the dividend's sign; comparisons and logic give 0 or 1.
    """
    if op == "+":
        return wrap(a + b)
    if op == "-":
        return wrap(a - b)
    if op == "*":
        return wrap(a * b)
    if op == "/":
        return wrap(_trunc_div(a, b))
    if op == "%":
        return wrap(a - _trunc_div(a, b) * b)
    if op == "^":
        return wrap(a ^ b)
    if op == "&":
        return wrap(a & b)
    if op == "|":
        return wrap(a | b)
    if op == "&&":
        return int(a != 0 and b != 0)
    if op == "||":
        return int(a != 0 or b != 0)
    return int({"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b,
                "=": a == b, "!=": a != b}[op])


BINOPS = ("+", "-", "*", "/", "%", "^", "&", "|",
          "<", ">", "<=", ">=", "=", "!=", "&&", "||")
COMPARISONS = ("<", ">", "<=", ">=", "=", "!=")


def block_size(osize: int) -> int:
    """Words of the buddy block that holds osize words."""
    csize = 2
    while csize < osize:
        csize <<= 1
    return csize


def first_block_addr(num_freelists: int, osize: int) -> int:
    """Address of the first allocation on a fresh heap.

    Each split keeps the lower half on its free list and hands out the
    upper half, so the first block is the topmost one of its size.
    """
    return 1 + num_freelists + (1 << num_freelists) - block_size(osize)


@dataclass
class Source:
    name: str
    text: str
    expected: dict  # main field -> int or NONNIL
    # extra check on the forward state: (array field, first cell, cells)
    heap_cells: tuple | None = None


@dataclass
class Workload:
    name: str
    flags: list[str]
    num_freelists: int
    stack_words: int
    sources: list[Source]


def _make_workload(name, sources, num_freelists=10, stack_words=1024):
    flags = []
    if num_freelists != 10:
        flags += ["--freelists", str(num_freelists)]
    if stack_words != 1024:
        flags += ["--stack-words", str(stack_words)]
    return Workload(name, flags, num_freelists, stack_words, sources)


# --------------------------------------------------------------- corpus

# Main fields as the comments of tests/corpus describe them.
CORPUS_FIELDS = {
    "Fibonacci": {"x1": 5, "x2": 8, "n": 0},
    "LinkedList": {"head": NONNIL, "listLength": 10, "total": 55,
                   "count": 10},
    "BinaryTree": {"root": NONNIL, "total": 16, "mirroredTotal": 16},
    "DoublyLinkedList": {"head": NONNIL, "length": 10},
    "RTM": {"tape": NONNIL, "q1": NONNIL, "s1": NONNIL, "s2": NONNIL,
            "q2": NONNIL, "pos": 3, "state": 3, "steps": 3},
}


def corpus(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    names = sorted(CORPUS_FIELDS)
    rng.shuffle(names)
    sources = []
    for name in names:
        path = root / "tests" / "corpus" / f"{name}.rplpp"
        # RTM: "Tape 1101 becomes 0011", cells 1..4 of the tape
        cells = ("tape", 1, (0, 0, 1, 1)) if name == "RTM" else None
        sources.append(Source(name, path.read_text(), CORPUS_FIELDS[name],
                              cells))
    return _make_workload("corpus", sources)


# ----------------------------------------------------------- arith_loop
#
# Expressions and statements are tuples, rendered to ROOPL++ text and
# executed by the model below:
#   ("const", v) ("var", name) ("cell", array, index) ("bin", op, l, r)
#   ("assign", lvalue, op, expr) ("swap", lv, lv)
#   ("if", cond, then, else) ("local", name, init, body)
# where an lvalue is a "var" or "cell" expression.

ARR = "arr"
ARR_LEN = 8


def render_expr(e) -> str:
    kind = e[0]
    if kind == "const":
        return str(e[1])
    if kind == "var":
        return e[1]
    if kind == "cell":
        return f"{e[1]}[{render_expr(e[2])}]"
    return f"({render_expr(e[2])} {e[1]} {render_expr(e[3])})"


def render_stmts(stmts, indent) -> list[str]:
    pad = " " * indent
    out = []
    for s in stmts:
        kind = s[0]
        if kind == "assign":
            out.append(f"{pad}{render_expr(s[1])} {s[2]} {render_expr(s[3])}")
        elif kind == "swap":
            out.append(f"{pad}{render_expr(s[1])} <=> {render_expr(s[2])}")
        elif kind == "if":
            cond = render_expr(s[1])
            out.append(f"{pad}if {cond} then")
            out += render_stmts(s[2], indent + 4) or [pad + "    skip"]
            out.append(f"{pad}else")
            out += render_stmts(s[3], indent + 4) or [pad + "    skip"]
            out.append(f"{pad}fi {cond}")
        elif kind == "local":
            init = render_expr(s[2])
            out.append(f"{pad}local int {s[1]} = {init}")
            out += render_stmts(s[3], indent)
            out.append(f"{pad}delocal int {s[1]} = {init}")
        else:
            raise ValueError(kind)
    return out


class Model:
    """Forward execution of the statement tuples over signed words."""

    def __init__(self, env, arrays):
        self.env = env
        self.arrays = arrays

    def eval(self, e) -> int:
        kind = e[0]
        if kind == "const":
            return e[1]
        if kind == "var":
            return self.env[e[1]]
        if kind == "cell":
            return self.arrays[e[1]][self.eval(e[2])]
        return binop(e[1], self.eval(e[2]), self.eval(e[3]))

    def _set(self, lv, value):
        if lv[0] == "var":
            self.env[lv[1]] = value
        else:
            self.arrays[lv[1]][self.eval(lv[2])] = value

    def run(self, stmts):
        for s in stmts:
            kind = s[0]
            if kind == "assign":
                rhs = self.eval(s[3])
                self._set(s[1], binop(s[2][0], self.eval(s[1]), rhs))
            elif kind == "swap":
                a, b = self.eval(s[1]), self.eval(s[2])
                self._set(s[1], b)
                self._set(s[2], a)
            elif kind == "if":
                taken = self.eval(s[1]) != 0
                self.run(s[2] if taken else s[3])
                if (self.eval(s[1]) != 0) != taken:
                    raise AssertionError("generated if changes its condition")
            else:
                value = self.eval(s[2])
                self.env[s[1]] = value
                self.run(s[3])
                if self.env.pop(s[1]) != value:
                    raise AssertionError("generated local changes its value")


# The body has one fixed shape and the seed fills in operands, constants
# and the order of a fixed multiset of operators.  Both branches of every
# if have the same shape, so each iteration executes the same statements,
# expression nodes and operators whatever the seed: run time then varies
# little between seeds.
ARITH_SHAPE = ("assign", "cell", "if", "swap", "local", "assign",
               "swapcell", "if", "assign", "local", "cell", "assign")
ARITH_ITERATIONS = 1500
# operators of the expression slots outside conditions, each one at least twice
_OP_DECK = BINOPS * 2 + ("+", "-", "*", "^", "&", "|")
# leaf kinds of an expression of each depth, shuffled per expression
_LEAVES = {0: ("var",), 1: ("var", "cell"), 2: ("var", "var", "cell", "const")}


class _ArithGen:
    """Loop body over int fields x0..x5, the counter i and arr."""

    FIELDS = tuple(f"x{j}" for j in range(6))

    def __init__(self, rng):
        self.rng = rng
        self.deck = list(_OP_DECK)
        rng.shuffle(self.deck)
        self.locals = 0

    def cell(self):
        offset = ("const", self.rng.randrange(ARR_LEN))
        return ("cell", ARR, ("bin", "%", ("bin", "+", ("var", "i"), offset),
                              ("const", ARR_LEN)))

    def expr(self, depth, readable, cells):
        kinds = list(_LEAVES[depth])
        self.rng.shuffle(kinds)
        return self._tree(depth, kinds, readable, cells)

    def _tree(self, depth, kinds, readable, cells):
        if depth == 0:
            kind = kinds.pop()
            if kind == "const":
                return ("const", self.rng.randrange(1, 1000))
            if kind == "cell" and cells:
                return self.cell()
            return ("var", self.rng.choice(readable))
        op = self.deck.pop()
        left = self._tree(depth - 1, kinds, readable, cells)
        right = self._tree(depth - 1, kinds, readable, cells)
        if op in ("/", "%"):
            right = ("bin", "|", right, ("const", 1))  # odd, never zero
        return ("bin", op, left, right)

    def cond(self, readable):
        c1 = ("bin", self.rng.choice(COMPARISONS), self.expr(1, readable, False),
              self.expr(0, readable, False))
        c2 = ("bin", self.rng.choice(COMPARISONS),
              ("var", self.rng.choice(readable)),
              ("const", self.rng.randrange(1000)))
        return ("bin", self.rng.choice(("&&", "||")), c1, c2)

    def assign(self, fields, readonly, depth):
        target = self.rng.choice(fields)
        readable = [v for v in fields + readonly if v != target]
        return ("assign", ("var", target), self.rng.choice(("+=", "-=", "^=")),
                self.expr(depth, readable, True))

    def cell_assign(self, fields, readonly, depth):
        # the right-hand side may not read arr or i, which the index uses
        readable = [v for v in fields + readonly if v != "i"]
        return ("assign", self.cell(), self.rng.choice(("+=", "-=", "^=")),
                self.expr(depth, readable, False))

    def stmt(self, kind):
        fields = list(self.FIELDS)
        if kind == "assign":
            return self.assign(fields, ["i"], 2)
        if kind == "cell":
            return self.cell_assign(fields, ["i"], 2)
        if kind in ("swap", "swapcell"):
            a, b = self.rng.sample(fields, 2)
            return ("swap", self.cell() if kind == "swapcell" else ("var", a),
                    ("var", b))
        # the condition or initializer reads two fields the body leaves alone
        frozen = self.rng.sample(fields, 2)
        rest = [f for f in fields if f not in frozen]
        readable = frozen + ["i"]
        if kind == "if":
            return ("if", self.cond(readable),
                    [self.assign(rest, readable, 1) for _ in range(2)],
                    [self.assign(rest, readable, 1) for _ in range(2)])
        name = f"t{self.locals}"
        self.locals += 1
        return ("local", name, self.expr(2, readable, False),
                [self.assign(rest, readable + [name], 1),
                 self.cell_assign(rest, readable + [name], 1)])

    def body(self):
        stmts = [self.stmt(kind) for kind in ARITH_SHAPE]
        if self.deck:
            raise AssertionError(f"ARITH_SHAPE leaves {len(self.deck)} operators unused")
        return stmts


def arith_loop(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    gen = _ArithGen(rng)
    init = [("assign", ("var", f), "^=", ("const", rng.randrange(1, 1 << 16)))
            for f in gen.FIELDS]
    body = gen.body()
    lines = ["// generated: one from-until loop over int fields and an int[]",
             "class Arith",
             f"    int[] {ARR}", "    int i"]
    lines += [f"    int {f}" for f in gen.FIELDS]
    lines += ["", "    method main()",
              f"        new int[{ARR_LEN}] {ARR}"]
    lines += render_stmts(init, 8)
    lines += ["        from i = 0 do", "            i += 1"]
    lines += render_stmts(body, 12)
    lines += ["        loop skip", f"        until i = {ARITH_ITERATIONS}", ""]

    model = Model({f: 0 for f in gen.FIELDS}, {ARR: [0] * ARR_LEN})
    model.run(init)
    for i in range(1, ARITH_ITERATIONS + 1):
        model.env["i"] = i
        model.run(body)
    expected = {ARR: first_block_addr(10, ARR_LEN + 2),
                "i": ARITH_ITERATIONS}
    expected.update({f: model.env[f] for f in gen.FIELDS})
    return _make_workload("arith_loop",
                          [Source("arith_loop", "\n".join(lines), expected)])


# ---------------------------------------------------------- tree_uncall

TREE_DEPTH = 8        # complete tree of 2**9 - 1 = 511 nodes
TREE_ROUNDS = 3
DEEP_CALLS = 3000
TREE_FREELISTS = 12   # 511 eight-word nodes fill a 4096-word heap
TREE_STACK = 16384


def _tree_source(a, m, b, k):
    return f"""\
// generated: complete binary tree, sums and mirrors undone by uncall,
// and one linear recursion {DEEP_CALLS} calls deep
class Node
    Node left
    Node right
    int value

    method build(int depth, int id)
        value += ((id * {a}) % {m}) + {b}
        if depth > 0 then
            new Node left
            new Node right
            local int d = depth - 1
            local int c = id * 2
            call left::build(d, c)
            c += 1
            call right::build(d, c)
            c -= 1
            delocal int c = id * 2
            delocal int d = depth - 1
        else skip
        fi left != nil

    method wsum(int acc, int w)
        acc += value * w
        if left != nil then
            local int cw = w * 2
            call left::wsum(acc, cw)
            cw += 1
            call right::wsum(acc, cw)
            cw -= 1
            delocal int cw = w * 2
        else skip
        fi left != nil

    method mirror()
        left <=> right
        if left != nil then
            call left::mirror()
            call right::mirror()
        else skip
        fi left != nil

class Forest
    Node root
    int round
    int sums
    int msums
    int deepSum

    method deep(int n, int acc)
        if n > 0 then
            acc += (n * {k}) ^ n
            n -= 1
            call deep(n, acc)
            n += 1
        else skip
        fi n > 0

    method main()
        new Node root
        local int d = {TREE_DEPTH}
        local int id = 1
        call root::build(d, id)
        delocal int id = 1
        delocal int d = {TREE_DEPTH}
        from round = 0 do
            round += 1
            local int t = 0
            local int w = round
            call root::wsum(t, w)
            sums += t
            uncall root::wsum(t, w)
            delocal int w = round
            delocal int t = 0
            call root::mirror()
            local int t = 0
            local int w = round
            call root::wsum(t, w)
            msums += t
            uncall root::wsum(t, w)
            delocal int w = round
            delocal int t = 0
            uncall root::mirror()
        loop skip
        until round = {TREE_ROUNDS}
        local int n = {DEEP_CALLS}
        local int acc = 0
        call deep(n, acc)
        deepSum += acc
        uncall deep(n, acc)
        delocal int acc = 0
        delocal int n = {DEEP_CALLS}
"""


def _tree_model(a, m, b, k):
    # heap-order ids: node id has children 2*id and 2*id + 1
    last = (1 << (TREE_DEPTH + 1)) - 1
    value = {nid: wrap(binop("%", binop("*", nid, a), m) + b)
             for nid in range(1, last + 1)}

    def wsum(nid, w, mirrored):
        total = binop("*", value[nid], w)
        if 2 * nid <= last:
            left, right = 2 * nid, 2 * nid + 1
            if mirrored:
                left, right = right, left
            cw = binop("*", w, 2)
            total = wrap(total + wsum(left, cw, mirrored))
            total = wrap(total + wsum(right, wrap(cw + 1), mirrored))
        return total

    sums = msums = 0
    for rnd in range(1, TREE_ROUNDS + 1):
        sums = wrap(sums + wsum(1, rnd, False))
        msums = wrap(msums + wsum(1, rnd, True))
    deep = 0
    for n in range(DEEP_CALLS, 0, -1):
        deep = wrap(deep + binop("^", binop("*", n, k), n))
    return {"root": first_block_addr(TREE_FREELISTS, 5), "round": TREE_ROUNDS,
            "sums": sums, "msums": msums, "deepSum": deep}


def tree_uncall(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    a, m, b, k = (rng.randrange(3, 1 << 20), rng.randrange(2, 1 << 12),
                  rng.randrange(1 << 10), rng.randrange(3, 1 << 16))
    src = Source("tree_uncall", _tree_source(a, m, b, k), _tree_model(a, m, b, k))
    return _make_workload("tree_uncall", [src], TREE_FREELISTS, TREE_STACK)


# ----------------------------------------------------------- heap_churn
#
# The LIFO rounds come first so that each starts from an empty heap and
# its last free cascades to the top.  A list freed head first leaves its
# cells unmerged on the free list; the next list round takes them in the
# opposite address order and its head-first frees merge them back.  An odd
# number of list rounds therefore ends with a fragmented heap.

CHURN_FREELISTS = 16
CHURN_LIFO_ROUNDS = 80
CHURN_NEST = 6        # nested arrays per LIFO round
CHURN_LIST_ROUNDS = 11
CHURN_LIST = 8        # cells per non-LIFO list


def _churn_length(h):
    """Array length 1..254 (block sizes 4..256), mostly short."""
    return (h % 253 + 1) // (h // 7 % 32 + 1) + 1


def _churn_source(a, b, p, q):
    h = f"(d * {a}) + (round * {b})"
    n = "(((h % 253) + 1) / (((h / 7) % 32) + 1)) + 1"
    return f"""\
// generated: LIFO rounds of nested allocations, each starting from an
// empty heap, then rounds of a list that is freed head first
class Mark
    method touch()
        skip

class Blob
    int a
    int b
    int c

    method mix(int v)
        a += v
        b ^= v * {p}
        c -= v

class Cell
    Cell next
    int data

    method setData(int v)
        data ^= v

    method append(Cell cell)
        if next = nil & cell != nil then
            next <=> cell
        else skip
        fi next != nil & cell = nil
        if next != nil then
            call next::append(cell)
        else skip
        fi next != nil

    method unlink(Cell rest)
        next <=> rest

    method sum(int acc)
        acc += data
        if next != nil then
            call next::sum(acc)
        else skip
        fi next != nil

class Churn
    Cell head
    int round
    int lifo
    int listSum

    method nest(int d)
        if d > 0 then
            local int h = {h}
            local int n = {n}
            local int[] xs = nil
            new int[n] xs
            xs[0] += h
            local int e = d - 1
            call nest(e)
            delocal int e = d - 1
            lifo += xs[0] ^ (n * {q})
            xs[0] -= h
            delete int[n] xs
            delocal int[] xs = nil
            delocal int n = {n}
            delocal int h = {h}
        else
            construct Mark m
                call m::touch()
            destruct m
        fi d > 0

    method appendCell(Cell cell)
        if head = nil & cell != nil then
            head <=> cell
        else skip
        fi head != nil & cell = nil
        if head != nil then
            call head::append(cell)
        else skip
        fi head != nil

    method churnList()
        local int j = 0
        from j = 0 do
            j += 1
            local Cell cell = nil
            new Cell cell
            local int v = (j * {q}) + round
            call cell::setData(v)
            delocal int v = (j * {q}) + round
            call appendCell(cell)
            delocal Cell cell = nil
        loop skip
        until j = {CHURN_LIST}
        delocal int j = {CHURN_LIST}
        local int t = 0
        call head::sum(t)
        listSum += t
        uncall head::sum(t)
        delocal int t = 0
        local int j = 0
        from j = 0 do
            j += 1
            local Cell c = nil
            c <=> head
            call c::unlink(head)
            local int v = (j * {q}) + round
            uncall c::setData(v)
            delocal int v = (j * {q}) + round
            delete Cell c
            delocal Cell c = nil
        loop skip
        until j = {CHURN_LIST}
        delocal int j = {CHURN_LIST}

    method main()
        from round = 0 do
            round += 1
            construct Blob b
                call b::mix(round)
                local int d = {CHURN_NEST}
                call nest(d)
                delocal int d = {CHURN_NEST}
                uncall b::mix(round)
            destruct b
        loop skip
        until round = {CHURN_LIFO_ROUNDS}
        from round = {CHURN_LIFO_ROUNDS} do
            round += 1
            call churnList()
        loop skip
        until round = {CHURN_LIFO_ROUNDS + CHURN_LIST_ROUNDS}
"""


def _churn_model(a, b, q):
    lifo = list_sum = 0
    for rnd in range(1, CHURN_LIFO_ROUNDS + 1):
        for d in range(1, CHURN_NEST + 1):
            h = wrap(binop("*", d, a) + binop("*", rnd, b))
            lifo = wrap(lifo + binop("^", h, binop("*", _churn_length(h), q)))
    last = CHURN_LIFO_ROUNDS + CHURN_LIST_ROUNDS
    for rnd in range(CHURN_LIFO_ROUNDS + 1, last + 1):
        for j in range(1, CHURN_LIST + 1):
            list_sum = wrap(list_sum + wrap(binop("*", j, q) + rnd))
    return {"head": 0, "round": last, "lifo": lifo, "listSum": list_sum}


def heap_churn(seed: int, root: Path) -> Workload:
    rng = random.Random(seed)
    a, b = rng.randrange(1, 1 << 12), rng.randrange(1, 1 << 12)
    p, q = rng.randrange(3, 1 << 16), rng.randrange(3, 1 << 12)
    src = Source("heap_churn", _churn_source(a, b, p, q), _churn_model(a, b, q))
    return _make_workload("heap_churn", [src], CHURN_FREELISTS)


GENERATORS = {"corpus": corpus, "arith_loop": arith_loop,
              "tree_uncall": tree_uncall, "heap_churn": heap_churn}
