"""Tokenizer and recursive-descent parser for ROOPL++ source text.

Grammar sketch (statements juxtapose into sequences):

    prog  ::= cl+
    cl    ::= "class" C ("inherits" C)? (t x)* m+
    m     ::= "method" q "(" (t x ("," t x)*)? ")" s
    t     ::= "int" | C | "int[]" | C "[]"
    d     ::= C | C "[" e "]" | "int" "[" e "]"
    y     ::= x | x "[" e "]"

Binary operators bind as `syntax.PRECEDENCE` says and associate left;
parentheses group.
"""

from .syntax import ParseError, Span
from . import syntax as ast

KEYWORDS = {
    "class", "inherits", "method", "call", "uncall", "construct", "destruct",
    "new", "delete", "copy", "uncopy", "local", "delocal", "if", "then",
    "else", "fi", "from", "do", "loop", "until", "skip", "int", "nil",
}

# each symbol under its first character, longest first
_SYMBOLS = {
    "<": ("<=>", "<=", "<"), ">": (">=", ">"), ":": ("::",), "!": ("!=",),
    "+": ("+=", "+"), "-": ("-=", "-"), "^": ("^=", "^"), "&": ("&&", "&"),
    "|": ("||", "|"), "(": ("(",), ")": (")",), "[": ("[",), "]": ("]",),
    ",": (",",), "*": ("*",), "/": ("/",), "%": ("%",), "=": ("=",),
}

_STMT_FOLLOWERS = {
    "else", "fi", "loop", "until", "delocal", "destruct", "method", "class",
}


class Token:
    __slots__ = ("kind", "text", "span")  # kind: ident, int, kw, sym or eof

    def __init__(self, kind, text, span):
        self.kind, self.text, self.span = kind, text, span


def tokenize(source):
    """The tokens of `source`, ending in an `eof` token.  Only "\n" ends a
    line; a column counts characters, so a tab or "\r" is one column."""
    tokens = []
    append = tokens.append
    for line, text in enumerate(source.split("\n"), 1):
        n = len(text)
        i = n - len(text.lstrip(" \t\r"))  # past the indentation
        while i < n:
            c = text[i]
            if c in " \t\r":
                i += 1
                continue
            j = i + 1
            if c.isalpha() or c == "_":
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                append(Token("kw" if word in KEYWORDS else "ident", word,
                             Span(line, i + 1, line, j + 1)))
            elif c.isdecimal():
                while j < n and text[j].isdecimal():
                    j += 1
                append(Token("int", text[i:j], Span(line, i + 1, line, j + 1)))
            elif text.startswith("//", i):
                break  # the end of file after a comment is at its start
            else:
                for sym in _SYMBOLS.get(c, ()):
                    if text.startswith(sym, i):
                        break
                else:
                    raise ParseError("unexpected character %r" % c,
                                     Span(line, i + 1, line, i + 1))
                j = i + len(sym)
                append(Token("sym", sym, Span(line, i + 1, line, j + 1)))
            i = j
    append(Token("eof", "", Span(line, i + 1, line, i + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]  # the token at `pos`

    # -- token plumbing ---------------------------------------------

    def peek(self, k=1):
        return self.tokens[min(self.pos + k, len(self.tokens) - 1)]

    def advance(self):
        tok = self.cur
        if tok.kind != "eof":
            self.pos += 1
            self.cur = self.tokens[self.pos]
        return tok

    def at(self, kind, text=None):
        tok = self.cur
        return tok.kind == kind and (text is None or tok.text == text)

    def at_kw(self, *words):
        tok = self.cur
        return tok.kind == "kw" and tok.text in words

    def accept(self, kind, text=None):
        tok = self.cur
        if tok.kind == kind and (text is None or tok.text == text):
            return self.advance()
        return None

    def expect(self, kind, text=None, what=None):
        tok = self.accept(kind, text)
        if tok is None:
            want = what or text or kind
            got = self.cur.text or "end of input"
            raise ParseError("got %r" % got, self.cur.span,
                             expected=(str(want),))
        return tok

    def _span_from(self, start):
        prev = self.tokens[max(self.pos - 1, 0)].span
        return Span(start.line, start.col, prev.end_line, prev.end_col)

    # -- programs / classes ------------------------------------------

    def program(self):
        start = self.cur.span
        classes = []
        while not self.at("eof"):
            classes.append(self.class_decl())
        if not classes:
            raise ParseError("empty program", start, expected=("class",))
        return ast.Program(tuple(classes), self._span_from(start))

    def class_decl(self):
        start = self.expect("kw", "class").span
        name = self.expect("ident", what="class name").text
        parent = None
        if self.accept("kw", "inherits"):
            parent = self.expect("ident", what="parent class name").text
        fields, spans = [], []
        while self.at_kw("int") or (self.at("ident") and self.peek().kind == "ident") \
                or (self.at("ident") and self.peek().text == "[" and self.peek(2).text == "]"):
            field_start = self.cur.span
            fields.append(self.typed_name("field"))
            spans.append(self._span_from(field_start))
        methods = []
        while self.at_kw("method"):
            methods.append(self.method_decl())
        if not methods:
            raise ParseError("class %s has no methods" % name, self.cur.span,
                             expected=("method",))
        return ast.ClassDecl(name, parent, tuple(fields), tuple(methods),
                             self._span_from(start), tuple(spans))

    def typed_name(self, what):
        ty = self.type_name()
        name = self.expect("ident", what="%s name" % what).text
        return (ty, name)

    def type_name(self):
        if self.accept("kw", "int"):
            if self.accept("sym", "["):
                self.expect("sym", "]")
                return ast.INT_ARRAY
            return ast.INT
        name = self.expect("ident", what="type").text
        if self.at("sym", "[") and self.peek().text == "]":
            self.advance()
            self.advance()
            return ast.ClassArrayType(name)
        return ast.ClassRef(name)

    def method_decl(self):
        start = self.expect("kw", "method").span
        name = self.expect("ident", what="method name").text
        params = self._parenthesized(lambda: self.typed_name("parameter"))
        body = self.statement_seq()
        return ast.MethodDecl(name, params, body, self._span_from(start))

    # -- statements ----------------------------------------------------

    def statement_seq(self):
        start = self.cur.span
        stmts = [self.statement()]
        while not self.at("eof") and not self.at_kw(*_STMT_FOLLOWERS):
            stmts.append(self.statement())
        return ast.seq(stmts, span=self._span_from(start))

    def statement(self):
        tok = self.cur
        if tok.kind == "kw":
            handler = self._STATEMENTS.get(tok.text)
            if handler is None:
                raise ParseError("got keyword %r" % tok.text, tok.span,
                                 expected=("statement",))
            return handler(self)
        if tok.kind == "ident":
            return self._assign_or_swap()
        raise ParseError("got %r" % (tok.text or 'end of input'), tok.span,
                         expected=("statement",))

    def _assign_or_swap(self):
        start = self.cur.span
        target = self.lvalue()
        if self.at("sym", "<=>"):
            self.advance()
            right = self.lvalue()
            return ast.Swap(target, right, self._span_from(start))
        for op in ast.MOD_OPS:
            if self.at("sym", op):
                self.advance()
                expr = self.expression()
                return ast.Assign(target, op, expr, self._span_from(start))
        raise ParseError("got %r after lvalue" % self.cur.text, self.cur.span,
                         expected=("+=", "-=", "^=", "<=>"))

    def lvalue(self):
        """A place `y`: a variable or one array cell."""
        tok = self.expect("ident", what="variable")
        if self.accept("sym", "["):
            index = self.expression()
            self.expect("sym", "]")
            return ast.LValue(tok.text, index, self._span_from(tok.span))
        return ast.LValue(tok.text, None, tok.span)

    def _two_bodies(self):
        """An if or a from loop (`syntax.TWO_BODY_WORDS`)."""
        cls = ast.If if self.cur.text == "if" else ast.Loop
        _, first, second, closing = ast.TWO_BODY_WORDS[cls]
        start = self.advance().span
        head = self.expression()
        self.expect("kw", first)
        body = self.statement_seq()
        self.expect("kw", second)
        other = self.statement_seq()
        self.expect("kw", closing)
        return cls(head, body, other, self.expression(), self._span_from(start))

    def _construct(self):
        start = self.expect("kw", "construct").span
        cname = self.expect("ident", what="class name").text
        var = self.expect("ident", what="variable").text
        body = self.statement_seq()
        self.expect("kw", "destruct")
        endvar = self.expect("ident", what="variable").text
        if endvar != var:
            raise ParseError(
                "destruct names %r, construct introduced %r" % (endvar, var),
                self.tokens[self.pos - 1].span)
        return ast.ObjectBlock(cname, var, body, self._span_from(start))

    def _local(self):
        start = self.expect("kw", "local").span
        ty = self.type_name()
        var = self.expect("ident", what="variable").text
        self.expect("sym", "=")
        entry = self.expression()
        body = self.statement_seq()
        self.expect("kw", "delocal")
        ty2 = self.type_name()
        var2 = self.expect("ident", what="variable").text
        if var2 != var or ty2 != ty:
            raise ParseError(
                "delocal %s %r does not match local %s %r"
                % (ty2, var2, ty, var),
                self.tokens[self.pos - 1].span)
        self.expect("sym", "=")
        exit_ = self.expression()
        return ast.LocalBlock(ty, var, entry, body, exit_,
                              self._span_from(start))

    def alloc_desc(self):
        start, name, length = self.cur.span, None, None
        if not self.accept("kw", "int"):
            name = self.expect("ident", what="class name").text
        if name is None or self.at("sym", "["):  # an int array has a length
            self.expect("sym", "[")
            length = self.expression()
            self.expect("sym", "]")
        return ast.AllocDesc(name, length, self._span_from(start))

    def _alloc(self):
        """new or delete d y, copy or uncopy d y y'."""
        tok = self.advance()
        desc = self.alloc_desc()
        places = [self.lvalue()]
        if tok.text.endswith("copy"):
            places.append(self.lvalue())
        return getattr(ast, tok.text.capitalize())(desc, *places,
                                                   self._span_from(tok.span))

    def _call(self):
        tok = self.advance()
        uncall = tok.text == "uncall"
        first = self.lvalue()
        if self.accept("sym", "::"):
            method = self.expect("ident", what="method name").text
            args = self._parenthesized(self._argument)
            cls = ast.ObjectUncall if uncall else ast.ObjectCall
            return cls(first, method, args, self._span_from(tok.span))
        if first.is_cell:
            raise ParseError("array cell cannot name a local method",
                             first.span, expected=("::",))
        args = self._parenthesized(self._argument)
        cls = ast.LocalUncall if uncall else ast.LocalCall
        return cls(first.name, args, self._span_from(tok.span))

    def _skip(self):
        return ast.Skip(self.advance().span)

    # the parser of each statement, by its first word
    _STATEMENTS = {
        "skip": _skip, "if": _two_bodies, "from": _two_bodies,
        "construct": _construct, "local": _local, "new": _alloc,
        "delete": _alloc, "copy": _alloc, "uncopy": _alloc, "call": _call,
        "uncall": _call,
    }

    def _argument(self):
        return self.expect("ident", what="argument").text

    def _parenthesized(self, item):
        """`(item, ...)`, perhaps empty."""
        self.expect("sym", "(")
        items = [] if self.at("sym", ")") else [item()]
        while items and self.accept("sym", ","):
            items.append(item())
        self.expect("sym", ")")
        return tuple(items)

    # -- expressions ----------------------------------------------------

    def expression(self, floor=1):
        """Precedence climbing: fold operators binding at least `floor`;
        a right operand takes only tighter ones, so all associate left."""
        start = self.cur.span
        expr = self._atom()
        while ast.PRECEDENCE.get(self.cur.text, 0) >= floor:
            op = self.advance().text
            right = self.expression(ast.PRECEDENCE[op] + 1)
            expr = ast.BinOp(op, expr, right, self._span_from(start))
        return expr

    def _atom(self):
        tok = self.cur
        if tok.kind == "int":
            # the length first: past the host's limit `int` raises
            if len(tok.text) > 20 or int(tok.text) >> 64:
                raise ParseError("integer literal is 2^64 or more, or longer "
                                 "than 20 digits", tok.span)
            self.advance()
            return ast.Constant(int(tok.text), tok.span)
        if tok.kind == "kw" and tok.text == "nil":
            self.advance()
            return ast.Nil(tok.span)
        if tok.kind == "ident":
            return self.lvalue()
        if tok.kind == "sym" and tok.text == "(":
            self.advance()
            expr = self.expression()
            self.expect("sym", ")")
            return expr
        raise ParseError("got %r" % (tok.text or 'end of input'), tok.span,
                         expected=("expression",))


def parse(source):
    """Parse ROOPL++ source text into a Program AST."""
    return _Parser(tokenize(source)).program()


def parse_statement(source):
    """Parse a bare statement sequence (test helper)."""
    p = _Parser(tokenize(source))
    stmt = p.statement_seq()
    p.expect("eof")
    return stmt


def parse_expression(source):
    """Parse a bare expression (test helper)."""
    p = _Parser(tokenize(source))
    expr = p.expression()
    p.expect("eof")
    return expr
