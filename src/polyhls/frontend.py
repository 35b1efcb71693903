"""Parser/printer for the restricted C-like input language; the tokens
come from :mod:`polyhls.lexer`.

The language covers SCoP-shaped kernels: scalar ``int`` declarations act as
size parameters, arrays are 1-D/2-D/3-D ``int``/``float``, loops are
``for (i = e; i < e; i++)`` with unit step, and assignments write one array
element from an expression over array reads, loop variables and constants.
``#pragma scop`` / ``#pragma endscop`` delimit the regions handed to the
polyhedral model.

The expression grammar (``expr``, ``term``, ``unary``, ``primary`` and
``condition``) is the one grammar of every text: ``.pc`` source, ``.air``
stmt bodies, ``--assume`` and, as :class:`AffineText`, affine map and set
text, which :func:`polyhls.affine.from_tree` then converts.  The
expression tree is also the standard level's (loop bounds and guards of
:mod:`polyhls.hls`, with :class:`Call` for its bound helpers);
:func:`format_expr` is its one printer and :func:`evaluate` its one
evaluator.  The statement trees of every level (``.pc`` statements, affine
ops, standard-level ops, the C kernel) share one walk (:func:`walk`), one
block printer (:func:`format_nest`) and one top-down rebuild
(:func:`rebuild`), which all find a node's blocks in its ``body``, or in
its ``then`` and ``els``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import InterpError, ParseError, UnsupportedConstructError
from .lexer import Cursor

INT64 = "int64"
FLOAT64 = "float64"


# -- expressions ------------------------------------------------------------


class Expr:
    pass


@dataclass(frozen=True)
class Name(Expr):
    ident: str


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - *
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class ArrayRef(Expr):
    array: str
    subs: tuple


@dataclass(frozen=True)
class Call(Expr):
    """Binary helper: floord, ceild, min or max of the standard level, or
    floordiv, ceildiv or mod of affine text (never parsed from `.pc`)."""

    fn: str
    args: tuple


def subexprs(e):
    """`e` and every expression inside it, each parent before its children
    and left operands before right ones."""
    yield e
    if isinstance(e, BinOp):
        yield from subexprs(e.lhs)
        yield from subexprs(e.rhs)
    elif isinstance(e, ArrayRef):
        for sub in e.subs:
            yield from subexprs(sub)
    elif isinstance(e, Call):
        for arg in e.args:
            yield from subexprs(arg)


# -- statements -------------------------------------------------------------


@dataclass(frozen=True)
class For:
    var: str
    lower: Expr
    upper: Expr  # exclusive; `i <= e` is normalized to `i < e + 1`
    body: tuple
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class If:
    op: str  # < <= > >= ==
    lhs: Expr
    rhs: Expr
    then: tuple
    els: tuple = ()
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class Assign:
    label: str  # "" when auto-named
    ref: ArrayRef
    rhs: Expr
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ScopBegin:
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ScopEnd:
    pos: tuple = field(default=(0, 0), compare=False)


@dataclass(frozen=True)
class ArrayDecl:
    name: str
    elem: str  # INT64 / FLOAT64
    extents: tuple  # of str (symbol) or int


@dataclass(frozen=True)
class Program:
    symbols: tuple  # size-parameter names
    arrays: tuple  # of ArrayDecl
    body: tuple  # of statements


# -- parser -----------------------------------------------------------------

# never a declared, loop, label or referenced name
KEYWORDS = ("int", "float", "for", "if", "else", "pragma", "while", "do", "return")


class _Parser:
    TERM_OPS = ("*", "/")  # the operators `term` reads; the words among them are Calls

    def __init__(self, cur):
        self.cur = cur

    # -- declarations --

    def program(self):
        symbols, arrays = [], []
        while self.cur.peek()[1] in ("int", "float"):
            elem = INT64 if self.cur.next()[1] == "int" else FLOAT64
            pos = self.cur.peek()[2]
            name = self.cur.name(KEYWORDS, "name in declaration")
            if name in symbols or name in [a.name for a in arrays]:
                raise ParseError("duplicate declaration of %r" % name, *pos)
            extents = parse_extents_at(self.cur, KEYWORDS, "size parameter or constant")
            self.cur.expect(";")
            if extents:
                arrays.append(ArrayDecl(name, elem, extents))
            else:
                if elem != INT64:
                    raise UnsupportedConstructError("size parameters must be int", *pos)
                symbols.append(name)
        body = []
        while self.cur.peek()[0] != "eof":
            body.append(self.stmt())
        for a in arrays:
            for e in a.extents:
                if isinstance(e, str) and e not in symbols:
                    raise ParseError("array %s uses undeclared size parameter %s" % (a.name, e))
        return Program(tuple(symbols), tuple(arrays), tuple(body))

    # -- statements --

    def stmt(self):
        kind, v, pos = self.cur.peek()
        if v == "#":
            return self.pragma()
        if v == "for":
            return self.for_stmt()
        if v == "if":
            return self.if_stmt()
        if v == "while" or v == "do":
            raise UnsupportedConstructError("'%s' loops are not supported" % v, *pos)
        if v == "{":
            self.cur.error("blocks are only allowed as loop/if bodies")
        return self.assign()

    def block_or_stmt(self):
        if self.cur.peek()[1] == "{":
            self.cur.next()
            return self.cur.until("}", self.stmt, "unterminated block")
        return (self.stmt(),)

    def pragma(self):
        pos = self.cur.expect("#")
        kind, v, p = self.cur.next()
        if v != "pragma":
            raise ParseError("expected 'pragma'", *p)
        kind, which, p = self.cur.next()
        if which == "scop":
            return ScopBegin(pos)
        if which == "endscop":
            return ScopEnd(pos)
        raise UnsupportedConstructError("unknown pragma %r" % which, *p)

    def for_stmt(self):
        kind, _, pos = self.cur.next()
        self.cur.expect("(")
        var = self.cur.name(KEYWORDS, "loop variable")
        self.cur.expect("=")
        lower = self.expr()
        self.cur.expect(";")
        k, v2, p = self.cur.next()
        if v2 != var:
            raise ParseError("loop condition must test %r" % var, *p)
        k, cmp_op, p = self.cur.next()
        if cmp_op not in ("<", "<="):
            raise UnsupportedConstructError("loop condition must use < or <=", *p)
        bound = self.expr()
        upper = bound if cmp_op == "<" else BinOp("+", bound, IntLit(1))
        self.cur.expect(";")
        k, v3, p = self.cur.next()
        if v3 != var:
            raise ParseError("loop increment must update %r" % var, *p)
        k, inc, p = self.cur.next()
        if inc == "++":
            pass
        elif inc == "+=":
            k2, step, p2 = self.cur.next()
            if k2 != "int" or step != 1:
                raise UnsupportedConstructError("only unit loop steps are supported", *p2)
        else:
            raise UnsupportedConstructError("only incrementing unit-step loops are supported", *p)
        self.cur.expect(")")
        body = self.block_or_stmt()
        return For(var, lower, upper, body, pos)

    def if_stmt(self):
        kind, _, pos = self.cur.next()
        self.cur.expect("(")
        op, lhs, rhs = self.condition()
        self.cur.expect(")")
        then = self.block_or_stmt()
        els = ()
        if self.cur.peek()[1] == "else":
            self.cur.next()
            els = self.block_or_stmt()
        return If(op, lhs, rhs, then, els, pos)

    def condition(self):
        """``expr op expr`` with op one of < <= > >= ==; returns
        ``(op, lhs, rhs)``."""
        lhs = self.expr()
        k, op, p = self.cur.next()
        if op == "=":
            raise UnsupportedConstructError("unsupported comparison '='", *p)
        if op not in ("<", "<=", ">", ">=", "=="):
            raise ParseError("expected comparison, found %r" % (op,), *p)
        return op, lhs, self.expr()

    def assign(self):
        stmt = self.assignment()
        self.cur.expect(";")
        return stmt

    def assignment(self):
        """``[label ":"] ref "=" expr`` without the closing ``;``."""
        label = ""
        if self.cur.peek(1)[1] == ":":
            label = self.cur.name(KEYWORDS, "statement label")
            self.cur.next()
        pos = self.cur.peek()[2]
        name = self.cur.name(KEYWORDS, "an assignment")
        if self.cur.peek()[1] != "[":
            raise UnsupportedConstructError("scalar assignment is not supported", *pos)
        ref = ArrayRef(name, self.subscripts())
        k, op, p = self.cur.next()
        if op in ("+=", "-=", "*=", "/="):
            raise UnsupportedConstructError("compound assignment %r is not supported" % op, *p)
        if op != "=":
            raise ParseError("expected '='", *p)
        return Assign(label, ref, self.expr(), pos)

    # -- expressions --

    def subscripts(self):
        subs = []
        while self.cur.peek()[1] == "[":
            self.cur.next()
            subs.append(self.expr())
            self.cur.expect("]")
        return tuple(subs)

    def expr(self):
        e = self.term()
        while self.cur.peek()[1] in ("+", "-"):
            op = self.cur.next()[1]
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.cur.peek()[1] in self.TERM_OPS:
            k, op, p = self.cur.next()
            if op == "/":
                raise UnsupportedConstructError("division is not supported in the input language", *p)
            e = BinOp("*", e, self.unary()) if op == "*" else Call(op, (e, self.unary()))
        return e

    def unary(self):
        """``-x`` is ``-1 * x``, which keeps C's sign of zero (``0 - x`` does
        not); a negated literal is a negative one, as its printed text reads."""
        if self.cur.peek()[1] == "-":
            self.cur.next()
            e = self.unary()
            if isinstance(e, (IntLit, FloatLit)):
                return type(e)(-e.value)
            return BinOp("*", IntLit(-1), e)
        return self.primary()

    def primary(self):
        kind, v, pos = self.cur.next()
        if kind == "int":
            return IntLit(v)
        if kind == "float":
            return FloatLit(v)
        if kind == "id" and v not in KEYWORDS:
            if self.cur.peek()[1] == "[":
                return ArrayRef(v, self.subscripts())
            return Name(v)
        if v == "(":
            e = self.expr()
            self.cur.expect(")")
            return e
        raise ParseError("unexpected token %r" % (v,), *pos)


class AffineText(_Parser):
    """The expression grammar of affine map and set text (its `expr` and
    `condition`): the ``.pc`` grammar, which also reads MLIR's infix words
    ``floordiv``, ``ceildiv`` and ``mod`` as :class:`Call` nodes."""

    TERM_OPS = _Parser.TERM_OPS + ("floordiv", "ceildiv", "mod")


def parse_program(source):
    """Parse `.pc` source into a :class:`Program`."""
    prog = _Parser(Cursor(source)).program()
    _check_nest(prog)
    return prog


def parse_condition(text):
    """Parse `text` as one `if` condition; returns ``(op, lhs, rhs)``."""
    cur = Cursor(text)
    cond = _Parser(cur).condition()
    if cur.peek()[0] != "eof":
        cur.error("unexpected %r after the comparison" % (cur.peek()[1],))
    return cond


def parse_assignment_at(cur):
    """Parse an assignment without its closing ``;`` at the cursor's
    current token (the body of an ``.air`` stmt)."""
    return _Parser(cur).assignment()


def parse_extents_at(cur, reserved, what):
    """The ``[extent]`` list of an array declaration at the cursor, as a
    tuple: each an int or a name outside `reserved` (`what` in errors)."""
    extents = []
    while cur.peek()[1] == "[":
        cur.next()
        if cur.peek()[0] == "int":
            extents.append(cur.next()[1])
        else:
            extents.append(cur.name(reserved, what))
        cur.expect("]")
    return tuple(extents)


def _check_nest(prog):
    """Reject a ``#pragma scop``/``endscop`` below the top level or out of
    pairs, and a loop variable that an enclosing loop or a declaration
    already binds."""
    declared = {n: "a symbol" for n in prog.symbols}
    declared.update((a.name, "an array") for a in prog.arrays)
    depth = 0
    for s, path in walk(prog.body):
        if isinstance(s, ScopBegin):
            if path:
                raise ParseError("#pragma scop must appear at top level", *s.pos)
            if depth:
                raise ParseError("nested #pragma scop", *s.pos)
            depth += 1
        elif isinstance(s, ScopEnd):
            if path or depth != 1:
                raise ParseError("unmatched #pragma endscop", *s.pos)
            depth -= 1
        elif isinstance(s, For) and any(isinstance(o, For) and o.var == s.var for o in path):
            raise ParseError("loop variable %r shadows an enclosing loop" % s.var, *s.pos)
        elif isinstance(s, For) and s.var in declared:
            raise ParseError("loop variable %r shadows %s" % (s.var, declared[s.var]), *s.pos)
    if depth:
        raise ParseError("missing #pragma endscop")


# -- trees ------------------------------------------------------------------


def _blocks(node):
    """The fields that hold a tree node's blocks: its `body`, or its `then`
    and `els`; a leaf has none."""
    if hasattr(node, "body"):
        return ("body",)
    if hasattr(node, "then"):
        return ("then", "els")
    return ()


def walk(nodes, path=()):
    """Each node of the tree `nodes` (``.pc`` statements or ops of any IR
    level), parents first, as ``(node, path)``: `path` is the tuple of the
    nodes that enclose it, outermost first."""
    for node in nodes:
        yield node, path
        for block in _blocks(node):
            yield from walk(getattr(node, block), path + (node,))


def rebuild(nodes, fn, state=None):
    """The tree `nodes` rebuilt from the top down: `fn(node, state)` gives a
    node's new form and the state for its blocks, and the blocks of that
    form are then rebuilt with it in turn, so a parent is rebuilt before
    its children."""
    out = []
    for node in nodes:
        new, inner = fn(node, state)
        blocks = _blocks(new)
        if blocks:
            new = replace(new, **{b: rebuild(getattr(new, b), fn, inner) for b in blocks})
        out.append(new)
    return tuple(out)


def format_nest(nodes, head, depth=0):
    """Text lines of the tree `nodes` at `depth`: `head(node, pad)` gives a
    node's own lines (a block node's open its block), and each block is
    indented two spaces deeper and closed by a brace, with an ``else`` line
    before a non-empty `els`."""
    lines = []
    pad = "  " * depth
    for node in nodes:
        lines += head(node, pad)
        blocks = [getattr(node, b) for b in _blocks(node)]
        for k, block in enumerate(blocks):
            if k and block:
                lines.append(pad + "} else {")
            lines += format_nest(block, head, depth + 1)
        if blocks:
            lines.append(pad + "}")
    return lines


# -- printer ----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2}
_C_FN = {"min": "minll", "max": "maxll"}


def format_expr(e, c=False, parent_prec=0):
    """`.pc` text of `e`; with `c`, the C99 of the HLS back end: hex float
    literals, negative int literals in parentheses, minll/maxll."""
    if isinstance(e, Name):
        return e.ident
    if isinstance(e, IntLit):
        return "(%d)" % e.value if c and e.value < 0 else str(e.value)
    if isinstance(e, FloatLit):
        return float(e.value).hex() if c else repr(e.value)
    if isinstance(e, ArrayRef):
        return e.array + "".join("[%s]" % format_expr(s, c) for s in e.subs)
    if isinstance(e, BinOp):
        # every operator is left-associative; a right operand of equal
        # precedence keeps its parentheses (float + and * do not associate)
        prec = _PREC[e.op]
        s = "%s %s %s" % (format_expr(e.lhs, c, prec), e.op, format_expr(e.rhs, c, prec + 1))
        return "(%s)" % s if prec < parent_prec else s
    if isinstance(e, Call):
        fn = _C_FN.get(e.fn, e.fn) if c else e.fn
        return "%s(%s)" % (fn, ", ".join(format_expr(a, c) for a in e.args))
    raise TypeError(e)


# -- evaluator --------------------------------------------------------------


def evaluate(e, env, load=None):
    """Value of `e` with names bound by `env`; array reads go through
    `load(array, subscripts)` (bounds and guards read no arrays and need
    none).  floord/ceild round toward -inf/+inf, as the C helpers do.  An
    unbound name is an :class:`InterpError`."""
    if isinstance(e, BinOp):
        a = evaluate(e.lhs, env, load)
        b = evaluate(e.rhs, env, load)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        return a * b
    if isinstance(e, Name):
        try:
            return env[e.ident]
        except KeyError:
            raise InterpError("unbound name %r" % e.ident) from None
    if isinstance(e, (IntLit, FloatLit)):
        return e.value
    if isinstance(e, ArrayRef):
        return load(e.array, [evaluate(s, env, load) for s in e.subs])
    if isinstance(e, Call):
        a, b = [evaluate(x, env, load) for x in e.args]
        if e.fn == "floord":
            return a // b
        if e.fn == "ceild":
            return -(-a // b)
        if e.fn == "min":
            return min(a, b)
        if e.fn == "max":
            return max(a, b)
    raise InterpError("cannot evaluate %r" % (e,))


def print_program(p):
    """Canonical text; ``parse_program(print_program(p))`` equals ``p``."""

    def head(s, pad):
        if isinstance(s, ScopBegin):
            return ["#pragma scop"]
        if isinstance(s, ScopEnd):
            return ["#pragma endscop"]
        if isinstance(s, For):
            return ["%sfor (%s = %s; %s < %s; %s++) {"
                    % (pad, s.var, format_expr(s.lower), s.var, format_expr(s.upper), s.var)]
        if isinstance(s, If):
            return ["%sif (%s %s %s) {" % (pad, format_expr(s.lhs), s.op, format_expr(s.rhs))]
        if isinstance(s, Assign):
            label = "%s: " % s.label if s.label else ""
            return ["%s%s%s = %s;" % (pad, label, format_expr(s.ref), format_expr(s.rhs))]
        raise TypeError(s)

    out = ["int %s;" % name for name in p.symbols]
    for a in p.arrays:
        kw = "int" if a.elem == INT64 else "float"
        out.append("%s %s%s;" % (kw, a.name, "".join("[%s]" % e for e in a.extents)))
    return "\n".join(out + format_nest(p.body, head)) + "\n"
