"""The one tokenizer for ``.pc`` source, affine map/set text and ``.air``
modules, and the token cursor their parsers read through.

A token is ``(kind, value, (line, col))`` with kind ``int``, ``float``,
``id``, ``op`` or ``eof``.  Every word is an ``id``: each grammar rejects
its own reserved words where it reads a name (:meth:`Cursor.name`).
Float literals are C decimal floats with an optional exponent (``1.5``,
``1.``, ``.5``, ``1e-05``, ``2.5E+17``); operators are read
longest-match-first, except that ``--`` is two minus signs (``d0 --1`` is
``d0 - -1``).
"""

from __future__ import annotations

import math
import re

from .errors import ParseError

_TOKEN = re.compile(r"""
    (?P<comment>//[^\n]*)
  | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<id>[^\W\d]\w*)
  | (?P<op>->|<=|>=|==|\+\+|\+=|-=|\*=|/=|[-+*/()\[\]{};:=<>,#@.])
  | (?P<bad>[^ \t\r\n])
""", re.VERBOSE)


def tokenize(text):
    """Token list of `text`, ending in one ``eof`` token."""
    toks = []
    lines = text.split("\n")
    for line, src in enumerate(lines, 1):
        for m in _TOKEN.finditer(src):  # the search skips blanks between tokens
            kind = m.lastgroup
            if kind == "comment":
                continue
            value = m.group()
            if kind == "int":
                value = int(value)
            elif kind == "float":
                value = float(value)
                if not math.isfinite(value):
                    raise ParseError("float literal %s is out of range" % m.group(),
                                     line, m.start() + 1)
            elif kind == "bad":
                raise ParseError("unexpected character %r" % value, line, m.start() + 1)
            toks.append((kind, value, (line, m.start() + 1)))
    toks.append(("eof", "", (len(lines), len(lines[-1]) + 1)))
    return toks


class Cursor:
    """Position in the token list of one text; reading past the end keeps
    returning the ``eof`` token."""

    def __init__(self, text):
        self.toks = tokenize(text)
        self.idx = 0

    def peek(self, ahead=0):
        try:
            return self.toks[self.idx + ahead]
        except IndexError:
            return self.toks[-1]

    def next(self):
        tok = self.peek()
        self.idx += 1
        return tok

    def expect(self, value):
        """Consume a token with `value`; returns its position."""
        _, v, pos = self.next()
        if v != value:
            raise ParseError("expected %r, found %r" % (value, v), *pos)
        return pos

    def error(self, msg):
        raise ParseError(msg, *self.peek()[2])

    def name(self, reserved=(), what="identifier"):
        """Consume a word that is not in `reserved`; returns it."""
        kind, v, pos = self.next()
        if kind != "id" or v in reserved:
            raise ParseError("expected %s, found %r" % (what, v), *pos)
        return v

    def until(self, close, item, message):
        """Call `item()` until the next token is `close`, then consume it;
        returns the results as a tuple.  Reaching the end of the text first
        is the error `message`."""
        items = []
        while self.peek()[1] != close:
            if self.peek()[0] == "eof":
                self.error(message)
            items.append(item())
        self.next()
        return tuple(items)

    def names(self, open_b, close_b, reserved=()):
        """Consume a bracketed, comma-separated list of names; returns it."""
        names = []
        self.expect(open_b)
        while self.peek()[1] != close_b:
            names.append(self.name(reserved))
            if self.peek()[1] == ",":
                self.next()
        self.expect(close_b)
        return names
