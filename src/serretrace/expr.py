"""One tokenizer and one evaluator for the two expression languages.

Element literals (``localfield.parse_element``) and Grothendieck-ring
classes (``motivic.parse_groth``) share one grammar::

    expr     := term (("+" | "-") term)*
    term     := factor (("*" | "/") factor)*
    factor   := ("+" | "-")* power
    power    := atom ("^" exponent)?        "**" is read as "^"
    exponent := ("+" | "-")* INT
    atom     := INT | NAME | NAME "(" INT ")" | "(" expr ")"

The evaluator keeps pending operators and operands on explicit stacks, so
nesting costs memory, not recursion.  It applies each operation as soon as
its right operand is complete, as recursive descent would, so a zero
division is raised ahead of a later syntax error.  The whole text is
tokenized first: a character or name outside the caller's vocabulary, or
an integer literal of more than ``MAX_INT_DIGITS`` digits, is refused
before any arithmetic.

The caller's ring object gives the syntax-error class ``error``, the
accepted names and symbols ``vocabulary``, the names called with one
integer ``functions``, whether an exponent may be signed
(``signed_exponents``), the atoms ``integer(n)``, ``name(s)`` and
``call(s, n)``, the operations ``neg``, ``add``, ``sub``, ``mul``, ``div``
and ``power(x, e)``, and ``finish(x)``, the value of the whole text.
"""

from __future__ import annotations

import operator
import re

MAX_INT_DIGITS = 4_300  # on the digits of an integer literal, and of a value's integers
MAX_EXPONENT = 10_000  # on |e| of a power base^e

INT_DIGITS_BOUND = 10**MAX_INT_DIGITS  # the least integer of more than MAX_INT_DIGITS digits

# The names are those of both languages; each ring accepts its own.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|(\*\*|Pn|Gm|pt|[tLC(),+\-*/^])|(\S))")


def tokenize(text: str, ring) -> list:
    """The tokens of text: an int for each integer literal, a str for the rest."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        digits, word, _ = match.groups()
        if digits is not None:
            if len(digits) > MAX_INT_DIGITS:
                raise ring.error(
                    f"integer literal of {len(digits)} digits is beyond the limit {MAX_INT_DIGITS}"
                )
            tokens.append(int(digits))
            continue
        if word == "**":
            word = "^"
        if word not in ring.vocabulary:
            raise ring.error(f"bad character at {text[match.start(match.lastindex):]!r}")
        tokens.append(word)
    return tokens


def _power(x, e: int, one, mul=operator.mul):
    """x^e by squaring, for e >= 0."""
    if x is one:
        return one
    out = one
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def evaluate(ring, text: str):
    """The value of text in ring."""
    tokens = tokenize(text, ring)
    if not tokens:
        raise ring.error("empty expression")
    tokens.append(None)
    operands, pending = [], []
    pos = 0
    while True:
        # An operand: its signs, then an atom or an opening parenthesis.
        negative = False
        tok = tokens[pos]
        pos += 1
        while tok == "-" or tok == "+":
            negative ^= tok == "-"
            tok = tokens[pos]
            pos += 1
        if tok == "(":
            pending.append("-(" if negative else "(")
            continue
        value, pos = _atom(ring, tokens, pos, tok)
        # The operand is complete: apply its power, its sign and a pending
        # product or quotient; a sum or difference waits for the next
        # token, since a product binds tighter.  Each ")" closes a group
        # that is a complete operand in turn.
        while True:
            if tokens[pos] == "^":
                exponent, pos = _exponent(ring, tokens, pos + 1)
                value = ring.power(value, exponent)
            if negative:
                value = ring.neg(value)
            if pending and (pending[-1] == "*" or pending[-1] == "/"):
                op = ring.mul if pending.pop() == "*" else ring.div
                value = op(operands.pop(), value)
            tok = tokens[pos]
            pos += 1
            if tok == "*" or tok == "/":
                break
            if pending and (pending[-1] == "+" or pending[-1] == "-"):
                op = ring.add if pending.pop() == "+" else ring.sub
                value = op(operands.pop(), value)
            if tok != ")":
                break
            if not pending:
                raise ring.error("')' without a matching '('")
            negative = pending.pop() == "-("
        if tok is None:
            if pending:
                raise ring.error("expected ')' before the end")
            return ring.finish(value)
        if tok not in ("+", "-", "*", "/"):
            raise ring.error(f"unexpected {tok!r} after an operand")
        operands.append(value)
        pending.append(tok)


def _atom(ring, tokens, pos, tok):
    """The value of the atom that starts with tok, and the position after it."""
    if type(tok) is int:
        return ring.integer(tok), pos
    if tok in ring.functions:
        if tokens[pos] != "(" or type(tokens[pos + 1]) is not int or tokens[pos + 2] != ")":
            raise ring.error(f"expected an integer argument, as in {tok}(2)")
        return ring.call(tok, tokens[pos + 1]), pos + 3
    if tok is None:
        raise ring.error("unexpected end of input")
    if not tok.isalpha():
        raise ring.error(f"unexpected token {tok!r}")
    return ring.name(tok), pos


def _exponent(ring, tokens, pos):
    """The exponent that starts at pos, and the position after it."""
    sign = 1
    tok = tokens[pos]
    while tok == "-" or tok == "+":
        if not ring.signed_exponents:
            raise ring.error("exponent must be a nonnegative integer")
        if tok == "-":
            sign = -sign
        pos += 1
        tok = tokens[pos]
    if type(tok) is not int:
        raise ring.error("exponent must be an integer")
    return sign * tok, pos + 1
