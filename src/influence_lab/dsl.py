"""Tiny expression language for building truth tables.

Grammar (operator precedence ! > & > ^ > |):

    expr  := or
    or    := xor ("|" xor)*
    xor   := and ("^" and)*
    and   := unary ("&" unary)*
    unary := "!" unary | atom
    atom  := "0" | "1" | var | name "(" args ")" | name | "(" expr ")"
    var   := "x" integer
    name  in {maj, parity, and, or, compose, iterate, paper_f}

Two kinds of meaning. A formula mentions variables x0..x{n-1} (contiguous,
no gaps) and is tabulated pointwise; builtin names applied to expression
arguments act pointwise too, e.g. "maj(x0, x1 & x2, x3)". A function
literal builds a whole table directly: "parity(8)" and friends take a single
integer arity, "paper_f" stands alone, and "compose(e1, e2)" / "iterate(e, k)"
combine standalone tables block-wise. Function literals are only legal where
a whole function is expected, not as a bit inside a larger formula.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InputError, ParseError
from .truthtable import MAX_VARS, TruthTable, builtin, compose, iterate

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<var>x[0-9]+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<op>[!&^|(),])
    """,
    re.VERBOSE,
)

_TABLE_ARITY_NAMES = frozenset({"maj", "parity", "and", "or"})
_POINTWISE_NAMES = _TABLE_ARITY_NAMES | {"paper_f"}


@dataclass(frozen=True)
class Token:
    kind: str  # var | name | int | one of ! & ^ | ( ) , | end
    text: str
    start: int


def _tokenize(source: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", source, pos)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        text = m.group(0)
        if kind == "op":
            kind = text
        tokens.append(Token(kind, text, m.start()))
    tokens.append(Token("end", "", len(source)))
    return tokens


@dataclass(frozen=True)
class Node:
    kind: str  # var | const | not | and | or | xor | call
    value: int | str | None
    children: tuple["Node", ...]


_ATOM_STARTERS = frozenset({"var", "name", "int", "(", "!"})


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {self._describe(tok)}", self.source, tok.start, expected={kind}
            )
        return self.advance()

    @staticmethod
    def _describe(tok: Token) -> str:
        return "end of input" if tok.kind == "end" else f"token {tok.text!r}"

    def parse(self) -> Node:
        node = self.parse_or()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(
                f"unexpected {self._describe(tok)}",
                self.source,
                tok.start,
                expected={"&", "^", "|", "end of input"},
            )
        return node

    def _binary(self, op: str, kind: str, parse_operand) -> Node:
        node = parse_operand()
        while self.peek().kind == op:
            op_tok = self.advance()
            right = self._operand_after(op_tok, parse_operand)
            node = Node(kind, None, (node, right))
        return node

    def _operand_after(self, op_tok: Token, parse_operand) -> Node:
        nxt = self.peek()
        if nxt.kind not in _ATOM_STARTERS:
            # missing operand: report at the operator that demanded it
            raise ParseError(
                f"operator {op_tok.text!r} is missing its operand",
                self.source,
                op_tok.start,
                expected={"variable", "constant", "name", "(", "!"},
            )
        return parse_operand()

    def parse_or(self) -> Node:
        return self._binary("|", "or", self.parse_xor)

    def parse_xor(self) -> Node:
        return self._binary("^", "xor", self.parse_and)

    def parse_and(self) -> Node:
        return self._binary("&", "and", self.parse_unary)

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "!":
            op_tok = self.advance()
            child = self._operand_after(op_tok, self.parse_unary)
            return Node("not", None, (child,))
        return self.parse_atom()

    def parse_atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "var":
            self.advance()
            return Node("var", int(tok.text[1:]), ())
        if tok.kind == "int":
            self.advance()
            return Node("const", int(tok.text), ())
        if tok.kind == "name":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = []
                if self.peek().kind != ")":
                    args.append(self.parse_or())
                    while self.peek().kind == ",":
                        self.advance()
                        args.append(self.parse_or())
                self.expect(")")
                return Node("call", tok.text, tuple(args))
            return Node("call", tok.text, ())
        if tok.kind == "(":
            self.advance()
            inner = self.parse_or()
            self.expect(")")
            return inner
        raise ParseError(
            f"unexpected {self._describe(tok)}",
            self.source,
            tok.start,
            expected={"variable", "constant", "name", "(", "!"},
        )


def parse(source: str) -> Node:
    return _Parser(source).parse()


def _is_function_literal(node: Node) -> bool:
    if node.kind != "call":
        return False
    name = node.value
    if name in ("compose", "iterate"):
        return True
    if name == "paper_f" and not node.children:
        return True
    if name in _TABLE_ARITY_NAMES:
        return len(node.children) == 1 and node.children[0].kind == "const"
    return False


def _literal_table(node: Node) -> TruthTable:
    name = node.value
    if name == "compose":
        if len(node.children) != 2:
            raise InputError("compose takes exactly two function arguments")
        return compose(elaborate_node(node.children[0]), elaborate_node(node.children[1]))
    if name == "iterate":
        if len(node.children) != 2 or node.children[1].kind != "const":
            raise InputError("iterate takes a function and an integer count")
        return iterate(elaborate_node(node.children[0]), int(node.children[1].value))
    if name == "paper_f":
        return builtin("paper_f", 4)
    return builtin(name, int(node.children[0].value))


def _collect_vars(node: Node, out: set) -> None:
    if node.kind == "var":
        out.add(node.value)
        return
    if node.kind == "call":
        if _is_function_literal(node):
            raise InputError(
                f"function-valued expression {node.value!r} used where a bit is required"
            )
    for child in node.children:
        _collect_vars(child, out)


_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
# _HIGH[v]: the bits of a 64-input word whose index has x_v = 1, for v < 6
_HIGH = tuple(np.uint64(m) for m in (
    0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
))
_WORD_OPS = {"and": np.bitwise_and, "or": np.bitwise_or, "xor": np.bitwise_xor}


def _column(words: int, v: int) -> np.ndarray:
    """x_v at every input, packed 64 inputs to a uint64 word, LSB first."""
    if v < 6:
        return np.full(words, _HIGH[v], dtype=np.uint64)
    # x_v is bit v - 6 of the word index: runs of 2^(v-6) zero and all-ones words
    column = np.zeros((words >> (v - 5), 2, 1 << (v - 6)), dtype=np.uint64)
    column[:, 1, :] = _ONES
    return column.reshape(-1)


def _apply_table(sub: np.ndarray, args: list[np.ndarray], memo: dict[bytes, np.ndarray]) -> np.ndarray:
    """A table's output at the argument words, as a decision diagram over its subtables.

    sub is indexed by the argument bits, args[0] lowest. Splitting on the top
    argument halves a subtable; memo holds one word array per distinct
    subtable, keyed by its bytes, so a symmetric table costs O(arity^2) word
    operations.
    """
    key = sub.tobytes()
    if key not in memo:
        if sub.size == 1:
            memo[key] = np.full(args[0].size, _ONES if sub[0] else 0, dtype=np.uint64)
        else:
            half = sub.size >> 1
            lo, hi = _apply_table(sub[:half], args, memo), _apply_table(sub[half:], args, memo)
            if lo is hi:
                memo[key] = lo
            else:
                # hi where the argument is set, lo elsewhere: lo ^ (c & (hi ^ lo)), one new array
                out = np.bitwise_xor(hi, lo)
                out &= args[half.bit_length() - 1]
                memo[key] = np.bitwise_xor(out, lo, out=out)
    return memo[key]


def _eval_formula(node: Node, words: int) -> np.ndarray:
    """Every value is uint64 words, 64 inputs each; a leaf builds its column when it is read."""
    kind = node.kind
    if kind == "var":
        return _column(words, node.value)
    if kind == "const":
        if node.value not in (0, 1):
            raise InputError(
                f"integer literal {node.value} is only valid as a builtin argument"
            )
        return np.full(words, _ONES if node.value else 0, dtype=np.uint64)
    # every value returned here is a fresh array owned by the caller, so operators work in place
    if kind == "not":
        value = _eval_formula(node.children[0], words)
        return np.invert(value, out=value)
    if kind in _WORD_OPS:
        value = _eval_formula(node.children[0], words)
        return _WORD_OPS[kind](value, _eval_formula(node.children[1], words), out=value)
    if kind == "call":
        name = node.value
        if name not in _POINTWISE_NAMES:
            raise InputError(f"unknown builtin {name!r}")
        arity = len(node.children)
        if arity == 0:
            raise InputError(f"{name} needs arguments when used inside a formula")
        table = builtin(name, arity)
        args = [_eval_formula(child, words) for child in node.children]
        return _apply_table(table.bits(), args, {})
    raise InputError(f"cannot evaluate node kind {kind!r}")


def elaborate_node(node: Node) -> TruthTable:
    """Turn an AST into a truth table (function literal or tabulated formula)."""
    if _is_function_literal(node):
        return _literal_table(node)
    used: set = set()
    _collect_vars(node, used)
    if used:
        top = max(used)
        missing = sorted(set(range(top + 1)) - used)
        if missing:
            raise InputError(
                f"variables must be contiguous from x0; missing x{missing[0]}"
            )
        n = top + 1
        if n > MAX_VARS:
            raise CapacityError(f"formula uses {n} variables, cap is {MAX_VARS}")
    else:
        n = 1  # constant formulas become 1-variable constant tables
    words = _eval_formula(node, max(1, (1 << n) >> 6))
    packed = int.from_bytes(words.astype("<u8", copy=False).tobytes(), "little")
    if n < 6:  # the one word holds 2^n inputs; the bits above them are dropped here
        packed &= (1 << (1 << n)) - 1
    return TruthTable(n, packed)


def elaborate(source: str) -> TruthTable:
    return elaborate_node(parse(source))


__all__ = ["Node", "elaborate", "parse"]
