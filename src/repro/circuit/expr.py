"""Boolean expression ASTs for gate functions.

A gate's behaviour is an :class:`Expr` over signal *names*.  When a circuit
is finalized each expression is compiled to a small postfix *program* over
signal *indices*; the simulators then evaluate programs rather than walking
the AST.

Three evaluation domains share the compiled form:

* **binary** — values are the bits of a packed-int circuit state;
* **ternary** — values are (l, h) pairs where ``l`` means "can be 0" and
  ``h`` means "can be 1"; ``(1, 1)`` is the uncertain value Φ of
  Eichelberger's ternary simulation;
* **word-parallel ternary** — identical code with W-bit ints in place of
  single bits, simulating W faulty machines at once (Seshu-style parallel
  fault simulation combined with ternary values, paper §5.4).

The ternary operators used here are the standard monotone extensions:
``NOT (l,h) = (h,l)``, ``AND = (l1|l2, h1&h2)``, ``OR = (l1&l2, h1|h2)``,
``XOR = (l1&l2 | h1&h2, l1&h2 | h1&l2)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ParseError

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Expr:
    """Base class for boolean expressions over named signals."""

    def vars(self) -> List[str]:
        """Return the distinct variable names, in first-appearance order."""
        seen: Dict[str, None] = {}
        self._collect_vars(seen)
        return list(seen)

    def _collect_vars(self, seen: Dict[str, None]) -> None:
        raise NotImplementedError

    # Operator sugar so circuits can be built programmatically:
    def __and__(self, other: "Expr") -> "Expr":
        return And((self, _as_expr(other)))

    def __or__(self, other: "Expr") -> "Expr":
        return Or((self, _as_expr(other)))

    def __xor__(self, other: "Expr") -> "Expr":
        return Xor(self, _as_expr(other))

    def __invert__(self) -> "Expr":
        return Not(self)


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if value in (0, 1):
        return Const(int(value))
    raise TypeError(f"cannot interpret {value!r} as an expression")


@dataclass(frozen=True)
class Const(Expr):
    """The constant 0 or 1."""

    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("Const value must be 0 or 1")

    def _collect_vars(self, seen):
        pass

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a signal by name."""

    name: str

    def _collect_vars(self, seen):
        seen.setdefault(self.name)

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def _collect_vars(self, seen):
        self.arg._collect_vars(seen)

    def __str__(self):
        return f"~{_paren(self.arg)}"


@dataclass(frozen=True)
class And(Expr):
    args: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("And needs at least two operands")

    def _collect_vars(self, seen):
        for a in self.args:
            a._collect_vars(seen)

    def __str__(self):
        return " & ".join(_paren(a) for a in self.args)


@dataclass(frozen=True)
class Or(Expr):
    args: Tuple[Expr, ...]

    def __post_init__(self):
        if len(self.args) < 2:
            raise ValueError("Or needs at least two operands")

    def _collect_vars(self, seen):
        for a in self.args:
            a._collect_vars(seen)

    def __str__(self):
        return " | ".join(_paren(a) for a in self.args)


@dataclass(frozen=True)
class Xor(Expr):
    a: Expr
    b: Expr

    def _collect_vars(self, seen):
        self.a._collect_vars(seen)
        self.b._collect_vars(seen)

    def __str__(self):
        return f"{_paren(self.a)} ^ {_paren(self.b)}"


def _paren(e: Expr) -> str:
    if isinstance(e, (Var, Const, Not)):
        return str(e)
    return f"({e})"


def and_all(args: Sequence[Expr]) -> Expr:
    """Conjunction of ``args`` (returns Const(1) / the operand / an And)."""
    args = [_as_expr(a) for a in args]
    if not args:
        return Const(1)
    if len(args) == 1:
        return args[0]
    return And(tuple(args))


def or_all(args: Sequence[Expr]) -> Expr:
    """Disjunction of ``args``."""
    args = [_as_expr(a) for a in args]
    if not args:
        return Const(0)
    if len(args) == 1:
        return args[0]
    return Or(tuple(args))


# ---------------------------------------------------------------------------
# Parser:  |  lowest, then ^, &, ~ highest;  parentheses; names; 0/1.
# ---------------------------------------------------------------------------

_TOKEN_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.$[]")


def _tokenize(text: str, filename: Optional[str], line: int) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "&|^~()!":
            tokens.append("~" if ch == "!" else ch)
            i += 1
        elif ch in _TOKEN_CHARS:
            j = i
            while j < len(text) and text[j] in _TOKEN_CHARS:
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} in expression", filename, line)
    return tokens


class _ExprParser:
    def __init__(self, tokens: List[str], filename: Optional[str], line: int):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.line = line

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        tok = self.peek()
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise ParseError(message, self.filename, self.line)

    def parse(self) -> Expr:
        e = self.parse_or()
        if self.peek():
            self.fail(f"trailing tokens starting at {self.peek()!r}")
        return e

    def parse_or(self) -> Expr:
        parts = [self.parse_xor()]
        while self.peek() == "|":
            self.next()
            parts.append(self.parse_xor())
        return or_all(parts)

    def parse_xor(self) -> Expr:
        e = self.parse_and()
        while self.peek() == "^":
            self.next()
            e = Xor(e, self.parse_and())
        return e

    def parse_and(self) -> Expr:
        parts = [self.parse_unary()]
        while self.peek() == "&":
            self.next()
            parts.append(self.parse_unary())
        return and_all(parts)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok == "~":
            self.next()
            return Not(self.parse_unary())
        if tok == "(":
            self.next()
            e = self.parse_or()
            if self.next() != ")":
                self.fail("missing closing parenthesis")
            return e
        if tok == "":
            self.fail("unexpected end of expression")
        self.next()
        if tok == "0":
            return Const(0)
        if tok == "1":
            return Const(1)
        return Var(tok)


def parse_expr(text: str, filename: Optional[str] = None, line: int = 0) -> Expr:
    """Parse an expression like ``(a & ~b) | c ^ d``.

    Precedence (highest first): ``~``, ``&``, ``^``, ``|``.
    """
    return _ExprParser(_tokenize(text, filename, line), filename, line).parse()


# ---------------------------------------------------------------------------
# Compilation to postfix programs
# ---------------------------------------------------------------------------

OP_VAR = 0
OP_NOT = 1
OP_AND = 2
OP_OR = 3
OP_XOR = 4
OP_CONST = 5

Program = Tuple[Tuple[int, int], ...]


def compile_expr(expr: Expr, index_of: Dict[str, int]) -> Program:
    """Compile ``expr`` to a postfix program over signal indices.

    ``index_of`` maps signal names to indices; unknown names raise
    ``KeyError`` (the netlist layer turns that into a NetlistError).
    """
    code: List[Tuple[int, int]] = []

    def emit(e: Expr) -> None:
        if isinstance(e, Var):
            code.append((OP_VAR, index_of[e.name]))
        elif isinstance(e, Const):
            code.append((OP_CONST, e.value))
        elif isinstance(e, Not):
            emit(e.arg)
            code.append((OP_NOT, 0))
        elif isinstance(e, And):
            emit(e.args[0])
            for a in e.args[1:]:
                emit(a)
                code.append((OP_AND, 0))
        elif isinstance(e, Or):
            emit(e.args[0])
            for a in e.args[1:]:
                emit(a)
                code.append((OP_OR, 0))
        elif isinstance(e, Xor):
            emit(e.a)
            emit(e.b)
            code.append((OP_XOR, 0))
        else:
            raise TypeError(f"unknown expression node {e!r}")

    emit(expr)
    return tuple(code)


def eval_binary(program: Program, state: int) -> int:
    """Evaluate a compiled program against a packed binary state."""
    stack: List[int] = []
    push = stack.append
    pop = stack.pop
    for op, arg in program:
        if op == OP_VAR:
            push((state >> arg) & 1)
        elif op == OP_NOT:
            stack[-1] ^= 1
        elif op == OP_AND:
            b = pop()
            stack[-1] &= b
        elif op == OP_OR:
            b = pop()
            stack[-1] |= b
        elif op == OP_XOR:
            b = pop()
            stack[-1] ^= b
        else:  # OP_CONST
            push(arg)
    return stack[0]


def eval_ternary(
    program: Program,
    getv: Callable[[int], Tuple[int, int]],
    ones: int = 1,
) -> Tuple[int, int]:
    """Evaluate a program in the ternary (l, h) domain.

    ``getv(signal_index)`` supplies operand pairs; ``ones`` is the all-ones
    word (1 for scalar evaluation, a W-bit mask for parallel fault
    simulation).  Returns the (l, h) pair of the result.
    """
    stack: List[Tuple[int, int]] = []
    push = stack.append
    pop = stack.pop
    for op, arg in program:
        if op == OP_VAR:
            push(getv(arg))
        elif op == OP_NOT:
            l, h = stack[-1]
            stack[-1] = (h, l)
        elif op == OP_AND:
            l2, h2 = pop()
            l1, h1 = stack[-1]
            stack[-1] = (l1 | l2, h1 & h2)
        elif op == OP_OR:
            l2, h2 = pop()
            l1, h1 = stack[-1]
            stack[-1] = (l1 & l2, h1 | h2)
        elif op == OP_XOR:
            l2, h2 = pop()
            l1, h1 = stack[-1]
            stack[-1] = ((l1 & l2) | (h1 & h2), (l1 & h2) | (h1 & l2))
        else:  # OP_CONST
            push((0, ones) if arg else (ones, 0))
    return stack[0]


def program_vars(program: Program) -> Tuple[int, ...]:
    """Distinct signal indices referenced by a program, sorted."""
    return tuple(sorted({arg for op, arg in program if op == OP_VAR}))
