"""Scalar functions of one variable `t`: parsing, evaluation, exact derivatives.

Grammar (EBNF):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom ('^' factor)?
    atom   := number | 't' | func '(' expr ')' | '(' expr ')'
    func   := exp | ln | sqrt | abs | atan | sin | cos

'^' is right-associative; unary minus binds looser than '^', so "-t^2"
parses as -(t^2).  Every other module consumes functions through this
grammar, so derivatives are exact rather than numeric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError):
    """Evaluation hit a point outside a sub-expression's domain."""

    def __init__(self, message: str, node: "ExprAst | None" = None, t: float | None = None):
        detail = message
        if node is not None:
            detail += f" in {to_source(node)}"
        if t is not None:
            detail += f" at t={t!r}"
        super().__init__(detail)
        self.node = node
        self.t = t


_UNARY = ("neg", "exp", "ln", "sqrt", "abs", "atan", "sin", "cos")
_BINARY = ("add", "sub", "mul", "div", "pow")
_FUNCS = ("exp", "ln", "sqrt", "abs", "atan", "sin", "cos")


@dataclass(frozen=True)
class ExprAst:
    """Immutable expression tree; safe to share across threads."""

    kind: str
    value: float | None = None
    children: tuple["ExprAst", ...] = ()

    def __post_init__(self):
        if self.kind == "const":
            if self.value is None or self.children:
                raise ValueError("const node carries a value and no children")
        elif self.kind == "var":
            if self.children:
                raise ValueError("var node has no children")
        elif self.kind in _UNARY:
            if len(self.children) != 1:
                raise ValueError(f"{self.kind} expects 1 child")
        elif self.kind in _BINARY:
            if len(self.children) != 2:
                raise ValueError(f"{self.kind} expects 2 children")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")


VAR = ExprAst("var")


def const(v: float) -> ExprAst:
    return ExprAst("const", float(v))


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

def _tokenize(source: str):
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    while k < n and source[k].isdigit():
                        k += 1
                    j = k
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"malformed number {text!r}", i) from None
            tokens.append(("number", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("eof", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            what = repr(tok[1]) if tok[0] != "eof" else "end of input"
            raise ParseError(f"expected {kind!r}, found {what}", tok[2])
        return tok

    def parse(self) -> ExprAst:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            node = ExprAst("add" if op == "+" else "sub", children=(node, rhs))
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.factor()
            node = ExprAst("mul" if op == "*" else "div", children=(node, rhs))
        return node

    def factor(self) -> ExprAst:
        if self.peek()[0] == "-":
            self.next()
            inner = self.factor()
            if inner.kind == "const":
                return const(-inner.value)
            return ExprAst("neg", children=(inner,))
        node = self.atom()
        if self.peek()[0] == "^":
            self.next()
            exponent = self.factor()  # right-associative
            node = ExprAst("pow", children=(node, exponent))
        return node

    def atom(self) -> ExprAst:
        tok = self.next()
        kind, text, offset = tok
        if kind == "number":
            return const(float(text))
        if kind == "name":
            if text == "t":
                return VAR
            if text in _FUNCS:
                self.expect("(")
                inner = self.expr()
                self.expect(")")
                return ExprAst(text, children=(inner,))
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "(":
            inner = self.expr()
            self.expect(")")
            return inner
        if kind == "eof":
            raise ParseError("unexpected end of input", offset)
        raise ParseError(f"unexpected token {text!r}", offset)


def parse_expression(source: str) -> ExprAst:
    """Parse `source` into an AST.  Raises ParseError with a byte offset."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Evaluation (strict: domain violations raise, never NaN)
# ---------------------------------------------------------------------------

def _strict_pow(a: float, b: float, node: ExprAst, t: float) -> float:
    if a == 0.0 and b < 0.0:
        raise EvalDomainError("zero raised to a negative power", node, t)
    if a < 0.0 and b != math.floor(b):
        raise EvalDomainError("negative base with non-integer exponent", node, t)
    try:
        r = a ** b
    except OverflowError:
        return math.inf
    except ZeroDivisionError:
        raise EvalDomainError("zero raised to a negative power", node, t) from None
    if isinstance(r, complex):
        raise EvalDomainError("complex power result", node, t)
    return r


def evaluate(ast: ExprAst, t: float) -> float:
    """Evaluate `ast` at the point t.  IEEE doubles; overflow yields inf."""
    k = ast.kind
    if k == "const":
        return ast.value
    if k == "var":
        return float(t)
    if k in _BINARY:
        a = evaluate(ast.children[0], t)
        b = evaluate(ast.children[1], t)
        if k == "add":
            return a + b
        if k == "sub":
            return a - b
        if k == "mul":
            return a * b
        if k == "div":
            if b == 0.0:
                raise EvalDomainError("division by zero", ast, t)
            return a / b
        return _strict_pow(a, b, ast, t)
    a = evaluate(ast.children[0], t)
    if k == "neg":
        return -a
    if k == "exp":
        try:
            return math.exp(a)
        except OverflowError:
            return math.inf
    if k == "ln":
        if a <= 0.0:
            raise EvalDomainError("logarithm of a non-positive value", ast, t)
        return math.log(a)
    if k == "sqrt":
        if a < 0.0:
            raise EvalDomainError("square root of a negative value", ast, t)
        return math.sqrt(a)
    if k == "abs":
        return abs(a)
    if k == "atan":
        return math.atan(a)
    if k == "sin":
        return math.sin(a)
    return math.cos(a)


# ---------------------------------------------------------------------------
# Symbolic differentiation with light constant folding
# ---------------------------------------------------------------------------

def _is_const(a: ExprAst, v: float | None = None) -> bool:
    return a.kind == "const" and (v is None or a.value == v)


def _add(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a) and _is_const(b):
        return const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return ExprAst("add", children=(a, b))


def _sub(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a) and _is_const(b):
        return const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    return ExprAst("sub", children=(a, b))


def _mul(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a) and _is_const(b):
        return const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    return ExprAst("mul", children=(a, b))


def _div(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(a, 0.0):
        return const(0.0)
    if _is_const(b, 1.0):
        return a
    return ExprAst("div", children=(a, b))


def _pow(a: ExprAst, b: ExprAst) -> ExprAst:
    if _is_const(b, 1.0):
        return a
    return ExprAst("pow", children=(a, b))


def _neg(a: ExprAst) -> ExprAst:
    if _is_const(a):
        return const(-a.value)
    return ExprAst("neg", children=(a,))


def differentiate(ast: ExprAst) -> ExprAst:
    """Exact derivative d/dt with the folds c*0->0, x+0->x, x*1->x.

    abs differentiates to (abs(u)/u)*u', whose evaluation errors at u=0;
    differentiation itself never fails.
    """
    k = ast.kind
    if k == "const":
        return const(0.0)
    if k == "var":
        return const(1.0)
    if k in _BINARY:
        u, v = ast.children
        du, dv = differentiate(u), differentiate(v)
        if k == "add":
            return _add(du, dv)
        if k == "sub":
            return _sub(du, dv)
        if k == "mul":
            return _add(_mul(du, v), _mul(u, dv))
        if k == "div":
            num = _sub(_mul(du, v), _mul(u, dv))
            return _div(num, _pow(v, const(2.0)))
        # pow: constant exponent and constant base get the short forms
        if _is_const(v):
            factor = _mul(const(v.value), _pow(u, const(v.value - 1.0)))
            return _mul(factor, du)
        if _is_const(u) and u.value > 0.0:
            return _mul(_mul(ast, const(math.log(u.value))), dv)
        # general u^v: u^v * (v' ln u + v u'/u)
        bracket = _add(_mul(dv, ExprAst("ln", children=(u,))), _mul(v, _div(du, u)))
        return _mul(ast, bracket)
    (u,) = ast.children
    du = differentiate(u)
    if k == "neg":
        return _neg(du)
    if k == "exp":
        return _mul(ast, du)
    if k == "ln":
        return _div(du, u)
    if k == "sqrt":
        return _div(du, _mul(const(2.0), ast))
    if k == "abs":
        return _mul(_div(ast, u), du)
    if k == "atan":
        return _div(du, _add(const(1.0), _pow(u, const(2.0))))
    if k == "sin":
        return _mul(ExprAst("cos", children=(u,)), du)
    # cos
    return _mul(_neg(ExprAst("sin", children=(u,))), du)


def substitute(ast: ExprAst, replacement: ExprAst) -> ExprAst:
    """Replace every variable node with `replacement`."""
    if ast.kind == "var":
        return replacement
    if ast.kind == "const":
        return ast
    return ExprAst(ast.kind, ast.value, tuple(substitute(c, replacement) for c in ast.children))


# ---------------------------------------------------------------------------
# Canonical printer (fully parenthesized; parse∘print is the identity)
# ---------------------------------------------------------------------------

_OPCHAR = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def to_source(ast: ExprAst) -> str:
    k = ast.kind
    if k == "const":
        return repr(ast.value)
    if k == "var":
        return "t"
    if k == "neg":
        return f"(-{to_source(ast.children[0])})"
    if k in _BINARY:
        a, b = ast.children
        return f"({to_source(a)} {_OPCHAR[k]} {to_source(b)})"
    return f"{k}({to_source(ast.children[0])})"


# ---------------------------------------------------------------------------
# Fast compiled form for solver-internal hot loops
# ---------------------------------------------------------------------------

def _fast_pow(a, b):
    if a == 0.0 and b < 0.0:
        raise ValueError("zero raised to a negative power")
    if a < 0.0 and b != math.floor(b):
        raise ValueError("negative base with non-integer exponent")
    try:
        return a ** b
    except OverflowError:
        return math.inf


def _fast_exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _codegen(ast: ExprAst) -> str:
    k = ast.kind
    if k == "const":
        return repr(ast.value)
    if k == "var":
        return "t"
    if k in _BINARY:
        a, b = (_codegen(c) for c in ast.children)
        if k == "pow":
            return f"_pow({a}, {b})"
        return f"({a} {_OPCHAR[k]} {b})"
    a = _codegen(ast.children[0])
    return {
        "neg": f"(-{a})",
        "exp": f"_exp({a})",
        "ln": f"_log({a})",
        "sqrt": f"_sqrt({a})",
        "abs": f"abs({a})",
        "atan": f"_atan({a})",
        "sin": f"_sin({a})",
        "cos": f"_cos({a})",
    }[k]


def compile_scalar(ast: ExprAst):
    """Compile to a plain python lambda (math-module domain errors)."""
    env = {
        "_pow": _fast_pow,
        "_exp": _fast_exp,
        "_log": math.log,
        "_sqrt": math.sqrt,
        "_atan": math.atan,
        "_sin": math.sin,
        "_cos": math.cos,
    }
    return eval(f"lambda t: {_codegen(ast)}", env)  # noqa: S307 - our own codegen


# ---------------------------------------------------------------------------
# ScalarFn: an expression plus its lazily built exact derivative
# ---------------------------------------------------------------------------

@dataclass
class ScalarFn:
    """Callable wrapper around an ExprAst with a cached exact derivative.

    `domain` is the open interval on which callers may evaluate; it is
    bookkeeping only (evaluation raises wherever the expression itself is
    undefined).
    """

    body: ExprAst
    domain: tuple[float, float] = (-math.inf, math.inf)
    note: str = ""
    _derivative: ExprAst | None = field(default=None, repr=False, compare=False)
    _fast: object = field(default=None, repr=False, compare=False)

    @classmethod
    def from_source(cls, source: str, domain=(-math.inf, math.inf), note: str = "") -> "ScalarFn":
        return cls(parse_expression(source), domain, note)

    def __call__(self, t: float) -> float:
        return evaluate(self.body, t)

    @property
    def derivative(self) -> ExprAst:
        if self._derivative is None:
            self._derivative = differentiate(self.body)
        return self._derivative

    def deriv(self, t: float) -> float:
        return evaluate(self.derivative, t)

    def derivative_fn(self) -> "ScalarFn":
        return ScalarFn(self.derivative, self.domain)

    def fast(self):
        """Compiled scalar evaluator; use in solver hot loops."""
        if self._fast is None:
            self._fast = compile_scalar(self.body)
        return self._fast

    def source(self) -> str:
        return to_source(self.body)
