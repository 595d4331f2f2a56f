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

import ast
import functools
import math
import re
import types
import warnings
from dataclasses import dataclass, field

import numpy as np


class ExprError(Exception):
    """Base class for expression failures."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EvalDomainError(ExprError, ValueError):
    """Evaluation hit a point outside a sub-expression's domain; at_zero: a
    division by zero or 0 to a negative power, as an operand underflowed to 0 makes."""

    def __init__(self, message: str, node: "ExprAst | None" = None, t: float | None = None):
        detail = message
        if node is not None:
            detail += f" in {to_source(node)}"
        if t is not None:
            detail += f" at t={t!r}"
        super().__init__(detail)
        self.node = node
        self.t = t
        self.at_zero = node is not None and (node.kind == "div" or message == _ZERO_TO_NEGATIVE)


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
# Parser: Python's own, held to the grammar
# ---------------------------------------------------------------------------

# A character outside the grammar, or a '**', which Python would read once
# each '^' is written as '**'; '#' would start a comment and a NUL makes
# compile raise ValueError, so neither reaches Python.  Only ASCII passes:
# Python reads non-ASCII names by their NFKC forms ("ｔ" as "t").
_FOREIGN = re.compile(r"\*\*|[^0-9A-Za-z_.+\-*/^()\s]")
# Blanks, and the leading zeros of an integer ("007"), which Python refuses;
# those of a fraction or an exponent (".007", "1e-007") are Python's too
_BLANKED = re.compile(r"\s|(?<![0-9A-Za-z_.])(?<![eE][+-])0+(?=[0-9])")
_NUMBER = re.compile(r"[0-9.]+(?:[eE][+-]?[0-9]+)?")
_BINOPS = {ast.Add: "add", ast.Sub: "sub", ast.Mult: "mul", ast.Div: "div", ast.Pow: "pow"}
# The deepest node of a tree, Python's own bound on nested brackets; 500
# minus signs parse, but the compile of their code overflows the recursion
_DEPTH = 200
_TOO_DEEP = "expression nested too deeply"


def _tree(node: ast.expr, text: str, depth: int = 0) -> ExprAst:
    """The ExprAst of `node`, a node of Python's tree of `text` at `depth`
    below its root; a SyntaxError at the column of the first node outside
    the grammar or deeper than _DEPTH."""
    if depth > _DEPTH:
        raise SyntaxError(_TOO_DEEP, ("", 1, node.col_offset + 1, text))
    kind, depth = type(node), depth + 1
    if kind is ast.BinOp and type(node.op) in _BINOPS:
        return ExprAst(_BINOPS[type(node.op)], children=(_tree(node.left, text, depth),
                                                         _tree(node.right, text, depth)))
    if kind is ast.UnaryOp and type(node.op) is ast.USub:
        inner = _tree(node.operand, text, depth)
        return const(-inner.value) if inner.kind == "const" else ExprAst("neg", children=(inner,))
    segment = text[node.col_offset:node.end_col_offset]
    # 1_000, 0x10 and 1j are Python numbers, and `...` a Constant too
    if kind is ast.Constant and type(node.value) in (int, float) and _NUMBER.fullmatch(segment):
        return const(float(segment))
    if kind is ast.Name and node.id == "t":
        return VAR
    # a call of a parenthesized name, "(exp)(t)", starts before its name
    if (kind is ast.Call and type(node.func) is ast.Name and node.func.id in _FUNCS
            and len(node.args) == 1 and not node.keywords
            and node.col_offset == node.func.col_offset):
        return ExprAst(node.func.id, children=(_tree(node.args[0], text, depth),))
    name = node.func if kind is ast.Call else node
    if type(name) is ast.Name and name.id != "t" and name.id not in _FUNCS:
        raise SyntaxError(f"unknown identifier {name.id!r}", ("", 1, name.col_offset + 1, text))
    raise SyntaxError(f"{segment!r} is outside the grammar", ("", 1, node.col_offset + 1, text))


def parse_expression(source: str) -> ExprAst:
    """Parse `source` into an AST.  Raises ParseError with a byte offset.

    The grammar is Python's expression grammar with '^' for '**': Python's
    parser reads the source, each '^' written as '**', and _tree maps its
    tree onto ExprAst, refusing every node outside the grammar or deeper
    than _DEPTH (a source too deep for Python's parser is refused at 0).
    """
    foreign = _FOREIGN.search(source)
    if foreign is not None:
        raise ParseError(f"unexpected {foreign.group()!r}", foreign.start())
    text = _BLANKED.sub(lambda m: " " * len(m.group()), source).replace("^", "**")
    body = text.lstrip()  # eval mode refuses an indent
    try:
        with warnings.catch_warnings():  # "3not 7" warns before it is refused
            warnings.simplefilter("ignore", SyntaxWarning)
            tree = ast.parse(body, mode="eval").body
        return _tree(tree, body)
    except RecursionError:
        raise ParseError(_TOO_DEEP, 0) from None
    except SyntaxError as exc:
        # Python reports the end of input at offset 0, an unclosed bracket
        # where it opens, and a hint for commas, which the grammar refuses
        end = not exc.offset or exc.msg.endswith("was never closed")
        column = len(text) if end else exc.offset - 1 + len(text) - len(body)
        offset = column  # back through each '^', which the text writes as two characters
        for caret in (m.start() for m in re.finditer(r"\^", source)):
            if caret < offset:
                offset -= 1
        raise ParseError(exc.msg.partition(". Perhaps")[0], min(offset, len(source))) from None


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


def _const_text(value: float) -> str:
    # a negative constant is parenthesized so that it stays one atom: a base
    # printed as "-1.5 ^ 2.0" would parse as -(1.5^2), in Python as well
    text = repr(value)
    return f"({text})" if text.startswith("-") else text


def to_source(ast: ExprAst) -> str:
    k = ast.kind
    if k == "const":
        return _const_text(ast.value)
    if k == "var":
        return "t"
    if k == "neg":
        return f"(-{to_source(ast.children[0])})"
    if k in _BINARY:
        a, b = ast.children
        return f"({to_source(a)} {_OPCHAR[k]} {to_source(b)})"
    return f"{k}({to_source(ast.children[0])})"


# ---------------------------------------------------------------------------
# Compiled strict evaluation (domain violations raise EvalDomainError)
# ---------------------------------------------------------------------------

_ZERO_TO_NEGATIVE = "zero raised to a negative power"
_NEGATIVE_BASE = "negative base with non-integer exponent"
# The domain checks of each node kind: a condition on the operands `a` (and
# `b`) under which the node raises, and the message it raises with.  A
# condition reads the same on floats and on numpy arrays (`&`, not `and`;
# `b % 1.0 != 0.0` is `not b.is_integer()`, inf and nan included), so both
# back ends generate it from this one table.
_CHECKS = {
    "div": (("{b} == 0.0", "division by zero"),),
    "ln": (("{a} <= 0.0", "logarithm of a non-positive value"),),
    "log1p": (("{a} <= -1.0", "logarithm of a non-positive value"),),
    "sqrt": (("{a} < 0.0", "square root of a negative value"),),
    "sin": (("abs({a}) == _INF", "sine of an infinite value"),),
    "cos": (("abs({a}) == _INF", "cosine of an infinite value"),),
    "pow": (("({a} == 0.0) & ({b} < 0.0)", _ZERO_TO_NEGATIVE),
            ("({a} < 0.0) & ({b} % 1.0 != 0.0)", _NEGATIVE_BASE)),
}
# Node values; the scalar back end wraps exp, expm1 and pow in a try
# instead, since math raises OverflowError where numpy returns +-inf.
_VALUE = {
    "add": "{a} + {b}", "sub": "{a} - {b}", "mul": "{a} * {b}", "div": "{a} / {b}",
    "neg": "-{a}", "abs": "abs({a})", "ln": "_log({a})", "sqrt": "_sqrt({a})",
    "atan": "_atan({a})", "sin": "_sin({a})", "cos": "_cos({a})",
    "exp": "_exp({a})", "pow": "_pow({a}, {b})",
    "log1p": "_log1p({a})", "expm1": "_expm1({a})",
}
_NONFINITE = {math.inf: "_INF", -math.inf: "(-_INF)"}


def _operand(value: float, consts: list) -> str:
    """A constant as generated code: a finite one is the name _k<i> of its
    slot in `consts`, so the text is the same for every value."""
    if math.isnan(value):
        return "_NAN"
    name = _NONFINITE.get(value)
    if name is None:
        name = f"_k{len(consts)}"
        consts.append(value)
    return name


def _fused(node: ExprAst):
    """(kind, children) that `node` is emitted as: ln(1 + x) and ln(x + 1)
    as log1p(x), exp(x) - 1 as expm1(x), which keep the digits of a small
    x that 1 + x and exp(x) - 1 round away; any other node as itself."""
    k, children = node.kind, node.children
    if k == "ln" and children[0].kind == "add":
        a, b = children[0].children
        if _is_const(a, 1.0):
            return "log1p", (b,)
        if _is_const(b, 1.0):
            return "log1p", (a,)
    elif k == "sub" and children[0].kind == "exp" and _is_const(children[1], 1.0):
        return "expm1", children[0].children
    return k, children


def _checks(kind: str, node: ExprAst):
    """The checks of `node` emitted as `kind`; a constant exponent settles
    the pow checks now."""
    if kind != "pow" or node.children[1].kind != "const":
        return _CHECKS.get(kind, ())
    b = node.children[1].value
    checks = []
    if b < 0.0:
        checks.append(("{a} == 0.0", _ZERO_TO_NEGATIVE))
    if not b.is_integer():
        checks.append(("{a} < 0.0", _NEGATIVE_BASE))
    return checks


def _lanes(scalar, t: np.ndarray) -> np.ndarray:
    """The scalar evaluator lane by lane: its error, at its first failing lane."""
    return np.array([scalar(x) for x in t.ravel().tolist()], dtype=float).reshape(t.shape)


def _shaped(value, t: np.ndarray) -> np.ndarray:
    """A result of t's shape; a body that does not read t broadcasts."""
    if isinstance(value, np.ndarray) and value.shape == t.shape:
        return value
    return np.full(t.shape, value, dtype=float)


# The functions each back end binds to the names the bodies call.
_SCALAR_ENV = {"_exp": math.exp, "_log": math.log, "_sqrt": math.sqrt,
               "_atan": math.atan, "_sin": math.sin, "_cos": math.cos,
               "_log1p": math.log1p, "_expm1": math.expm1}
_VECTOR_ENV = {"_exp": np.exp, "_log": np.log, "_sqrt": np.sqrt, "_atan": np.arctan,
               "_sin": np.sin, "_cos": np.cos, "_pow": np.power, "_any": np.any,
               "_log1p": np.log1p, "_expm1": np.expm1,
               "_np": np, "_lanes": _lanes, "_shaped": _shaped}


def _emit(ast: ExprAst, var: str, nodes: list, consts: list, scalar: list,
          vec: list | None = None) -> str:
    """Write the strict evaluation of `ast` at t = `var`; return the operand
    that holds its value.

    The walk appends straight-line code to `scalar`, over Python floats,
    and to `vec`, over numpy arrays, when one is given: one local v<k> per
    operation node, k counting `nodes`, and the checks of _CHECKS in node
    order; ln(1 + x) and exp(x) - 1 are one node each (_fused).  A finite
    constant is read from the global _k<i>, i counting `consts`, so the
    code is that of the tree's shape and the checks its constant exponents
    settle.  A failing scalar check raises EvalDomainError with its node and
    `var` as t; a failing vector check returns the scalar evaluator `_f`
    run lane by lane.
    """
    def emit(node: ExprAst) -> str:
        k = node.kind
        if k == "const":
            return _operand(node.value, consts)
        if k == "var":
            return var
        k, children = _fused(node)
        ops = dict(zip("ab", (emit(c) for c in children)))
        for condition, message in _checks(k, node):
            condition = condition.format(**ops)
            scalar.append(f"    if {condition}:")
            scalar.append(f"        raise _Err({message!r}, _NODES[{len(nodes)}], {var})")
            if vec is not None:
                vec.append(f"        if _any({condition}): return _lanes(_f, t)")
        nodes.append(node)
        out = f"v{len(nodes)}"
        value = f"{out} = {_VALUE[k].format(**ops)}"
        if vec is not None:
            vec.append(f"        {value}")
        if k in ("exp", "expm1"):
            scalar.extend((f"    try: {value}", f"    except OverflowError: {out} = _INF"))
        elif k == "pow":
            a, b = ops["a"], ops["b"]
            scalar.extend((f"    try: {out} = {a} ** {b}",
                           # |a|^b overflowed; the sign is that of a^b
                           f"    except OverflowError: {out} = _INF if {a} > 0.0 or {b} % 2.0 == 0.0 "
                           "else -_INF"))
        else:
            scalar.append(f"    {value}")
        return out

    try:
        return emit(ast)
    finally:
        emit = None  # emit calls itself through its closure: break that cycle


# Bound of the per-process store of generated code (_code); a run over more
# expression shapes than this compiles the ones it evicted again.
_CODE_SHAPES = 256


@functools.lru_cache(maxsize=_CODE_SHAPES)
def _code(text: str, filename: str) -> types.CodeType:
    """The code object of the one function that `text` defines."""
    module = compile(text, filename, "exec")
    return next(c for c in module.co_consts if isinstance(c, types.CodeType))


def _function(lines: list, filename: str, nodes: list, consts: list, env: dict):
    """The function that `lines` define, over a fresh globals dict: env,
    then the names every body reads and this instance's _NODES and _k<i>.

    It runs a copy of the stored code object: the interpreter specializes
    a global read for one globals dict, and two evaluators of one shape
    called in turn through one code object would undo each other's.
    """
    scope = {**env, "_Err": EvalDomainError, "_NODES": tuple(nodes), "_INF": math.inf,
             "_NAN": math.nan}
    scope.update((f"_k{i}", value) for i, value in enumerate(consts))
    return types.FunctionType(_code("\n".join(lines), filename).replace(), scope)


def _compile(ast: ExprAst, scalar_fn=None):
    """Generate the strict evaluator of `ast`; see compile_scalar.

    One walk over the tree (_emit) writes two straight-line bodies: the
    scalar one over Python floats and the vector one over numpy arrays,
    with the same locals, the same checks from _CHECKS and the same node
    order.  Given scalar_fn, the scalar evaluator of the same tree, only the
    vector body is built: a vector check is a mask, and when any lane
    fails it, the vector evaluator returns scalar_fn run lane by lane, so
    the error (message, node and t) is the scalar one.  Each body is
    compiled once per shape (_code); an evaluator binds its own constants.
    A tree too deep for the walk, as the derivative of a long chain of
    powers is, raises ParseError "expression nested too deeply" at 0.
    """
    scalar = ["def _f(t):", "    t = float(t)"]
    vec = None if scalar_fn is None else [
        "def _fv(t):", "    t = _np.array(t, dtype=float)", "    with _np.errstate(all='ignore'):"]
    nodes: list[ExprAst] = []
    consts: list[float] = []
    try:
        root = _emit(ast, "t", nodes, consts, scalar, vec)
    except RecursionError:  # a derivative may nest deeper than the parser allowed
        raise ParseError(_TOO_DEEP, 0) from None
    if vec is None:
        scalar.append(f"    return {root}")
        return _function(scalar, "<sel_lab expression>", nodes, consts, _SCALAR_ENV)
    vec.append(f"        return _shaped({root}, t)")
    return _function(vec, "<sel_lab expression>", nodes, consts,
                     {**_VECTOR_ENV, "_f": scalar_fn})


def compose_scalar(params: str, lines, env: dict):
    """Generate one straight-line function of `params` with expressions inlined.

    Each item of `lines` is a line of Python source (indented relative to
    the body) or a term (name, ast, arg): the strict evaluation of ast at
    t = float(arg), which binds its value to the local `name`.  An inlined
    term runs the code of ast's compile_scalar evaluator, checks, exp and
    pow overflow included, and raises EvalDomainError with its own node and
    t.  arg is an expression over the parameters; it is evaluated and
    converted once, at the first term that reads it, so a line must not
    rebind what it reads.  The generated locals are v<k> and t<k> and the
    constants the globals _k<i>; env binds every other free name of the
    lines.  The code is compiled once per shape of the whole function.
    """
    body = [f"def _composed({params}):"]
    nodes: list[ExprAst] = []
    consts: list[float] = []
    converted: dict[str, str] = {}
    for line in lines:
        if isinstance(line, str):
            body.append(f"    {line}")
            continue
        name, ast, arg = line
        var = converted.get(arg)
        if var is None and ast.kind != "const":  # a constant reads no t
            var = converted[arg] = f"t{len(converted)}"
            body.append(f"    {var} = float({arg})")
        body.append(f"    {name} = {_emit(ast, var, nodes, consts, body)}")
    return _function(body, "<sel_lab composed source>", nodes, consts, {**env, **_SCALAR_ENV})


def compile_scalar(ast: ExprAst):
    """Compile `ast` to a strict Python function of t.

    The generated function is straight-line code with one local per
    operation node.  A point outside a node's domain (ln of <= 0, sqrt of
    < 0, division by 0, 0 to a negative power, a negative base to a
    non-integer power, sin/cos of inf) raises EvalDomainError naming that
    sub-expression and t.  Overflow of exp and ^ yields IEEE +-inf, as the
    other operations do.  t is converted to float once, so numpy scalars
    get Python float semantics.  ScalarFn.vector() is the numpy back end
    of the same codegen.  Trees that differ only in their constants (and
    agree in the checks their constant exponents settle) share one
    compiled code object; each evaluator binds its own constants.
    """
    return _compile(ast)


# ---------------------------------------------------------------------------
# ScalarFn: an expression plus its lazily built exact derivative
# ---------------------------------------------------------------------------

@dataclass
class ScalarFn:
    """Callable wrapper around an ExprAst; compiles once, differentiates lazily."""

    body: ExprAst
    _derivative: ExprAst | None = field(default=None, repr=False, compare=False)
    _derivative_fn: "ScalarFn | None" = field(default=None, repr=False, compare=False)
    _fast: object = field(default=None, repr=False, compare=False)
    _vector: object = field(default=None, repr=False, compare=False)

    @classmethod
    def from_source(cls, source: str) -> "ScalarFn":
        return cls(parse_expression(source))

    def __call__(self, t: float) -> float:
        return self.fast()(t)

    @property
    def derivative(self) -> ExprAst:
        if self._derivative is None:
            self._derivative = differentiate(self.body)
        return self._derivative

    def deriv(self, t: float) -> float:
        return self.derivative_fn()(t)

    def derivative_fn(self) -> "ScalarFn":
        if self._derivative_fn is None:
            self._derivative_fn = ScalarFn(self.derivative)
        return self._derivative_fn

    def fast(self):
        """The compiled evaluator; hot loops bind it once."""
        if self._fast is None:
            self._fast = compile_scalar(self.body)
        return self._fast

    def vector(self):
        """The numpy back end of the same codegen: an array of t in, an array
        of the same shape out, and the scalar evaluator's own EvalDomainError
        at the first lane outside the domain; mesh sweeps bind it once."""
        if self._vector is None:
            self._vector = _compile(self.body, self.fast())
        return self._vector

    def many(self, t) -> np.ndarray:
        """The expression at every point of the array t, by vector()."""
        return self.vector()(t)
