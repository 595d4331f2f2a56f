import builtins
import functools
import gc
import math
import random
import struct
from ast import PyCF_ONLY_AST

import numpy as np
import pytest

from sel_lab import bifurcation, expr
from sel_lab.bifurcation import EPS_BOUNDARY, LEFProblem, _lef_source
from sel_lab.expr import (
    EvalDomainError,
    ExprAst,
    ParseError,
    ScalarFn,
    compile_scalar,
    differentiate,
    parse_expression,
    substitute,
    to_source,
)
from sel_lab.karamata import Nonlinearity


@pytest.fixture(autouse=True)
def _empty_code_store():
    # the store of compiled shapes lives as long as the process: each test
    # starts from an empty one, whatever ran before it
    expr._code.cache_clear()


def const(v):
    return ExprAst("const", float(v))


VAR = ExprAst("var")


def evaluate(ast, t):
    return compile_scalar(ast)(t)


class TestParse:
    def test_grammar_identity(self):
        ast = parse_expression("t^2/2")
        assert ast == ExprAst("div", children=(
            ExprAst("pow", children=(VAR, const(2.0))), const(2.0)))

    def test_paper_example_exp_minus_one(self):
        ast = parse_expression("exp(t)-1")
        assert ast == ExprAst("sub", children=(
            ExprAst("exp", children=(VAR,)), const(1.0)))

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("ln(")
        assert err.value.offset == 3

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse_expression("x + 1")
        with pytest.raises(ParseError):
            parse_expression("foo(t)")

    def test_unary_minus_binds_looser_than_pow(self):
        # -t^2 is -(t^2)
        assert evaluate(parse_expression("-t^2"), 2.0) == -4.0

    def test_pow_right_associative(self):
        assert evaluate(parse_expression("2^3^2"), 0.0) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse_expression("2^-1"), 0.0) == 0.5

    def test_precedence(self):
        assert evaluate(parse_expression("1+2*3"), 0.0) == 7.0

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("t t")

    def test_scientific_notation(self):
        assert evaluate(parse_expression("1e-3*t"), 2.0) == pytest.approx(2e-3)


# ---------------------------------------------------------------------------
# The grammar, string by string
# ---------------------------------------------------------------------------
# Each generator draws a string of one production of the EBNF in expr's
# docstring together with the tree it must parse to: left-associative + - * /,
# right-associative ^, unary minus folded into a constant operand, and any
# blanks between tokens.

_BLANKS = ("", "", "", " ", "  ", "\t", "\n", "\xa0")
_NUMBERS = ("0", "7", "007", "00", "0.5", ".5", "5.", "00.25", "2.5e3", "1E-3", "1e+007",
            "1.e5", "3.25e-02", "1e400", "123456789012")


def _blank(rng):
    return rng.choice(_BLANKS)


def _gen_expr(rng, depth):
    text, tree = _gen_term(rng, depth)
    for _ in range(rng.randint(0, 2) if depth < 4 else 0):
        op = rng.choice("+-")
        rhs, rtree = _gen_term(rng, depth + 1)
        text, tree = text + _blank(rng) + op + _blank(rng) + rhs, \
            ExprAst("add" if op == "+" else "sub", children=(tree, rtree))
    return text, tree


def _gen_term(rng, depth):
    text, tree = _gen_factor(rng, depth)
    for _ in range(rng.randint(0, 2) if depth < 4 else 0):
        op = rng.choice("*/")
        rhs, rtree = _gen_factor(rng, depth + 1)
        text, tree = text + _blank(rng) + op + _blank(rng) + rhs, \
            ExprAst("mul" if op == "*" else "div", children=(tree, rtree))
    return text, tree


def _gen_factor(rng, depth):
    if rng.random() < 0.2:
        text, tree = _gen_factor(rng, depth + 1)
        folded = const(-tree.value) if tree.kind == "const" else ExprAst("neg", children=(tree,))
        return "-" + _blank(rng) + text, folded
    text, tree = _gen_atom(rng, depth)
    if depth < 5 and rng.random() < 0.3:
        exponent, etree = _gen_factor(rng, depth + 1)
        return text + _blank(rng) + "^" + _blank(rng) + exponent, \
            ExprAst("pow", children=(tree, etree))
    return text, tree


def _gen_atom(rng, depth):
    pick = rng.random() if depth < 5 else rng.random() * 0.6
    if pick < 0.3:
        return "t", VAR
    if pick < 0.6:
        number = rng.choice(_NUMBERS)
        return number, const(float(number))
    text, tree = _gen_expr(rng, depth + 1)
    inner = "(" + _blank(rng) + text + _blank(rng) + ")"
    if pick < 0.8:
        return inner, tree
    func = rng.choice(expr._FUNCS)
    return func + _blank(rng) + inner, ExprAst(func, children=(tree,))


def test_grammar_strings_parse_to_their_trees():
    rng = random.Random(55)
    kinds = set()
    for _ in range(3000):
        text, tree = _gen_expr(rng, 0)
        text = _blank(rng) + text + _blank(rng)
        assert parse_expression(text) == tree, repr(text)
        kinds.add(tree.kind)
    assert kinds == {"const", "var", "neg", "add", "sub", "mul", "div", "pow", *expr._FUNCS}


@pytest.mark.parametrize("source", [
    "t**2", "...", "1_000", "0x10", "1j", "+t", "t, 2", "[t]", "t # c", '"t"', "t.real",
    "not t", "t and t", "t if t else 1", "lambda t: t", "exp(t, 2)", "exp(x=t)", "ln",
    "t(2)", "2t", "x+1", "t\x00", "t^", "٣", "", "  ", "t)+(1", "(exp)(t)", "exp()",
    "()", "t//2", "t is t", "True", "await t", "ｔ", "exp(t)(2)", "t^*2", "1.2.3",
])
def test_strings_outside_the_grammar_are_parse_errors(source):
    with pytest.raises(ParseError) as err:
        parse_expression(source)
    assert 0 <= err.value.offset <= len(source)


@pytest.mark.parametrize("source, tree", [
    ("007", const(7.0)),
    (" t^2 ", ExprAst("pow", children=(VAR, const(2.0)))),
    ("\xa0t", VAR),
    ("1e400", const(math.inf)),
    ("1e+007", const(1e7)),
    ("-(2)", const(-2.0)),
    ("-(2+3)", ExprAst("neg", children=(ExprAst("add", children=(const(2.0), const(3.0))),))),
    ("(\nt\n)", VAR),
    pytest.param("-" * 200 + "t", functools.reduce(
        lambda tree, _: ExprAst("neg", children=(tree,)), range(200), VAR), id="200 minus signs"),
])
def test_grammar_strings_at_the_edges_parse(source, tree):
    assert parse_expression(source) == tree


@pytest.mark.parametrize("source, offset, message", [
    ("ln(", 3, ""),
    ("t^t^x", 4, "unknown identifier 'x'"),
    ("  x+1", 2, "unknown identifier 'x'"),
    ("foo(t)", 0, "unknown identifier 'foo'"),
    ("t^2 # c", 4, "unexpected '#'"),
    ("t**2", 1, "'**'"),
    pytest.param("-" * 3000 + "t", 0, "expression nested too deeply", id="3000 minus signs"),
    pytest.param("-" * 500 + "t", 201, "expression nested too deeply", id="500 minus signs"),
    pytest.param("3not 7", 5, "invalid syntax", marks=pytest.mark.filterwarnings("error")),
])
def test_parse_errors_name_their_offset(source, offset, message):
    with pytest.raises(ParseError) as err:
        parse_expression(source)
    assert err.value.offset == offset
    assert message in str(err.value)


class TestEvaluate:
    def test_cube(self):
        assert evaluate(parse_expression("t^3"), 2.0) == 8.0

    def test_log_power_nonlinearity(self):
        # f(u) = u ln^4(u+1) at u=1: direct scalar computation
        got = evaluate(parse_expression("t*ln(t+1)^4"), 1.0)
        assert got == pytest.approx(math.log(2.0) ** 4, rel=1e-15)

    def test_ln_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expression("ln(t)"), -1.0)

    def test_sqrt_domain_error(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expression("sqrt(t)"), -4.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            evaluate(parse_expression("1/t"), 0.0)

    def test_overflow_is_ieee_inf(self):
        assert evaluate(parse_expression("exp(t)"), 1e4) == math.inf

    def test_abs(self):
        assert evaluate(parse_expression("abs(t)"), -3.5) == 3.5


class TestDifferentiate:
    def test_cube(self):
        d = differentiate(parse_expression("t^3"))
        assert d == ExprAst("mul", children=(
            const(3.0), ExprAst("pow", children=(VAR, const(2.0)))))

    def test_exp_minus_one(self):
        d = differentiate(parse_expression("exp(t)-1"))
        assert d == ExprAst("exp", children=(VAR,))

    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
    def test_product_log_fd_crosscheck(self, t):
        ast = parse_expression("t*ln(t+1)")
        d = differentiate(ast)
        h = 1e-6 * (1.0 + abs(t))
        fd = (evaluate(ast, t + h) - evaluate(ast, t - h)) / (2.0 * h)
        assert evaluate(d, t) == pytest.approx(fd, abs=1e-8 * (1.0 + abs(fd)))

    def test_a_derivative_too_deep_to_compile_is_a_parse_error(self):
        # a chain of 170 powers parses, but its derivative nests deeper than
        # the evaluator's walk recurses; 150 levels still evaluate
        assert math.isfinite(ScalarFn.from_source("t^" * 150 + "t").derivative_fn()(0.5))
        with pytest.raises(ParseError, match="expression nested too deeply") as err:
            ScalarFn.from_source("t^" * 170 + "t").derivative_fn()(0.5)
        assert err.value.offset == 0

    def test_abs_derivative_errors_at_zero(self):
        d = differentiate(parse_expression("abs(t)"))
        assert evaluate(d, 2.0) == 1.0
        assert evaluate(d, -2.0) == -1.0
        with pytest.raises(EvalDomainError):
            evaluate(d, 0.0)

    def test_closure(self):
        # differentiate maps every node kind back into the AST algebra
        ast = parse_expression("atan(sin(t)*cos(t))/sqrt(t+2)+abs(t)^1.5")
        d = differentiate(ast)
        assert isinstance(d, ExprAst)
        assert math.isfinite(evaluate(d, 0.7))

    def test_constant_base(self):
        # c^v differentiates to c^v ln c v', without the general u'/u term
        ast = parse_expression("2^t")
        d = differentiate(ast)
        assert d == ExprAst("mul", children=(ast, const(math.log(2.0))))
        for t in (-3.0, 0.0, 0.5, 10.0):
            assert evaluate(d, t) == pytest.approx(math.log(2.0) * 2.0 ** t, rel=1e-15)
        inner = differentiate(parse_expression("2^(t^2)"))
        assert evaluate(inner, 1.5) == pytest.approx(
            2.0 ** 2.25 * math.log(2.0) * 3.0, rel=1e-15)


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return VAR
        return const(rng.choice([0.5, 1.0, 2.0, 3.0, -1.5, 0.25]))
    kind = rng.choice(["add", "sub", "mul", "div", "pow", "neg",
                       "exp", "ln", "sqrt", "abs", "atan", "sin", "cos"])
    if kind in ("add", "sub", "mul", "div"):
        return ExprAst(kind, children=(_random_ast(rng, depth - 1),
                                       _random_ast(rng, depth - 1)))
    if kind == "pow":
        # keep exponents constant so random trees stay real-valued
        return ExprAst("pow", children=(_random_ast(rng, depth - 1),
                                        const(rng.choice([2.0, 3.0, 0.5, -1.0]))))
    return ExprAst(kind, children=(_random_ast(rng, depth - 1),))


def test_derivative_matches_finite_differences_on_1000_random_asts():
    rng = random.Random(20240817)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 40000:
        attempts += 1
        ast = _random_ast(rng, rng.randint(1, 6))
        t = rng.uniform(-3.0, 3.0)
        h = 2e-6 * (1.0 + abs(t))
        try:
            d_exact = evaluate(differentiate(ast), t)
            f_p = evaluate(ast, t + h)
            f_m = evaluate(ast, t - h)
        except EvalDomainError:
            continue
        if not all(math.isfinite(v) and abs(v) < 1e4 for v in (d_exact, f_p, f_m)):
            continue
        fd = (f_p - f_m) / (2.0 * h)
        if abs(fd) > 1e4:
            continue
        assert abs(d_exact - fd) <= 1e-3 * (1.0 + abs(fd)), to_source(ast)
        # tighter tolerance holds for well-scaled trees
        if abs(d_exact) < 1e2:
            assert abs(d_exact - fd) <= 1e-6 * (1.0 + abs(fd)) + 1e-4 * h, to_source(ast)
        checked += 1
    assert checked == 1000


def test_parse_print_parse_idempotent_on_random_asts():
    # after one parse/print normalization round, re-parsing the canonical
    # printout reproduces the AST structurally
    rng = random.Random(7)
    for _ in range(500):
        raw = _random_ast(rng, rng.randint(0, 5))
        normal = parse_expression(to_source(raw))
        printed = to_source(normal)
        assert parse_expression(printed) == normal, printed


def test_parse_print_parse_on_source_strings():
    for src in ("t^2/2", "exp(t)-1", "-t^2", "t*ln(t+1)^4", "1/(t^2+2)",
                "atan(t)/sqrt(t+1)", "2^-3*t"):
        ast = parse_expression(src)
        assert parse_expression(to_source(ast)) == ast


def test_substitute():
    ast = parse_expression("t^2+1")
    inner = parse_expression("1/t")
    out = substitute(ast, inner)
    assert evaluate(out, 2.0) == pytest.approx(0.25 + 1.0)


def _python_reference(ast, t):
    """Python's own evaluation of the printed tree, with ^ as ** and math functions."""
    env = {name: getattr(math, name) for name in ("exp", "sqrt", "atan", "sin", "cos")}
    env.update(ln=math.log, abs=abs, t=t)
    return eval(to_source(ast).replace("^", "**"), env)  # noqa: S307 - test oracle


def test_compiled_matches_python_reference():
    rng = random.Random(99)
    compared = domain_errors = 0
    for _ in range(200):
        ast = _random_ast(rng, 4)
        fast = compile_scalar(ast)
        t = rng.uniform(0.2, 2.5)
        try:
            expected = _python_reference(ast, t)
        except OverflowError:
            continue  # Python raises where the compiled form yields inf
        except (ValueError, ZeroDivisionError, TypeError):
            expected = None  # TypeError: a complex power fed into math
        if expected is None or isinstance(expected, complex):
            with pytest.raises(EvalDomainError):
                fast(t)
            domain_errors += 1
        elif math.isfinite(expected):
            assert fast(t) == pytest.approx(expected, rel=1e-14, abs=1e-300), to_source(ast)
            compared += 1
    assert compared >= 100 and domain_errors >= 10


@pytest.mark.parametrize("src, t, where", [
    ("ln(0)", 1.0, "ln(0.0)"),
    ("sqrt(-1)", 1.0, "sqrt((-1.0))"),
    ("0^-1", 1.0, "(0.0 ^ (-1.0))"),
    ("(-8)^(1/3)", 1.0, "((-8.0) ^ (1.0 / 3.0))"),
    ("1/t", np.float64(0.0), "(1.0 / t)"),
    ("t+ln(t-1)", 0.5, "ln((t - 1.0))"),
    ("t^t", -2.5, "(t ^ t)"),
    ("sin(t)", math.inf, "sin(t)"),
])
def test_domain_errors_are_located(src, t, where):
    with pytest.raises(EvalDomainError) as err:
        compile_scalar(parse_expression(src))(t)
    assert isinstance(err.value, ValueError)
    assert to_source(err.value.node) == where and err.value.t == float(t)
    assert str(err.value).endswith(f" in {where} at t={float(t)!r}")


@pytest.mark.parametrize("src, t, expected", [
    ("(-8)^2", 0.0, 64.0),
    ("exp(1000)", 0.0, math.inf),
    ("10^400", 0.0, math.inf),
    ("(-10)^401", 0.0, -math.inf),
    ("-t^2", 3.0, -9.0),
    ("2^3^2", 0.0, 512.0),
    ("1e999", 1.0, math.inf),
    ("-1e999*t", 2.0, -math.inf),
])
def test_edge_values(src, t, expected):
    assert compile_scalar(parse_expression(src))(t) == expected


def test_sqrt_of_negative_zero_keeps_its_sign():
    got = compile_scalar(parse_expression("sqrt(t)"))(-0.0)
    assert got == 0.0 and math.copysign(1.0, got) == -1.0


def test_negative_constant_prints_as_one_atom():
    # (-1.5)^2 must not print as -1.5 ^ 2, which re-parses as -(1.5^2)
    ast = ExprAst("pow", children=(const(-1.5), const(2.0)))
    assert evaluate(parse_expression(to_source(ast)), 0.0) == 2.25


class TestScalarFn:
    def test_call_and_deriv(self):
        f = ScalarFn.from_source("t^2")
        assert f(3.0) == 9.0
        assert f.deriv(3.0) == 6.0

    def test_derivative_lazy_and_cached(self):
        f = ScalarFn.from_source("sin(t)")
        assert f._derivative is None
        d1 = f.derivative
        assert f._derivative is d1

    def test_derivative_fd_agreement_at_interior_samples(self):
        f = ScalarFn.from_source("t*atan(t)+sqrt(t+3)")
        for t in (0.5, 1.0, 2.0, 4.0):
            h = 1e-6 * (1.0 + t)
            fd = (f(t + h) - f(t - h)) / (2.0 * h)
            assert f.deriv(t) == pytest.approx(fd, abs=1e-6 * (1.0 + abs(fd)))


# ---------------------------------------------------------------------------
# The vector back end (ScalarFn.vector)
# ---------------------------------------------------------------------------

_GRID = np.concatenate((np.linspace(0.05, 6.0, 240), [1e-3, 17.5, 123.25, 700.0]))


@pytest.mark.parametrize("src", [
    "2.5", "t", "-t", "exp(t)", "ln(t)", "sqrt(t)", "abs(t-2)", "atan(t)", "sin(t)",
    "cos(t)", "t+1.5", "t-1.5", "t*1.5", "1.5/t", "t^1.7", "t^-2", "t^t", "2^t",
    "(1+t^2)^(-2)",
])
def test_vector_matches_scalar_within_four_ulp(src):
    fn = ScalarFn.from_source(src)
    scalar = np.array([fn(x) for x in _GRID.tolist()])
    vector = fn.vector()(_GRID)
    assert vector.shape == _GRID.shape and vector.dtype == float
    finite = np.isfinite(scalar)
    assert np.array_equal(vector[~finite], scalar[~finite])
    ulps = np.abs(vector[finite] - scalar[finite]) / np.spacing(np.abs(scalar[finite]))
    assert np.all(ulps <= 4.0), (src, float(np.max(ulps)))


def _scalar_failure(fn, grid):
    """The error of the scalar evaluator at its first failing lane."""
    for x in grid.tolist():
        try:
            fn(x)
        except EvalDomainError as exc:
            return exc
    raise AssertionError("no lane fails")


@pytest.mark.parametrize("src, grid", [
    ("ln(t-1)", np.linspace(3.0, -1.0, 9)),
    ("sqrt(2-t)+t", np.linspace(0.0, 3.0, 7)),
    ("1/(t-2)", np.linspace(0.0, 3.0, 7)),
    ("t^(-1.5)", np.array([2.0, 1.0, 0.0, -1.0])),
    ("(t-1)^(t-3)", np.array([3.0, 2.0, 1.0, 0.0])),
    ("t^0.5", np.array([4.0, 1.0, -0.25, -4.0])),
    ("t^(t/2)", np.array([4.0, 2.0, -3.0, -2.0])),
    ("sin(exp(t))", np.array([0.0, 10.0, 1000.0])),
    ("cos(exp(t))", np.array([0.0, 10.0, 1000.0])),
])
def test_vector_domain_error_is_the_scalar_error(src, grid):
    fn = ScalarFn.from_source(src)
    want = _scalar_failure(fn, grid)
    with pytest.raises(EvalDomainError) as err:
        fn.vector()(grid)
    got = err.value
    assert str(got) == str(want)
    assert got.node == want.node and got.t == want.t and type(got.t) is float


@pytest.mark.parametrize("src, t, expected", [
    ("exp(t)", 1000.0, math.inf),
    ("t^309", -10.0, -math.inf),
    ("(-10)^309", 0.0, -math.inf),
    ("10^400", 0.0, math.inf),
])
def test_vector_overflow_is_the_scalar_inf(src, t, expected):
    fn = ScalarFn.from_source(src)
    assert fn(t) == expected
    assert fn.vector()(np.array([1.0, t]))[1] == expected


@pytest.mark.parametrize("src, exact", [
    ("ln(1+t)", math.log1p), ("ln(t+1)", math.log1p), ("exp(t)-1", math.expm1),
])
def test_log1p_and_expm1_keep_the_digits_of_a_small_argument(src, exact):
    # 1 + t and exp(t) - 1 round away a small t; every back end writes
    # log1p and expm1 instead
    fn = ScalarFn.from_source(src)
    composed = expr.compose_scalar("x", [("v", fn.body, "x"), "return v"], {})
    ts = [1e-300, 1e-20, -1e-12, 3e-6, 0.25, 7.0]
    want = [exact(t) for t in ts]
    assert [fn(t) for t in ts] == [composed(t) for t in ts] == want
    assert fn.vector()(np.array(ts)).tolist() == np.array([exact(t) for t in ts]).tolist()
    assert fn(1e-20) == 1e-20


@pytest.mark.parametrize("src", ["ln(1+t)", "ln(t+1)"])
def test_log1p_keeps_the_check_and_message_of_ln(src):
    fn = ScalarFn.from_source(src)
    for t in (-1.0, -2.5, -math.inf):
        with pytest.raises(EvalDomainError) as err:
            fn(t)
        assert err.value.node == fn.body and err.value.t == t
        assert str(err.value) == ("logarithm of a non-positive value in "
                                  f"{to_source(fn.body)} at t={t!r}")
    with pytest.raises(EvalDomainError) as err:
        fn.vector()(np.array([0.5, -1.0]))
    assert err.value.node == fn.body and err.value.t == -1.0


def test_expm1_overflow_is_inf_in_both_back_ends():
    fn = ScalarFn.from_source("exp(t)-1")
    assert fn(1000.0) == math.inf
    assert fn.vector()(np.array([0.0, 1000.0])).tolist() == [0.0, math.inf]


def test_vector_is_built_against_the_cached_scalar_evaluator(monkeypatch):
    # the lane-by-lane fallback reuses fast(): only the vector body is compiled
    compiled = []

    def counted(*args, **kwargs):
        compiled.append(args[0])
        return compile(*args, **kwargs)

    fn = ScalarFn.from_source("sqrt(2-t)+t^4.9802")
    fast = fn.fast()
    monkeypatch.setattr(expr, "compile", counted, raising=False)
    vector = fn.vector()
    assert len(compiled) == 1 and compiled[0].startswith("def _fv(t):")
    assert fn.fast() is fast
    with pytest.raises(EvalDomainError) as err:
        vector(np.array([1.0, 3.0]))
    assert err.value.node is fn.body.children[0] and err.value.t == 3.0
    assert "sqrt((2.0 - t))" in str(err.value)


def test_vector_constant_broadcasts_and_odd_shapes():
    const_fn = ScalarFn.from_source("2^3").vector()
    assert np.array_equal(const_fn(np.zeros((2, 3))), np.full((2, 3), 8.0))
    zero_d = ScalarFn.from_source("t^2").vector()(np.array(3.0))
    assert isinstance(zero_d, np.ndarray) and zero_d.shape == () and zero_d == 9.0
    assert const_fn(np.array(1.5)).shape == ()
    for src in ("t^2", "2^3", "ln(0)"):
        out = ScalarFn.from_source(src).vector()(np.array([]))
        assert out.shape == (0,)


def test_vector_result_does_not_alias_the_input():
    t = np.array([1.0, 2.0])
    out = ScalarFn.from_source("t").vector()(t)
    out[0] = 5.0
    assert t[0] == 1.0


def test_a_compile_leaves_no_reference_cycle():
    # the codegen walk calls itself through its closure; each compile left
    # that cycle, with the walk's node and code lists, to the collector
    gc.collect()
    gc.disable()
    try:
        fn = ScalarFn.from_source("t^3.5*ln(1+t)+exp(-t)")
        fn.fast(), fn.vector()
        del fn
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# One code object per expression shape
# ---------------------------------------------------------------------------
# The reference is the code generator that wrote each constant into the
# text as a literal and compiled every evaluator on its own.  Evaluators
# that share the code of their shape and bind their constants by value must
# return the same floats, bit for bit, and raise the same errors.

def _literal(value):
    if math.isnan(value):
        return "_NAN"
    return {math.inf: "_INF", -math.inf: "(-_INF)"}.get(value) or expr._const_text(value)


def _reference_emit(ast, var, nodes, scalar, vec=None):
    def emit(node):
        k = node.kind
        if k == "const":
            return _literal(node.value)
        if k == "var":
            return var
        k, children = expr._fused(node)
        ops = dict(zip("ab", (emit(c) for c in children)))
        for condition, message in expr._checks(k, node):
            condition = condition.format(**ops)
            scalar.append(f"    if {condition}:")
            scalar.append(f"        raise _Err({message!r}, _NODES[{len(nodes)}], {var})")
            if vec is not None:
                vec.append(f"        if _any({condition}): return _lanes(_f, t)")
        nodes.append(node)
        out = f"v{len(nodes)}"
        value = f"{out} = {expr._VALUE[k].format(**ops)}"
        if vec is not None:
            vec.append(f"        {value}")
        if k in ("exp", "expm1"):
            scalar.extend((f"    try: {value}", f"    except OverflowError: {out} = _INF"))
        elif k == "pow":
            a, b = ops["a"], ops["b"]
            scalar.extend((f"    try: {out} = {a} ** {b}",
                           f"    except OverflowError: {out} = _INF if {a} > 0.0 or {b} % 2.0 == 0.0 "
                           "else -_INF"))
        else:
            scalar.append(f"    {value}")
        return out

    return emit(ast)


def _reference_scalar_env(nodes):
    return {"_Err": EvalDomainError, "_NODES": tuple(nodes), "_INF": math.inf,
            "_NAN": math.nan, **expr._SCALAR_ENV}


def _reference_compile(ast, scalar_fn=None):
    scalar = ["def _f(t):", "    t = float(t)"]
    vec = None if scalar_fn is None else [
        "def _fv(t):", "    t = _np.array(t, dtype=float)", "    with _np.errstate(all='ignore'):"]
    nodes = []
    root = _reference_emit(ast, "t", nodes, scalar, vec)
    if vec is None:
        scalar.append(f"    return {root}")
        env = _reference_scalar_env(nodes)
        exec(compile("\n".join(scalar), "<sel_lab expression>", "exec"), env)  # noqa: S102
        return env["_f"]
    vec.append(f"        return _shaped({root}, t)")
    env = {"_f": scalar_fn, "_INF": math.inf, "_NAN": math.nan, **expr._VECTOR_ENV}
    exec(compile("\n".join(vec), "<sel_lab expression>", "exec"), env)  # noqa: S102
    return env["_fv"]


def _reference_compose_scalar(params, lines, env):
    body, nodes, converted = [], [], {}
    for line in lines:
        if isinstance(line, str):
            body.append(f"    {line}")
            continue
        name, ast, arg = line
        var = converted.get(arg)
        if var is None and ast.kind != "const":
            var = converted[arg] = f"t{len(converted)}"
            body.append(f"    {var} = float({arg})")
        body.append(f"    {name} = {_reference_emit(ast, var, nodes, body)}")
    scope = {**env, **_reference_scalar_env(nodes)}
    source = "\n".join([f"def _composed({params}):"] + body)
    exec(compile(source, "<sel_lab composed source>", "exec"), scope)  # noqa: S102
    return scope["_composed"]


def _count_compiles(monkeypatch):
    """The sources the builtin compile makes code of from now on; a call
    with PyCF_ONLY_AST (ast.parse, as parse_expression reads an
    expression) makes a tree, not code, and is not counted."""
    calls, real = [], builtins.compile

    def counted(source, filename, mode, flags=0, *args, **kwargs):
        if not flags & PyCF_ONLY_AST:
            calls.append(source)
        return real(source, filename, mode, flags, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    return calls


def _bits(fn, *args):
    """fn's float, bit for bit, or its EvalDomainError: message, node and t."""
    try:
        value = fn(*args)
    except EvalDomainError as err:
        return "error", str(err), id(err.node), repr(err.t)
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    return "value", type(value), struct.pack("<d", value)


# both signs across the whole float range, the neighbourhood of 0, and the
# points where t^p overflows, sqrt(c - t) leaves its domain and ln(1 + t) hits 0
_BIT_GRID = np.concatenate((
    np.geomspace(1e-300, 1e300, 3000), -np.geomspace(1e-300, 1e300, 3000),
    np.linspace(-4.0, 4.0, 4001), [0.0, -0.0, math.inf, -math.inf, math.nan, -1.0]))

# two instances of each shape; the derivatives of each pair share a shape too
_SHAPE_PAIRS = [
    ("t^2.5", "t^3.7"),
    ("t^3", "t^7"),
    ("sqrt(2-t)+t^4.9802", "sqrt(3-t)+t^1.5"),
    ("t^1.7*ln(1+t)^2.3", "t^2.2*ln(1+t)^1.6"),
]


def _evaluators(ast, compose=expr.compose_scalar, build=expr._compile):
    """The scalar, vector and composed evaluators of ast."""
    scalar = build(ast)
    return scalar, build(ast, scalar), compose("x", [("v", ast, "x"), "return v"], {})


def _assert_same_bits(ast, built):
    scalar, vector, composed = built
    ref_scalar, ref_vector, ref_composed = _evaluators(
        ast, _reference_compose_scalar, _reference_compile)
    points = _BIT_GRID.tolist()
    got = [_bits(scalar, x) for x in points]
    assert got == [_bits(ref_scalar, x) for x in points]
    assert [_bits(composed, x) for x in points] == got
    assert [_bits(ref_composed, x) for x in points] == got
    # the vector back ends on the lanes where the scalar one has a value, and
    # on the whole grid, where the error is that of the first failing lane
    ok = np.array([x for x, out in zip(points, got) if out[0] == "value"])
    assert ok.size >= 2000
    assert _bits(vector, ok) == _bits(ref_vector, ok)
    assert _bits(vector, _BIT_GRID) == _bits(ref_vector, _BIT_GRID)
    return got


@pytest.mark.parametrize("pair", _SHAPE_PAIRS)
def test_one_shape_gives_the_literal_reference_bits(monkeypatch, pair):
    first, second = (parse_expression(src) for src in pair)
    asts = [first, differentiate(first), second, differentiate(second)]
    built = [_evaluators(ast) for ast in asts[:2]]
    calls = _count_compiles(monkeypatch)
    built += [_evaluators(ast) for ast in asts[2:]]
    assert calls == []  # the second instance reuses the first one's code
    monkeypatch.undo()
    outcomes = [_assert_same_bits(ast, evaluators) for ast, evaluators in zip(asts, built)]
    if pair == ("t^3", "t^7"):  # no checks; an odd power overflows to -inf
        assert [built[2][0](x) for x in (-1e300, 1e300)] == [-math.inf, math.inf]
    else:  # the grid leaves the domain
        assert any(out[0] == "error" for got in outcomes for out in got)


def _lef_problem(lam, alpha):
    g = ScalarFn.from_source(f"t^(-{alpha})")
    return LEFProblem(N=1, lam=lam, f=Nonlinearity(f=ScalarFn.from_source("t"), fprime=None,
                                                    source="t"),
                      g=Nonlinearity(f=g, fprime=None, source=f"t^(-{alpha})"),
                      a_pot=ScalarFn.from_source("1+t"))


def test_lef_sources_of_one_mode_give_the_literal_reference_bits(monkeypatch):
    first = _lef_problem(2.0, 0.5)
    source = _lef_source(first)
    calls = _count_compiles(monkeypatch)
    second = _lef_problem(7.25, 0.3)
    other = _lef_source(second)
    assert calls == []
    assert other.__code__ == source.__code__
    monkeypatch.setattr(bifurcation, "compose_scalar", _reference_compose_scalar)
    references = [_lef_source(first), _lef_source(second)]
    monkeypatch.undo()
    floor = EPS_BOUNDARY / 100.0
    # below, at and above the floor clamp; u past 1e308 / lam, where the
    # source overflows and saturates; nan
    us = np.concatenate((np.geomspace(1e-300, 1e308, 800), -np.geomspace(1e-300, 1e300, 200),
                         [0.0, floor, math.nan, math.inf, -math.inf])).tolist()
    points = [(r, u, du) for r in (0.0, 0.3, 1.0) for u in us
              for du in (0.0, -0.7, 1e200, math.nan)]
    assert len(points) >= 10000
    for fn, ref in zip((source, other), references):
        got = [_bits(fn, *p) for p in points]
        assert got == [_bits(ref, *p) for p in points]
        values = {struct.unpack("<d", out[2])[0] for out in got}
        assert {-1e15, 1e15} <= values  # saturated: overflow to -inf, and nan
        assert fn(0.3, -1.0, 0.0) == fn(0.3, floor, 0.0)  # the floor clamp


def test_constants_and_nodes_stay_with_their_instance():
    two, three = ScalarFn.from_source("sqrt(2-t)"), ScalarFn.from_source("sqrt(3-t)")
    f2, f3 = two.fast(), three.fast()
    assert f2.__code__ == f3.__code__
    with pytest.raises(EvalDomainError) as err:
        f2(2.5)
    assert "sqrt((2.0 - t))" in str(err.value) and err.value.node is two.body
    assert f3(2.5) == math.sqrt(0.5)
    # a failing lane re-raises the scalar error of the vector's own instance
    with pytest.raises(EvalDomainError) as err:
        two.vector()(np.array([1.0, 2.5]))
    assert err.value.node is two.body and err.value.t == 2.5
    assert np.array_equal(three.vector()(np.array([1.0, 2.5])), [math.sqrt(2.0), math.sqrt(0.5)])
    with pytest.raises(EvalDomainError) as err:
        three.vector()(np.array([1.0, 3.5]))
    assert err.value.node is three.body and err.value.t == 3.5
    assert "sqrt((3.0 - t))" in str(err.value)


def test_an_evicted_shape_is_rebuilt_to_the_same_bits(monkeypatch):
    ast = parse_expression("t^1.7*ln(1+t)^2.3")
    before = compile_scalar(ast)
    # as many other shapes as the store holds: nests of sin and cos
    for i in range(expr._CODE_SHAPES):
        src = "t"
        for bit in range(8):
            src = f"{'sin' if i >> bit & 1 else 'cos'}({src})"
        compile_scalar(parse_expression(src))
    calls = _count_compiles(monkeypatch)
    after = compile_scalar(ast)
    assert len(calls) == 1
    monkeypatch.undo()
    points = _BIT_GRID.tolist()
    assert [_bits(after, x) for x in points] == [_bits(before, x) for x in points]
