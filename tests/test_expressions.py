"""Expression parsing, printing, differentiation, and the two evaluators."""

import importlib.util
import json
import math
import pathlib
import random
import sys
from fractions import Fraction
from operator import add, mul, sub, truediv

import pytest

from projmet import cli, invariants, jets
from projmet.invariants import JetStructure
from projmet import expressions as ex
from projmet.jets import Jet, SingularEvaluationError
from projmet.expressions import (
    ExactModeError,
    ExprSyntaxError,
    NonIntegerExponentError,
    UnknownIdentifierError,
    differentiate,
    eval_jet,
    eval_scalar,
    parse_expr,
    to_string,
)


@pytest.mark.parametrize("src", [
    "x",
    "x+y",
    "x*y - 3",
    "2/3",
    "x^2 + y^3",
    "-x^2",
    "(x+y)*(x-y)",
    "exp(x*y)",
    "sin(x)+cos(y)",
    "1/(1+x)",
    "x^(-3)",
    "6*y^2+x",
    "sqrt(1+x^2)",
])
def test_parse_print_roundtrip(src):
    tree = parse_expr(src)
    printed = to_string(tree)
    assert parse_expr(printed) == tree


def test_printer_is_reparseable_on_random_trees():
    rng = random.Random(11)
    for _ in range(60):
        tree = _random_tree(rng, 4)
        printed = to_string(tree)
        assert parse_expr(printed) == tree


def test_rational_literal_folds_exactly():
    tree = parse_expr("2/3")
    assert tree == ex.Num(Fraction(2, 3))
    tree = parse_expr("(1/2)*x")
    assert eval_scalar(tree, Fraction(4), Fraction(0)) == 2


def test_integer_exponent_required():
    with pytest.raises(NonIntegerExponentError):
        parse_expr("x^y")
    with pytest.raises(NonIntegerExponentError):
        parse_expr("x^(1/2)")
    err = None
    try:
        parse_expr("x^(1/2)")
    except NonIntegerExponentError as caught:
        err = caught
    assert err.offset is not None


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("x + ")
    assert info.value.offset == 4
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("x ? y")
    assert info.value.offset == 2
    with pytest.raises(UnknownIdentifierError):
        parse_expr("tan(x)")
    with pytest.raises(UnknownIdentifierError):
        parse_expr("x + z")


def test_unbalanced_parens():
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x + y")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + y)")


def test_eval_scalar_basics():
    tree = parse_expr("x^2*y - 1/2")
    assert eval_scalar(tree, Fraction(2), Fraction(3)) == Fraction(23, 2)
    tree = parse_expr("exp(x)+sin(y)")
    got = eval_scalar(tree, 0.0, math.pi / 2)
    assert abs(got - 2.0) < 1e-12


@pytest.mark.parametrize("point", [(0, 0), (Fraction(-1, 4), 0)])
def test_eval_scalar_refuses_sqrt_where_a_jet_does(point):
    tree = parse_expr("1 + sqrt(x)")
    with pytest.raises(SingularEvaluationError,
                       match="sqrt of a non-positive value"):
        eval_scalar(tree, *point)
    with pytest.raises(SingularEvaluationError,
                       match="sqrt of a non-positive value"):
        eval_jet(tree, point, 3, "float")


def test_eval_jet_matches_scalar_value():
    tree = parse_expr("(x+2*y)^3 - x*y")
    j = eval_jet(tree, (Fraction(1), Fraction(1)), 3, "rational")
    assert j.value == eval_scalar(tree, Fraction(1), Fraction(1))
    assert j.exact


def test_exact_mode_rejects_transcendental():
    tree = parse_expr("exp(x)")
    with pytest.raises(ExactModeError):
        eval_jet(tree, (Fraction(0), Fraction(0)), 3, "rational")
    # auto mode silently degrades to floats instead
    j = eval_jet(tree, (Fraction(0), Fraction(0)), 3, "auto")
    assert not j.exact


def test_one_arithmetic_per_tree_set_and_point():
    poly, trans = parse_expr("x*y + 1/3"), parse_expr("sin(x)")
    exact, rounded = (Fraction(1), Fraction(1, 2)), (1.0, Fraction(1, 2))
    choose = ex.choose_arithmetic
    assert choose([poly], exact, "auto") == "rational"
    assert choose([poly], ("1/3", 2), "rational") == "rational"
    assert choose([poly, trans], exact, "auto") == "float"
    assert choose([poly], rounded, "auto") == "float"
    for trees, point in (([poly], exact), ([trans], rounded)):
        assert choose(trees, point, "float") == "float"
    with pytest.raises(ExactModeError, match="transcendental"):
        choose([poly, trans], rounded, "rational")
    with pytest.raises(ExactModeError, match=r"float point \(1.0, 1/2\)"):
        choose([poly], rounded, "rational")
    with pytest.raises(ValueError, match="mode must be"):
        choose([poly], exact, "exact")
    # every jet of a point comes out in the chosen arithmetic
    assert not eval_jet(poly, rounded, 2, "auto").exact
    with pytest.raises(ExactModeError):
        eval_jet(poly, rounded, 2, "rational")


@pytest.mark.parametrize("src", ["2+sin(exp(700)*exp(700)*x)",
                                 "cos(exp(700)*exp(700)*x)"])
def test_sin_and_cos_of_a_non_finite_value_are_singular(src):
    tree = parse_expr(src)
    name = src[src.index("(") - 3:src.index("(")]
    for evaluate in (ex.compile_float([tree]),
                     lambda x, y: eval_scalar(tree, x, y)):
        with pytest.raises(SingularEvaluationError,
                           match=r"%s of a non-finite value \(base point "
                                 r"\(1, 0\)\)" % name):
            evaluate(1, 0)


@pytest.mark.parametrize("src, point, message", [
    ("log(x)", (0, 1), "log of a non-positive value"),
    ("log(x)", (Fraction(-1, 4), 1), "log of a non-positive value"),
    ("sqrt(y)", (1, 0), "sqrt of a non-positive value"),
    ("sqrt(y)", (1, -2), "sqrt of a non-positive value"),
    ("sin(exp(700)*exp(700)*x)", (1, 0), "sin of a non-finite value"),
    ("cos(exp(700)*exp(700)*x)", (1, 0), "cos of a non-finite value"),
    ("1/x", (0, 1), "division by zero"),
    ("1/x", (0.0, 1.0), "division by zero"),
    ("x^(-2)", (0, 1), "zero raised to a negative power"),
    ("x^(-2)", (0.0, 1.0), "zero raised to a negative power"),
])
def test_every_evaluator_refuses_a_domain_failure_with_one_message(
        src, point, message):
    """`auto` gives exact jets at a rational point of a polynomial tree and
    float jets otherwise, so both jet arithmetics are covered."""
    tree = parse_expr(src)
    for evaluate in (lambda: eval_jet(tree, point, 4, "auto"),
                     lambda: eval_scalar(tree, *point),
                     lambda: ex.compile_float([tree])(*point)):
        with pytest.raises(SingularEvaluationError) as err:
            evaluate()
        assert str(err.value).split(" (base point")[0] == message


def test_differentiate_simple():
    tree = parse_expr("x^3*y")
    dx = differentiate(tree, "x")
    assert eval_scalar(dx, Fraction(2), Fraction(5)) == 60
    dy = differentiate(tree, "y")
    assert eval_scalar(dy, Fraction(2), Fraction(5)) == 8


def test_differentiate_quotient_and_calls():
    tree = parse_expr("sin(x*y)/(1+x^2)")
    dx = differentiate(tree, "x")
    x0, y0 = 0.3, 0.8
    h = 1e-6
    numeric = (eval_scalar(tree, x0 + h, y0)
               - eval_scalar(tree, x0 - h, y0)) / (2 * h)
    assert abs(eval_scalar(dx, x0, y0) - numeric) < 1e-8


def _random_tree(rng, depth):
    """Random expression over x, y with rational constants."""
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.4:
            return ex.Var("x")
        if pick < 0.8:
            return ex.Var("y")
        return ex.Num(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    pick = rng.random()
    if pick < 0.30:
        return ex.BinOp("+", _random_tree(rng, depth - 1),
                        _random_tree(rng, depth - 1))
    if pick < 0.55:
        return ex.BinOp("*", _random_tree(rng, depth - 1),
                        _random_tree(rng, depth - 1))
    if pick < 0.70:
        return ex.BinOp("-", _random_tree(rng, depth - 1),
                        _random_tree(rng, depth - 1))
    if pick < 0.80:
        return ex.Pow(_random_tree(rng, depth - 1), rng.randint(2, 3))
    if pick < 0.90:
        arg = _random_tree(rng, depth - 1)
        # the parser folds negated literals, so never build Neg(Num(...))
        if isinstance(arg, ex.Num):
            return ex.Num(-arg.value)
        return ex.Neg(arg)
    return ex.Call(rng.choice(("exp", "sin", "cos")),
                   _random_tree(rng, depth - 1))


def test_jet_partials_match_symbolic_derivatives():
    """Independent oracle: jet coefficients vs differentiate + eval_scalar.

    For thirty random trees, every partial up to total order four computed
    through jet arithmetic must match the value of the symbolically
    differentiated tree at the same point.
    """
    rng = random.Random(1234)
    checked = 0
    trees = 0
    while trees < 30:
        tree = _random_tree(rng, 5)
        exact = not ex.has_transcendental(tree)
        base = ((Fraction(rng.randint(-2, 2), 2),
                 Fraction(rng.randint(-2, 2), 2)) if exact
                else (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        try:
            j = eval_jet(tree, base, 4, "rational" if exact else "float")
        except (ZeroDivisionError, ex.ExprError, ArithmeticError, ValueError):
            continue
        trees += 1
        for i in range(5):
            for k in range(5 - i):
                d = tree
                for _ in range(i):
                    d = differentiate(d, "x")
                for _ in range(k):
                    d = differentiate(d, "y")
                try:
                    want = eval_scalar(d, base[0], base[1])
                except ArithmeticError:
                    continue
                got = j.partial(i, k)
                if exact:
                    assert got == want
                else:
                    scale = max(1.0, abs(float(want)))
                    assert abs(float(got) - float(want)) <= 1e-9 * scale
                checked += 1
    assert checked > 300


def test_smart_constructors_fold_trivial_cases():
    x = ex.Var("x")
    assert ex.add(ex.ZERO, x) == x
    assert ex.mul(ex.ONE, x) == x
    assert ex.mul(ex.ZERO, x) == ex.ZERO
    assert ex.sub(x, ex.ZERO) == x
    assert ex.powi(x, 1) == x
    assert ex.powi(x, 0) == ex.ONE


def test_tree_operators_build_the_smart_constructors_trees():
    t, u = parse_expr("x*y"), parse_expr("sin(x)")
    third = Fraction(1, 3)
    assert 2 * t == ex.mul(ex.num(2), t)
    assert t * u == ex.mul(t, u)
    assert t + third == ex.add(t, ex.num(third))
    assert third + t == ex.add(ex.num(third), t)
    assert t - u == ex.sub(t, u)
    assert 1 - t == ex.sub(ex.ONE, t)
    assert t / 3 == ex.div(t, ex.num(3))
    assert 1 / t == ex.div(ex.ONE, t)
    # the constructors' folding comes with them
    assert 0 * t == ex.ZERO
    assert t + 0 is t
    assert ex.ZERO - t == ex.neg(t)
    for bad in (2.0, True, "x"):
        for op in (add, sub, mul, truediv):
            with pytest.raises(TypeError):
                op(t, bad)
            with pytest.raises(TypeError):
                op(bad, t)


def test_as_expr_accepts_scalars_and_strings():
    assert ex.as_expr(3) == ex.Num(Fraction(3))
    assert ex.as_expr(Fraction(1, 2)) == ex.Num(Fraction(1, 2))
    assert ex.as_expr("x+1") == parse_expr("x+1")
    tree = parse_expr("y^2")
    assert ex.as_expr(tree) is tree


# ---------------- compiled float evaluation ----------------

WORDS = ("", "x", "y", "xx", "xy", "yy")


@pytest.mark.parametrize("src, point", [
    ("exp(x*y) + sin(x)*cos(y)", (0.3, -0.7)),
    ("log(2+x*y)/sqrt(1+x^2)", (1.1, 0.4)),
    ("x^(-3)*y - (x-y)^(-2)", (0.8, -0.5)),
    ("sqrt(x)*log(y)^2 - 1/(x*y)", (2.5, 1.5)),
    ("(1/2)*x*exp(x*y) + 7", (-0.2, 0.9)),
])
def test_compiled_derivatives_match_jet_partials(src, point):
    tree = parse_expr(src)
    values = ex.compile_derivatives([tree], [WORDS])(*point)
    jet = eval_jet(tree, point, 2, "float")
    for word, v in zip(WORDS, values):
        ref = jet.partial(word.count("x"), word.count("y"))
        assert abs(v - ref) <= 1e-12 * max(1.0, abs(ref)), word


def test_compiled_trees_are_tree_major_and_share_subtrees():
    a, b = parse_expr("exp(x*y)"), parse_expr("x*y+exp(x*y)")
    f = ex.compile_derivatives([a, b], [("", "x")] * 2)
    e = math.exp(0.5 * 2.0)
    assert f(0.5, 2.0) == pytest.approx((e, 2.0 * e, 1.0 + e, 2.0 + 2.0 * e))
    source = ex._float_source([a, b])
    assert source.count("_exp(") == 1
    assert source.count("x * y") == 1


def test_compiled_source_is_flat_and_holds_no_input_text():
    # a deep left-nested sum: every line of the source is one operation
    tree = parse_expr("+".join("x^%d/%d" % (k, k + 1) for k in range(300)))
    f = ex.compile_float([tree])
    assert f(0.5, 0.0)[0] == pytest.approx(
        sum(0.5**k / (k + 1) for k in range(300)))
    source = ex._float_source([parse_expr("sin(x)*(2/3) - y^(-1)")])
    for line in source.splitlines()[1:-1]:
        target, expr = line.strip().split(" = ")
        assert target.startswith("t")
        assert expr.count("(") <= 1
    assert "2/3" not in source
    assert repr(2 / 3) in source


def test_compiled_parameters_are_names_that_shadow_nothing():
    """Other parameter names than x and y compile a function of them; a
    name that is not an identifier, or that could name a temporary or a
    helper, is refused before any source is built, and a variable that is
    not a parameter is refused too."""
    a, b = ex.Var("a"), ex.Var("b")
    f = ex._compiled([a * b - 2 * a, -b], ("a", "b"))
    assert repr(f(3.0, -0.0)) == repr((-6.0, 0.0))
    for bad in ("1a", "a-b", "x)", "t0", "t12", "_exp", "__builtins__", ""):
        with pytest.raises(ValueError):
            ex._float_source([a], ("a", bad))
    assert "t" in ex._float_source([ex.Var("t")], ("t",))
    with pytest.raises(TypeError):
        ex._float_source([a * b], ("a",))
    with pytest.raises(TypeError):
        ex._float_source([a])


def test_eval_scalar_reads_only_x_and_y():
    assert eval_scalar(parse_expr("x - 2*y"), 1, 3) == -5
    with pytest.raises(TypeError):
        eval_scalar(ex.Var("a") + ex.Var("x"), 1, 2)
    with pytest.raises(TypeError):
        eval_scalar(ex.Var("y") * ex.Var("b"), 1, 2)


@pytest.mark.parametrize("src, point, message", [
    ("1/(x-1/8)", (0.125, 0.0), "division by zero"),
    ("log(x)", (0.0, 1.0), "log of a non-positive value"),
    ("log(x)", (-2.0, 1.0), "log of a non-positive value"),
    ("sqrt(y)", (1.0, -0.5), "sqrt of a non-positive value"),
    ("sqrt(y)", (1.0, 0.0), "sqrt of a non-positive value"),
    ("(x-y)^(-2)", (0.5, 0.5), "zero raised to a negative power"),
    ("exp(x)", (1000.0, 0.0), "value out of float range"),
])
def test_compiled_singular_points_raise_singular_evaluation(
        src, point, message):
    f = ex.compile_float([parse_expr(src)])
    with pytest.raises(SingularEvaluationError) as err:
        f(*point)
    assert message in str(err.value)
    assert err.value.base == point


def test_compiled_sqrt_derivative_at_zero_is_singular():
    f = ex.compile_derivatives([parse_expr("sqrt(x)")], [("", "x")])
    assert f(4.0, 0.0) == (2.0, 0.25)
    with pytest.raises(SingularEvaluationError):
        f(0.0, 0.0)


# ---------------- eval_jet against an unshared reference ----------------
#
# `_reference_eval_jet` evaluates every node of a tree on its own, in the
# order eval_jet visits them, with the same jet operations, in the one
# arithmetic the mode gives the tree at the point: "float" always; "auto"
# float for a transcendental tree or a float coordinate, exact otherwise;
# "rational" exact, refusing those two cases.  eval_jet must give its jets
# bit for bit, and its exceptions with the same type and message, on the
# coefficients of every committed input and of the metric-derived
# benchmark jobs, whose trees repeat many subtrees.

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reference_eval_jet(e, base, order, mode):
    transcendental = ex.has_transcendental(e)
    float_point = any(isinstance(c, float) for c in base)
    if mode == "rational" and transcendental:
        raise ExactModeError(
            "exact evaluation requested for a tree with transcendental calls")
    if mode == "rational" and float_point:
        raise ExactModeError(
            "exact evaluation requested at the float point (%s, %s)" % base)
    want_float = mode == "float" or transcendental or float_point

    def rec(t):
        if isinstance(t, ex.Num):
            v = float(t.value) if want_float else t.value
            return Jet.constant(v, base, order)
        if isinstance(t, ex.Var):
            j = Jet.variable(t.name, base, order)
            return j.to_float() if want_float else j
        if isinstance(t, ex.Neg):
            return -rec(t.arg)
        if isinstance(t, ex.BinOp):
            a = rec(t.left)
            b = rec(t.right)
            return {"+": add, "-": sub, "*": mul, "/": truediv}[t.op](a, b)
        if isinstance(t, ex.Pow):
            return rec(t.base) ** t.exponent
        return getattr(jets, t.func)(rec(t.arg))

    return rec(e)


def _table_bits(rows):
    return [[(type(c).__name__, c.hex() if isinstance(c, float) else c)
             for c in row] for row in rows]


def _outcome(evaluate, *args):
    """A jet's exactness, base, order and bits, or an exception's type and
    message."""
    try:
        jet = evaluate(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)
    return jet.exact, jet.base, jet.order, _table_bits(jet.coeffs)


def _load_bench_jobs():
    spec = importlib.util.spec_from_file_location(
        "bench_jobs", ROOT / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    # `dataclass` looks its class's module up while the module runs
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _evaluator_cases():
    """(name, structure, points) of every committed input, and of every
    metric-derived job of decide-exact and decide-float, seeds 0-2."""
    cases = []
    for path in sorted((ROOT / "inputs").glob("*.json")):
        job = cli.Job(json.loads(path.read_text()))
        cases.append((path.stem, job.structure, job.points))
    bench_jobs = _load_bench_jobs()
    committed = {name: json.loads((ROOT / "inputs" / (name + ".json"))
                                  .read_text())
                 for name in bench_jobs.COMMITTED_ALL}
    frozen = json.loads((ROOT / "bench" / "frozen.json").read_text())
    for seed in range(3):
        for workload, specs in (
                ("decide-exact", bench_jobs.decide_exact(seed, committed)),
                ("decide-float",
                 bench_jobs.decide_float(seed, committed, frozen))):
            for spec in specs:
                if spec.data.get("kind") == "metric" and \
                        spec.name not in committed:
                    job = cli.Job(spec.data)
                    cases.append(("%s-%d-%s" % (workload, seed, spec.name),
                                  job.structure, job.points))
    return cases


EVALUATOR_CASES = _evaluator_cases()


@pytest.mark.parametrize("mode", ("rational", "float", "auto"))
@pytest.mark.parametrize("name, structure, points", EVALUATOR_CASES,
                         ids=[c[0] for c in EVALUATOR_CASES])
def test_eval_jet_matches_the_unshared_reference(name, structure, points,
                                                 mode):
    for point in points:
        for order in range(11):
            # a memo serves one arithmetic, and "auto" runs a tree with a
            # transcendental call in floats
            memos = {}
            for tree in structure.coefficients:
                want = _outcome(_reference_eval_jet, tree, point, order, mode)
                assert _outcome(eval_jet, tree, point, order, mode) == want
                memo = memos.setdefault(ex.has_transcendental(tree), {})
                assert _outcome(eval_jet, tree, point, order, mode,
                                memo) == want


def _reference_float_source(trees):
    """The compiled evaluator's source as its own hash-consing walk writes
    it: one line per distinct subtree, keyed by the children's names."""
    lines, by_id, by_key = [], {}, {}

    def name(t):
        hit = by_id.get(id(t))
        if hit is not None:
            return hit
        if isinstance(t, ex.Var):
            if t.name not in ("x", "y"):
                raise TypeError("not an expression: %r" % (t,))
            out = t.name
        else:
            if isinstance(t, ex.Num):
                try:
                    key, text = ("num", t.value), repr(float(t.value))
                except OverflowError:
                    raise ex.ExprError(
                        "literal %s is out of float range" % t.value) from None
            elif isinstance(t, ex.Neg):
                a = name(t.arg)
                key, text = ("neg", a), "-" + a
            elif isinstance(t, ex.BinOp) and t.op in "+-*/":
                a, b = name(t.left), name(t.right)
                key, text = (t.op, a, b), "%s %s %s" % (a, t.op, b)
            elif isinstance(t, ex.Pow):
                a, k = name(t.base), int(t.exponent)
                key = ("pow", a, k)
                text = ("%s ** %d" % (a, k) if k >= 0
                        else "_negative_power(%s, %d)" % (a, k))
            elif isinstance(t, ex.Call) and t.func in ex._FLOAT_FUNCS:
                a = name(t.arg)
                helper = ex._FLOAT_FUNCS[t.func][0]
                key, text = (t.func, a), "%s(%s)" % (helper, a)
            else:
                raise TypeError("not an expression: %r" % (t,))
            out = by_key.get(key)
            if out is None:
                out = "t%d" % len(lines)
                lines.append("    %s = %s" % (out, text))
                by_key[key] = out
        by_id[id(t)] = out
        return out

    results = [name(t) for t in trees]
    return "\n".join(
        ["def _evaluate(x, y):"] + lines
        + ["    return (%s)" % "".join(r + ", " for r in results)]
    ) + "\n"


def _source_outcome(write, trees):
    try:
        return write(trees)
    except (ex.ExprError, TypeError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("name, structure, points", EVALUATOR_CASES,
                         ids=[c[0] for c in EVALUATOR_CASES])
def test_float_source_matches_the_reference_walk(name, structure, points,
                                                 monkeypatch):
    """The compiled source, text for text, for the coefficients and for the
    derivative trees `recover` compiles."""
    monkeypatch.setattr(ex, "compile_float", list)
    derived = ex.compile_derivatives(structure.coefficients,
                                     [invariants.CONNECTION_WORDS] * 4)
    for trees in (structure.coefficients, derived,
                  derived + list(structure.coefficients)):
        want = _source_outcome(_reference_float_source, trees)
        assert _source_outcome(ex._float_source, trees) == want


def _reference_differentiate(e, var):
    """The derivative rules as a plain recursion: a subtree that the tree
    shares is differentiated once per path."""
    def d(t):
        return _reference_differentiate(t, var)

    if isinstance(e, ex.Num):
        return ex.ZERO
    if isinstance(e, ex.Var):
        return ex.ONE if e.name == var else ex.ZERO
    if isinstance(e, ex.Neg):
        return ex.neg(d(e.arg))
    if isinstance(e, ex.BinOp):
        da, db = d(e.left), d(e.right)
        if e.op == "+":
            return ex.add(da, db)
        if e.op == "-":
            return ex.sub(da, db)
        if e.op == "*":
            return ex.add(ex.mul(da, e.right), ex.mul(e.left, db))
        return ex.sub(ex.div(da, e.right),
                      ex.div(ex.mul(e.left, db), ex.powi(e.right, 2)))
    if isinstance(e, ex.Pow):
        return ex.mul(ex.mul(ex.num(e.exponent),
                             ex.powi(e.base, e.exponent - 1)), d(e.base))
    u, du = e.arg, d(e.arg)
    if e.func == "exp":
        return ex.mul(ex.Call("exp", u), du)
    if e.func == "log":
        return ex.div(du, u)
    if e.func == "sin":
        return ex.mul(ex.Call("cos", u), du)
    if e.func == "cos":
        return ex.neg(ex.mul(ex.Call("sin", u), du))
    return ex.div(du, ex.mul(ex.num(2), ex.Call("sqrt", u)))


def _recover_cases():
    """EVALUATOR_CASES and the seeded metrics of recover-grid, seeds 0-4."""
    bench_jobs = _load_bench_jobs()
    committed = {name: json.loads((ROOT / "inputs" / (name + ".json"))
                                  .read_text())
                 for name in bench_jobs.COMMITTED_ALL}
    cases = [(name, structure) for name, structure, _ in EVALUATOR_CASES]
    for seed in range(5):
        for spec in bench_jobs.recover_grid(seed, committed):
            if spec.name not in committed:
                cases.append(("recover-grid-%d-%s" % (seed, spec.name),
                              cli.Job(spec.data).structure))
    return cases


RECOVER_CASES = _recover_cases()


@pytest.mark.parametrize("name, structure", RECOVER_CASES,
                         ids=[c[0] for c in RECOVER_CASES])
def test_shared_derivatives_compile_to_the_unshared_source(name, structure,
                                                           monkeypatch):
    """Differentiating each node once per call gives the trees and the
    compiled source, text for text, of the rules applied once per path."""
    words = invariants.CONNECTION_WORDS
    want = []
    for tree in structure.coefficients:
        along = {"": tree}
        for word in words[1:]:
            along[word] = _reference_differentiate(along[word[:-1]],
                                                   word[-1])
        want.extend(along[w] for w in words)
    monkeypatch.setattr(ex, "compile_float", list)
    got = ex.compile_derivatives(structure.coefficients, [words] * 4)
    assert got == want
    assert ex._float_source(got) == ex._float_source(want)


def _distinct_nodes(tree):
    seen, todo = {}, [tree]
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            todo.extend(ex._parts(t)[1])
    return len(seen)


def test_differentiate_keeps_its_input_sharing():
    """x^(2^20) as 20 levels of t * t: 21 distinct nodes, 2^21 - 1 paths.
    Its derivative adds a few nodes per level, not one per path."""
    tree = ex.Var("x")
    for _ in range(20):
        tree = ex.BinOp("*", tree, tree)
    assert _distinct_nodes(tree) == 21
    dx = differentiate(tree, "x")
    assert _distinct_nodes(dx) <= 4 * 21
    assert ex.compile_float([dx])(1.0, 0.5) == (2.0 ** 20,)
    assert differentiate(tree, "y") == ex.ZERO


def test_compile_derivatives_derives_each_node_once_per_letter(monkeypatch):
    """The words share one memo per letter: xy and yy differentiate along
    y the subtrees of the tree that y has already derived, xx along x those
    that x has, and a second tree the subtrees it shares with the first."""
    seen = []
    derivative = ex._derivative

    def counted(e, var, d):
        seen.append((e, var))  # keeps e alive, so no id is reused
        return derivative(e, var, d)

    u = ex.parse_expr("x*y*exp(x/3)/(1 + y^2) + sin(x*y/2)/4")
    tree = ex.BinOp("*", u, ex.BinOp("+", u, ex.Call("sqrt", u)))
    monkeypatch.setattr(ex, "_derivative", counted)
    monkeypatch.setattr(ex, "compile_float", list)
    ex.compile_derivatives([tree, u], [("", "x", "y", "xx", "xy", "yy")] * 2)
    pairs = [(id(e), var) for e, var in seen]
    assert len(pairs) == len(set(pairs))


SINGULAR_TREES = (
    # the shared subtree x - 1 is harmless until the third tree divides by it
    ("x - 1", "(x - 1)*y", "y/(x - 1)", "x"),
    # the singular subtree 1/(x - 1) itself repeats, in the third and fourth
    ("x*y", "y", "1/(x - 1) + 1/(x - 1)", "x/(x - 1)"),
    ("exp(x - 1)", "x - 1", "log(x - 1)*exp(x - 1)", "log(x - 1)"),
    ("sqrt(x - 1)", "x", "y", "1"),
)


@pytest.mark.parametrize("srcs", SINGULAR_TREES)
@pytest.mark.parametrize("mode", ("float", "auto"))
def test_singular_subtrees_raise_as_the_reference_does(srcs, mode):
    trees = [parse_expr(s) for s in srcs]
    point = (Fraction(1), Fraction(2))
    want = [_outcome(_reference_eval_jet, t, point, 4, mode) for t in trees]
    assert any(isinstance(w[0], type) for w in want)
    assert [_outcome(eval_jet, t, point, 4, mode) for t in trees] == want
    memos = {}
    assert [_outcome(eval_jet, t, point, 4, mode,
                     memos.setdefault(ex.has_transcendental(t), {}))
            for t in trees] == want


def test_calls_without_a_memo_share_nothing():
    tree = parse_expr("exp(x*y) + x*y")
    point = (0.5, 0.25)
    first, second = (eval_jet(tree, point, 4, "float") for _ in range(2))
    assert first == second
    assert first is not second


def test_a_memo_serves_one_base_order_and_mode():
    tree = parse_expr("x*y + 1")
    point = (Fraction(1), Fraction(2))
    memo = {}
    eval_jet(tree, point, 4, "auto", memo)
    assert eval_jet(tree, point, 4, "auto", memo) is \
        eval_jet(parse_expr("x*y + 1"), point, 4, "auto", memo)
    for base, order, mode in ((point, 5, "auto"), (point, 4, "float"),
                              ((Fraction(1), Fraction(3)), 4, "auto"),
                              ((1.0, 2.0), 4, "auto")):
        with pytest.raises(ValueError, match="memo"):
            eval_jet(tree, base, order, mode, memo)
    # "auto" gives a transcendental tree floats, another arithmetic
    with pytest.raises(ValueError, match="memo"):
        eval_jet(parse_expr("exp(x)"), point, 4, "auto", memo)


def _exp_subtrees(t, out):
    """Append every exp call of a tree, once per occurrence."""
    if isinstance(t, ex.Call) and t.func == "exp":
        out.append(t)
    for child in vars(t).values():
        if isinstance(child, (ex.Num, ex.Var, ex.BinOp, ex.Pow, ex.Neg,
                              ex.Call)):
            _exp_subtrees(child, out)
    return out


def test_each_distinct_exp_subtree_of_a_metric_runs_once(monkeypatch):
    job = cli.Job({"kind": "metric", "E": "3 + exp(x*y/2)",
                   "F": "sin(x)/5", "G": "4 + x^2 + exp(y/3)",
                   "points": [[0.3, -0.2]]})
    calls = []

    def counted(a):
        calls.append(a)
        return jets.exp(a)

    monkeypatch.setitem(ex._JET_FUNCS, "exp", counted)
    occurrences = []
    for tree in job.structure.coefficients:
        _exp_subtrees(tree, occurrences)
    JetStructure.at(job.structure, job.points[0], 10, "float")
    assert len(calls) == len(set(occurrences)) < len(occurrences)
