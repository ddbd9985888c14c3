"""The tapes of L, V and the prolonged connection against their formulas
evaluated on `Jet` objects, which is the reference: the same jets bit for
bit (floats by `float.hex`, signed zeros included), and canonical exact
tables (den > 0, gcd 1)."""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from projmet import expressions as ex
from projmet import invariants, jets, tractor
from projmet.cli import load_job
from projmet.expressions import ZERO, ExactModeError, Var
from projmet.invariants import (
    CONNECTION_FLOATS,
    CONNECTION_RATIONALS,
    JetStructure,
    connection_formula,
    formula_tape,
    liouville_formula,
    vector_formula,
)
from projmet.jets import Jet, word_tables

from jet_reference import Lowering, lowered, row_jets

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


# ---------------- the reference: the formulas on Jet objects ----------------


def _rationals(js):
    return CONNECTION_RATIONALS if js.exact else CONNECTION_FLOATS


def _derivs(js, m):
    """A0..A3 along CONNECTION_WORDS as jets truncated to m."""
    out = []
    for a in js.a:
        ax, ay = a.diff("x"), a.diff("y")
        out.append(tuple(d.truncated(m) for d in (
            a, ax, ay, ax.diff("x"), ax.diff("y"), ay.diff("y"))))
    return out


def reference_L(js):
    return liouville_formula(_derivs(js, js.order - 2), _rationals(js))


def reference_V(js):
    m = js.order - 3
    l1, l2 = reference_L(js)
    operands = [l1.truncated(m), l1.diff("x"), l1.diff("y"),
                l2.truncated(m), l2.diff("x"), l2.diff("y")]
    operands += [a.truncated(m) for a in js.a]
    return vector_formula(operands, js._zero(m), _rationals(js))


def reference_connection(js, m):
    return connection_formula(_derivs(js, m), js._zero(m), _rationals(js))


def _bits(jet):
    """The jet's table as its exact (den, cells) or its floats' hex, after
    checking that an exact table is canonical."""
    den, cells = jet._den, jet._cells
    if den is None:
        assert all(type(c) is float for c in cells)
        return jet.order, tuple(c.hex() for c in cells)
    assert den > 0 and math.gcd(den, *cells) == 1
    assert all(type(c) is int for c in cells)
    return jet.order, den, cells


def _assert_same(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.base == w.base and g.exact is w.exact
        assert _bits(g) == _bits(w)


def _flat(pair):
    return [e for m in pair for row in m for e in row]


def _assert_tapes_match(js):
    n = js.order
    _assert_same(js.liouville(), reference_L(js))
    _assert_same(row_jets(js.row(""), js.base), reference_V(js))
    _assert_same(_flat(js.connection()),
                 _flat(reference_connection(js, max(n - 4, 0))))
    _assert_same(_flat(invariants._connection_matrices(js, n - 2)),
                 _flat(reference_connection(js, n - 2)))


# ---------------- committed inputs ----------------


@pytest.mark.parametrize("mode", ("rational", "float", "auto"))
@pytest.mark.parametrize(
    "path", sorted(INPUTS.glob("*.json")), ids=lambda p: p.stem)
def test_tapes_match_the_jet_formulas_on_committed_inputs(path, mode):
    job = load_job(str(path))
    for point in job.points:
        for order in range(5, 13):
            try:
                js = JetStructure.at(job.structure, point, order, mode)
            except ExactModeError:  # a transcendental tree or float point
                assert mode == "rational"
                break
            _assert_tapes_match(js)


# ---------------- seeded random tables ----------------

SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)


def _random_table(rng, order, exact):
    def cell():
        if exact:
            if rng.random() < 0.25:
                return 0
            return Fraction(rng.randint(-40, 40), rng.choice(
                (1, 2, 3, 4, 5, 6, 7, 9, 12, 25, 27, 49)))
        if rng.random() < 0.2:
            return rng.choice(SPECIAL)
        if rng.random() < 0.1:
            return rng.choice((1e300, -1e-300, 5e-324))
        return rng.uniform(-3.0, 3.0)
    return [[cell() for _ in range(order + 1 - i)] for i in range(order + 1)]


def _random_structure(rng, order, exact):
    base = (Fraction(rng.randint(-3, 3), 2), Fraction(1, 3))
    return JetStructure(tuple(
        Jet(base, order, _random_table(rng, order, exact)) for _ in range(4)))


@pytest.mark.parametrize("path", (0, math.inf))
@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_tapes_match_the_jet_formulas_on_random_tables(exact, path,
                                                       monkeypatch):
    """Seeded random tables: mixed denominators, or floats with +-0.0,
    +-inf, nan, huge and subnormal cells, on the loop and on the kernel
    product path."""
    monkeypatch.setattr(jets, "KERNEL_AT", path)
    rng = random.Random(3030 + exact)
    for trial in range(40):
        _assert_tapes_match(_random_structure(rng, 3 + trial % 6, exact))


def test_low_orders_match_or_raise_alike():
    """Below their orders the tapes raise InsufficientOrderError, as the
    jet formulas do; at order 2 the connection is the order-0 pair."""
    rng = random.Random(7)
    for exact in (True, False):
        js = _random_structure(rng, 2, exact)
        _assert_same(js.liouville(), reference_L(js))
        _assert_same(_flat(js.connection()),
                     _flat(reference_connection(js, 0)))
        with pytest.raises(jets.InsufficientOrderError):
            js.row("")
        with pytest.raises(jets.InsufficientOrderError):
            _random_structure(rng, 1, exact).liouville()


# ---------------- the tapes themselves ----------------


def test_tapes_record_each_distinct_op_once():
    """The connection's 220 jet operations are 183 distinct ones: 56
    products, 63 scalings and 64 sums or differences, each recorded once;
    the two arithmetics trace the same ops."""
    counts = {}
    for name in ("liouville", "vector", "connection"):
        exact_ops, exact_out, exact_ups = formula_tape(name, True)
        float_ops, float_out, float_ups = formula_tape(name, False)
        assert len(set(exact_ops)) == len(exact_ops)
        # no derivatives: every op runs at the outputs' order
        assert set(exact_ups) == set(float_ups) == {0}
        assert [op[:2] for op in exact_ops] == [op[:2] for op in float_ops]
        kinds = [op for op, _, _ in exact_ops]
        counts[name] = (kinds.count("mul"), kinds.count("scale"),
                        kinds.count("add") + kinds.count("sub"))
    assert counts == {"liouville": (12, 10, 16), "vector": (6, 12, 7),
                      "connection": (56, 63, 64)}


def test_traced_constants_keep_their_signed_zeros():
    """-1/2 and -1 are the negated constant tables of the formula: -0.0 in
    every cell but the constant term of a float table."""
    _, outputs, _ = formula_tape("connection", False)
    constants = {o for o in outputs if type(o) is not int}
    assert {(c0, math.copysign(1.0, tail)) for c0, tail, _ in constants} == {
        (0.0, 1.0), (1.0, 1.0), (-0.5, -1.0), (-1.0, -1.0)}
    _, outputs, _ = formula_tape("connection", True)
    assert {o for o in outputs if type(o) is not int} == {
        (0, 0, 1), (1, 0, 1), (-1, 0, 2), (-1, 0, 1)}


def test_the_tree_reader_records_only_what_a_tape_runs():
    """A symbol meets symbols by + - *, and numbers only by a product; one
    op per distinct op and operands, so a*b and b*a are two products and
    2*a and a*2 one scaling, in the tape's arithmetic."""
    a, b = Var("a"), Var("b")
    for refused in (a + 1, 1 - a, -a, a / 2):
        with pytest.raises(TypeError):
            invariants._read_tape([refused], ("a", "b"))
    with pytest.raises(TypeError):
        a * 0.5
    assert 0 * a is ZERO
    trees = [a * b, b * a, 2 * a, a * 2, a * b, 0 * a, a - b]
    ops, outputs, ups = invariants._read_tape(trees, ("a", "b"))
    assert ops == (("mul", 0, 1), ("mul", 1, 0), ("scale", 0, Fraction(2)),
                   ("sub", 0, 1))
    assert outputs == (2, 3, 4, 4, 2, ZERO, 5)
    assert ups == (0,) * 6
    ops = invariants.float_ops(ops)
    assert type(ops[2][2]) is float and ops[2][2] == 2.0


def test_the_tree_reader_runs_each_op_as_low_as_its_readers_allow():
    """A derivative reads its operand one order higher, so a slot runs at
    the highest order a reader needs, and readers below it read it through
    one truncation per order."""
    a, b = Var("a"), Var("b")
    trees = [a.diff("x") * b, a * b, (a * b).diff("y")]
    ops, outputs, ups = invariants._read_tape(trees, ("a", "b"))
    assert ops == (("dx", 0, None), ("trunc", 1, 1), ("mul", 2, 3),
                   ("mul", 0, 1), ("dy", 5, None), ("trunc", 5, 1))
    assert outputs == (4, 7, 6)
    assert ups == (1, 1, 0, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        a.diff("z")
    with pytest.raises(TypeError):
        invariants._read_tape([ZERO.diff("x")], ("a",))
    rng = random.Random(11)
    for exact in (True, False):
        for n in range(3):
            x, y = (Jet((1, 2), n + 1, _random_table(rng, n + 1, exact))
                    for _ in range(2))
            X, Y = Lowering(x), Lowering(y)
            want = [e.jet for e in (X.diff("x") * Y, X * Y,
                                    (X * Y).diff("y"))]
            got = jets.run_tape(invariants._read_tape(trees, ("a", "b")),
                                word_tables([x, y], ("",), n + 1), n + 1,
                                x.base, n)
            _assert_same(got, [w.truncated(n) for w in want])


# ---------------- the tractor stack ----------------
#
# `tractor.theta_bar` runs the stack tape on `tractor_data`'s tables.  The
# reference is `stack_formula` on the connection's jets as `Lowering`s,
# truncated to the target order: the same jets bit for bit, and at target
# 0 their values, of the same type and the same float.

CHANGE = "x*y/3 - y^2/5"


def reference_stack(conn):
    target = conn.order - tractor.STACK_ORDER
    rationals = (tractor.STACK_RATIONALS if conn.s.exact
                 else tractor.STACK_FLOATS)
    theta = tractor.stack_formula(lowered(conn.gamma), Lowering(conn.s),
                                  rationals)
    return [e.jet.truncated(target) for row in theta for e in row]


def _same_scalar(got, want):
    assert type(got) is type(want)
    assert got.hex() == want.hex() if type(got) is float else got == want


def _assert_stack_matches(conn):
    got = [e for row in tractor.theta_bar(tractor.tractor_data(conn))
           for e in row]
    want = reference_stack(conn)
    if conn.order == tractor.STACK_ORDER:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_scalar(g, w.value)
    else:
        _assert_same(got, want)


@pytest.mark.parametrize("mode", ("rational", "float", "auto"))
@pytest.mark.parametrize(
    "path", sorted(INPUTS.glob("*.json")), ids=lambda p: p.stem)
def test_stack_tape_matches_the_formula_on_committed_inputs(path, mode):
    """At targets 0, 1 and 2, for the structure's connection and for its
    change by f = x*y/3 - y^2/5 (float, as every change is)."""
    job = load_job(str(path))
    f = ex.parse_expr(CHANGE)
    for point in job.points:
        for target in (0, 1, 2):
            n = tractor.STACK_ORDER + target
            try:
                js = JetStructure.at(job.structure, point, n, mode)
            except ExactModeError:
                assert mode == "rational"
                break
            conn = tractor.AffineConnection.from_structure(js)
            _assert_stack_matches(conn)
            _assert_stack_matches(tractor.change_connection(
                conn, ex.eval_jet(f, point, n + 1, "float")))


@pytest.mark.parametrize("path", (0, math.inf))
@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_stack_tape_matches_the_formula_on_random_tables(exact, path,
                                                        monkeypatch):
    """Six independent symbols and a scale from seeded random tables:
    mixed denominators, or floats with +-0.0, +-inf, nan, huge and
    subnormal cells, on the loop and on the kernel product path."""
    monkeypatch.setattr(jets, "KERNEL_AT", path)
    rng = random.Random(3232 + exact)
    base = (Fraction(1, 2), Fraction(-2, 3))
    for trial in range(12):
        n = tractor.STACK_ORDER + trial % 3
        g000, g001, g011, g100, g101, g111, s = (
            Jet(base, n, _random_table(rng, n, exact)) for _ in range(7))
        _assert_stack_matches(tractor.AffineConnection(
            (((g000, g001), (g001, g011)), ((g100, g101), (g101, g111))), s))


STACK_COUNTS = {"mul": 209, "scale": 123, "add": 136, "sub": 287, "dx": 25,
                "dy": 25, "trunc": 86}


def test_stack_tape_counts():
    """Pinned: the stack's ops by kind, the same in both arithmetics; the
    outputs at the target order, and the inputs read up to STACK_ORDER
    above it."""
    counts = []
    for exact in (True, False):
        ops, outputs, ups = tractor.stack_tape(exact)
        # a slot's truncations to two orders differ only in their ups
        assert len(set(zip(ops, ups[7:]))) == len(ops)
        assert len(outputs) == 36
        assert all(type(o) is int and ups[o] == 0 for o in outputs)
        kinds = [op[0] for op in ops]
        counts.append({k: kinds.count(k) for k in set(kinds)})
        assert max(ups) == tractor.STACK_ORDER
    assert counts[0] == counts[1] == STACK_COUNTS


def test_stack_inputs_share_order_and_arithmetic():
    rng = random.Random(5)
    n = tractor.STACK_ORDER
    base = (Fraction(0), Fraction(1))
    g = [Jet(base, n, _random_table(rng, n, True)) for _ in range(6)]
    gamma = (((g[0], g[1]), (g[1], g[2])), ((g[3], g[4]), (g[4], g[5])))
    s = Jet.constant(1, base, n)
    tractor.tractor_data(tractor.AffineConnection(gamma, s))
    for bad in (s.to_float(), Jet.constant(1, base, n + 1),
                Jet.constant(1, (0, 0), n)):
        with pytest.raises(jets.JetError):
            tractor.tractor_data(tractor.AffineConnection(gamma, bad))
