"""Truncated Taylor arithmetic: hand values, ring laws, error paths."""

import math
import random
from fractions import Fraction
from operator import add, mul, neg, sub, truediv

import pytest

from projmet import jets
from projmet.jets import (
    Jet,
    JetError,
    InsufficientOrderError,
    SingularEvaluationError,
    to_scalar,
)


def jet_x(base, order):
    return Jet.variable("x", base, order)


def jet_y(base, order):
    return Jet.variable("y", base, order)


def test_to_scalar_conversions():
    assert to_scalar(3) == Fraction(3)
    assert to_scalar("2/3") == Fraction(2, 3)
    assert to_scalar("0.25") == Fraction(1, 4)
    assert to_scalar(0.5) == 0.5 and isinstance(to_scalar(0.5), float)
    with pytest.raises(TypeError):
        to_scalar(True)
    with pytest.raises(ValueError):
        to_scalar("not-a-number")


def test_cubed_binomial_partials():
    # f = (1 + x*y)^3 at (1, 2): f = 27, f_x = 54, f_y = 27, f_xy = 63
    base = (Fraction(1), Fraction(2))
    x, y = jet_x(base, 4), jet_y(base, 4)
    f = (1 + x * y) ** 3
    assert f.value == 27
    assert f.partial(1, 0) == 54
    assert f.partial(0, 1) == 27
    assert f.partial(1, 1) == 63


def test_monomial_partials():
    base = (Fraction(1), Fraction(2))
    x, y = jet_x(base, 3), jet_y(base, 3)
    f = x * x * y
    assert f.value == 2
    assert f.partial(1, 0) == 4
    assert f.partial(0, 1) == 1
    assert f.partial(2, 0) == 4
    assert f.partial(1, 1) == 2
    assert f.partial(0, 2) == 0


def test_monomial_partials_at_origin():
    base = (Fraction(0), Fraction(0))
    x, y = jet_x(base, 3), jet_y(base, 3)
    f = x * x * y
    assert f.partial(2, 1) == 2


def test_geometric_series_coefficients():
    base = (Fraction(0), Fraction(0))
    x = jet_x(base, 6)
    f = 1 / (1 + x)
    for i in range(7):
        assert f.coeffs[i][0] == Fraction((-1) ** i)


def test_exp_sum_coefficients():
    base = (0.0, 0.0)
    x, y = jet_x(base, 5), jet_y(base, 5)
    f = jets.exp(x + y)
    for i in range(6):
        for j in range(6 - i):
            expect = 1.0 / (math.factorial(i) * math.factorial(j))
            assert abs(f.coeffs[i][j] - expect) < 1e-12


def test_exp_product_mixed_partial():
    base = (1.0, 2.0)
    x, y = jet_x(base, 3), jet_y(base, 3)
    f = jets.exp(x * y)
    # d^2/dxdy e^{xy} = (1 + xy) e^{xy} -> 3 e^2 at (1, 2)
    assert abs(f.partial(1, 1) - 3 * math.exp(2)) < 1e-9


def test_sin_at_quarter_turn():
    base = (0.0, math.pi / 2)
    f = jets.sin(jet_y(base, 2))
    assert abs(f.coeffs[0][0] - 1.0) < 1e-12
    assert abs(f.coeffs[0][1]) < 1e-12
    assert abs(f.coeffs[0][2] + 0.5) < 1e-12


def test_pow_int_pure_power():
    base = (Fraction(0), Fraction(0))
    f = jet_x(base, 3) ** 3
    for i in range(4):
        for j in range(4 - i):
            assert f.coeffs[i][j] == (1 if (i, j) == (3, 0) else 0)


def _random_jet(rng, base, order, exact=True):
    if exact:
        coeffs = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
             for _ in range(order + 1 - i)]
            for i in range(order + 1)
        ]
    else:
        coeffs = [
            [rng.uniform(-2, 2) for _ in range(order + 1 - i)]
            for i in range(order + 1)
        ]
    return Jet(base, order, coeffs)


def test_ring_laws_random():
    rng = random.Random(101)
    base = (Fraction(1), Fraction(-1))
    for _ in range(25):
        order = rng.randint(1, 5)
        a = _random_jet(rng, base, order)
        b = _random_jet(rng, base, order)
        c = _random_jet(rng, base, order)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a - b == -(b - a)


def test_division_inverts_multiplication():
    rng = random.Random(202)
    base = (Fraction(0), Fraction(0))
    for _ in range(20):
        order = rng.randint(1, 5)
        a = _random_jet(rng, base, order)
        b = _random_jet(rng, base, order)
        if b.value == 0:
            b = b + 1
        assert (a * b) / b == a


def test_product_rule_for_diff():
    rng = random.Random(303)
    base = (Fraction(2), Fraction(3))
    for var in ("x", "y"):
        a = _random_jet(rng, base, 5)
        b = _random_jet(rng, base, 5)
        lhs = (a * b).diff(var)
        rhs = a.diff(var) * b.truncated(4) + a.truncated(4) * b.diff(var)
        assert lhs == rhs


def test_exp_log_roundtrip():
    rng = random.Random(404)
    base = (0.3, -0.7)
    for _ in range(10):
        a = _random_jet(rng, base, 4, exact=False)
        a = a - a.value + rng.uniform(0.5, 3.0)  # positive constant term
        back = jets.exp(jets.log(a))
        for i in range(5):
            for j in range(5 - i):
                assert abs(back.coeffs[i][j] - a.coeffs[i][j]) < 1e-10


def test_sin_cos_pythagoras():
    base = (0.4, 1.1)
    x, y = jet_x(base, 4), jet_y(base, 4)
    a = x * y + x
    s, c = jets.sin(a), jets.cos(a)
    one = s * s + c * c
    assert abs(one.value - 1.0) < 1e-12
    assert all(abs(v) < 1e-10 for row in one.coeffs for v in row[1:])


def test_sqrt_squares_back():
    base = (1.5, 0.0)
    x = jet_x(base, 4)
    a = 2 + x * x
    r = jets.sqrt(a)
    sq = r * r
    for i in range(5):
        for j in range(5 - i):
            assert abs(sq.coeffs[i][j] - float(a.coeffs[i][j])) < 1e-12


def test_mixed_arithmetic_promotes_to_float():
    base = (Fraction(1), Fraction(1))
    a = Jet.constant(Fraction(1, 3), base, 2)
    b = Jet.constant(0.5, base, 2)
    assert a.exact and not b.exact
    assert not (a + b).exact
    assert not (a * b).exact


def test_truncation_and_order_mismatch():
    base = (Fraction(0), Fraction(0))
    a = jet_x(base, 4)
    t = a.truncated(2)
    assert t.order == 2
    with pytest.raises(InsufficientOrderError):
        a.truncated(9)
    b = jet_x(base, 3)
    with pytest.raises(JetError):
        a * b  # mismatched orders must be truncated explicitly
    assert (a.truncated(3) * b).order == 3


def test_partial_beyond_order_raises():
    a = jet_x((Fraction(0), Fraction(0)), 2)
    with pytest.raises(InsufficientOrderError):
        a.partial(2, 1)


def test_division_by_zero_constant_term():
    base = (Fraction(0), Fraction(0))
    x = jet_x(base, 3)
    with pytest.raises(SingularEvaluationError):
        1 / x
    with pytest.raises(SingularEvaluationError):
        x / (x * x)


def test_log_and_sqrt_domain_errors():
    base = (0.0, 0.0)
    neg = Jet.constant(-2.0, base, 2)
    with pytest.raises(SingularEvaluationError):
        jets.log(neg)
    with pytest.raises(SingularEvaluationError):
        jets.sqrt(neg)
    with pytest.raises(SingularEvaluationError):
        jets.log(Jet.constant(0.0, base, 2))


def test_non_integer_exponent_rejected():
    a = jet_x((Fraction(0), Fraction(0)), 3) + 1
    with pytest.raises(JetError):
        a ** 0.5


def test_negative_exponent_is_inverse_power():
    base = (Fraction(1), Fraction(0))
    x = jet_x(base, 3)
    a = 1 + x
    assert a ** -2 == 1 / (a * a)


def test_base_mismatch_rejected():
    a = jet_x((Fraction(0), Fraction(0)), 2)
    b = jet_x((Fraction(1), Fraction(0)), 2)
    with pytest.raises(JetError):
        a + b


# ---------------- oracle: integer tables against plain tables ----------------
#
# The reference below works on plain tables of Fractions and floats, one
# coefficient at a time, in the loop order the jet operations keep for
# floats.  Exact results must equal it; float and mixed results must equal
# it bit for bit, signed zeros included.  Scalars are lifted to constant
# tables, as `c * jet` means the product with the constant jet c.

from hypothesis import assume, given, settings, strategies as st


def _is_exact_table(t):
    return all(isinstance(c, Fraction) for row in t for c in row)


def ref_const(c, n):
    c = to_scalar(c)
    zero = Fraction(0) if isinstance(c, Fraction) else 0.0
    rows = [[zero] * (n - i + 1) for i in range(n + 1)]
    rows[0][0] = c
    return rows


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_neg(a):
    return [[-x for x in row] for row in a]


def ref_mul(a, b):
    n = len(a) - 1
    zero = (Fraction(0) if _is_exact_table(a) and _is_exact_table(b)
            else 0.0)
    rows = [[zero] * (n - i + 1) for i in range(n + 1)]
    for i, ra in enumerate(a):
        for j, x in enumerate(ra):
            if x == 0:
                continue
            kmax = n - i - j
            for k in range(kmax + 1):
                for l in range(kmax - k + 1):
                    y = b[k][l]
                    if y == 0:
                        continue
                    rows[i + k][j + l] += x * y
    return rows


def ref_div(a, b):
    n = len(a) - 1
    b00 = b[0][0]
    q = [[None] * (n - i + 1) for i in range(n + 1)]
    for d in range(n + 1):
        for i in range(d + 1):
            j = d - i
            acc = a[i][j]
            for k in range(i + 1):
                for l in range(j + 1):
                    if (k, l) == (i, j) or q[k][l] == 0:
                        continue
                    acc = acc - q[k][l] * b[i - k][j - l]
            q[i][j] = acc / b00
    return q


def ref_pow(a, k):
    n = len(a) - 1
    if k < 0:
        a, k = ref_div(ref_const(1, n), a), -k
    result = ref_const(1, n)
    square = a
    while k:
        if k & 1:
            result = ref_mul(result, square)
        k >>= 1
        if k:
            square = ref_mul(square, square)
    return result


def ref_diff(a, var):
    n = len(a) - 2
    if var == "x":
        return [[(i + 1) * a[i + 1][j] for j in range(n - i + 1)]
                for i in range(n + 1)]
    return [[(j + 1) * a[i][j + 1] for j in range(n - i + 1)]
            for i in range(n + 1)]


def ref_truncated(a, m):
    return [list(a[i][: m - i + 1]) for i in range(m + 1)]


def _bits(c):
    return (type(c).__name__, c.hex() if isinstance(c, float) else c)


def assert_matches(jet, table):
    assert [[_bits(c) for c in row] for row in jet.coeffs] == \
        [[_bits(c) for c in row] for row in table]
    if jet.exact:
        nums = [c for row in jet._rows for c in row]
        assert jet._den > 0 and math.gcd(jet._den, *nums) == 1


ORACLE_BASE = (Fraction(1, 3), Fraction(-2))

_exact_coeff = st.builds(
    Fraction,
    st.integers(-10**6, 10**6),
    st.sampled_from([1, 2, 3, 4, 6, 7, 9, 12, 25, 49, 2**40, 3**25]))
_float_coeff = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-200, -1e-200]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


_COEFFS = {"exact": (_exact_coeff, Fraction(0)), "float": (_float_coeff, 0.0)}


@st.composite
def tables(draw, n, kind):
    """A triangular table of `kind` whose rows are sometimes all zero."""
    coeff, zero = _COEFFS[kind]
    rows = []
    for i in range(n + 1):
        if draw(st.integers(0, 3)) == 0:
            rows.append([zero] * (n - i + 1))
        else:
            rows.append(draw(st.lists(coeff, min_size=n - i + 1,
                                      max_size=n - i + 1)))
    return rows


@st.composite
def table_pairs(draw, kinds=("exact", "exact")):
    n = draw(st.integers(0, 10))
    return tuple(draw(tables(n, k)) for k in kinds)


def jet_of(table):
    return Jet(ORACLE_BASE, len(table) - 1, table)


ORACLE = settings(max_examples=40, deadline=None)


@ORACLE
@given(table_pairs())
def test_exact_ring_operations_match_reference(pair):
    a, b = pair
    ja, jb = jet_of(a), jet_of(b)
    assert_matches(ja, a)
    assert_matches(ja + jb, ref_add(a, b))
    assert_matches(ja - jb, ref_sub(a, b))
    assert_matches(ja * jb, ref_mul(a, b))
    assert_matches(-ja, ref_neg(a))
    assert_matches(ja.to_float(), [[float(c) for c in row] for row in a])


@ORACLE
@given(table_pairs(), st.integers(1, 10**5), st.integers(1, 10**5))
def test_exact_division_matches_reference(pair, p, q):
    a, b = pair
    b[0][0] = Fraction(p, q) if b[0][0] == 0 else b[0][0]
    assert_matches(jet_of(a) / jet_of(b), ref_div(a, b))


@ORACLE
@given(table_pairs(), st.integers(-2, 5))
def test_exact_powers_match_reference(pair, k):
    a, _ = pair
    if k < 0:
        assume(a[0][0] != 0)
    assert_matches(jet_of(a) ** k, ref_pow(a, k))


@ORACLE
@given(st.sampled_from([("exact",), ("float",)]).flatmap(table_pairs),
       st.one_of(st.integers(-50, 50), _exact_coeff, _float_coeff))
def test_scalar_products_match_reference(tables, c):
    (a,) = tables
    n = len(a) - 1
    const = ref_const(c, n)
    assert_matches(jet_of(a) * c, ref_mul(a, const))
    assert_matches(c * jet_of(a), ref_mul(a, const))
    assert_matches(jet_of(a) + c, ref_add(a, const))
    assert_matches(c - jet_of(a), ref_sub(const, a))


@ORACLE
@given(table_pairs(), st.integers(0, 10))
def test_diff_and_truncation_match_reference(pair, m):
    a, _ = pair
    n = len(a) - 1
    ja = jet_of(a)
    assert_matches(ja.truncated(min(m, n)), ref_truncated(a, min(m, n)))
    if n >= 1:
        for var in ("x", "y"):
            assert_matches(ja.diff(var), ref_diff(a, var))


@ORACLE
@given(st.sampled_from([("exact", "float"), ("float", "exact"),
                        ("float", "float")]).flatmap(table_pairs))
def test_float_and_mixed_results_match_reference_bit_for_bit(pair):
    a, b = pair
    ja, jb = jet_of(a), jet_of(b)
    assert not (ja + jb).exact
    assert_matches(ja + jb, ref_add(a, b))
    assert_matches(ja - jb, ref_sub(a, b))
    assert_matches(ja * jb, ref_mul(a, b))
    assert_matches(-jb, ref_neg(b))
    if b[0][0] != 0:
        assert_matches(ja / jb, ref_div(a, b))
        assert_matches(jb ** -2, ref_pow(b, -2))
    assert_matches(jb ** 3, ref_pow(b, 3))
    if len(b) > 1:
        assert_matches(jb.diff("y"), ref_diff(b, "y"))


# ---------------- truncation commutes with every operation ----------------
#
# A coefficient of degree d is computed from input coefficients of degree
# <= d only, by the same operations whatever the truncation order.  So an
# operation at order n truncated to m < n equals the operation on the inputs
# truncated to m: exactly, and for floats bit for bit.  Callers that need
# only low-order values rely on this to evaluate at a lower order.


def _truncation_commutes(op, m, *tables):
    """Compare op on jets of `tables`, truncated afterwards, with op on the
    tables cut to order m.  An op that fails at the full order (a tower
    leaving the float range, say) is not compared."""
    try:
        full = op(*map(jet_of, tables))
    except SingularEvaluationError:
        return
    low = op(*(jet_of(ref_truncated(t, m)) for t in tables))
    assert [[_bits(c) for c in row] for row in
            full.truncated(low.order).coeffs] == \
        [[_bits(c) for c in row] for row in low.coeffs]


@ORACLE
@given(st.sampled_from([("exact", "exact"), ("float", "float"),
                        ("exact", "float"), ("float", "exact")])
       .flatmap(table_pairs),
       st.one_of(st.integers(-50, 50), _exact_coeff, _float_coeff),
       st.integers(-2, 5), st.data())
def test_truncation_commutes_with_every_operation(pair, c, k, data):
    a, b = pair
    assume(len(a) > 1)
    m = data.draw(st.integers(0, len(a) - 2), label="m")
    for op in (add, sub, mul, truediv):
        _truncation_commutes(op, m, a, b)
    unary = [neg, lambda j: j * c, lambda j: c * j, lambda j: j ** k,
             jets.exp, jets.log, jets.sin, jets.cos, jets.sqrt]
    if m >= 1:
        unary += [lambda j: j.diff("x"), lambda j: j.diff("y")]
    for op in unary:
        _truncation_commutes(op, m, a)


def test_float_scalar_product_underflow_gives_positive_zero():
    # as a product with the constant jet: 0.0 + (-1e-200 * 1e-200) is +0.0
    jet = Jet(ORACLE_BASE, 1, [[-1e-200, 2.0], [-0.0]])
    for product in (jet * 1e-200, 1e-200 * jet):
        assert [[c.hex() for c in row] for row in product.coeffs] == \
            [["0x0.0p+0", (2e-200).hex()], ["0x0.0p+0"]]
