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

from jet_reference import fused


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


def test_mixed_arithmetic_is_refused():
    base = (Fraction(1), Fraction(1))
    a = Jet.constant(Fraction(1, 3), base, 2)
    b = Jet.constant(0.5, base, 2)
    assert a.exact and not b.exact
    for op in (add, sub, mul, truediv):
        for args in ((a, b), (b, a)):
            with pytest.raises(JetError, match="one arithmetic"):
                op(*args)
        # an exact jet refuses a float, which joins no exact table
        for args in ((a, 0.5), (0.5, a)):
            with pytest.raises(JetError, match="refuses the float"):
                op(*args)
    assert a != Jet.constant(1 / 3, base, 2)


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


@pytest.mark.parametrize("base", [(Fraction(1), Fraction(2)), (1.0, 2.0)])
def test_zeroth_power_keeps_the_arithmetic(base):
    # an exact x^0 of a float jet would mix arithmetics in a float
    # structure, such as an ode job with A1 = "x^0" in float mode
    x = jet_x(base, 3)
    assert (x ** 0).exact is x.exact
    assert (x ** 0).value == 1


def test_base_mismatch_rejected():
    a = jet_x((Fraction(0), Fraction(0)), 2)
    b = jet_x((Fraction(1), Fraction(0)), 2)
    with pytest.raises(JetError):
        a + b


# ---------------- oracle: integer tables against plain tables ----------------
#
# The reference below works on plain tables of Fractions and floats, one
# coefficient at a time, in the loop order the jet operations keep for
# floats.  Exact results must equal it; float results must equal it bit for
# bit, signed zeros included.  Scalars are lifted to constant tables, as
# `c * jet` means the product with the constant jet c; the reference's
# float-by-Fraction operations round the Fraction first, which is how a
# Fraction joins a float jet.

from hypothesis import assume, example, given, settings, strategies as st


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
        assert jet._den > 0 and math.gcd(jet._den, *jet._cells) == 1


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
# 1/3 joins a float jet as float(1/3), the float that promotion gave
@example(([[0.1, -2.5], [1e-200]],), Fraction(1, 3))
def test_scalar_products_match_reference(tables, c):
    (a,) = tables
    n = len(a) - 1
    if _is_exact_table(a) and isinstance(c, float):
        ja = jet_of(a)
        for op in (lambda: ja * c, lambda: c * ja, lambda: ja + c,
                   lambda: c - ja, lambda: ja / c):
            with pytest.raises(JetError, match="refuses the float"):
                op()
        return
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
def test_float_results_match_reference_bit_for_bit(pair):
    a, b = pair
    ja, jb = jet_of(a), jet_of(b)
    if ja.exact is not jb.exact:  # jets of two arithmetics never meet
        for op in (add, sub, mul, truediv):
            for args in ((ja, jb), (jb, ja)):
                with pytest.raises(JetError, match="one arithmetic"):
                    op(*args)
        return
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
@given(st.sampled_from([("exact", "exact"), ("float", "float")])
       .flatmap(table_pairs),
       st.one_of(st.integers(-50, 50), _exact_coeff, _float_coeff),
       st.integers(-2, 5), st.data())
def test_truncation_commutes_with_every_operation(pair, c, k, data):
    a, b = pair
    assume(len(a) > 1)
    m = data.draw(st.integers(0, len(a) - 2), label="m")
    for op in (add, sub, mul, truediv):
        _truncation_commutes(op, m, a, b)
    unary = [neg, lambda j: j ** k,
             jets.exp, jets.log, jets.sin, jets.cos, jets.sqrt]
    if not (_is_exact_table(a) and isinstance(c, float)):
        unary += [lambda j: j * c, lambda j: c * j]
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


_scale_ints = st.one_of(
    st.integers(-9, 9), st.integers(-2**80, 2**80),
    st.sampled_from([0, 2**53 + 1, -(2**53 + 1), 2**1024, -2**1100]))


@ORACLE
@given(table_pairs(("exact", "float")), _scale_ints)
def test_int_scaling_is_the_fraction_scaling(pair, k):
    """k * jet scales by the int itself, as Fraction(k) * jet does: the
    same exact table, the same float bits, and OverflowError where k
    leaves the float range."""
    for jet in map(jet_of, pair):
        try:
            want = Fraction(k) * jet
        except OverflowError:
            for product in (lambda: k * jet, lambda: jet * k):
                with pytest.raises(OverflowError):
                    product()
            continue
        for got in (k * jet, jet * k):
            assert _jet_bits(got) == _jet_bits(want)
            if got.exact:  # the same reduced numerators and denominator
                assert got == want
        with pytest.raises(TypeError):
            True * jet


# ---------------- compiled product kernels ----------------
#
# `_product_kernel(n)` must give `_loop_convolve`'s table bit for bit
# whenever its own table is finite; `_convolve` runs the loop again when it
# is not, and returns the zero table for a zero operand, so through
# `_convolve` the two agree on every input.

_kernel_finite = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.5, 5e-324, -5e-324, 2.5e-308,
                     1e-160]),
    st.floats(-1e3, 1e3), st.floats(-1e-300, 1e-300))
_kernel_any = st.one_of(
    _kernel_finite,
    st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
_kernel_int = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70),
                        st.sampled_from([2**61 - 1, -2**63, 3**40]))


@st.composite
def kernel_tables(draw, n, coeff, zero):
    """A dense, sparse or constant triangular table of order n."""
    shape = draw(st.sampled_from(["dense", "sparse", "constant"]))
    cells = [(i, j) for i in range(n + 1) for j in range(n - i + 1)]
    rows = [[zero] * (n - i + 1) for i in range(n + 1)]
    if shape == "constant":
        cells = cells[:1]
    elif shape == "sparse":
        cells = draw(st.lists(st.sampled_from(cells), max_size=4))
    for i, j in cells:
        rows[i][j] = draw(coeff)
    return rows


def _flat(rows):
    return tuple(c for row in rows for c in row)


@st.composite
def kernel_pairs(draw, coeff, zero):
    """An order and two tables drawn as rows, flattened to the kernels'
    row-major layout."""
    n = draw(st.integers(0, 16))
    return n, _flat(draw(kernel_tables(n, coeff, zero))), \
        _flat(draw(kernel_tables(n, coeff, zero)))


def _table_bits(table):
    """The bits of each cell of a flat table or of a table of rows."""
    return [_table_bits(c) if isinstance(c, (tuple, list)) else _bits(c)
            for c in table]


@ORACLE
@given(kernel_pairs(_kernel_int, 0))
def test_integer_kernel_matches_loop(case):
    n, a, b = case
    loop = _table_bits(jets._loop_convolve(a, b, n, 0))
    assert _table_bits(jets._product_kernel(n)(a, b, 0)) == loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "KERNEL_AT", 0)
        assert _table_bits(jets._convolve(a, b, n, 0)) == loop


# The product's cell (1, 1) sums 1 + 1e-16 + 1e-16 - 1 in a's order to 0,
# and in b's order to 2**-52, so it pins the order of the terms.
_ORDER_SENSITIVE = (2, (1.0, 1.0, 0.0, 1.0, -1.0, 0.0),
                    (1.0, 1e-16, 0.0, 1e-16, 1.0, 0.0))


@ORACLE
@given(kernel_pairs(_kernel_finite, 0.0))
@example(_ORDER_SENSITIVE)
def test_float_kernel_matches_loop_bit_for_bit(case):
    n, a, b = case
    assert _table_bits(jets._product_kernel(n)(a, b, 0.0)) == \
        _table_bits(jets._loop_convolve(a, b, n, 0.0))


@ORACLE
@given(kernel_pairs(_kernel_any, 0.0))
@example(_ORDER_SENSITIVE)
def test_non_finite_kernel_products_fall_back_to_the_loop(case):
    n, a, b = case
    loop = _table_bits(jets._loop_convolve(a, b, n, 0.0))
    kernel = jets._product_kernel(n)(a, b, 0.0)
    if all(math.isfinite(c) for c in kernel):
        assert _table_bits(kernel) == loop
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "KERNEL_AT", 0)
        assert _table_bits(jets._convolve(a, b, n, 0.0)) == loop


def test_an_orders_kernel_is_compiled_at_its_32nd_product(monkeypatch):
    assert jets.KERNEL_AT == 32
    monkeypatch.setattr(jets, "_loop_products", {})
    jets._product_kernel.cache_clear()
    x = jet_x((Fraction(1), Fraction(2)), 3)
    y = jet_y((0.5, 0.25), 4)
    zero = Jet.constant(0, x.base, 3)
    for _ in range(40):  # a zero operand multiplies nothing and counts nothing
        assert (x * zero).is_zero()
    for _ in range(31):
        x * x
        y * y
    assert jets._product_kernel.cache_info().currsize == 0
    assert x * x == Jet(x.base, 3, [[1, 0, 0, 0], [2, 0, 0], [1, 0], [0]])
    assert jets._product_kernel.cache_info().currsize == 1
    y * y
    assert jets._product_kernel.cache_info().currsize == 2


# ---------------- the fused multiply-subtract ----------------
#
# `jets._mul_sub` on raw tables (through `jet_reference.fused`, which reads
# pairs of a higher order than head truncated) must give the chain
# head - a1*b1 - a2*b2 - ... of jet products and differences bit for bit,
# signed zeros, infinities and nans included, and exactly for exact jets.

_FUSED_KINDS = {"exact": (_exact_coeff, Fraction(0)),
                "float": (_kernel_finite, 0.0),
                "wild": (_kernel_any, 0.0)}


@st.composite
def mul_sub_cases(draw):
    n = draw(st.integers(0, 10))
    # one arithmetic per case: exact, or floats finite or not
    kinds = draw(st.sampled_from((("exact",), ("float", "wild"))))

    def jet(extra=0):
        kind = draw(st.sampled_from(kinds))
        coeff, zero = _FUSED_KINDS[kind]
        order = n + draw(st.integers(0, extra))
        return Jet(ORACLE_BASE, order, draw(kernel_tables(order, coeff, zero)))

    head = jet()
    return head, [(jet(2), jet(2)) for _ in range(draw(st.integers(0, 6)))]


def _chain(head, pairs):
    n = head.order
    for a, b in pairs:
        head = head - a.truncated(n) * b.truncated(n)
    return head


def _jet_bits(jet):
    return jet.exact, _table_bits(jet.coeffs)


def _assert_mul_sub_is_the_chain(head, pairs):
    chain = _jet_bits(_chain(head, pairs))
    for kernel_at in (0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "KERNEL_AT", kernel_at)
            assert _jet_bits(fused(head, pairs)) == chain


def _fused(order, head, *pairs):
    def jet(rows):
        return Jet(ORACLE_BASE, order, rows)
    return jet(head), [(jet(a), jet(b)) for a, b in pairs]


@settings(max_examples=150, deadline=None)
@given(mul_sub_cases())
# 1 - (0 + 4e-17 + 4e-17) rounds down, but 1 - 4e-17 - 4e-17 is 1
@example(_fused(1, [[0.0, 1.0], [0.0]],
                ([[1.0, 1.0], [0.0]], [[4e-17, 4e-17], [0.0]])))
# the product's cell (1, 1) sums 1 + 1e-16 + 1e-16 - 1 in a's order to 0,
# and in b's order to 2**-52
@example(_fused(2, [[0.0] * 3, [0.0] * 2, [0.0]],
                ([[1.0, 1.0, 0.0], [1.0, -1.0], [0.0]],
                 [[1.0, 1e-16, 0.0], [1e-16, 1.0], [0.0]])))
def test_mul_sub_is_the_chain_bit_for_bit(case):
    _assert_mul_sub_is_the_chain(*case)


def test_mul_sub_reads_pairs_truncated_and_refuses_lower_orders():
    x = jet_x(ORACLE_BASE, 4)
    head = Jet.constant(1, ORACLE_BASE, 2)
    assert fused(head, [(x, x)]) == head - (x * x).truncated(2)
    with pytest.raises(InsufficientOrderError):
        fused(Jet.constant(1, ORACLE_BASE, 5), [(x, x)])


# ---------------- the flat layout ----------------
#
# A jet keeps its table as one flat row-major tuple and reads it through
# plans built once per order.  The layout must not show: at every order
# up to 16, `coeffs` gives back the rows, truncation and differentiation
# give the row-table reference's tables, and `_mul_sub` gives the chain.

_layout_exact = st.builds(
    Fraction, st.integers(-2**70, 2**70),
    st.sampled_from([1, 2, 3, 7, 12, 2**40, 3**25, 2**61 - 1]))


@st.composite
def layout_cases(draw):
    """An order n, a table of order n drawn as rows, and pairs of tables
    of orders n to n + 2, all exact or all float."""
    n = draw(st.integers(0, 16))
    coeff, zero = draw(st.sampled_from(((_layout_exact, Fraction(0)),
                                        (_kernel_any, 0.0))))

    def table(order):
        return draw(kernel_tables(order, coeff, zero))

    extras = draw(st.lists(st.integers(0, 2), max_size=3))
    return n, table(n), [(table(n + e), table(n + e)) for e in extras]


@settings(max_examples=60, deadline=None)
@given(layout_cases())
def test_flat_layout_matches_row_tables(case):
    n, rows, pairs = case
    jet = Jet(ORACLE_BASE, n, rows)
    assert_matches(jet, rows)
    for m in range(n + 1):
        cut = ref_truncated(rows, m)
        assert_matches(jet.truncated(m), cut)
        for var in "xy" if m else "":
            assert_matches(jet.truncated(m).diff(var), ref_diff(cut, var))
    _assert_mul_sub_is_the_chain(jet, [(jet_of(a), jet_of(b))
                                       for a, b in pairs])


# ---------------- elementary functions ----------------
#
# exp, log, sin, cos and sqrt convert the jet to float, take the univariate
# Taylor tower t_0 .. t_n of the function at its constant term c0, and
# compose it with a - c0 by Horner steps: start from the constant t_n, then
# r * (a - c0) + t_k for k = n - 1 down to 0.  Their tables must equal those
# steps through the reference operations bit for bit.  A tower that leaves
# the float range, a log or sqrt of a non-positive constant term, and a sin
# or cos of a non-finite one, must raise SingularEvaluationError with the
# same message, the domain's being the one the scalar evaluators give.


def _ref_sqrt_tower(c0, n):
    tower = [math.sqrt(c0)]
    for k in range(1, n + 1):
        tower.append(tower[-1] * (0.5 - (k - 1)) / (k * c0))
    return tower


REF_TOWERS = {
    "exp": lambda c0, n: [math.exp(c0) / math.factorial(k)
                          for k in range(n + 1)],
    "log": lambda c0, n: [math.log(c0)] + [(-1.0) ** (k + 1) / (k * c0**k)
                                           for k in range(1, n + 1)],
    "sin": lambda c0, n: [math.sin(c0 + k * math.pi / 2) / math.factorial(k)
                          for k in range(n + 1)],
    "cos": lambda c0, n: [math.cos(c0 + k * math.pi / 2) / math.factorial(k)
                          for k in range(n + 1)],
    "sqrt": _ref_sqrt_tower,
}


def ref_elementary(name, a):
    """The table of `name` applied to the table a, or the message of the
    SingularEvaluationError it raises at ORACLE_BASE."""
    n = len(a) - 1
    where = " (base point (1/3, -2))"
    a = [[float(c) for c in row] for row in a]
    c0 = a[0][0]
    if name in ("log", "sqrt") and c0 <= 0:
        return "%s of a non-positive value" % name + where
    if name in ("sin", "cos") and not math.isfinite(c0):
        return "%s of a non-finite value" % name + where
    try:
        tower = REF_TOWERS[name](c0, n)
    except (OverflowError, ZeroDivisionError, ValueError):
        return "the Taylor tower of %s leaves the float range" % name + where
    u = ref_sub(a, ref_const(c0, n))
    result = ref_const(tower[n], n)
    for k in range(n - 1, -1, -1):
        result = ref_add(ref_mul(result, u), ref_const(tower[k], n))
    return result


# constant terms whose towers overflow, underflow to a zero divisor, or
# leave the domain
_tower_edges = st.sampled_from([
    Fraction(800), Fraction(-800), 710.0, 1e200, 1e-200, 1e-300, 5e-324,
    -0.0, 0.0, Fraction(0), Fraction(-1, 3), math.inf, -math.inf, math.nan])


@st.composite
def elementary_cases(draw):
    kind = draw(st.sampled_from(sorted(_FUSED_KINDS)))
    coeff, zero = _FUSED_KINDS[kind]
    a = draw(kernel_tables(draw(st.integers(0, 10)), coeff, zero))
    shift = draw(st.sampled_from(["none", "positive", "edge"]))
    if shift == "positive":  # inside the domain of log and sqrt
        a[0][0] = abs(a[0][0]) + 1
    elif shift == "edge":
        c0 = draw(_tower_edges)
        if kind == "exact" and isinstance(c0, float):
            a = [[float(c) for c in row] for row in a]
        a[0][0] = c0
    return draw(st.sampled_from(sorted(REF_TOWERS))), a


@settings(max_examples=120, deadline=None)
@given(elementary_cases())
# (1/3) / c0**3 and 1 / (3 * c0**3) round differently
@example(("log", [[0.7, 0.25, -1.0, 0.5], [1.0, 0.0, 2.0], [0.0, 1.5],
                  [-0.5]]))
@example(("sqrt", [[Fraction(1, 7), Fraction(2), Fraction(0)],
                   [Fraction(-3, 4), Fraction(0)], [Fraction(5)]]))
@example(("exp", [[Fraction(800), Fraction(1)], [Fraction(0)]]))
@example(("log", [[1e-300, 1.0], [0.0]]))
def test_elementary_functions_match_reference_bit_for_bit(case):
    name, a = case
    want = ref_elementary(name, a)
    for kernel_at in (0, math.inf):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jets, "KERNEL_AT", kernel_at)
            if isinstance(want, str):
                with pytest.raises(SingularEvaluationError) as err:
                    getattr(jets, name)(jet_of(a))
                assert str(err.value) == want
            else:
                got = getattr(jets, name)(jet_of(a))
                assert not got.exact
                assert _table_bits(got.coeffs) == _table_bits(want)
