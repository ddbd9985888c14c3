"""Truncated Taylor arithmetic: hand values, ring laws, error paths."""

import math
import random
from fractions import Fraction

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
