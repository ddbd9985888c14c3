"""Covariant derivative rows, kept raw (`JetStructure.row`), against the
chain of jet operations D_a V = dV/da - V . O_a (`jet_reference`), which
is the reference: float cells by `float.hex` and type, signed zeros
included, and exact cells as reduced Fractions.  V and the connection
themselves are checked against their formulas in `test_tapes.py`."""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from projmet import jets
from projmet.cli import load_job
from projmet.expressions import ExactModeError
from projmet.invariants import Columns, JetStructure, cov_deriv, level_words
from projmet.jets import Jet

from jet_reference import chain_cov_deriv, raw_row, row_jets

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"


def _cells(jet):
    """The jet's cells as reduced Fractions, or as floats' type and hex."""
    if jet.exact:
        return [c for row in jet.coeffs for c in row]
    return [(type(c), c.hex()) for row in jet.coeffs for c in row]


def _assert_row(got, want):
    """A raw row against six jets: same order, arithmetic and cells."""
    n, den, _ = got
    assert n == want[0].order and (den is not None) is want[0].exact
    if den is not None:
        assert den > 0
    got = row_jets(got, want[0].base)
    assert [_cells(g) for g in got] == [_cells(w) for w in want]


# ---------------- committed inputs ----------------


@pytest.mark.parametrize("mode", ("rational", "float", "auto"))
@pytest.mark.parametrize(
    "path", sorted(INPUTS.glob("*.json")), ids=lambda p: p.stem)
def test_rows_through_level_7_match_the_jet_chain(path, mode):
    """At order 10 every row through level 7 is the chain's, each word
    derived from its prefix's chain row; the last level is bare."""
    job = load_job(str(path))
    for point in job.points:
        try:
            js = JetStructure.at(job.structure, point, 10, mode)
        except ExactModeError:  # a transcendental tree or float point
            assert mode == "rational"
            return
        omega = dict(zip("xy", js.connection()))
        want = {"": row_jets(js.row(""), js.base)}
        for k in range(1, 8):
            for w in level_words(k):
                want[w] = chain_cov_deriv(want[w[:-1]], omega[w[-1]], w[-1])
                _assert_row(js.row(w), want[w])
        assert js.row("x" * 7)[0] == 0


# ---------------- seeded random tables ----------------

POOL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 5e-324,
        -5e-324)


def _random_jet(rng, base, order, exact, zero_share):
    def cell():
        if rng.random() < zero_share:
            return 0 if exact else rng.choice((0.0, -0.0))
        if exact:
            return Fraction(rng.randint(-30, 30), rng.choice(
                (1, 2, 3, 5, 9, 12, 49)))
        if rng.random() < 0.3:
            return rng.choice(POOL)
        return rng.uniform(-3.0, 3.0)
    return Jet(base, order, [[cell() for _ in range(order + 1 - i)]
                             for i in range(order + 1)])


@pytest.mark.parametrize("path", (0, math.inf))
@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_rows_match_the_jet_chain_on_random_tables(exact, path,
                                                   monkeypatch):
    """Seeded rows and connections, floats holding +-0.0, +-inf, nan,
    huge and subnormal cells, derived letter by letter down to order 0 on
    the loop and on the kernel product path.  Some connection entries are
    zero, so their columns hold fewer links."""
    monkeypatch.setattr(jets, "KERNEL_AT", path)
    rng = random.Random(4040 + exact)
    base = (Fraction(1, 2), Fraction(-1, 3))
    for trial in range(30):
        n = 1 + trial % 7
        want = tuple(_random_jet(rng, base, n, exact, 0.2) for _ in range(6))
        got = raw_row(want)
        while n:
            var = rng.choice("xy")
            top = n - 1 + rng.randint(0, 2)
            omega = [[_random_jet(rng, base, top, exact,
                                  rng.choice((0.2, 1.0)))
                      for _ in range(6)] for _ in range(6)]
            got = cov_deriv(got, Columns.of(omega), var)
            want = chain_cov_deriv(want, omega, var)
            _assert_row(got, want)
            n -= 1


def test_bare_level_sums_each_product_from_zero():
    """At order 0 a link subtracts 0.0 + a*b, as the chain does: a product
    that underflows to -0.0 becomes +0.0 first, so -0.0 stays -0.0."""
    base = (Fraction(0), Fraction(0))
    tiny = 5e-324

    def jet(order, cells):
        return jets._jet(base, order, tuple(cells), None)

    zero1, zero0 = jet(1, (0.0,) * 3), jet(0, (0.0,))
    row = (jet(1, (tiny, 0.0, -0.0)),) + (zero1,) * 5
    omega = [[zero0] * 6 for _ in range(6)]
    omega[0][0] = jet(0, (-tiny,))
    want = chain_cov_deriv(row, omega, "x")
    assert want[0].value.hex() == "-0x0.0p+0"
    _assert_row(cov_deriv(raw_row(row), Columns.of(omega), "x"), want)
