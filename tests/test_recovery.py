"""Parallel transport of a witness and metric reconstruction."""

import dataclasses
import functools
import hashlib
import math
import operator
import pathlib
import random
from fractions import Fraction

import pytest

from projmet import cli, recovery
from projmet.expressions import compile_derivatives
from projmet.invariants import (
    CONNECTION_FLOATS,
    CONNECTION_WORDS,
    JetStructure,
    connection_formula,
)
from projmet.jets import SingularEvaluationError
from projmet.model import MetricInput, ProjectiveStructure, ode_from_metric
from projmet.recovery import (
    DegenerateFormError,
    DegenerateWitnessError,
    GridSpec,
    PathDependenceError,
    PsiSection,
    compile_structure,
    connection_values,
    initial_section,
    reconstruct_metric,
    recover_metric,
    roundtrip_residual,
    transport,
)

INPUTS = pathlib.Path(__file__).resolve().parent.parent / "inputs"

FLAT = ProjectiveStructure.flat()
EXP_FAMILY = ProjectiveStructure.from_exprs(
    "(1/2)*x*exp(x*y)", "y/2", "x", "0")


def test_grid_geometry():
    g = GridSpec(center=(1.0, 2.0), h=0.5, n=5, substeps=2)
    offs = g.offsets()
    assert offs == [-2, -1, 0, 1, 2]
    assert g.point(0, 0) == (1.0, 2.0)
    assert g.point(2, -1) == (2.0, 1.5)


def test_initial_section_accepts_definite_witness():
    w = initial_section((1.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    assert w == (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_initial_section_rejects_degenerate_witness():
    # the canonical degenerate kernel vector: psi1 psi3 - psi2^2 = 0
    with pytest.raises(DegenerateWitnessError):
        initial_section((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(DegenerateWitnessError):
        initial_section((1.0, 1.0, 1.0, 0.0, 0.0, 0.0))
    with pytest.raises(DegenerateWitnessError):
        initial_section((1.0, 0.0))


def test_flat_transport_is_constant():
    grid = GridSpec(center=(0.0, 0.0), h=0.2, n=5, substeps=2)
    seed = (2.0, 0.5, 3.0, 0.0, 0.0, 0.0)
    section = transport(FLAT, seed, grid)
    assert section.defect == 0.0
    for value in section.psi.values():
        assert value == seed


def test_exponential_family_recovery():
    """Transported section must reproduce E/G = e^{xy} on the grid."""
    grid = GridSpec(center=(0.0, 0.0), h=0.05, n=9, substeps=4)
    result = recover_metric(EXP_FAMILY, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0), grid)
    assert result.section.defect < 1e-10
    assert result.residual < 1e-10
    assert result.metric.signature == "riemannian"
    for (i, j), (e, f, g, delta, sig) in result.metric.nodes.items():
        x, y = grid.point(i, j)
        assert abs(e / g - math.exp(x * y)) < 1e-9
        assert abs(f) < 1e-12


def test_liouville_structure_recovery():
    metric = MetricInput.from_exprs("x+y", "0", "x+y")
    s = ode_from_metric(metric)
    grid = GridSpec(center=(1.2, 1.15), h=0.04, n=7, substeps=4)
    result = recover_metric(s, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0), grid)
    assert result.residual < 1e-9
    assert result.metric.signature == "riemannian"


def test_lorentzian_witness_signature():
    grid = GridSpec(center=(0.0, 0.0), h=0.1, n=3, substeps=2)
    result = recover_metric(FLAT, (1.0, 0.0, -1.0, 0.0, 0.0, 0.0), grid)
    assert result.metric.signature == "lorentzian"


def test_path_dependence_raises_on_obstructed_structure():
    s = ProjectiveStructure.from_exprs("x^2+y", "y^2", "x*y", "x+1")
    grid = GridSpec(center=(1.0, 1.0), h=0.2, n=5, substeps=4)
    seed = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(PathDependenceError) as err:
        recover_metric(s, seed, grid)
    section = transport(s, seed, grid)
    assert section.defect > recovery.LOOP_TOL
    assert err.value.defect == section.defect
    assert section.defect == max(section.defects.values())


def test_reconstruct_excludes_degenerate_nodes():
    grid = GridSpec(center=(0.0, 0.0), h=0.1, n=3, substeps=1)
    psi = {}
    for i in grid.offsets():
        for j in grid.offsets():
            if (i, j) == (0, 0):
                psi[(i, j)] = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)  # degenerate
            else:
                psi[(i, j)] = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    section = PsiSection(grid, psi[(1, 1)], psi, 0.0)
    metric = reconstruct_metric(section)
    assert (0, 0) in metric.excluded
    assert len(metric.nodes) == 8


def test_reconstruct_all_degenerate_raises():
    grid = GridSpec(center=(0.0, 0.0), h=0.1, n=2, substeps=1)
    psi = {}
    for i in grid.offsets():
        for j in grid.offsets():
            psi[(i, j)] = (1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    section = PsiSection(grid, psi[(0, 0)], psi, 0.0)
    with pytest.raises(DegenerateFormError):
        reconstruct_metric(section)


def test_roundtrip_residual_measures_ode_match():
    """The residual is a real grid measurement: tiny on a faithful
    section, and it jumps when a node value is corrupted."""
    grid = GridSpec(center=(0.0, 0.0), h=0.05, n=9, substeps=4)
    section = transport(EXP_FAMILY, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0), grid)
    clean = roundtrip_residual(reconstruct_metric(section), EXP_FAMILY)
    assert 0 < clean < 1e-10

    bad_psi = dict(section.psi)
    p = bad_psi[(0, 0)]
    bad_psi[(0, 0)] = (p[0] + 1e-3,) + tuple(p[1:])
    broken = PsiSection(grid, section.seed, bad_psi, section.defect)
    assert roundtrip_residual(reconstruct_metric(broken), EXP_FAMILY) > 1e-4


def test_rk4_error_falls_fourth_order():
    """Halving the step divides the residual by ~16 when the measured
    nodes sit at the same physical points (outermost at (0.2, 0.2))."""
    seed = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    res = {}
    for h, n in ((0.2, 7), (0.1, 9)):
        grid = GridSpec(center=(0.0, 0.0), h=h, n=n, substeps=1)
        section = transport(EXP_FAMILY, seed, grid)
        res[h] = roundtrip_residual(reconstruct_metric(section), EXP_FAMILY)
    ratio = res[0.2] / res[0.1]
    assert ratio > 11.0


def test_substeps_refine_single_cells():
    """Subdividing the RK4 edges shrinks the loop defect ~substeps^4."""
    seed = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    grid1 = GridSpec(center=(0.0, 0.0), h=0.2, n=3, substeps=1)
    grid4 = GridSpec(center=(0.0, 0.0), h=0.2, n=3, substeps=4)
    d1 = transport(EXP_FAMILY, seed, grid1).defect
    d4 = transport(EXP_FAMILY, seed, grid4).defect
    assert d4 < d1 / 50


def _jet_connection_values(structure, point):
    o1, o2 = JetStructure.at(structure, point, 2, "float").connection()
    return tuple([[e.value for e in row] for row in o] for o in (o1, o2))


def _matrices(nonzeros):
    """(O1, O2) as 6x6 matrices from each one's structural nonzeros in
    row-major order, 0.0 elsewhere."""
    pair = []
    for values, (_, _, rows) in zip(nonzeros, recovery._connection_kernels()):
        values = iter(values)
        pair.append([[next(values) if j in cols else 0.0 for j in range(6)]
                     for cols in rows])
    return pair


def _assert_connection_close(structure, point):
    got = _matrices(connection_values(compile_structure(structure), point))
    ref = _jet_connection_values(structure, point)
    for mg, mr in zip(got, ref):
        for rg, rr in zip(mg, mr):
            for g, r in zip(rg, rr):
                assert abs(g - r) <= 1e-12 * max(1.0, abs(r)), (point, g, r)


@pytest.mark.parametrize(
    "path", sorted(INPUTS.glob("*.json")), ids=lambda p: p.stem)
def test_compiled_connection_matches_jets_on_inputs(path):
    job = cli.load_job(str(path))
    x, y = (float(c) for c in job.points[0])
    for dx, dy in ((0.0, 0.0), (0.1, -0.05), (-0.07, 0.13)):
        _assert_connection_close(job.structure, (x + dx, y + dy))


def test_compiled_connection_matches_jets_on_transcendental_trees():
    direct = ProjectiveStructure.from_exprs(
        "exp(x*y)/(1+x^2)", "log(2+x)*sin(y)", "cos(x-y)^(-2)",
        "sqrt(3+x*y)*x^(-1)")
    metric = ode_from_metric(MetricInput.from_exprs(
        "exp(x)*cos(y)+2", "sin(x*y)/5", "sqrt(4+y^2)*(2+x)^(-1)"))
    for structure in (direct, metric):
        for point in ((0.3, -0.2), (1.1, 0.7), (-0.6, 0.4)):
            _assert_connection_close(structure, point)


@pytest.mark.parametrize("n, distinct", [(9, 1089), (21, 6321)])
def test_transport_evaluates_each_lattice_node_once(monkeypatch, n, distinct):
    """The RK4 nodes are keyed by lattice index, so edges that share a
    node share its evaluation: 2 n (8 (n - 1) + 1) - n^2 nodes."""
    points = []
    original = recovery.connection_values

    def counted(structure, point):
        points.append(point)
        return original(structure, point)

    monkeypatch.setattr(recovery, "connection_values", counted)
    grid = GridSpec(center=(0.0, 0.0), h=0.05, n=n, substeps=4)
    transport(EXP_FAMILY, (1.0, 0.0, 1.0, 0.0, 0.0, 0.0), grid)
    assert len(points) == distinct
    assert len(set(points)) == distinct
    for i in grid.offsets():
        for j in grid.offsets():
            assert grid.point(i, j) in points


def test_transport_singular_node_raises_singular_evaluation():
    s = ode_from_metric(MetricInput.from_exprs("1+x*y", "0", "2+1/(x-1/8)"))
    grid = GridSpec(center=(0.0, 0.0), h=0.0625, n=5, substeps=1)
    with pytest.raises(SingularEvaluationError) as err:
        transport(s, (1.0, 0.0, 0.5, 0.0, 0.0, 0.0), grid)
    assert err.value.base == (0.125, 0.0)



def test_connection_pattern_is_the_formula_s_structural_nonzeros():
    """On seeded random derivatives, every entry of (O1, O2) outside the
    traced pattern the kernels and RK4 segments are compiled for is exactly
    the formula's zero, and on finite nonzero ones every entry in it is
    nonzero: an edit of `connection_formula` that moves a nonzero cannot
    leave them stale.  Each axis kernel returns the pattern's entries of
    the formula's pair by `repr`, signed zeros, infinities and nan among
    the derivative values included."""
    rng = random.Random(20260)
    kernels = recovery._connection_kernels()
    assert [sum(map(len, rows)) for _, _, rows in kernels] == [19, 19]
    assert [sum(map(len, words)) for words, _, _ in kernels] == [17, 17]
    special = (0.0, -0.0, math.inf, -math.inf, math.nan)
    for trial in range(400):
        finite = trial < 200
        derivs = tuple(tuple(
            rng.uniform(-3.0, 3.0) if finite or rng.random() < 0.6
            else rng.choice(special) for _ in range(6)) for _ in range(4))
        pair = connection_formula(derivs, 0.0, CONNECTION_FLOATS)
        for m, (words, kernel, rows) in zip(pair, kernels):
            read = [d[CONNECTION_WORDS.index(w)]
                    for d, ws in zip(derivs, words) for w in ws]
            assert repr(kernel(*read)) == repr(tuple(
                row[j] for row, cols in zip(m, rows) for j in cols))
            for row, cols in zip(m, rows):
                for j, e in enumerate(row):
                    if j in cols:
                        assert e != 0.0 or not finite
                    else:
                        assert repr(e) == "0.0" and type(e) is float


# The dense RK4 that the compiled segments replaced, kept as the reference:
# every row sums all six products, structural zeros included, from 0.0 left
# to right (what `sum` did through Python 3.11; later versions compensate
# float sums, so the fold is spelled out).
def _neg_mat_vec(m, v):
    return [-functools.reduce(operator.add, map(operator.mul, row, v), 0.0)
            for row in m]


def _axpy(v, a, w):
    return [vi + a * wi for vi, wi in zip(v, w)]


def _rk4_segment(omegas, grid, start, axis, direction, psi):
    substeps = grid.substeps
    h = direction * float(grid.h) / substeps
    first = [2 * substeps * c for c in start]
    cur = list(psi)

    def omega(s):
        node = list(first)
        node[axis] += direction * s
        return omegas(tuple(node))[axis]

    for k in range(substeps):
        m0 = omega(2 * k)
        mh = omega(2 * k + 1)
        m1 = omega(2 * k + 2)
        k1 = _neg_mat_vec(m0, cur)
        k2 = _neg_mat_vec(mh, _axpy(cur, h / 2.0, k1))
        k3 = _neg_mat_vec(mh, _axpy(cur, h / 2.0, k2))
        k4 = _neg_mat_vec(m1, _axpy(cur, h, k3))
        cur = [
            c + h / 6.0 * (a + 2.0 * b + 2.0 * cc + dd)
            for c, a, b, cc, dd in zip(cur, k1, k2, k3, k4)
        ]
    return cur


def _dense_march(omegas, grid, seed, first_axis):
    offs = grid.offsets()
    psi = {(0, 0): list(seed)}
    offs_set = set(offs)

    def sweep(anchor, axis):
        ai, aj = anchor
        for direction in (1, -1):
            cur = list(psi[anchor])
            pos = ai if axis == 0 else aj
            while pos + direction in offs_set:
                start = (pos, aj) if axis == 0 else (ai, pos)
                cur = _rk4_segment(omegas, grid, start, axis, direction, cur)
                pos += direction
                psi[(pos, aj) if axis == 0 else (ai, pos)] = list(cur)

    sweep((0, 0), first_axis)
    for o in offs:
        sweep((o, 0) if first_axis == 0 else (0, o), 1 - first_axis)
    return psi


def _dense_transport(structure, seed, grid):
    """(section, defects) of the dense march, or the message of the
    SingularEvaluationError at its first non-finite node.  Every node gets
    both matrices from `connection_formula` on all 24 derivative values,
    as the transport did before its per-axis kernels."""
    evaluate = compile_derivatives(structure.coefficients,
                                   [CONNECTION_WORDS] * 4)

    @functools.cache
    def omegas(node):
        v = evaluate(*grid.lattice_point(*node))
        return connection_formula((v[0:6], v[6:12], v[12:18], v[18:24]),
                                  0.0, CONNECTION_FLOATS)

    psi_a = _dense_march(omegas, grid, seed, 0)
    psi_b = _dense_march(omegas, grid, seed, 1)
    for key, va in psi_a.items():
        vb = psi_b[key]
        if not all(map(math.isfinite, va + vb)):
            return str(SingularEvaluationError(
                "transported section is not finite at grid node (%d, %d)"
                % key, grid.point(*key)))
    return ({k: tuple(v) for k, v in psi_a.items()},
            {k: max(abs(a - b) for a, b in zip(va, psi_b[k]))
             for k, va in psi_a.items()})


def _compiled_transport(structure, seed, grid):
    try:
        section = transport(structure, seed, grid)
    except SingularEvaluationError as err:
        return str(err)
    return section.psi, section.defects


# A seed of signed zeros shows the sign of every zero the rows sum.
@pytest.mark.parametrize("seed", [(1.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                                  (1.0, -0.0, 1.0, -0.0, -0.0, -0.0)],
                         ids=["zeros", "negative-zeros"])
@pytest.mark.parametrize("substeps", [1, 4])
@pytest.mark.parametrize("n", [9, 21])
@pytest.mark.parametrize("name", ["exp-family-c1", "liouville-metric",
                                  "flat"])
def test_compiled_segments_match_the_dense_rk4_bit_for_bit(name, n,
                                                           substeps, seed):
    job = cli.load_job(str(INPUTS / (name + ".json")))
    grid = dataclasses.replace(cli._grid_in(job), h=0.05, n=n,
                               substeps=substeps)
    got = _compiled_transport(job.structure, seed, grid)
    assert repr(got) == repr(_dense_transport(job.structure, seed, grid))


@pytest.mark.parametrize("a", ["10^150*x", "exp(60*x)", "exp(30*x+30*y)"])
def test_compiled_segments_stop_at_the_dense_rk4_s_non_finite_node(a):
    """Where the section overflows, the compiled segments raise at the
    node the dense march first leaves the floats."""
    s = ProjectiveStructure.from_exprs(a, "0", "0", a)
    grid = GridSpec(center=(0.0, 0.0), h=0.5, n=9, substeps=1)
    seed = (1.0, 0.0, 1.0, 0.0, 0.0, 0.0)
    got = _compiled_transport(s, seed, grid)
    assert isinstance(got, str) and "not finite" in got
    assert got == _dense_transport(s, seed, grid)


# The outcomes of the transport that evaluated all 24 derivative values and
# both matrices at every lattice node, on structures with singular nodes
# and grids centred at (0, 0) with h = 0.05: the SingularEvaluationError's
# message and base, or the first 16 hex digits of the sha256 of the repr of
# the section and its defects.  An ODE coefficient is placed in each of
# A0..A3 in turn, the others 0; a list holds one outcome per place.
SINGULAR_OUTCOMES = [
    ("E=1+x*y, F=0, G=2+1/(x-1/8)", 9, 4,
     ("division by zero (base point (0.125, 0.0))", (0.125, 0.0))),
    ("E=1+x*y, F=0, G=2+1/(x-1/8)", 5, 1, "2afbb38ddc8c9067"),
    ("E=1+x*y, F=0, G=2+sqrt(x+1/10)", 9, 4,
     ("sqrt of a non-positive value (base point (-0.1, 0.0))", (-0.1, 0.0))),
    ("E=1+x*y, F=0, G=2+sqrt(x+1/10)", 5, 1,
     ("sqrt of a non-positive value (base point (-0.1, 0.0))", (-0.1, 0.0))),
    ("E=1+x*y, F=0, G=2+log(y+1/8)", 9, 4,
     ("log of a non-positive value (base point (-0.2, -0.125))",
      (-0.2, -0.125))),
    ("E=1+x*y, F=0, G=2+log(y+1/8)", 5, 1, "262299578cd0b842"),
    ("x^(-1)", 9, 4, ("zero raised to a negative power (base point "
                      "(0.0, 0.0))", (0.0, 0.0))),
    ("x^(-1)", 5, 1, ("zero raised to a negative power (base point "
                      "(0.0, 0.0))", (0.0, 0.0))),
    ("sqrt(1/16 - x)", 9, 4, ("sqrt of a non-positive value (base point "
                              "(0.0625, 0.0))", (0.0625, 0.0))),
    ("sqrt(1/16 - x)", 5, 1, ("sqrt of a non-positive value (base point "
                              "(0.07500000000000001, 0.0))",
                              (0.07500000000000001, 0.0))),
    ("sqrt(x*x)", 9, 4, ("sqrt of a non-positive value (base point "
                         "(0.0, 0.0))", (0.0, 0.0))),
    ("sqrt(x*x)", 5, 1, ("sqrt of a non-positive value (base point "
                         "(0.0, 0.0))", (0.0, 0.0))),
    ("1/(x - 1/16)^2", 9, 4, ("division by zero (base point (0.0625, 0.0))",
                              (0.0625, 0.0))),
    ("1/(x - 1/16)^2", 5, 1, ["832e3f2661c772cc", "0e6bdfd65c874fd7",
                              "53bd0336af9b5dbf", "e3fd2ff9491aee68"]),
    ("exp(200/(x+1/8))", 9, 4, ("value out of float range (base point "
                                "(0.0, 0.0))", (0.0, 0.0))),
    ("exp(200/(x+1/8))", 5, 1, ("value out of float range (base point "
                                "(0.0, 0.0))", (0.0, 0.0))),
    ("1/(10^170*(x-1/16))", 9, 4, ("value out of float range (base point "
                                   "(0.0, 0.0))", (0.0, 0.0))),
    ("1/(10^170*(x-1/16))", 5, 1, ("value out of float range (base point "
                                   "(0.0, 0.0))", (0.0, 0.0))),
]


@pytest.mark.parametrize("case, n, substeps, outcomes", SINGULAR_OUTCOMES)
def test_transport_keeps_its_outcomes_on_singular_nodes(case, n, substeps,
                                                        outcomes):
    """Evaluating each lattice node only for the axes it is integrated
    along, over only the derivative words their kernels read, raises at
    the same node with the same message, or gives the same section."""
    if case.startswith("E="):
        structures = [ode_from_metric(MetricInput.from_exprs(
            *(part.split("=")[1] for part in case.split(", "))))]
    else:
        structures = [ProjectiveStructure.from_exprs(
            *(case if k == place else "0" for k in range(4)))
            for place in range(4)]
    if not isinstance(outcomes, list):
        outcomes = [outcomes] * len(structures)
    grid = GridSpec(center=(0.0, 0.0), h=0.05, n=n, substeps=substeps)
    for structure, want in zip(structures, outcomes):
        try:
            section = transport(structure, (1.0, 0.0, 0.5, 0.0, 0.0, 0.0),
                                grid)
        except SingularEvaluationError as err:
            got = (str(err), err.base)
        else:
            got = hashlib.sha256(repr((section.psi, section.defects))
                                 .encode()).hexdigest()[:16]
        assert got == want
