"""Parallel transport of a witness and metric reconstruction."""

import math
import pathlib
from fractions import Fraction

import pytest

from projmet import cli, recovery
from projmet.invariants import JetStructure
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
    solution_space_dim,
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


def test_solution_space_dim_wrapper():
    assert solution_space_dim(FLAT, (Fraction(0), Fraction(0))) == 6
    pain = ProjectiveStructure.from_exprs("6*y^2+x", "0", "0", "0")
    assert solution_space_dim(pain, (Fraction(0), Fraction(0))) == 1


def _jet_connection_values(structure, point):
    o1, o2 = JetStructure.at(structure, point, 2, "float").connection()
    return tuple([[e.value for e in row] for row in o] for o in (o1, o2))


def _assert_connection_close(structure, point):
    got = connection_values(compile_structure(structure), point)
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

