"""The runtime stays stdlib-only: every absolute import in the package
names a standard-library module.  Importing it compiles no jet kernel,
connection kernel or RK4 segment and builds no jet plan."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "projmet"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    outside = [n for n in names
               if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside


def test_importing_builds_no_kernel_and_no_plan():
    """A fresh process that imports the package and its CLI has recorded no
    formula as trees or as a tape, the tractor stack's included, compiled
    no product kernel, connection kernel or RK4 segment, and built no
    truncation, derivative or word plan: a one-shot run pays for the
    orders and arithmetic it uses, and for the transport, when it uses
    them."""
    script = (
        "import projmet, projmet.cli\n"
        "from projmet import jets, recovery\n"
        "from projmet import invariants, tractor\n"
        "print([f.cache_info().currsize for f in (jets._product_kernel,"
        " jets._truncation_plan, jets._derivative_plan, jets._word_plan,"
        " invariants.formula_trees, invariants.formula_tape,"
        " tractor.stack_tape, recovery._connection_kernels,"
        " recovery._rk4_segments)])\n")
    out = subprocess.run([sys.executable, "-c", script], env={
        "PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
        check=True).stdout
    assert out == "[0, 0, 0, 0, 0, 0, 0, 0, 0]\n"


def test_package_facade_exports_exactly_all():
    """Every name in `projmet.__all__` resolves, and the package's public
    names other than its submodules are exactly `__all__`."""
    import types

    import projmet

    assert len(set(projmet.__all__)) == len(projmet.__all__)
    for name in projmet.__all__:
        assert getattr(projmet, name) is not None, name
    public = {name for name, value in vars(projmet).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == set(projmet.__all__)


def test_importing_the_cli_does_not_load_random():
    """Only `selftest` draws random numbers, so it imports `random` itself.
    `-S` keeps site hooks, which may import `random` on their own, out of
    the check."""
    script = "import sys, projmet.cli\nprint('random' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-S", "-c", script], env={
        "PYTHONPATH": str(SRC.parent)}, capture_output=True, text=True,
        check=True).stdout
    assert out == "False\n"
