"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

from projmet import cli, jets, recovery
from projmet import expressions as ex

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_library_block(), str(README), "exec"), {})
    det_m, verdict, decided, recovered = out.getvalue().splitlines()
    assert det_m == "0"
    assert verdict == "DegenerateKernel"
    assert decided == "Metrisable"
    signature, residual = recovered.split()
    assert signature == "riemannian"
    assert float(residual) < 1e-10


def _stated(pattern):
    """Every number the README states where `pattern` matches, read across
    line breaks."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.findall(pattern, text)
    assert found, pattern
    return found


def test_readme_constants_match_the_code():
    stated = {
        r"`MAX_DEGREE` = (\d+)": cli.MAX_DEGREE,
        r"`MAX_EXACT_BITS` = (\d+)": cli.MAX_EXACT_BITS,
        r"`MAX_DEPTH` = (\d+)": cli.MAX_DEPTH,
        r"`MAX_NESTING` = (\d+)": ex.MAX_NESTING,
        r"`MAX_POINTS` = (\d+)": cli.MAX_POINTS,
        r"`MAX_DIGITS` = (\d+)": cli.MAX_DIGITS,
        r"`order`: jet order \([^)]*at most (\d+)\)": cli.MAX_ORDER,
        r"`n` at most (\d+)": cli.MAX_GRID_N,
        r"`substeps` at most (\d+)": cli.MAX_SUBSTEPS,
        r"`MAX_GRID_NODES` = (\d+)": cli.MAX_GRID_NODES,
        r"`LOOP_TOL` = ([\d.e+-]+)": recovery.LOOP_TOL,
        r"`DEGENERATE_TOL` = ([\d.e+-]+)": recovery.DEGENERATE_TOL,
        r"`WITNESS_TOL` = ([\d.e+-]+)": recovery.WITNESS_TOL,
    }
    for pattern, value in stated.items():
        assert [type(value)(v) for v in _stated(pattern)] == [value], pattern


def test_readme_product_rule_matches_kernel_at():
    # "the first 31 ... The 32nd compiles", "until an order has had 31"
    loop = _stated(r"first (\d+) other products") + \
        _stated(r"has had (\d+) products")
    assert loop == [str(jets.KERNEL_AT - 1)] * 2
    assert _stated(r"The (\d+)(?:st|nd|rd|th) compiles") == \
        [str(jets.KERNEL_AT)]
