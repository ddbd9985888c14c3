"""The README's library example runs and prints what its comments say."""

import contextlib
import io
import pathlib
import re

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
