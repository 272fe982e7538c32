"""The README's Python quick start runs as written and prints what it says."""
import ast
import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    coherence, plateau = out.getvalue().splitlines()
    assert abs(float(coherence)) < 1e-12
    values = ast.literal_eval(plateau)
    assert len(values) == 3
    assert all(abs(v - w) < 1e-12 for v, w in zip(values, [1.0, 1.0, 2.0]))
