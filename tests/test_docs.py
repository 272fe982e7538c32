"""The README's Python quick start and example config run as written, and
its list of accepted config keys names every key the config reads."""
import ast
import contextlib
import dataclasses
import io
import pathlib
import re

from dlab.cli import EXIT_OK, ExperimentConfig, main
from dlab.simulator import NoiseModel

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


def test_readme_names_every_config_key():
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"^Accepted keys.*?\n\n", text, re.S | re.M).group(0)
    named = set(re.findall(r"`(\w+)`", paragraph))
    for cls in (ExperimentConfig, NoiseModel):
        missing = {f.name for f in dataclasses.fields(cls)} - named
        assert not missing, (cls.__name__, missing)


def test_readme_example_config_runs(tmp_path):
    blocks = re.findall(r"^```json\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(blocks[0], encoding="utf-8")
    out = tmp_path / "out"
    assert main(["coherence", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert (out / "coherence.csv").exists()
