"""The README's Python quick start and example config run as written, its
list of accepted config keys names every key the config reads, and every
cap and cutoff it states is the constant the code enforces."""
import ast
import contextlib
import dataclasses
import io
import pathlib
import re

import pytest

from dlab.cli import EXIT_OK, TOMO_MAX_QUBITS, ExperimentConfig, main
from dlab.darwinism import _CHUNK_BYTES, _Y_ATOL
from dlab.qstate import _BLOCK_MIN_ROWS, _CUTOFF
from dlab.routing import EXHAUSTIVE_PLACEMENT_MAX
from dlab.simulator import DENSITY_MAX_QUBITS, STATEVECTOR_MAX_QUBITS, NoiseModel

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


# Each phrase of the README that states a cap or the rounding cutoff, with
# the number as its one group, and the constant that number must equal.
CAPS = {
    "statevector": (r"at most (\d+) qubits, at most \d+ when depolarizing", STATEVECTOR_MAX_QUBITS),
    "density": (r"at most \d+ qubits, at most (\d+) when depolarizing", DENSITY_MAX_QUBITS),
    "density_readout_only": (r"not held to the (\d+)-qubit density cap", DENSITY_MAX_QUBITS),
    "tomography": (r"at most (\d+) for `tomo`", TOMO_MAX_QUBITS),
    "route_device": (r"coupling map may have at most (\d+) nodes", STATEVECTOR_MAX_QUBITS),
    "exhaustive_placement": (r"identity on devices of more than (\d+) qubits", EXHAUSTIVE_PLACEMENT_MAX),
    "block_eigensolve": (r"of (\d+) rows or more", _BLOCK_MIN_ROWS),
    "cutoff": (r"at or below ([\d.]+e-\d+)", _CUTOFF),
    "draw_cutoff": (r"probability at most ([\d.]+e-\d+)", _CUTOFF),
    "chunk_budget": (r"within (\d+) KiB", _CHUNK_BYTES // 1024),
    "mirror_y": (r"whose Y entries are zero up to ([\d.]+e-\d+)", _Y_ATOL),
}


@pytest.mark.parametrize("name", CAPS)
def test_readme_caps_match_the_code(name):
    phrase, cap = CAPS[name]
    text = " ".join(README.read_text(encoding="utf-8").split())
    stated = [type(cap)(m) for m in re.findall(phrase, text)]
    assert stated and all(v == cap for v in stated), (stated, cap)
