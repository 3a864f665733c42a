"""README's library example runs as written against the package's API."""

import re
from pathlib import Path

import numpy as np

from risbal import Scheme

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_block_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, f"{README.name} (Library use)", "exec"), namespace)
    phi, trace = namespace["phi"], namespace["trace"]
    assert np.allclose(np.abs(phi), 1.0)
    assert trace.objective_values[-1] <= trace.objective_values[0]
    assert set(namespace["rates"]) == set(Scheme)
