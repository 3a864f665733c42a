"""README's library example runs as written against the package's API."""

import re
from pathlib import Path

import numpy as np

from risbal import ArrayGeometry, Scheme, parse_config_text

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
    # GramFactor keeps Bh contiguous for the solver's matvecs
    assert namespace["dense"].Bh.flags.c_contiguous


def test_readme_config_example_parses():
    block = re.search(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    cfg = parse_config_text(block.group(1))
    assert cfg.ris_array == ArrayGeometry(8, 16)
    assert cfg.bs1_pos.z == 15.0
    assert cfg.direct_link.nlos_path_count == 8
    assert cfg.seed == 7
