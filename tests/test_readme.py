"""The README's library sketch runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library sketch)", "exec"), namespace)
    rates = np.asarray(namespace["rates"])
    assert rates.size and np.isfinite(rates).all() and (rates > 0).all()
