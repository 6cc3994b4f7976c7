"""The README's library sketch runs as written, and the names it documents exist."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import tmmse
from tmmse import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, f"{README.name} (Library sketch)", "exec"), namespace)
    rates = np.asarray(namespace["rates"])
    assert rates.size and np.isfinite(rates).all() and (rates > 0).all()


def test_flags_list_matches_parser():
    flags_text = README.read_text().split("Flags:", 1)[1].split("Every flag", 1)[0]
    documented = re.findall(r"`(--[a-z][a-z-]*)", flags_text)
    options = [
        opt for action in cli.build_parser()._actions
        for opt in action.option_strings if opt.startswith("--") and opt != "--help"
    ]
    assert documented == options


def test_documented_module_names_resolve():
    modules = [m.name for m in pkgutil.iter_modules(tmmse.__path__) if not m.name.startswith("_")]
    pattern = rf"\b(?:tmmse\.)?((?:{'|'.join(modules)})\.[A-Za-z_]\w*)"
    names = set(re.findall(pattern, README.read_text()))
    assert len(names) >= 4  # the pattern still finds the README's references
    for name in sorted(names):
        module, attr = name.split(".")
        assert hasattr(importlib.import_module(f"tmmse.{module}"), attr), name
