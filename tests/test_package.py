"""The package surface: every exported name exists, and README's "Library
use" section runs as written."""

import ast
import importlib.util
import os
import re

import pytest

import tunesim

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _library_use() -> str:
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def _python_blocks(section: str) -> list[str]:
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_every_name_in_all_resolves():
    assert [name for name in tunesim.__all__ if not hasattr(tunesim, name)] == []
    assert len(set(tunesim.__all__)) == len(tunesim.__all__)


def test_every_exported_name_is_documented():
    section = _library_use()
    assert [name for name in tunesim.__all__ if f"`{name}`" not in section] == []


def test_every_documented_package_name_is_exported():
    section = _library_use()
    used = set()
    for block in _python_blocks(section):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "tunesim":
                used.update(alias.name for alias in node.names)
    # tunesim.X in code or prose, unless X is a submodule
    used.update(
        name
        for name in re.findall(r"\btunesim\.(\w+)", section)
        if importlib.util.find_spec(f"tunesim.{name}") is None
    )
    assert used
    assert sorted(used - set(tunesim.__all__)) == []


def test_readme_library_example_runs(capsys):
    blocks = _python_blocks(_library_use())
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    speedup, pasha_max, asha_max = capsys.readouterr().out.split()
    assert float(speedup) == pytest.approx(2.2068, abs=1e-4)
    assert (int(pasha_max), int(asha_max)) == (9, 81)
    assert namespace["pasha"].chosen == namespace["asha"].chosen
