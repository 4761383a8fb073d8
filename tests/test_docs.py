"""The README quick start and the demos run, and import only what cgd exports."""
import ast
import re
import runpy
from pathlib import Path

import pytest

import cgd

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _quick_start():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _imported_from_cgd(source):
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "cgd"
            for alias in node.names}


def test_readme_quick_start_runs(capsys):
    exec(compile(_quick_start(), "README.md", "exec"), {})
    assert "[1, 4, 16, 64]" in capsys.readouterr().out


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out


def test_docs_import_only_exported_names():
    sources = [_quick_start()] + [p.read_text() for p in DEMOS]
    used = set().union(*map(_imported_from_cgd, sources))
    assert len(DEMOS) == 3 and used
    assert used <= set(cgd.__all__), used - set(cgd.__all__)
    assert all(hasattr(cgd, name) for name in cgd.__all__)
