"""README's examples run.

Every ``python`` block of README.md is executed as written, each in a
fresh namespace and a fresh temporary working directory, so an example
that names an unregistered table, leaves a placeholder argument, or
points at a directory nobody created fails here instead of on a
reader's machine.  A block may write files (a journal, a SQLite file,
a socket directory); they stay in its directory.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[2] / "README.md"
FENCE = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def python_blocks():
    """One ``(line, source)`` param per block, named by the heading above
    it."""
    text = README.read_text(encoding="utf-8")
    blocks = []
    for match in FENCE.finditer(text):
        line = text.count("\n", 0, match.start()) + 2
        headings = re.findall(r"^#+ (.+)$", text[:match.start()], re.M)
        name = re.sub(r"[^a-z0-9]+", "-", headings[-1].lower()).strip("-")
        blocks.append(pytest.param(line, match.group(1), id=name))
    return blocks


def test_the_readme_has_python_blocks():
    assert len(python_blocks()) >= 5


@pytest.mark.parametrize("line,source", python_blocks())
def test_a_readme_python_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = compile(source, f"README.md:{line}", "exec")
    exec(code, {"__name__": "readme_example"})
