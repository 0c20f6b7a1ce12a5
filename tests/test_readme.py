"""README's ``python`` blocks run, in order, in a fresh interpreter against
the package in ``src``, so the quick start cannot drift from the API."""
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def python_blocks(markdown: str) -> list:
    return re.findall(r"^```python\n(.*?)^```$", markdown, re.M | re.S)


def test_python_blocks_find_only_python_fences():
    text = "```\nshell\n```\n```python\na = 1\n```\ntext\n```python\nb = a\n```\n"
    assert python_blocks(text) == ["a = 1\n", "b = a\n"]


def test_readme_python_blocks_run_in_order(tmp_path):
    blocks = python_blocks((ROOT / "README.md").read_text())
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", "".join(blocks)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
