"""The README's library example runs as written."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["rec"](namespace["r"], namespace["phi"]).shape == (5, 7)
    assert namespace["rec"].evaluate(0.5, 1.0) == pytest.approx(0.9538756098803073, rel=1e-12)
