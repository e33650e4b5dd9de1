"""README's "Library use" section against the package it documents."""

from __future__ import annotations

import math
import re
from pathlib import Path

import bitplan

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use() -> str:
    after = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return after.split("\n## ", 1)[0]


def test_the_library_use_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", _library_use(), re.S)
    exec(compile(code, str(README), "exec"), {})
    cost, points = capsys.readouterr().out.split()
    assert math.isfinite(float(cost)) and int(points) >= 2


def test_every_package_export_is_named_in_library_use():
    section = _library_use()
    missing = [name for name in bitplan.__all__ if not re.search(rf"\b{name}\b", section)]
    assert missing == []
