"""README's "Library use" and "Scenario files" sections against the package."""

from __future__ import annotations

import math
import re
from pathlib import Path

import bitplan
from bitplan.bench import _KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    after = README.read_text(encoding="utf-8").split(f"\n## {title}\n", 1)[1]
    return after.split("\n## ", 1)[0]


def _library_use() -> str:
    return _section("Library use")


def test_the_library_use_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", _library_use(), re.S)
    exec(compile(code, str(README), "exec"), {})
    cost, points = capsys.readouterr().out.split()
    assert math.isfinite(float(cost)) and int(points) >= 2


def test_every_package_export_is_named_in_library_use():
    section = _library_use()
    missing = [name for name in bitplan.__all__ if not re.search(rf"\b{name}\b", section)]
    assert missing == []
    # The section's export list names exactly the exports, in order.
    listed = re.search(r"exports exactly the names this section documents: (.*?\.)\s",
                       section, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == bitplan.__all__


def test_the_scenario_block_names_exactly_the_loaders_keys():
    # The first code block of "Scenario files": its section headers and its
    # `key =` lines, by section (None is the top level).
    block = re.search(r"```\n(.*?)```", _section("Scenario files"), re.S).group(1)
    named: dict[str | None, set[str]] = {None: set()}
    section = None
    for line in (raw.split("#", 1)[0].strip() for raw in block.splitlines()):
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            named[section] = set()
        elif "=" in line:
            named[section].add(line.split("=", 1)[0].strip())
    assert named == {section: set(keys) for section, keys in _KEYS.items()}
