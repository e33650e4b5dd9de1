from __future__ import annotations

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("args", [
    ["--sites"],
    ["--sites", "-3"],
    ["--sites", "x"],
    [".", "--sites", "3"],
    ["--sites", "3", ".", "extra"],
    ["--sites", "3", "--sites"],
], ids=["no count", "negative count", "not a count", "after REPO_ROOT", "two roots",
        "twice"])
def test_query_peak_refuses_a_bad_command_line_with_its_usage(args, monkeypatch, capsys):
    # Each is refused before any copy or query: the usage line and exit 1.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    query_peak = importlib.import_module("query_peak")
    assert query_peak.main(["query_peak.py", *args]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "usage: query_peak.py [--sites N] [REPO_ROOT]\n")
