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


@pytest.mark.parametrize("args", [
    ["--sites", "3"],
    ["-h"],
    [".", "extra"],
    [".", "--sites"],
], ids=["option in REPO_ROOT's place", "help option", "two roots", "option after REPO_ROOT"])
def test_work_ledger_refuses_a_bad_command_line_with_its_usage(args, monkeypatch, capsys):
    # Each is refused before any copy or query: the usage line and exit 1.
    monkeypatch.syspath_prepend(str(SCRIPTS))
    work_ledger = importlib.import_module("work_ledger")
    assert work_ledger.main(["work_ledger.py", *args]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", "usage: work_ledger.py [REPO_ROOT]\n")
