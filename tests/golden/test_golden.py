"""Every golden CLI output, byte for byte: exit code, stdout and stderr."""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_regenerate():
    path = Path(__file__).resolve().parent / "regenerate.py"
    spec = importlib.util.spec_from_file_location("golden_regenerate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load_regenerate()


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_cli_output_is_unchanged(name, monkeypatch):
    expected = json.loads((golden.EXPECTED / f"{name}.json").read_text(encoding="utf-8"))
    assert expected["argv"] == golden.CASES[name], "case changed; regenerate on purpose"
    monkeypatch.chdir(golden.ROOT)
    got = golden.run(golden.CASES[name])
    assert got["exit_code"] == expected["exit_code"]
    assert got["stderr"].encode() == expected["stderr"].encode()
    assert got["stdout"].encode() == expected["stdout"].encode()


def test_regenerate_rejects_an_unknown_case_and_writes_nothing(capsys):
    before = {p.name: p.stat().st_mtime_ns for p in golden.EXPECTED.iterdir()}
    assert golden.main(["usd_symmetric", "no_such_case"]) == 2
    err = capsys.readouterr().err
    assert "unknown case(s): no_such_case\n" in err
    assert all(name in err for name in golden.CASES)
    assert {p.name: p.stat().st_mtime_ns for p in golden.EXPECTED.iterdir()} == before
