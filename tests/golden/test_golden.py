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
