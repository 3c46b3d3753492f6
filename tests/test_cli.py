import json

import pytest

from povmsim.cli import main, table1_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable1:
    def test_values(self):
        rows = {r["povm"]: r for r in table1_rows()}
        assert rows["Tetrahedral"]["naimark"] == pytest.approx(0.117, abs=0.003)
        assert rows["Tetrahedral"]["our_scheme"] == pytest.approx(0.023, abs=0.003)
        assert rows["Trine"]["naimark"] == pytest.approx(0.141, abs=0.003)
        assert rows["Random 4-effect"]["our_scheme"] == pytest.approx(0.031, abs=0.003)

    def test_cli_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "table1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert "config_hash" in payload
        assert len(payload["rows"]) == 3


class TestSimulate:
    def test_tetrahedral_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--povm", "tetrahedral",
                               "--state", "zero", "--shots", "200000", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["success_rate"] - 0.5) < 0.01
        freq = {r["outcome"]: r["frequency"] for r in payload["rows"]}
        assert abs(freq["1"] - 0.5) < 0.01

    def test_trivial_degenerate_table(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--povm", "trivial",
                               "--shots", "1000")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 1
        assert payload["rows"][0]["frequency"] == 1.0

    def test_missing_fixture_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "simulate")
        assert code == 2
        assert "required" in err

    def test_unknown_fixture_lists_available(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--povm", "nope")
        assert code == 2
        assert "tetrahedral" in err

    def test_determinism(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--povm", "trine", "--seed", "5",
                             "--shots", "5000")
        _, out2, _ = run_cli(capsys, "simulate", "--povm", "trine", "--seed", "5",
                             "--shots", "5000")
        assert out1 == out2


class TestUsd:
    def test_symmetric_band(self, capsys):
        code, out, _ = run_cli(capsys, "usd", "--symmetric", "8", "0.05")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["ratio_lower_band"] == pytest.approx(7.6)
        assert row["ratio_lower_band"] - 1e-9 <= row["ratio"] <= row["ratio_upper_band"] + 1e-9
        assert row["bound_ok"]

    def test_symmetric_epsilon_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "usd", "--symmetric", "3", "0")
        assert code == 2
        assert "epsilon" in err

    def test_random_summary(self, capsys):
        code, out, _ = run_cli(capsys, "usd", "--random", "4", "8",
                               "--trials", "20", "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 20
        assert payload["band_ok"]

    def test_mode_required(self, capsys):
        code, _, err = run_cli(capsys, "usd")
        assert code == 2
        assert "choose" in err


class TestCompare:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--povm", "trine",
                               "--shots", "20000", "--seed", "3")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["our_scheme"] < row["naimark"]
        assert row["naimark_residual_mass"] > 0

    def test_unknown_noise_preset(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--povm", "trine",
                               "--noise", "bogus")
        assert code == 2
        assert "preset" in err

    def test_plan_run(self, capsys, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"povm_fixture": "trine", "noise.cnot": 0.1,
                                    "noise.readout_bias": 0.05, "shots": 4096,
                                    "seed": 4}))
        code, out, _ = run_cli(capsys, "compare", "--plan", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["noise"]["noise.cnot"] == 0.1
        assert payload["rows"][0]["povm"] == "trine"

    @pytest.mark.parametrize("plan, message", [
        ({"povm_fixture": "nope"}, "unknown povm_fixture 'nope'"),
        ({"shots": 1.7}, "plan key 'shots' must be an integer"),
        ([1, 2], "a plan must be a JSON object"),
    ])
    def test_malformed_plan_rejected(self, capsys, tmp_path, plan, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        code, out, err = run_cli(capsys, "compare", "--plan", str(path))
        assert code == 2
        assert message in err
        assert out == ""


class TestOutputPlumbing:
    def test_fixtures_listing(self, capsys):
        code, out, _ = run_cli(capsys, "fixtures")
        assert code == 0
        names = {r["name"] for r in json.loads(out)["rows"]}
        assert {"tetrahedral", "trine", "random4", "trivial"} <= names

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "povm,naimark,our_scheme"
        assert len(lines) == 4

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("POVMSIM_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "table1", "--out", "t1.json")
        assert code == 0
        payload = json.loads((tmp_path / "t1.json").read_text())
        assert payload["config"]["command"] == "table1"

    def test_config_file_overrides_flags(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 9, "shots": 4000}))
        _, out, _ = run_cli(capsys, "simulate", "--povm", "trine", "--seed", "1",
                            "--shots", "100", "--config", str(config))
        payload = json.loads(out)
        assert payload["config"]["seed"] == 9
        assert payload["config"]["shots"] == 4000

    @pytest.mark.parametrize("argv, override, option", [
        (("simulate", "--povm", "trine"), {"shots": "abc"}, "--shots"),
        (("simulate", "--povm", "trine"), {"state": "bogus"}, "--state"),
        (("usd", "--random", "3", "4"), {"trials": "x"}, "--trials"),
        (("compare", "--povm", "trine"), {"shots": 8192.5}, "--shots"),
        (("table1",), {"format": "xml"}, "--format"),
        (("fixtures",), {"seed": "one"}, "--seed"),
    ])
    def test_config_value_checked_like_its_flag(self, capsys, tmp_path, argv, override, option):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--config", str(config)])
        assert exit_info.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [("[1, 2]", "JSON object"),
                                               ('{"out": null}', "null")])
    def test_malformed_config_rejected(self, capsys, tmp_path, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--config", str(config)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err

    def test_seed_recorded_in_payload(self, capsys):
        _, out, _ = run_cli(capsys, "usd", "--symmetric", "4", "0.1", "--seed", "17")
        assert json.loads(out)["seed"] == 17
