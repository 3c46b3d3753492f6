import importlib.util
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import povmsim
from povmsim import fixtures
from povmsim.cli import MAX_DIM, MAX_TRIALS, build_parser, main, table1_rows
from povmsim.core import Povm, QuantumState, povm_to_document
from povmsim.core import MAX_COUNT as MAX_SHOTS
from povmsim.noisy_device import Circuit, NoiseModel, compare_schemes
from povmsim.simulation import (PostProcessingMap, apply_postprocessing, build_mq,
                                postselection_scheme)
from povmsim.tomography import TomographyRecord


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def perfbench_tracing():
    """perfbench/tracing.py, loaded read-only from the repository."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def usage_exit(capsys, *argv):
    """Exit code and stderr, whether argparse or the command rejects argv."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


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

    def test_every_shot_postselected_away(self, capsys):
        # seed 0's one shot fails: a valid run with no frequency to report
        code, out, err = run_cli(capsys, "simulate", "--povm", "tetrahedral",
                                 "--shots", "1", "--seed", "0")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["success_rate"] == 0.0
        assert len(payload["rows"]) == 4
        for row in payload["rows"]:
            assert row["frequency"] is None and row["deviation"] is None
            assert row["born_probability"] > 0

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

    def test_dependent_ensemble_is_an_invariant_failure(self, capsys, tmp_path):
        path = tmp_path / "ensemble.json"
        state = {"dim": 2, "vector": [[1, 0], [0, 0]]}
        path.write_text(json.dumps({"states": [state, state]}))
        code, out, err = run_cli(capsys, "usd", "--ensemble", str(path))
        assert code == 1 and out == ""
        assert err == ("invariant failure: invariant 'linear independence': "
                       "violated by 0.000e+00\n")

    def test_mode_required(self, capsys):
        code, _, err = run_cli(capsys, "usd")
        assert code == 2
        assert "choose" in err

    @pytest.mark.parametrize("argv, option", [
        (("--random", "3", "4", "--trials", "0"), "--trials"),
        (("--random", "3", "4", "--trials", "-2"), "--trials"),
        (("--random", "0", "4"), "--random"),
        (("--random", "x", "4"), "--random"),
        (("--random", "5", "3"), "--random"),
        (("--symmetric", "x", "0.05"), "--symmetric"),
        (("--symmetric", "1", "0.05"), "--symmetric"),
        (("--random", "3", "4", "--trials", str(MAX_TRIALS + 1)), "--trials"),
        (("--random", "3", "4", "--trials", str(2**63)), "--trials"),
        (("--random", "2", str(MAX_DIM + 1)), "--random"),
        (("--random", "2", "1000000000000"), "--random"),
        (("--symmetric", str(MAX_DIM + 1), "0.05"), "--symmetric"),
        (("--symmetric", "10000000000", "0.05"), "--symmetric"),
    ])
    def test_bad_numbers_are_usage_errors_naming_the_option(self, capsys, argv, option):
        code, err = usage_exit(capsys, "usd", *argv)
        assert code == 2
        assert option in err

    def test_oversize_symmetric_from_config_is_a_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"symmetric": [MAX_DIM + 1, 0.05]}))
        code, err = usage_exit(capsys, "usd", "--config", str(config))
        assert code == 2
        assert f"--symmetric D must be at most {MAX_DIM}" in err


class TestAlternativeInputs:
    @pytest.mark.parametrize("argv, first, second", [
        (("usd", "--symmetric", "8", "0.05", "--random", "3", "4"), "--symmetric", "--random"),
        (("usd", "--random", "3", "4", "--ensemble", "e.json"), "--random", "--ensemble"),
        (("simulate", "--povm", "trine", "--povm-file", "p.json"), "--povm", "--povm-file"),
        (("compare", "--povm-file", "p.json", "--povm", "trine"), "--povm-file", "--povm"),
    ])
    def test_two_alternatives_are_a_usage_error_naming_both(self, capsys, argv, first, second):
        code, err = usage_exit(capsys, *argv)
        assert code == 2
        assert f"argument {second}: not allowed with argument {first}" in err

    @pytest.mark.parametrize("argv, config", [
        (("usd",), {"symmetric": [8, 0.05]}),
        (("simulate", "--shots", "100"), {"povm": "trine"}),
    ])
    def test_alternative_given_only_by_config(self, capsys, tmp_path, argv, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code, out, _ = run_cli(capsys, *argv, "--config", str(path))
        assert code == 0
        assert json.loads(out)["rows"]


class TestDocuments:
    @pytest.mark.parametrize("command, option, document, key", [
        ("simulate", "--povm-file", [1, 2], "JSON object"),
        ("simulate", "--povm-file", {"effects": [[[[1, 0]]]]}, "'dim'"),
        ("simulate", "--povm-file", {"dim": 2}, "'effects'"),
        ("usd", "--ensemble", "text", "JSON object"),
        ("usd", "--ensemble", {"probs": [1.0]}, "'states'"),
        ("usd", "--ensemble", {"states": [{"vector": [[1, 0], [0, 0]]}]}, "'dim'"),
        ("simulate", "--povm-file", {"dim": 2, "effects": 3}, "'effects'"),
        ("usd", "--ensemble", {"states": [[1, 0]]}, "'states'"),
        ("usd", "--ensemble", {"states": [{"dim": 2, "vector": [[1, 0], [0, 0]]}], "probs": "x"},
         "'probs'"),
        ("usd", "--ensemble", {"states": [{"dim": 2, "vector": [[float("nan"), 0], [0, 0]]}]},
         "'states[0].vector'"),
        ("simulate", "--povm-file", {"dim": "2", "effects": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
         "'dim'"),
        ("simulate", "--povm-file", {"dim": 2, "effects": [[[1, 0], [0, 1]]]}, "'effects'"),
        ("simulate", "--povm-file", {"dim": 1, "effects": [[[[1, 0]]]], "labels": 3}, "'labels'"),
        ("usd", "--ensemble", {"states": [{"dim": 1, "vector": [[1, 0]]},
                                          {"dim": 2, "vector": [[1, 0], [0, 0]]}]}, "'states'"),
    ])
    def test_malformed_document_names_the_key(self, capsys, tmp_path, command, option,
                                              document, key):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        code, err = usage_exit(capsys, command, option, str(path))
        assert code == 2
        assert option in err and key in err

    def test_overflowing_priors_print_one_error_line(self, tmp_path):
        # run as a process, where numpy's two-line overflow warning reached stderr first
        path = tmp_path / "ensemble.json"
        path.write_text(json.dumps({"states": [{"dim": 2, "vector": [[1, 0], [0, 0]]},
                                               {"dim": 2, "vector": [[0, 0], [1, 0]]}],
                                    "probs": [1e308, 1e308]}))
        env = {**os.environ, "PYTHONPATH": str(Path(povmsim.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-m", "povmsim.cli", "usd", "--ensemble",
                                 str(path)], capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 1
        assert result.stderr == ("invariant failure: invariant 'probability normalization': "
                                 "violated by inf\n")

    @pytest.mark.parametrize("command, option", [("simulate", "--povm-file"),
                                                 ("usd", "--ensemble")])
    def test_unparsable_json_names_the_option(self, capsys, tmp_path, command, option):
        path = tmp_path / "doc.json"
        path.write_text('{"dim": 2,')
        code, err = usage_exit(capsys, command, option, str(path))
        assert code == 2
        assert f"{option} {str(path)!r} is not valid JSON" in err

    @pytest.mark.parametrize("argv, named", [
        (("simulate", "--povm-file", "{dir}"), "--povm-file '{dir}'"),
        (("usd", "--ensemble", "{dir}"), "--ensemble '{dir}'"),
        (("compare", "--plan", "{dir}"), "--plan '{dir}'"),
        (("table1", "--config", "{dir}"), "--config '{dir}'"),
        (("table1", "--out", "{dir}"), "'{dir}'"),
        (("simulate", "--povm-file", "{latin1}"), "--povm-file '{latin1}'"),
    ], ids=["povm-file-dir", "ensemble-dir", "plan-dir", "config-dir", "out-dir",
            "povm-file-latin1"])
    def test_unreadable_file_is_a_usage_error(self, capsys, tmp_path, argv, named):
        latin1 = tmp_path / "doc.json"
        latin1.write_bytes('{"dim": 2, "labels": ["\u00e9"]}'.encode("latin-1"))
        paths = {"dir": tmp_path, "latin1": latin1}
        code, err = usage_exit(capsys, *(arg.format(**paths) for arg in argv))
        assert code == 2
        assert named.format(**paths) in err

    @pytest.mark.parametrize("out", [".", "missing/table.json"], ids=["directory", "no-parent"])
    def test_unwritable_out_names_the_option(self, capsys, tmp_path, monkeypatch, out):
        # a relative --out is joined to POVMSIM_OUTPUT_DIR; the error names the joined path
        monkeypatch.setenv("POVMSIM_OUTPUT_DIR", str(tmp_path))
        code, err = usage_exit(capsys, "table1", "--out", out)
        assert code == 2
        assert f"--out {os.path.join(str(tmp_path), out)!r} cannot be written" in err


class TestCompare:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--povm", "trine",
                               "--shots", "20000", "--seed", "3")
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["our_scheme"] < row["naimark"]
        assert row["naimark_residual_mass"] > 0

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_unknown_noise_preset(self, capsys, tmp_path, via_config):
        # checked by the parser like every other option, from either source
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise": "bogus"}))
        extra = ["--config", str(config)] if via_config else ["--noise", "bogus"]
        code, err = usage_exit(capsys, "compare", "--povm", "trine", *extra)
        assert code == 2
        assert "argument --noise: invalid choice: 'bogus'" in err

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

    @pytest.mark.parametrize("flag, value", [("--povm", "random4"), ("--povm-file", "p.json"),
                                             ("--noise", "noiseless"), ("--shots", "5"),
                                             ("--seed", "99"), ("--seed", "0")])
    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
    def test_plan_with_another_setting_is_a_usage_error(self, capsys, tmp_path, flag, value,
                                                        via_config):
        # the plan sets the POVM, noise, shots and seed; a default value counts as given
        plan = str(Path(__file__).parent / "golden" / "inputs" / "plan_postselection.json")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({flag[2:]: int(value) if value.isdigit() else value}))
        extra = ["--config", str(config)] if via_config else [flag, value]
        code, err = usage_exit(capsys, "compare", "--plan", plan, *extra)
        assert code == 2
        assert err == f"error: {flag} cannot be given with --plan, which sets it\n"

    def test_low_shot_tomography_reports_unphysical_outcome(self, capsys):
        # three shots reconstruct an outcome with alpha = 1.048 > 1
        code, out, err = run_cli(capsys, "compare", "--povm", "random4",
                                 "--shots", "3", "--seed", "1")
        assert code == 0, err
        row = json.loads(out)["rows"][0]
        assert 0.0 <= row["our_scheme"] <= 2.0

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_zero_shots_is_usage_error_naming_flag(self, capsys, tmp_path, command, via_config):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"shots": 0}))
        extra = ["--config", str(config)] if via_config else ["--shots", "0"]
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--povm", "trine", *extra])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "argument --shots: must be at least 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_shots_beyond_int64_is_usage_error_naming_flag(self, capsys, tmp_path, command,
                                                           via_config):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"shots": 2 ** 63}))
        extra = ["--config", str(config)] if via_config else ["--shots", str(2 ** 63)]
        code, err = usage_exit(capsys, command, "--povm", "trine", *extra)
        assert code == 2
        assert f"argument --shots: must be at most {MAX_SHOTS}" in err

    @pytest.mark.parametrize("command", ["compare", "simulate"])
    def test_largest_shot_count_runs(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--povm", "tetrahedral",
                                 "--shots", str(MAX_SHOTS), "--seed", "2")
        assert code == 0, err
        assert json.loads(out)["config"]["shots"] == MAX_SHOTS

    @pytest.mark.parametrize("effects", [
        [np.diag([1, 0]), np.diag([0, 1])],
        [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])],
    ], ids=["z-basis", "x-basis"])
    def test_two_outcome_povm_file(self, capsys, tmp_path, effects):
        # the two-qubit register holds a 2x2 dilation as well as a 3x3 or 4x4 one
        path = tmp_path / "pm.json"
        path.write_text(json.dumps(povm_to_document(Povm(effects))))
        code, out, err = run_cli(capsys, "compare", "--povm-file", str(path),
                                 "--noise", "noiseless", "--shots", "4096", "--seed", "1")
        assert code == 0, err
        row = json.loads(out)["rows"][0]
        assert row["naimark"] < 0.1 and row["our_scheme"] < 0.1
        assert abs(row["naimark_residual_mass"]) < 0.1

    def test_one_shot_measures_every_component(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--povm", "random4",
                                 "--shots", "1", "--seed", "1")
        assert code == 0, err
        assert json.loads(out)["config"]["shots"] == 1

    @pytest.mark.parametrize("scheme, keys", [
        ("naimark", {"naimark", "naimark_residual_mass"}),
        ("postselection", {"our_scheme", "postselection_fraction"}),
    ])
    def test_plan_scheme_runs_only_that_route(self, capsys, tmp_path, scheme, keys):
        plan = {"povm_fixture": "trine", "noise.cnot": 0.1, "shots": 2048, "seed": 6}
        both_path, one_path = tmp_path / "both.json", tmp_path / "one.json"
        both_path.write_text(json.dumps({**plan, "scheme": "both"}))
        one_path.write_text(json.dumps({**plan, "scheme": scheme}))
        _, both_out, _ = run_cli(capsys, "compare", "--plan", str(both_path))
        code, one_out, _ = run_cli(capsys, "compare", "--plan", str(one_path))
        assert code == 0
        both, one = json.loads(both_out), json.loads(one_out)
        assert "scheme" not in both["config"]
        assert one["config"]["scheme"] == scheme
        assert set(one["rows"][0]) == {"povm"} | keys
        for key in keys:
            assert one["rows"][0][key] == both["rows"][0][key]

    @pytest.mark.parametrize("plan, message", [
        ({"povm_fixture": "nope"}, "unknown povm_fixture 'nope'"),
        ({"shots": 1.7}, "plan key 'shots' must be an integer"),
        ([1, 2], "a plan must be a JSON object"),
        ({"shots": 2 ** 63}, f"plan key 'shots' must be an integer in [1, {MAX_SHOTS}]"),
        ({"seed": -1}, "plan key 'seed' must be a non-negative integer"),
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

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_config_values_do_not_leak_into_the_next_call(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"shots": 4000}))
        _, out, _ = run_cli(capsys, "simulate", "--povm", "trine", "--config", str(config))
        assert json.loads(out)["config"]["shots"] == 4000
        _, out, _ = run_cli(capsys, "simulate", "--povm", "trine")
        assert json.loads(out)["config"]["shots"] == 100_000

    @pytest.mark.parametrize("argv, override, option", [
        (("simulate", "--povm", "trine"), {"shots": "abc"}, "--shots"),
        (("simulate", "--povm", "trine"), {"state": "bogus"}, "--state"),
        (("usd", "--random", "3", "4"), {"trials": "x"}, "--trials"),
        (("compare", "--povm", "trine"), {"shots": 8192.5}, "--shots"),
        (("table1",), {"format": "xml"}, "--format"),
        (("simulate", "--povm", "trine"), {"seed": "one"}, "--seed"),
        (("usd", "--random", "3", "4"), {"trials": 2**63}, "--trials"),
        (("usd",), {"random": [2, MAX_DIM + 1]}, "--random"),
        (("usd",), {"random": [10**10, 10**12]}, "--random"),
    ])
    def test_config_value_checked_like_its_flag(self, capsys, tmp_path, argv, override, option):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--config", str(config)])
        assert exit_info.value.code == 2
        assert f"argument {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [("[1, 2]", "JSON object"),
                                               ('{"out": null}', "null"),
                                               ('{"dim": 2,', "--config '{}' is not valid JSON")])
    def test_malformed_config_rejected(self, capsys, tmp_path, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        with pytest.raises(SystemExit) as exit_info:
            main(["table1", "--config", str(config)])
        assert exit_info.value.code == 2
        assert message.format(config) in capsys.readouterr().err

    @pytest.mark.parametrize("argv, override, message", [
        (("simulate", "--povm", "trine"), {"shots": [1, 2]},
         "config key 'shots' takes one value, got [1, 2]"),
        (("simulate",), {"povm": ["trine"]}, """config key 'povm' takes one value, got ["trine"]"""),
        (("simulate", "--povm", "trine"), {"seed": []},
         "config key 'seed' takes one value, got []"),
        (("usd",), {"symmetric": [8, 0.05, 1]},
         "config key 'symmetric' takes two values, got [8, 0.05, 1]"),
    ])
    def test_config_list_for_the_wrong_arity_names_its_key(self, capsys, tmp_path, argv,
                                                          override, message):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(override))
        code, err = usage_exit(capsys, *argv, "--config", str(config))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_pipe_exits_quietly(self, unbuffered):
        # the reading end is closed before povmsim writes a byte; buffered
        # output meets the closed pipe only when it is flushed
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(povmsim.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            result = subprocess.run([sys.executable, "-m", "povmsim.cli", "table1"],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env,
                                    timeout=60)
        finally:
            os.close(write_end)
        assert result.stderr == b""
        assert result.returncode == 1

    @pytest.mark.parametrize("argv", [("simulate", "--povm", "trine"),
                                      ("compare", "--povm", "trine"),
                                      ("usd", "--symmetric", "4", "0.1")])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_negative_seed_is_usage_error_naming_flag(self, capsys, tmp_path, argv, via_config):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": -1}))
        extra = ["--config", str(config)] if via_config else ["--seed", "-1"]
        code, err = usage_exit(capsys, *argv, *extra)
        assert code == 2
        assert "argument --seed: must be a non-negative integer, got -1" in err

    @pytest.mark.parametrize("command", ["table1", "fixtures"])
    def test_unseeded_commands_take_no_seed(self, capsys, command):
        code, err = usage_exit(capsys, command, "--seed", "1")
        assert code == 2
        assert "unrecognized arguments: --seed 1" in err

    def test_seed_recorded_in_payload(self, capsys):
        _, out, _ = run_cli(capsys, "usd", "--symmetric", "4", "0.1", "--seed", "17")
        assert json.loads(out)["seed"] == 17


class TestReadme:
    def test_cli_block_commands_run(self, capsys, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line.split("#", 1)[0])[1:]
                    for line in block.splitlines() if line.startswith("povmsim ")]
        assert len(commands) >= 7
        monkeypatch.setenv("POVMSIM_OUTPUT_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "plan.json").write_text(json.dumps(
            {"povm_fixture": "trine", "scheme": "both", "shots": 4096, "seed": 2,
             "noise.cnot": 0.05, "noise.su2": 0.002, "noise.readout_bias": 0.03}))
        for argv in commands:
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (argv, err)

    def test_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Library example", 1)[1].split("```python", 1)[1]
        exec(block.split("```", 1)[0], {})
        success_rate, conditional, born = capsys.readouterr().out.splitlines()
        assert float(success_rate) == pytest.approx(0.5, abs=5 * np.sqrt(0.25 / 1_000_000))
        assert born == str(np.array([0.5, 1 / 6, 1 / 6, 1 / 6]))

    @pytest.mark.parametrize("name", fixtures.IDEAL_NAMES)
    def test_single_map_view_block_is_m_over_d(self, name):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("gives the\nsingle-map view", 1)[1].split("```python", 1)[1]
        povm = fixtures.ideal_povm(name)
        view = eval(block.split("```", 1)[0], {
            "scheme": postselection_scheme(povm), "apply_postprocessing": apply_postprocessing,
            "PostProcessingMap": PostProcessingMap})
        assert np.max(np.abs(view.stack - build_mq(povm, 1 / povm.dim).stack)) <= 1e-12

    def test_names_traced_by_the_benchmark_exist(self):
        # perfbench wraps these names by lookup, and its hooks read attributes
        # of their results, so a renamed or deleted one breaks traced runs,
        # as the README warns
        tracing = perfbench_tracing()
        for table in (tracing.FUNCTIONS, tracing.CLASSES):
            for layer, names in table.items():
                module = importlib.import_module(f"povmsim.{layer}")
                assert [n for n in names if not hasattr(module, n)] == [], layer
        trine = fixtures.ideal_povm("trine")
        calls = {
            "simulation.sample_postselection":
                (postselection_scheme(trine), QuantumState.basis_state(2, 0), 100, 1),
            "noisy_device.run_shots":
                (Circuit(2).cnot(0, 1), QuantumState.basis_state(4, 0), NoiseModel(), 100, 1),
            "noisy_device.compare_schemes": (trine, NoiseModel(), 64, 1),
            "tomography.reconstruct_povm": (TomographyRecord.from_born(trine),),
            "usd.random_ensemble_experiment": (2, 3, 2, 1),
        }
        assert set(calls) == set(tracing.HOOKS)
        for span, hook in tracing.HOOKS.items():
            layer, name = span.split(".")
            result = getattr(importlib.import_module(f"povmsim.{layer}"), name)(*calls[span])
            counts = Counter()
            hook(counts, calls[span], {}, result)
            assert counts, span

    @pytest.mark.xfail(strict=True, raises=AttributeError,
                       reason="perfbench/tracing.py::_hook_compared reads the postselection "
                              "route even when it did not run (an open FOUND line in CHANGES.md)")
    def test_compare_hook_skips_a_route_not_run(self):
        args, kwargs = (fixtures.ideal_povm("trine"), NoiseModel(), 64, 1), {"scheme": "naimark"}
        result = compare_schemes(*args, **kwargs)
        perfbench_tracing().HOOKS["noisy_device.compare_schemes"](Counter(), args, kwargs, result)
