"""Golden CLI outputs: the cases, the in-process runner, and a writer.

Each case runs ``povmsim.cli.main`` in this process, with the repository
root as working directory, and records its exit code, stdout and stderr
in ``expected/<case>.json``.  ``test_golden.py`` compares them byte for
byte.  Regenerate only when a change to the printed output is intended,
and only the cases it moves:

    python3 tests/golden/regenerate.py CASE [CASE ...]

With no argument every case is written.  An unknown case name writes
nothing, lists the known ones and exits with status 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
EXPECTED = HERE / "expected"
INPUTS = HERE.relative_to(ROOT) / "inputs"
sys.path.insert(0, str(ROOT / "src"))  # the checkout's package, also when run as a script

from povmsim.core import MAX_COUNT  # noqa: E402

MAX_SHOTS = str(MAX_COUNT)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for povm in ("tetrahedral", "trine", "random4"):
        for noise in ("ibmx4-like", "noiseless"):
            for shots in ("1", "8192", MAX_SHOTS):
                name = f"compare_{povm}_{noise}_{'max' if shots == MAX_SHOTS else shots}"
                cases[name] = ["compare", "--povm", povm, "--noise", noise, "--shots", shots]
    # appended shot counts keep the existing case names and their order
    for povm in ("tetrahedral", "trine", "random4"):
        for noise in ("ibmx4-like", "noiseless"):
            for shots in ("3", "65536"):
                cases[f"compare_{povm}_{noise}_{shots}"] = [
                    "compare", "--povm", povm, "--noise", noise, "--shots", shots]
    for plan in ("plan_both", "plan_naimark", "plan_postselection", "plan_unknown_fixture"):
        cases[f"compare_{plan}"] = ["compare", "--plan", str(INPUTS / f"{plan}.json")]
    cases["compare_csv"] = ["compare", "--povm", "trine", "--seed", "3", "--format", "csv"]
    cases["compare_readme_json"] = ["compare", "--povm", "trine", "--noise", "ibmx4-like",
                                    "--shots", "8192", "--seed", "3"]
    cases["table1"] = ["table1"]
    cases["table1_csv"] = ["table1", "--format", "csv"]
    cases["usd_symmetric"] = ["usd", "--symmetric", "8", "0.05"]
    # ensemble_cholesky: overlaps .25, .5, .5, yet states 0 and 1 have orthogonal duals
    for ensemble in ("ensemble", "ensemble_orthonormal", "ensemble_cholesky"):
        cases[f"usd_{ensemble}"] = ["usd", "--ensemble", str(INPUTS / f"{ensemble}.json")]
    cases["usd_random"] = ["usd", "--random", "10", "100", "--trials", "20", "--seed", "3"]
    cases["fixtures"] = ["fixtures"]
    cases["simulate_tetrahedral_zero"] = ["simulate", "--povm", "tetrahedral", "--state", "zero",
                                          "--shots", "1000000", "--seed", "7"]
    cases["simulate_random4_x+"] = ["simulate", "--povm", "random4", "--state", "x+",
                                    "--seed", "3"]
    cases["simulate_trine_mixed"] = ["simulate", "--povm", "trine", "--state", "mixed",
                                     "--seed", "5"]
    cases["simulate_all_failed"] = ["simulate", "--povm", "tetrahedral", "--shots", "1",
                                    "--seed", "0"]
    # rejected input: usage errors exit 2, a POVM compare cannot run exits 1
    cases["compare_zero_shots"] = ["compare", "--povm", "trine", "--shots", "0"]
    cases["usd_random_too_many_states"] = ["usd", "--random", "5", "3"]
    cases["simulate_unknown_fixture"] = ["simulate", "--povm", "nope"]
    cases["compare_trivial"] = ["compare", "--povm", "trivial"]
    cases["simulate_incomplete_povm"] = ["simulate", "--povm-file",
                                         str(INPUTS / "povm_incomplete.json")]
    cases["simulate_unknown_config_key"] = ["simulate", "--povm", "trine", "--config",
                                            str(INPUTS / "config_bogus_key.json")]
    cases["simulate_qutrit_x+"] = ["simulate", "--povm-file", str(INPUTS / "povm_qutrit.json"),
                                   "--state", "x+"]
    cases["simulate_qutrit_zero"] = ["simulate", "--povm-file", str(INPUTS / "povm_qutrit.json"),
                                     "--state", "zero", "--seed", "1"]
    cases["compare_plan_unknown_scheme"] = ["compare", "--plan",
                                            str(INPUTS / "plan_unknown_scheme.json")]
    cases["usd_ensemble_negative_prior"] = ["usd", "--ensemble",
                                            str(INPUTS / "ensemble_negative_prior.json")]
    return cases


CASES = _cases()


def run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of ``main(argv)``; the caller sets the
    working directory to the repository root."""
    from povmsim.cli import main

    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to $COLUMNS, else to the terminal's width
    with (mock.patch.dict(os.environ, {"COLUMNS": "80"}),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects argv
            code = exc.code
    return {"argv": argv, "exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(names: list[str]) -> int:
    """Write the named cases (every case if none is named); exit status."""
    unknown = [name for name in names if name not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}\nknown cases: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    EXPECTED.mkdir(exist_ok=True)
    names = names or list(CASES)
    for name in names:
        with open(EXPECTED / f"{name}.json", "w", encoding="utf-8") as f:
            json.dump(run(CASES[name]), f, indent=1)
            f.write("\n")
    print(f"wrote {len(names)} cases to {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
