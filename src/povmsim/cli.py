"""Command-line front end: reproducible experiments over the bundled
fixtures with CSV/JSON output.

Every command is a pure function of its configuration; outputs embed a
hash of the effective config, and those of simulate, usd and compare their
seed, so runs can be audited and replayed.  Exit codes: 0 success, 1
invariant or assertion failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import os
import sys

from . import fixtures
from .core import (
    MAX_COUNT,
    DocumentError,
    InvariantViolation,
    QuantumState,
    born_probabilities,
    pauli_eigenstates,
    povm_from_document,
)
from .noisy_device import NOISE_PRESETS, compare_schemes, load_experiment_plan
from .simulation import postselection_scheme, sample_postselection
from .tomography import operational_distance
from .usd import (
    ensemble_from_document,
    usd_advantage_bound,
    random_ensemble_experiment,
    symmetric_ensemble_from_gap,
)

SCHEMA_VERSION = 1

#: ``--trials`` cap: the experiment prints one row per trial
MAX_TRIALS = 100_000
#: ``--random`` and ``--symmetric`` dimension cap: one trial's state block
#: and Gram matrix stay within a 4096 x 4096 complex square (256 MiB)
MAX_DIM = 4096

#: the options whose --config value is a two-entry list
TWO_VALUE_OPTIONS = ("symmetric", "random")

STATE_NAMES = ("zero", "one", "x+", "x-", "y+", "y-", "mixed")
#: what ``compare`` runs for a flag not given (parsed as None); ``--plan`` sets all three
COMPARE_DEFAULTS = {"noise": "ibmx4-like", "shots": 8192, "seed": 0}


def _state_by_name(name: str, dim: int) -> QuantumState:
    if name == "mixed":
        return QuantumState.maximally_mixed(dim)
    if dim != 2:
        if name == "zero":
            return QuantumState.basis_state(dim, 0)
        raise ValueError(f"named state {name!r} is qubit-only")
    return pauli_eigenstates()[STATE_NAMES.index(name)]


def _read_json(path: str, option: str):
    """The JSON value in ``path``.  A file that cannot be read, is not UTF-8
    or is not valid JSON is a usage error naming ``option`` and the path."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"{option} {path!r} cannot be read: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"{option} {path!r} is not valid JSON: {err}")


def _load_document(path: str, option: str, loader):
    """``loader`` applied to the JSON object in ``path``.  A document that is
    not an object, lacks a key the loader reads, or holds a value of the
    wrong type, shape or size is a usage error naming ``option`` and the key."""
    doc = _read_json(path, option)
    if not isinstance(doc, dict):
        raise UsageError(f"{option} {path!r} must hold a JSON object")
    try:
        return loader(doc)
    except KeyError as err:
        raise UsageError(f"{option} {path!r} lacks the key {err}")
    except DocumentError as err:
        raise UsageError(f"{option} {path!r}: {err}")


def _resolve_povm(args):
    if args.povm_file:
        path = args.povm_file
        return _load_document(path, "--povm-file", povm_from_document), os.path.basename(path)
    name = args.povm
    if name is None:
        raise UsageError("a POVM fixture name is required (--povm)")
    try:
        return fixtures.ideal_povm(name), name
    except KeyError as err:
        raise UsageError(err.args[0])


class UsageError(Exception):
    pass


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _emit(payload: dict, config: dict, args) -> None:
    payload = {"schema_version": SCHEMA_VERSION,
               "config": config,
               "config_hash": _config_hash(config),
               **payload}
    if args.format == "csv":
        text = _payload_csv(payload)
    else:
        text = json.dumps(payload, indent=2)
    if args.out:  # an absolute --out ignores POVMSIM_OUTPUT_DIR, as os.path.join does
        path = os.path.join(os.environ.get("POVMSIM_OUTPUT_DIR", ""), args.out)
        try:
            with open(path, "w") as f:
                f.write(text + "\n")
        except OSError as err:
            raise UsageError(f"--out {path!r} cannot be written: {err}")
        print(f"wrote {path}")
    else:
        print(text)


def _payload_csv(payload: dict) -> str:
    """Rows as CSV under ``# key: value`` lines; every command emits a row."""
    rows = payload["rows"]
    buf = io.StringIO()
    writer = csv.writer(buf)
    meta = {k: v for k, v in payload.items() if k not in ("rows", "config")}
    for key, value in meta.items():
        buf.write(f"# {key}: {json.dumps(value)}\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([row[k] for k in rows[0].keys()])
    return buf.getvalue().rstrip("\n")


def cmd_simulate(args) -> int:
    povm, povm_name = _resolve_povm(args)
    state = _state_by_name(args.state, povm.dim)
    scheme = postselection_scheme(povm)
    record = sample_postselection(scheme, state, args.shots, args.seed)
    oracle = born_probabilities(state, povm)
    freqs = (record.conditional_frequencies().tolist() if record.success_count
             else [None] * povm.n_outcomes)  # every shot postselected away: no frequency
    rows = [{"outcome": povm.labels[i],
             "frequency": freqs[i],
             "born_probability": float(oracle[i]),
             "deviation": None if freqs[i] is None else freqs[i] - float(oracle[i])}
            for i in range(povm.n_outcomes)]
    config = {"command": "simulate", "povm": povm_name, "state": args.state,
              "shots": args.shots, "seed": args.seed}
    _emit({"rows": rows,
           "success_rate": record.success_rate,
           "expected_success_rate": scheme.success_probability,
           "seed": args.seed}, config, args)
    return 0


def cmd_usd(args) -> int:
    if args.symmetric:
        d, epsilon = args.symmetric
        if not (d.is_integer() and d >= 2):
            raise UsageError(f"--symmetric D must be an integer of at least 2, got {d:g}")
        if d > MAX_DIM:
            raise UsageError(f"--symmetric D must be at most {MAX_DIM}, got {d:g}")
        d = int(d)
        if not 0 < epsilon < 1:
            raise UsageError("--symmetric epsilon must be in (0, 1) so the symmetric "
                             "states stay pairwise non-orthogonal")
        ensemble = symmetric_ensemble_from_gap(d, epsilon)
        bound = usd_advantage_bound(ensemble)
        rows = [{"d": d, "epsilon": epsilon,
                 "p_povm": ensemble.exact_optimum,
                 "p_sp": bound.p_sp,
                 "ratio": ensemble.exact_optimum / bound.p_sp,
                 "ratio_lower_band": d * (1 - epsilon),
                 "ratio_upper_band": float(d),
                 "bound_ok": bound.bound_ok}]
        config = {"command": "usd", "symmetric": [d, epsilon], "seed": args.seed}
        _emit({"rows": rows, "seed": args.seed}, config, args)
        return 0
    if args.random:
        d, space_dim = args.random
        if d > space_dim:
            raise UsageError(f"--random needs D <= DIM for linearly independent "
                             f"states, got D={d}, DIM={space_dim}")
        experiment = random_ensemble_experiment(d, space_dim, args.trials, args.seed)
        config = {"command": "usd", "random": [d, space_dim],
                  "trials": args.trials, "seed": args.seed}
        _emit({"rows": experiment.rows,
               "mean_lambda_min": experiment.mean_lambda_min,
               "std_lambda_min": experiment.std_lambda_min,
               "band_ok": experiment.band_ok,
               "seed": args.seed}, config, args)
        return 0
    if args.ensemble:
        ensemble = _load_document(args.ensemble, "--ensemble", ensemble_from_document)
        bound = usd_advantage_bound(ensemble)
        rows = [{"n_states": ensemble.n_states, "dim": ensemble.space_dim,
                 "p_povm_lower": bound.p_povm_lower, "p_sp": bound.p_sp,
                 "ratio": bound.ratio, "bound_ok": bound.bound_ok}]
        config = {"command": "usd", "ensemble": args.ensemble, "seed": args.seed}
        _emit({"rows": rows, "seed": args.seed}, config, args)
        return 0
    raise UsageError("choose one of --symmetric, --random, --ensemble")


def cmd_compare(args) -> int:
    given = [k for k in ("povm", "povm_file", *COMPARE_DEFAULTS) if getattr(args, k) is not None]
    if args.plan:
        if given:
            raise UsageError(f"--{given[0].replace('_', '-')} cannot be given with --plan, "
                             "which sets it")
        try:
            plan = load_experiment_plan(_read_json(args.plan, "--plan"))
        except ValueError as err:
            raise UsageError(f"plan {args.plan!r}: {err}")
        povm = fixtures.ideal_povm(plan.povm_fixture)
        povm_name, noise = plan.povm_fixture, plan.noise
        shots, seed, scheme = plan.shots, plan.seed, plan.scheme
        noise_label = {"noise.cnot": noise.cnot_depolarizing,
                       "noise.su2": noise.su2_depolarizing,
                       "noise.readout_bias": noise.readout_bias}
    else:
        povm, povm_name = _resolve_povm(args)
        noise_label, shots, seed = (getattr(args, k) if k in given else value
                                    for k, value in COMPARE_DEFAULTS.items())
        noise = NOISE_PRESETS[noise_label]  # a name the parser checked
        scheme = "both"
    result = compare_schemes(povm, noise, shots, seed, scheme)
    post, nai = result.postselection, result.naimark
    row = {"povm": povm_name,
           "naimark": nai and nai.distance,
           "our_scheme": post and post.distance,
           "postselection_fraction": post and post.postselection_fraction,
           "naimark_residual_mass": nai and nai.residual_mass}
    config = {"command": "compare", "povm": povm_name, "noise": noise_label,
              "shots": shots, "seed": seed}
    if scheme != "both":
        config["scheme"] = scheme
    _emit({"rows": [{k: v for k, v in row.items() if v is not None}], "seed": seed},
          config, args)
    return 0


def table1_rows() -> list[dict]:
    """Operational distances between bundled ideals and reconstructions."""
    rows = []
    for name, label in (("tetrahedral", "Tetrahedral"), ("trine", "Trine"),
                        ("random4", "Random 4-effect")):
        ideal = fixtures.ideal_povm(name)
        rows.append({
            "povm": label,
            "naimark": operational_distance(ideal, fixtures.reconstruction(name, "naimark")),
            "our_scheme": operational_distance(ideal, fixtures.reconstruction(name, "postselection")),
        })
    return rows


def cmd_table1(args) -> int:
    config = {"command": "table1"}
    _emit({"rows": table1_rows()}, config, args)
    return 0


def cmd_fixtures(args) -> int:
    config = {"command": "fixtures"}
    _emit({"rows": [{"name": n} for n in fixtures.IDEAL_NAMES]}, config, args)
    return 0


def _count(limit: int, text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > limit:
        raise argparse.ArgumentTypeError(f"must be at most {limit}, got {value}")
    return value


def shot_count(text: str) -> int:
    return _count(MAX_COUNT, text)


def trial_count(text: str) -> int:
    return _count(MAX_TRIALS, text)


def dimension(text: str) -> int:
    return _count(MAX_DIM, text)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _apply_config_file(args, argv, parser):
    """Values from --config override the command-line flags.  They are
    parsed as if written after the flags, so each meets the type, choices
    and arity of the option it overrides."""
    path = args.config
    if not path:
        return args
    try:
        overrides = _read_json(path, "--config")
    except UsageError as err:
        parser.error(str(err))
    if not isinstance(overrides, dict):
        parser.error(f"config file {path!r} must hold a JSON object")
    extra = []
    for key, value in overrides.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"config key {key!r} does not match any option")
        if value is None:
            parser.error(f"config key {key!r} is null; give a value or leave it out")
        pair = attr in TWO_VALUE_OPTIONS
        if isinstance(value, list) and not (pair and len(value) == 2):
            takes = "two values" if pair else "one value"
            parser.error(f"config key {key!r} takes {takes}, got {json.dumps(value)}")
        extra.append("--" + attr.replace("_", "-"))
        extra += [str(v) for v in (value if isinstance(value, list) else [value])]
    return parser.parse_args([*argv, *extra])


@functools.cache  # built on first use; parsing never mutates it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="povmsim",
        description="Generalized-measurement simulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def povm_source(p):
        # not required: a --config file may give the source after parsing
        source = p.add_mutually_exclusive_group()
        source.add_argument("--povm", help="fixture name")
        source.add_argument("--povm-file", help="POVM JSON document")

    def common(p, seeded=True):
        if seeded:
            p.add_argument("--seed", type=non_negative_int, default=0)
        p.add_argument("--out", help="output file (relative paths use POVMSIM_OUTPUT_DIR)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", help="JSON config file; overrides flags")

    p = sub.add_parser("simulate", help="sample the postselection protocol")
    povm_source(p)
    p.add_argument("--state", default="zero", choices=STATE_NAMES)
    p.add_argument("--shots", type=shot_count, default=100_000)
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("usd", help="state-discrimination bound experiments")
    experiment = p.add_mutually_exclusive_group()  # not required, as in povm_source
    experiment.add_argument("--symmetric", nargs=2, type=float, metavar=("D", "EPSILON"))
    experiment.add_argument("--random", nargs=2, type=dimension, metavar=("D", "DIM"))
    experiment.add_argument("--ensemble", help="ensemble JSON document")
    p.add_argument("--trials", type=trial_count, default=100)
    common(p)
    p.set_defaults(func=cmd_usd)

    p = sub.add_parser("compare", help="noisy postselection-vs-Naimark comparison")
    povm_source(p)
    p.add_argument("--noise", choices=NOISE_PRESETS, metavar="NOISE")
    p.add_argument("--shots", type=shot_count)
    p.add_argument("--plan", help="experiment plan JSON; it sets the POVM, noise, shots and seed")
    common(p)
    p.set_defaults(func=cmd_compare, seed=None)  # COMPARE_DEFAULTS fills what is not given

    p = sub.add_parser("table1", help="recompute distances from bundled reconstructions")
    common(p, seeded=False)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fixtures", help="list bundled fixture names")
    common(p, seeded=False)
    p.set_defaults(func=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv, parser)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send what is still buffered to devnull
        # so the flush at interpreter exit cannot raise again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (InvariantViolation, AssertionError) as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
