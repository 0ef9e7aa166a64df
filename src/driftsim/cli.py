"""Command-line entry point: dataset generation, pipeline runs, parameter
sweeps, and exhaustive verification of the correlation-shift bound.

Exit codes: 0 success, 1 verified property violation, 2 a ConfigError (usage,
config, input-data or output-path error, or a run refused before it trains)
or out of memory, 3 numeric failure (non-finite training loss or gradient).
All file outputs are written atomically (temp file + rename). The default
output directory is "." unless the DRIFTSIM_OUT environment variable
overrides it. A closed stdout (a reader such as `head` that quits early)
silences the status lines but changes neither the files nor the exit code.
"""
from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .bounds import check_moment_deltas, random_distribution_pair, verify_bound
from .correlation import pearson_matrix
from .datasets import (CLASSIFICATION, DomainStream, load_csv_stream,
                       make_moons_stream, save_domain_csv, fit_apply_normalization)
from .harness import (SWEEP_PARAMETERS, ConfigError, ExperimentConfig,
                      ExperimentReport, require_sweepable, require_trainable,
                      run_experiment, sweep)

__all__ = ["main", "load_run_config"]

GENERATIVE = ("coda", "coda-without-C", "prelim")
# a dataset block holds its kind's function's keyword arguments, and the
# gen-moons flags are the moons keys, with its defaults
DATASETS = {"moons": make_moons_stream, "csv": load_csv_stream}
MOONS_DEFAULTS = {name: p.default for name, p in
                  inspect.signature(make_moons_stream).parameters.items()}
# --max-support x --dims: one pair of 250,000 support points in 4 dims (10^6
# cells) took 5.9 s and 252 MB peak RSS on a shared 2-vCPU machine
MAX_PAIR_CELLS = 1_000_000


# -- atomic file output ------------------------------------------------------

def _make_dir(directory: str) -> None:
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make directory {directory}: {exc}") from None


def _write_atomic(path: str, write) -> None:
    """Run write(tmp) on a temp file beside `path`, then rename it onto `path`.

    On any failure the temp file is removed and the error re-raised, an
    OSError as a ConfigError naming `path`.
    """
    directory = os.path.dirname(os.path.abspath(path))
    _make_dir(directory)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write {path}: {exc}") from None
        raise


def _write_text(path: str, text: str) -> None:
    _write_atomic(path, lambda tmp: Path(tmp).write_text(text))


def _write_csv(path: str, dataset) -> None:
    _write_atomic(path, lambda tmp: save_domain_csv(dataset, tmp))


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _out_dir(flag_value: str | None) -> str:
    return flag_value or os.environ.get("DRIFTSIM_OUT", ".")


def _say(line: str) -> None:
    """Print a status line. Once stdout's reader has gone, stdout is pointed
    at os.devnull, so this and every later line (and the flush at exit) go
    nowhere and the command carries on."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# -- config file -------------------------------------------------------------

def _check_keys(block, context: str, allowed) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{context}: expected a JSON object, "
                          f"got {type(block).__name__}")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}; "
                          f"expected a subset of {sorted(allowed)}")


_KINDS = {int: "an integer", float: "a finite number", str: "a string",
          tuple: "a list of integers"}


def _fits(value, default) -> bool:
    """Whether a JSON value can stand in for a field's default: an int field
    takes a non-bool int, a float field a non-bool finite number, a string
    field a string, a tuple field a list of values that fit its first entry
    or, when it is empty (the csv feature_cols), a list of strings."""
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_fits(v, default[0] if default else "")
                                               for v in value)
    if isinstance(value, bool):
        return False
    if isinstance(default, (int, str)):
        return isinstance(value, type(default))
    # compared exactly: NaN, infinities and ints too large for a float fail
    return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _typed(context: str, key: str, value, default):
    """`value` for a field with this default, a list becoming a tuple, or a
    ConfigError naming the key when `_fits` refuses it."""
    if not _fits(value, default):
        kind = "a list of strings" if default == () else _KINDS[type(default)]
        raise ConfigError(f"{context}: {key} must be {kind}, got {value!r}")
    return tuple(value) if isinstance(value, list) else value


def _overrides(block, context: str, default):
    """`default` with the fields a JSON object names replaced. A field whose
    default is a config dataclass takes a nested object; any other field
    takes a value of its default's type (`_typed`)."""
    _check_keys(block, context, [f.name for f in fields(default)])
    changes = {}
    for key, value in block.items():
        current = getattr(default, key)
        changes[key] = (_overrides(value, key, current) if is_dataclass(current)
                        else _typed(context, key, value, current))
    try:
        return replace(default, **changes)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from None


def _build_stream(block) -> DomainStream:
    """The stream a dataset block describes: each key but "kind" is typed by
    the default of the parameter of the kind's function that it fills, and
    one without a default (the csv path) is required and takes a string."""
    if not isinstance(block, dict):
        raise ConfigError(f"dataset: expected a JSON object, "
                          f"got {type(block).__name__}")
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in DATASETS:
        raise ConfigError(f"dataset: unknown kind {kind!r}; expected moons or csv")
    parameters = inspect.signature(DATASETS[kind]).parameters
    _check_keys(block, "dataset", ("kind", *parameters))
    options = {}
    for key, p in parameters.items():
        required = p.default is p.empty
        if key in block:
            options[key] = _typed("dataset", key, block[key], "" if required else p.default)
        elif required:
            raise ConfigError(f"dataset: {kind} needs {key}")
    try:
        return DATASETS[kind](**options)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"dataset: {exc}") from None


def load_run_config(path: str):
    """Parse a run-config JSON file into (stream, methods, ExperimentConfig).

    Every omitted field keeps its dataclass default; unknown keys at any
    level are rejected rather than silently ignored. The output directory is
    not a config key: `--out` or DRIFTSIM_OUT sets it.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    # dataset and methods are read here; every other key is a field of
    # ExperimentConfig
    _check_keys(raw, path, ["dataset", "methods",
                            *(f.name for f in fields(ExperimentConfig))])
    dataset = raw.pop("dataset", {"kind": "moons"})
    methods = raw.pop("methods", ["coda"])
    if not (isinstance(methods, list) and methods):
        raise ConfigError("methods: expected a non-empty list of method names")
    config = _overrides(raw, path, ExperimentConfig())
    stream = _build_stream(dataset)
    # every listed method, its name first, is checked before the first one trains
    for method in methods:
        require_trainable(stream, method, config)
    return stream, methods, config


# -- subcommands -------------------------------------------------------------

def cmd_gen_moons(args) -> int:
    out = _out_dir(args.out)
    options = {name: getattr(args, name) for name in MOONS_DEFAULTS}
    stream = _build_stream({"kind": "moons", **options})
    files = []
    for dom in (*stream.sources, stream.target):
        name = f"moons_domain_{dom.domain_index:02d}.csv"
        _write_csv(os.path.join(out, name), dom)
        files.append(name)
    _write_json(os.path.join(out, "moons_manifest.json"),
                {**options, "files": files})
    _say(f"wrote {len(files)} domain files to {out}")
    return 0


def _dump_artifacts(stream, report: ExperimentReport, config: ExperimentConfig,
                    out: str) -> list:
    """Generated-data CSV for the first configured seed, plus a correlation
    CSV when the run made a forecast, taken from the models the run already
    trained."""
    method, seed = report.method, config.seeds[0]
    if method not in GENERATIVE:
        return []
    train_set, extra = report.train_sets[0], report.extras[0]
    normalized, stats = fit_apply_normalization(stream)
    written = []
    if "predicted_corr" in extra:
        lines = ["matrix,row,col,value"]
        mats = [(f"C{s.domain_index}", pearson_matrix(s))
                for s in normalized.sources]
        mats.append(("predicted", extra["predicted_corr"]))
        for name, mat in mats:
            m = mat.entries
            for i in range(mat.dim):
                for j in range(mat.dim):
                    lines.append(f"{name},{i},{j},{m[i, j]!r}")
        corr_path = os.path.join(out, "correlations.csv")
        _write_text(corr_path, "\n".join(lines) + "\n")
        written.append(corr_path)
    features = stats.invert_features(train_set.features)
    labels = (train_set.labels if train_set.task == CLASSIFICATION
              else stats.invert_label(train_set.labels))
    names = tuple(stream.sources[0].feature_names[i] for i in stats.kept)
    restored = replace(train_set, features=features, labels=labels,
                       feature_names=names)
    gen_path = os.path.join(out, f"generated_{method}_seed{seed}.csv")
    _write_csv(gen_path, restored)
    written.append(gen_path)
    return written


def cmd_run(args) -> int:
    stream, methods, config = load_run_config(args.config)
    out = _out_dir(args.out)
    _make_dir(out)
    reports = []
    artifacts = []
    for method in methods:
        report = run_experiment(stream, method, config)
        reports.append(report.to_dict())
        _say(f"{method:16s} {report.metric:12s} "
             f"mean={report.mean:8.3f}  std={report.std:7.3f}  "
             f"seeds={[round(v, 3) for v in report.seed_values]}")
        if args.artifacts:
            artifacts += _dump_artifacts(stream, report, config, out)
    report_path = os.path.join(out, "report.json")
    _write_json(report_path, {"reports": reports, "artifacts": artifacts})
    _say(f"report written to {report_path}")
    return 0


def cmd_verify_bound(args) -> int:
    # random_distribution_pair needs room for max(3, dims + 1) support points
    minimums = (("--pairs", args.pairs, 1), ("--dims", args.dims, 1),
                ("--max-support", args.max_support, max(3, args.dims + 1)),
                ("--seed", args.seed, 0))
    for flag, value, least in minimums:
        if value < least:
            raise ConfigError(f"{flag} must be at least {least}")
    if args.max_support * args.dims > MAX_PAIR_CELLS:
        raise ConfigError(f"--max-support x --dims must be at most {MAX_PAIR_CELLS:,}")
    rows = [] if args.out else None  # nothing reads them without --out
    bad = 0
    for index in range(args.pairs):
        p, q = random_distribution_pair(np.random.default_rng([args.seed, index]),
                                        max_dim=args.dims,
                                        max_support=args.max_support)
        bound = verify_bound(p, q)
        moments = check_moment_deltas(p, q)
        ok = (not bound.violated) and moments.ok
        bad += 0 if ok else 1
        if rows is not None:
            rows.append({**bound.to_dict(), "moment_deltas_ok": bool(moments.ok)})
    if args.out:
        _write_json(args.out, rows)
    _say(f"{args.pairs} pairs checked, {bad} violations")
    return 1 if bad else 0


def cmd_sweep(args) -> int:
    stream, methods, config = load_run_config(args.config)
    if len(methods) > 1:  # the curve has no method column
        raise ConfigError(f"methods: sweep takes one method, got {methods}")
    require_sweepable(methods[0], args.param)
    out = _out_dir(args.out)
    _make_dir(out)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"--values: expected comma-separated numbers, "
                          f"got {args.values!r}") from None
    points = sweep(stream, args.param, values, config, method=methods[0],
                   validate=args.validate)
    lines = ["value,mean,std" + (",val_mean,val_std" if args.validate else "")]
    rows = []
    for point in points:
        row = [point.value, point.test.mean, point.test.std]
        if args.validate:
            row += [point.validation.mean, point.validation.std]
        lines.append(",".join(repr(float(v)) for v in row))
        rows.append({"value": point.value, "test": point.test.to_dict(),
                     "validation": point.validation.to_dict()
                     if point.validation else None})
        _say(f"{args.param}={point.value:g}: mean={point.test.mean:.3f} "
             f"std={point.test.std:.3f}")
    csv_path = os.path.join(out, f"sweep_{args.param}.csv")
    _write_text(csv_path, "\n".join(lines) + "\n")
    _write_json(os.path.join(out, f"sweep_{args.param}.json"), rows)
    _say(f"curve written to {csv_path}")
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftsim",
        description="Correlation-guided simulation of future tabular domains")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-moons", help="write the rotating-moons benchmark "
                                           "as per-domain CSV files")
    gen.add_argument("--domains", type=int, default=MOONS_DEFAULTS["domains"])
    gen.add_argument("--n", dest="n_per_domain", type=int,
                     default=MOONS_DEFAULTS["n_per_domain"])
    gen.add_argument("--noise", dest="noise_std", type=float,
                     default=MOONS_DEFAULTS["noise_std"])
    gen.add_argument("--seed", type=int, default=MOONS_DEFAULTS["seed"])
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen_moons)

    run = sub.add_parser("run", help="run methods from a JSON config and "
                                     "write an experiment report")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)
    run.add_argument("--artifacts", action="store_true",
                     help="also write correlation and generated-data CSVs "
                          "for the first seed, from the run's own models")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify-bound", help="stress the correlation-shift "
                                              "bound on random finite supports")
    ver.add_argument("--pairs", type=int, default=1000)
    ver.add_argument("--max-support", type=int, default=16)
    ver.add_argument("--dims", type=int, default=4)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None)
    ver.set_defaults(func=cmd_verify_bound)

    swp = sub.add_parser("sweep", help="one experiment per parameter value, "
                                       "plus a plot-ready CSV curve")
    swp.add_argument("--config", required=True)
    swp.add_argument("--param", choices=tuple(SWEEP_PARAMETERS), required=True)
    swp.add_argument("--values", required=True,
                     help="comma-separated numbers, e.g. 0.1,1,5,20")
    swp.add_argument("--validate", action="store_true",
                     help="also score against the last source domain held "
                          "out as a pseudo-target")
    swp.add_argument("--out", default=None)
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NonFiniteLossError or Adam's gradient check
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a model or data size that no allocation can hold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
