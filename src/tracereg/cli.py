"""Command line front end for the experiment runner.

One subcommand per experiment (figure1, exact-recovery, rsc-probe,
calibration).  Options may also come from a flat key=value config file;
precedence is command line > file > defaults.  Exit codes: 0 success,
2 configuration error or any other ValueError (bad input or data), 3 I/O
error; each failure prints one line to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from .experiments import (
    ALL_ESTIMATORS,
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    emit_outputs,
    run_calibration,
    run_exact_recovery,
    run_figure1,
    run_rsc_probe,
    summarize,
)
from .sampling import ENSEMBLES

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}

# parsers of a raw string, keyed by the ExperimentConfig field's annotation
_PARSERS = {
    "int": int,
    "float": float,
    "bool": lambda raw: _BOOL_WORDS[raw.lower()],
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw.split(",") if v),
    "tuple[str, ...]": lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()),
}
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    """The typed value of config key ``key`` from its raw string; raises
    ConfigError when the string does not parse."""
    raw = raw.strip()
    try:
        return _PARSERS.get(_FIELD_TYPES.get(key), str)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {key}={raw!r}") from None


def load_config_file(path: str) -> dict:
    """Read a flat key=value config file; blank lines and #-comments are
    ignored."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _parse_value(key, raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--ensemble", choices=list(ENSEMBLES))
    parser.add_argument("--d", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--n", dest="n_grid", help="comma-separated sample sizes, strictly increasing")
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--k-folds", dest="k_folds", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--estimators", help=f"comma-separated subset of {','.join(ALL_ESTIMATORS)}")
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--calib-reps", "--reps", dest="calib_reps", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--multiplier", type=float)
    parser.add_argument("--quantile", dest="calib_quantile", type=float)
    parser.add_argument("--paper-scale", dest="paper_scale", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracereg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name.replace("_", "-")))
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = {"experiment": args.command.replace("-", "_")}
    if args.config:
        file_values = load_config_file(args.config)
        file_values.pop("experiment", None)
        values.update(file_values)
    for f in fields(ExperimentConfig):
        val = getattr(args, f.name, None)
        if val is not None:
            # the list-valued flags arrive as comma-separated strings
            values[f.name] = _parse_value(f.name, val) if f.type.startswith("tuple") else val
    if values["experiment"] == "exact_recovery":
        values.setdefault("sigma", 0.0)
        values.setdefault("ensemble", "gaussian_ensemble")
    try:
        return ExperimentConfig(**values).validate()
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if cfg.experiment in ("figure1", "exact_recovery"):
            records = run_figure1(cfg) if cfg.experiment == "figure1" else run_exact_recovery(cfg)
            emit_outputs(records, summarize(records), cfg)
        elif cfg.experiment == "rsc_probe":
            _write_json(os.path.join(cfg.out_dir, "rsc_probe.json"), run_rsc_probe(cfg))
        else:
            _write_json(os.path.join(cfg.out_dir, "calibration.json"), run_calibration(cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
