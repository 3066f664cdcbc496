"""Command line front end for the experiment runner.

One subcommand per experiment (figure1, exact-recovery, rsc-probe,
calibration), with one flag per ExperimentConfig field.  Options may also
come from a flat key=value config file, such as a run's config.echo; a
flag's value parses as its config-file line does.  Precedence is command
line > file > defaults.  Exit codes: 0 success, 2 configuration error or
any other ValueError (bad input or data), 3 I/O error; each failure
prints one line to stderr.
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
    _parse_value,
    _write_text,
    emit_outputs,
    run_calibration,
    run_exact_recovery,
    run_figure1,
    run_rsc_probe,
    summarize,
)
from .sampling import ENSEMBLES

_FIELDS = {f.name: f for f in fields(ExperimentConfig)}

# the flag spellings that are not "--" + the field name with dashes, and
# the argparse keywords some flags take; every value reaches resolve_config
# as a string
_FLAGS = {"n_grid": ("--n",), "calib_reps": ("--calib-reps", "--reps"), "calib_quantile": ("--quantile",)}
_FLAG_KWARGS = {
    "ensemble": {"choices": list(ENSEMBLES)},
    "n_grid": {"help": "comma-separated sample sizes, strictly increasing"},
    "estimators": {"help": f"comma-separated subset of {','.join(ALL_ESTIMATORS)}"},
}


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
            if key not in _FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _parse_value(_FIELDS[key], raw)
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for name in _FIELDS:
        if name != "experiment":  # the subcommand sets it
            flags = _FLAGS.get(name, ("--" + name.replace("_", "-"),))
            parser.add_argument(*flags, dest=name, **_FLAG_KWARGS.get(name, {}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracereg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        _add_common(sub.add_parser(name.replace("_", "-")))
    return parser


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    values = load_config_file(args.config) if args.config else {}
    values["experiment"] = args.command.replace("-", "_")  # the subcommand beats the file
    for f in _FIELDS.values():
        raw = getattr(args, f.name, None)
        if raw is not None:
            values[f.name] = _parse_value(f, raw)
    if values["experiment"] == "exact_recovery":
        values.setdefault("sigma", 0.0)
        values.setdefault("ensemble", "gaussian_ensemble")
    return ExperimentConfig(**values)


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
            if records:  # figure1 with no estimators only fills the calibration cache
                emit_outputs(records, summarize(records), cfg)
        else:
            report = run_rsc_probe(cfg) if cfg.experiment == "rsc_probe" else run_calibration(cfg)
            text = json.dumps(report, separators=(",", ":"), sort_keys=True) + "\n"
            _write_text(os.path.join(cfg.out_dir, f"{cfg.experiment}.json"), text)
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
