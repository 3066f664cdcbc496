"""Experiment runner: simulation-study and recovery experiments with
deterministic seeding, calibration caching, CSV persistence, and SVG
chart emission.

Every run is fully determined by its configuration and seed: replicate
streams are derived from the master seed with stable keys, records are
sorted before writing, and floating-point values are written in
shortest round-trip form.  A config is checked when it is made, and
every file a run leaves, the calibration cache included, is written by
one atomic writer, so an interrupted run never leaves a truncated file.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import Field, asdict, dataclass, fields

import numpy as np

from .crossval import cv_select, lambda_grid, make_folds
from .rng import stream
from .sampling import ENSEMBLES, Dataset, EnsembleSpec, MatrixCompletion, generate_dataset, generate_ground_truth
from .solvers import SolverConfig, lambda_max, solve_noiseless, solve_path
from .theory import _noise_quantile, calibrate_lambda0, rsc_probe

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentRecord",
    "SummaryRow",
    "child_seed",
    "relative_error",
    "make_ensemble",
    "run_figure1",
    "run_exact_recovery",
    "run_rsc_probe",
    "run_calibration",
    "summarize",
    "emit_outputs",
]

EXPERIMENTS = ("figure1", "exact_recovery", "rsc_probe", "calibration")
ALL_ESTIMATORS = ("theory1", "theory2", "theory3", "oracle", "cv")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Settings of one run, checked when made (``dataclasses.replace``
    included): an invalid one raises ConfigError, so every config is valid."""

    experiment: str = "figure1"
    ensemble: str = "matrix_completion"
    d: int = 50
    r: int = 2
    sigma: float = 1.0
    n_grid: tuple[int, ...] = (1250, 2500, 5000)
    replicates: int = 20
    k_folds: int = 5
    seed: int = 0
    estimators: tuple[str, ...] = ALL_ESTIMATORS
    out_dir: str = "out"
    calib_reps: int = 250
    calib_quantile: float = 0.9
    trials: int = 1000
    multiplier: float = 3.0

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.ensemble not in ENSEMBLES:
            raise ConfigError(f"unknown ensemble {self.ensemble!r}")
        for name, least in (("replicates", 1), ("k_folds", 2), ("calib_reps", 10), ("trials", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be at least {least}, got {getattr(self, name)}")
        if len(self.n_grid) == 0 or self.n_grid[0] < 1 or any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigError(f"n_grid must be non-empty, positive and strictly increasing, got {self.n_grid}")
        if self.d < 1 or not 1 <= self.r <= self.d:
            raise ConfigError("need d >= 1 and 1 <= r <= d")
        if self.experiment == "figure1" and "cv" in self.estimators and self.k_folds > self.n_grid[0]:
            raise ConfigError(f"k_folds must not exceed the smallest n for cv, got {self.k_folds} > {self.n_grid[0]}")
        if not 0.0 < self.calib_quantile < 1.0:
            raise ConfigError(f"calib_quantile must lie in (0, 1), got {self.calib_quantile}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ConfigError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not math.isfinite(self.multiplier):
            raise ConfigError(f"multiplier must be finite, got {self.multiplier}")
        if self.multiplier <= 0:
            raise ConfigError(f"multiplier must be positive, got {self.multiplier}")
        unknown = set(self.estimators) - set(ALL_ESTIMATORS)
        if unknown:
            raise ConfigError(f"unknown estimators: {sorted(unknown)}")
        repeated = sorted({name for name in self.estimators if self.estimators.count(name) > 1})
        if repeated:
            raise ConfigError(f"estimators requested more than once: {','.join(repeated)}")
        if self.experiment == "exact_recovery" and self.sigma != 0.0:
            raise ConfigError("exact_recovery requires sigma = 0")
        theory = [name for name in self.estimators if name.startswith("theory")]
        if self.experiment == "figure1" and self.sigma == 0.0 and theory:
            # the calibrated noise quantile, and so every theory lambda, is 0
            raise ConfigError(f"sigma = 0 calibrates lambda to 0 for {','.join(theory)}; need sigma > 0")


@dataclass(frozen=True)
class ExperimentRecord:
    estimator: str
    n: int
    replicate: int
    relative_error: float
    lambda_used: float
    converged: bool
    seed: int
    success: bool | None = None


@dataclass(frozen=True)
class SummaryRow:
    estimator: str
    n: int
    mean: float
    two_se: float
    count: int
    unconverged: int  # records in the group whose solve reported converged=False


def child_seed(*keys) -> int:
    """Stable 64-bit seed derived from a tuple of integer/string keys."""
    ints = []
    for k in keys:
        if isinstance(k, str):
            ints.extend(k.encode())
        else:
            ints.append(int(k))
    return int(np.random.SeedSequence(ints).generate_state(1, np.uint64)[0])


def relative_error(b_hat, b_star) -> float:
    """Squared Frobenius error relative to the squared target norm."""
    b_hat = np.asarray(b_hat, dtype=float)
    b_star = np.asarray(b_star, dtype=float)
    return float(np.sum((b_hat - b_star) ** 2) / np.sum(b_star**2))


def make_ensemble(cfg: ExperimentConfig) -> EnsembleSpec:
    cls = ENSEMBLES[cfg.ensemble]
    if cls is MatrixCompletion and cfg.experiment == "figure1":
        # the simulation protocol observes raw entries: y_i = B*[r_i, c_i] + eps_i
        return MatrixCompletion(cfg.d, cfg.d, plain_entries=True)
    return cls(cfg.d, cfg.d)


# ---------------------------------------------------------------------------
# Calibration with on-disk caching
# ---------------------------------------------------------------------------


# Version of the calibration-cache key.  Bump it whenever a change moves
# the computed quantiles, even in the last bits (version 2: operator norms
# from the Gram matrix), so a stale file is never read in place of a fresh
# run and records.csv stays identical to a clean run.  The screened
# quantile (theory._noise_quantile) equals calibrate_lambda0's bit for bit,
# so files written by either are the same version.
_CALIB_FORMAT = 2


def _calibration_quantile(cfg: ExperimentConfig, spec: EnsembleSpec, n: int) -> float:
    """Upper-quantile of ||(1/n) sum eps_i X_i||_op (multiplier 1), cached
    per (format, ensemble, d, n, sigma, reps, quantile, seed) in out_dir."""
    key = (
        f"calib_v{_CALIB_FORMAT}_{cfg.ensemble}_{'plain_' if getattr(spec, 'plain_entries', False) else ''}"
        f"d{cfg.d}_n{n}_sigma{cfg.sigma!r}_reps{cfg.calib_reps}_q{cfg.calib_quantile!r}_seed{cfg.seed}.json"
    )
    path = os.path.join(cfg.out_dir, key)
    cached = _read_cached_quantile(path)
    if cached is not None:
        return cached
    rng = stream(child_seed(cfg.seed, "calibration", n))
    value = _noise_quantile(spec, n, cfg.sigma, cfg.calib_reps, cfg.calib_quantile, rng)
    _write_text(path, json.dumps({"quantile_value": value, "reps": cfg.calib_reps, "quantile": cfg.calib_quantile}))
    return value


def _read_cached_quantile(path: str) -> float | None:
    """Cached quantile at ``path``, or None when there is none.  A file that
    does not parse or holds no finite non-negative ``quantile_value`` is
    treated as absent, with a warning, so the caller recomputes and
    overwrites it (zero is valid: sigma = 0 calibrates to 0)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = float(json.load(fh)["quantile_value"])
    except FileNotFoundError:
        return None
    except (ValueError, KeyError, TypeError) as exc:
        warnings.warn(f"ignoring unreadable calibration cache {path}: {exc!r}")
        return None
    if not 0.0 <= value < math.inf:
        warnings.warn(f"ignoring calibration cache {path}: quantile_value {value} is not a finite non-negative number")
        return None
    return value


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

_FIG1_SOLVER = SolverConfig(max_iters=2000, rel_obj_tol=1e-7)
# bottom of the figure1 CV grid, as a fraction of lambda_max: deep enough
# that the out-of-fold minimum lies above it on every ensemble (at 0.01 it
# bound on three of the four); cv_select stops two rungs past the minimum,
# so the depth costs nothing where the minimum comes early
_CV_FLOOR = 1e-4


def _replicate(cfg: ExperimentConfig, spec: EnsembleSpec, n: int, rep: int) -> tuple[int, np.ndarray, Dataset]:
    """(data seed, rank-r target, dataset) of replicate ``rep`` at sample size n."""
    data_seed = child_seed(cfg.seed, "data", n, rep)
    b_star = generate_ground_truth(cfg.d, cfg.d, cfg.r, stream(child_seed(cfg.seed, "target", n, rep)))
    return data_seed, b_star, generate_dataset(spec, b_star, n, cfg.sigma, seed=data_seed)


def run_figure1(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Relative-error comparison of theory-calibrated, oracle, and
    cross-validated estimators over a grid of sample sizes.

    Estimator theory<c> solves the convex problem at lam = c * q, q the
    calibrated noise quantile of its sample size; the oracle takes the
    best of the halving grid from lambda_max down to 1.5 q, ties to the
    largest lam.  A replicate's distinct theory penalties and oracle grid
    are solved as one warm-started :func:`~tracereg.solvers.solve_path`
    walk over their union, largest first, each rung to the same tolerance
    as a cold solve; cv walks its own cross-validated grid.

    Only the theory and oracle estimators read q, so n is calibrated only
    when one of them runs, or when ``estimators`` is empty: that call
    fills the calibration cache and generates no replicate.
    """
    if cfg.experiment != "figure1":
        raise ConfigError("config does not request the figure1 experiment")
    spec = make_ensemble(cfg)
    mults = {name: float(name[len("theory") :]) for name in cfg.estimators if name.startswith("theory")}
    reads_q = mults or "oracle" in cfg.estimators or not cfg.estimators
    replicates = cfg.replicates if cfg.estimators else 0
    records: list[ExperimentRecord] = []
    for n in cfg.n_grid:
        base_quantile = _calibration_quantile(cfg, spec, n) if reads_q else None
        theory_lams = {mult * base_quantile for mult in mults.values()}
        for rep in range(replicates):
            data_seed, b_star, ds = _replicate(cfg, spec, n, rep)
            # the oracle and cv grids both start at the zero-solution threshold
            top = lambda_max(ds) if {"oracle", "cv"} & set(cfg.estimators) else None
            oracle_grid = lambda_grid(top, max(1.5 * base_quantile, 1e-12)) if "oracle" in cfg.estimators else []
            # one warm-started walk over every full-data penalty, scored rung
            # by rung so no finished b_hat outlives its warm start
            fits = {}
            if theory_lams or oracle_grid:
                for (est,) in solve_path([ds], sorted(theory_lams.union(oracle_grid), reverse=True), _FIG1_SOLVER):
                    fits[est.lam] = relative_error(est.b_hat, b_star), est.converged
            for name in cfg.estimators:
                if name == "cv":
                    plan = make_folds(n, cfg.k_folds, stream(child_seed(cfg.seed, "folds", n, rep)))
                    result = cv_select(ds, plan, lambda_grid(top, _CV_FLOOR * top), _FIG1_SOLVER)
                    err, lam_used, conv = relative_error(result.b_cv, b_star), result.lambda_cv, result.converged
                elif name in mults:
                    lam_used = mults[name] * base_quantile
                    err, conv = fits[lam_used]
                else:  # the oracle: min keeps the first of equal errors, so ties go to the largest lam
                    lam_used = min(oracle_grid, key=lambda lam: fits[lam][0])
                    err, conv = fits[lam_used]
                records.append(
                    ExperimentRecord(
                        estimator=name,
                        n=n,
                        replicate=rep,
                        relative_error=err,
                        lambda_used=lam_used,
                        converged=conv,
                        seed=data_seed,
                    )
                )
    records.sort(key=lambda rec: (rec.estimator, rec.n, rec.replicate))
    return records


def run_exact_recovery(cfg: ExperimentConfig) -> list[ExperimentRecord]:
    """Noiseless minimum-nuclear-norm recovery over a grid of sample
    sizes; each record carries a success flag (relative error < 1e-3)."""
    if cfg.experiment != "exact_recovery":
        raise ConfigError("config does not request the exact_recovery experiment")
    spec = make_ensemble(cfg)
    records: list[ExperimentRecord] = []
    for n in cfg.n_grid:
        for rep in range(cfg.replicates):
            data_seed, b_star, ds = _replicate(cfg, spec, n, rep)
            est = solve_noiseless(ds)
            err = relative_error(est.b_hat, b_star)
            records.append(
                ExperimentRecord(
                    estimator="noiseless",
                    n=n,
                    replicate=rep,
                    relative_error=err,
                    lambda_used=est.lam,
                    converged=est.converged,
                    seed=data_seed,
                    success=bool(err < 1e-3),
                )
            )
    records.sort(key=lambda rec: (rec.estimator, rec.n, rec.replicate))
    return records


def run_rsc_probe(cfg: ExperimentConfig) -> dict:
    """Probe restricted strong convexity on one dataset drawn at the
    first grid size, with the constraint-set floor nu taken from the
    calibrated regularization recipe nu = lam0^2 r / (gamma_min^2 b*^2)."""
    spec = make_ensemble(cfg)
    n = cfg.n_grid[0]
    base_quantile = _calibration_quantile(cfg, spec, n)
    lam0 = cfg.multiplier * base_quantile
    _, b_star, ds = _replicate(cfg, spec, n, 0)
    nu = lam0**2 * cfg.r / (spec.constants().gamma_min**2 * spec.spikiness_norm(b_star) ** 2)
    report = rsc_probe(ds, nu, 72.0 * cfg.r, cfg.trials, stream(child_seed(cfg.seed, "probe", n)))
    return {"experiment": "rsc_probe", "ensemble": cfg.ensemble, "d": cfg.d, "n": n, **asdict(report)}


def run_calibration(cfg: ExperimentConfig) -> dict:
    """Stand-alone calibration run at the first grid size."""
    spec = make_ensemble(cfg)
    n = cfg.n_grid[0]
    rng = stream(child_seed(cfg.seed, "calibration", n))
    report = calibrate_lambda0(spec, n, cfg.sigma, cfg.multiplier, cfg.calib_reps, cfg.calib_quantile, rng)
    return {
        "experiment": "calibration",
        "ensemble": cfg.ensemble,
        "d": cfg.d,
        "n": n,
        "sigma": cfg.sigma,
        **asdict(report),
        "samples": [float(v) for v in report.samples],
    }


# ---------------------------------------------------------------------------
# Summaries and output files
# ---------------------------------------------------------------------------


def summarize(records: list[ExperimentRecord]) -> list[SummaryRow]:
    """Mean relative error with twice its standard error, and the count of
    records whose solve did not converge, per (estimator, n) group."""
    if not records:
        raise ValueError("no records to summarize")
    groups: dict[tuple[str, int], list[ExperimentRecord]] = {}
    for rec in records:
        groups.setdefault((rec.estimator, rec.n), []).append(rec)
    rows = []
    for (est, n), recs in sorted(groups.items()):
        arr = np.asarray([rec.relative_error for rec in recs])
        two_se = 0.0 if len(arr) < 2 else 2.0 * float(np.std(arr, ddof=1)) / math.sqrt(len(arr))
        unconverged = sum(not rec.converged for rec in recs)
        rows.append(SummaryRow(estimator=est, n=n, mean=float(np.mean(arr)), two_se=two_se, count=len(arr),
                               unconverged=unconverged))
    return rows


# the text form of a value both ways: _fmt writes the CSVs and config.echo;
# _parse_value reads them, the config file and the CLI flags
_BOOL_WORDS = {"true": True, "false": False}

_PARSERS = {
    "int": int,
    "float": float,
    "bool": lambda raw: _BOOL_WORDS[raw],
    "tuple[int, ...]": lambda raw: tuple(int(v) for v in raw.split(",") if v),
    "tuple[str, ...]": lambda raw: tuple(v.strip() for v in raw.split(",") if v.strip()),
}
_PARSERS["bool | None"] = _PARSERS["bool"]  # ExperimentRecord.success, a column only when set


def _parse_value(field: Field, raw: str):
    """The typed value of dataclass field ``field`` from its raw string;
    raises ConfigError when the string does not parse."""
    raw = raw.strip()
    try:
        return _PARSERS.get(field.type, str)(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"cannot parse {field.name}={raw!r}") from None


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _csv_text(rows: list, names: list[str]) -> str:
    """CSV text of dataclass ``rows``, one column per field in ``names``."""
    lines = [",".join(names)]
    lines += [",".join(_fmt(getattr(row, name)) for name in names) for row in rows]
    return "\n".join(lines) + "\n"


def write_records_csv(records: list[ExperimentRecord], path: str) -> None:
    names = [f.name for f in fields(ExperimentRecord)]
    if all(rec.success is None for rec in records):
        names.remove("success")
    _write_text(path, _csv_text(records, names))


def read_records_csv(path: str) -> list[ExperimentRecord]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *lines = fh.read().splitlines()
    by_name = {f.name: f for f in fields(ExperimentRecord)}
    columns = [by_name[name] for name in header.split(",")]
    return [
        ExperimentRecord(**{f.name: _parse_value(f, raw) for f, raw in zip(columns, line.split(","))})
        for line in lines
    ]


def _write_text(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` through a temporary file renamed over
    it, so no run leaves a truncated file; a plain open (not mkstemp's 0600)
    gives the umask's mode.  Creates the directory; OSError names ``path``."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, "x", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"failed writing {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


_PALETTE = ["#1b6ca8", "#d1495b", "#3a7d44", "#8d6a9f", "#c77b1f"]


def render_figure_svg(summary: list[SummaryRow]) -> str:
    """Line chart of mean relative error against sample size on log-log
    axes, one polyline per estimator with 2SE error bars."""
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 20.0, 50.0
    xs = sorted({row.n for row in summary})
    estimators = sorted({row.estimator for row in summary})
    ymin = min(max(row.mean - row.two_se, 1e-12) for row in summary)
    ymax = max(row.mean + row.two_se for row in summary)
    lx0, lx1 = math.log10(xs[0]), math.log10(xs[-1])
    if lx1 <= lx0:
        lx1 = lx0 + 1.0
    ly0, ly1 = math.log10(ymin), math.log10(max(ymax, 1e-12))
    if ly1 <= ly0:
        ly1 = ly0 + 1.0

    def sx(n):
        return left + (math.log10(n) - lx0) / (lx1 - lx0) * (width - left - right)

    def sy(v):
        v = max(v, 1e-12)
        return height - bottom - (math.log10(v) - ly0) / (ly1 - ly0) * (height - top - bottom)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" y2="{height - bottom:.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">n</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})">relative error</text>',
    ]
    for n in xs:
        parts.append(
            f'<text x="{sx(n):.2f}" y="{height - bottom + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{n}</text>'
        )
    for i, name in enumerate(estimators):
        color = _PALETTE[i % len(_PALETTE)]
        rows = sorted((row for row in summary if row.estimator == name), key=lambda row: row.n)
        pts = " ".join(f"{sx(row.n):.2f},{sy(row.mean):.2f}" for row in rows)
        for row in rows:
            x = sx(row.n)
            parts.append(
                f'<line x1="{x:.2f}" y1="{sy(row.mean - row.two_se):.2f}" x2="{x:.2f}" '
                f'y2="{sy(row.mean + row.two_se):.2f}" stroke="{color}" stroke-width="1"/>'
            )
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - right - 120:.1f}" y="{top + 16 * (i + 1):.1f}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_outputs(records: list[ExperimentRecord], summary: list[SummaryRow], cfg: ExperimentConfig) -> dict[str, str]:
    """Write records.csv, summary.csv, config.echo, and figure1.svg into
    cfg.out_dir; returns the written paths."""
    paths = {
        "records": os.path.join(cfg.out_dir, "records.csv"),
        "summary": os.path.join(cfg.out_dir, "summary.csv"),
        "config": os.path.join(cfg.out_dir, "config.echo"),
        "figure": os.path.join(cfg.out_dir, "figure1.svg"),
    }
    write_records_csv(records, paths["records"])
    _write_text(paths["summary"], _csv_text(summary, [f.name for f in fields(SummaryRow)]))
    echo = [f"{key}={_fmt(val)}" for key, val in sorted(asdict(cfg).items())]
    _write_text(paths["config"], "\n".join(echo) + "\n")
    _write_text(paths["figure"], render_figure_svg(summary))
    return paths
