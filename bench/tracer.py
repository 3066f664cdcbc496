"""In-memory span tracer that wraps tracereg's public functions from outside
the library.

``Tracer.installed()`` rebinds each traced function in every tracereg module
that holds it (and the ``apply`` / ``adjoint`` / ``sample_batch`` methods of
the sampling classes) to a wrapper that records a span: name, start, end,
parent span and unit id.  ``numpy.linalg.svd`` is wrapped as a counter only;
each call is charged to the innermost open span.  Nothing in the library
changes, and leaving the context restores every original binding.

Work that a wrapper does after its span closes (the rank of a
``soft_threshold`` output, the byte sizes behind ``bytes_computed``) is
excluded from the tracer's clock, so no span and no unit time includes it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# span record fields
NAME, START, END, PARENT, UNIT, SVD, INFO = range(7)

SOLVE = "solvers.solve_convex"
LIPSCHITZ = "solvers.lipschitz_estimate"
CV = "crossval.cv_select"
APPLY = "sampling.apply"
ADJOINT = "sampling.adjoint"
SOFT = "linalg.soft_threshold"

# singular values below this share of the largest one count as zero, as in
# tracereg.linalg.numerical_rank
RANK_RTOL = 1e-10


def _array_bytes(owner) -> int:
    return sum(v.nbytes for v in vars(owner).values() if isinstance(v, np.ndarray))


class Tracer:
    """Collects spans while installed; ``unit`` labels the spans opened."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = -1
        self.untraced_svd = 0
        self._stack: list[int] = []
        self._excluded = 0.0
        self._svd = np.linalg.svd

    def now(self) -> float:
        """Tracer clock: wall time minus the post-span work excluded so far."""
        return time.perf_counter() - self._excluded

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span for the enclosed block; yields its record."""
        rec = [name, self.now(), None, self._stack[-1] if self._stack else -1, self.unit, 0, None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[END] = self.now()
            self._stack.pop()

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
            if after is not None:
                t0 = time.perf_counter()
                rec[INFO] = after(args, out)
                tracer._excluded += time.perf_counter() - t0
            return out

        return traced

    def _count_svd(self, *args, **kwargs):
        if self._stack:
            self.spans[self._stack[-1]][SVD] += 1
        else:
            self.untraced_svd += 1
        return self._svd(*args, **kwargs)

    def _out_rank(self, args, out):
        s = self._svd(out, compute_uv=False)
        rank = 0 if s.size == 0 or s[0] == 0.0 else int(np.sum(s > RANK_RTOL * s[0]))
        return {"rank": rank, "dim": min(out.shape)}

    @staticmethod
    def _op_bytes(args, out):
        return {"bytes": _array_bytes(args[0]) + np.asarray(args[1]).nbytes + np.asarray(out).nbytes}

    @staticmethod
    def _solve_info(args, est):
        return {"iters": est.iters, "converged": bool(est.converged)}

    @staticmethod
    def _cv_info(args, result):
        selected = result.lambda_grid.index(result.lambda_cv)
        fits = [len(row) for row in result.per_fold_estimates]
        return {"grid_len": len(result.lambda_grid), "fits": sum(fits), "selected_fits": fits[selected]}

    @staticmethod
    def _calib_info(args, report):
        return {"draws": report.reps}

    def _function_targets(self):
        from tracereg import crossval, linalg, sampling, solvers, theory

        return [
            (linalg.soft_threshold, SOFT, self._out_rank),
            (linalg.matrix_norm, "linalg.matrix_norm", None),
            (linalg.operator_norm, "linalg.operator_norm", None),
            (sampling.generate_dataset, "sampling.generate_dataset", None),
            (solvers.solve_convex, SOLVE, self._solve_info),
            (solvers.solve_noiseless, "solvers.solve_noiseless", None),
            (solvers.lipschitz_estimate, LIPSCHITZ, None),
            (crossval.cv_select, CV, self._cv_info),
            (theory.calibrate_lambda0, "theory.calibrate_lambda0", self._calib_info),
        ]

    def _method_targets(self):
        from tracereg import sampling

        methods = {"apply": (APPLY, self._op_bytes), "adjoint": (ADJOINT, self._op_bytes),
                   "sample_batch": ("sampling.sample_batch", None)}
        for cls in vars(sampling).values():
            if inspect.isclass(cls) and cls.__module__ == sampling.__name__:
                for attr, (name, after) in methods.items():
                    if attr in vars(cls):
                        yield cls, attr, name, after

    @contextlib.contextmanager
    def installed(self):
        """Trace every call into the library made inside the block."""
        saved = [(np.linalg, "svd", np.linalg.svd)]
        np.linalg.svd = self._count_svd
        modules = [m for key, m in list(sys.modules.items()) if key == "tracereg" or key.startswith("tracereg.")]
        for fn, name, after in self._function_targets():
            wrapper = self._wrap(name, fn, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        for cls, attr, name, after in self._method_targets():
            saved.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, self._wrap(name, vars(cls)[attr], after))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        """One line per span: name, start, end, parent index, unit id, SVDs
        charged to the span, and the span's extra fields."""
        keys = ("name", "start", "end", "parent", "unit", "svd", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer totals over every span the tracer holds, as name -> (value, unit).

    Calls and counts are machine-independent; ``.s`` is total span time and
    ``.self_s`` that time minus the time covered by child spans.
    """
    spans = tracer.spans
    dur = [rec[END] - rec[START] for rec in spans]
    child = [0.0] * len(spans)
    # nearest enclosing solve_convex or lipschitz_estimate span, by name
    solver_ctx: list[str | None] = [None] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[NAME]].append(i)
        p = rec[PARENT]
        if p >= 0:
            child[p] += dur[i]
            solver_ctx[i] = spans[p][NAME] if spans[p][NAME] in (SOLVE, LIPSCHITZ) else solver_ctx[p]

    def calls(name):
        return float(len(by_name[name]))

    def secs(name):
        return float(sum(dur[i] for i in by_name[name]))

    def self_secs(name):
        return float(sum(dur[i] - child[i] for i in by_name[name]))

    def infos(name, key):
        return [spans[i][INFO][key] for i in by_name[name]]

    def in_solve(name):
        return float(sum(1 for i in by_name[name] if solver_ctx[i] == SOLVE))

    ranks = infos(SOFT, "rank")
    low_rank = sum(1 for i in by_name[SOFT] if 10 * spans[i][INFO]["rank"] <= spans[i][INFO]["dim"])
    prox = in_solve(SOFT)
    iters = infos(SOLVE, "iters")
    svd_in_solve = sum(rec[SVD] for i, rec in enumerate(spans) if rec[NAME] == SOLVE or solver_ctx[i] == SOLVE)
    cv_fits = sum(infos(CV, "fits"))
    draws = sum(infos("theory.calibrate_lambda0", "draws"))
    emit = by_name["experiments.emit_outputs"]

    m: dict[str, tuple[float, str]] = {}
    m["linalg.soft_threshold.calls"] = (calls(SOFT), "count")
    m["linalg.soft_threshold.s"] = (secs(SOFT), "s")
    for name in ("linalg.matrix_norm", "linalg.operator_norm"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["linalg.svd_total.calls"] = (float(sum(rec[SVD] for rec in spans) + tracer.untraced_svd), "count")
    m["linalg.soft_threshold.out_rank.p50"] = (float(statistics.median(ranks)) if ranks else 0.0, "rank")
    m["linalg.soft_threshold.out_rank.p90"] = (_nearest_rank(ranks, 0.9), "rank")
    m["linalg.soft_threshold.low_rank_share"] = (_ratio(low_rank, len(ranks)), "frac")
    for name in (APPLY, ADJOINT):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
        m[f"{name}.bytes_computed"] = (float(sum(infos(name, "bytes"))), "B")
    m["sampling.sample_batch.calls"] = (calls("sampling.sample_batch"), "count")
    m["sampling.sample_batch.s"] = (secs("sampling.sample_batch"), "s")
    m["sampling.generate_dataset.s"] = (secs("sampling.generate_dataset"), "s")
    m["solvers.solve_convex.calls"] = (calls(SOLVE), "count")
    m["solvers.solve_convex.s"] = (secs(SOLVE), "s")
    m["solvers.solve_convex.self_s"] = (self_secs(SOLVE), "s")
    m["solvers.solve_noiseless.calls"] = (calls("solvers.solve_noiseless"), "count")
    m["solvers.solve_noiseless.s"] = (secs("solvers.solve_noiseless"), "s")
    m["solvers.lipschitz_estimate.calls"] = (calls(LIPSCHITZ), "count")
    m["solvers.lipschitz_estimate.s"] = (secs(LIPSCHITZ), "s")
    m["solvers.iters"] = (float(sum(iters)), "count")
    m["solvers.iters_per_solve.p50"] = (float(statistics.median(iters)) if iters else 0.0, "count")
    m["solvers.prox_steps"] = (prox, "count")
    m["solvers.prox_per_iter"] = (_ratio(prox, sum(iters)), "ratio")
    m["solvers.svds_per_prox"] = (_ratio(svd_in_solve, prox), "ratio")
    m["solvers.applies_per_prox"] = (_ratio(in_solve(APPLY) + in_solve(ADJOINT), prox), "ratio")
    m["solvers.unconverged"] = (float(sum(1 for c in infos(SOLVE, "converged") if not c)), "count")
    m["crossval.cv_select.calls"] = (calls(CV), "count")
    m["crossval.cv_select.s"] = (secs(CV), "s")
    m["crossval.cv_select.self_s"] = (self_secs(CV), "s")
    m["crossval.fits"] = (float(cv_fits), "count")
    grid = infos(CV, "grid_len")
    m["crossval.grid_len.p50"] = (float(statistics.median(grid)) if grid else 0.0, "count")
    m["crossval.selected_fit_share"] = (_ratio(sum(infos(CV, "selected_fits")), cv_fits), "frac")
    m["theory.calibrate_lambda0.calls"] = (calls("theory.calibrate_lambda0"), "count")
    m["theory.calibrate_lambda0.s"] = (secs("theory.calibrate_lambda0"), "s")
    m["theory.draws"] = (float(draws), "count")
    m["theory.s_per_draw"] = (_ratio(secs("theory.calibrate_lambda0"), draws), "s")
    m["experiments.run.s"] = (secs("experiments.run"), "s")
    m["experiments.run.self_s"] = (self_secs("experiments.run"), "s")
    m["experiments.emit_outputs.s"] = (secs("experiments.emit_outputs"), "s")
    m["experiments.emit_outputs.bytes"] = (float(sum(spans[i][INFO]["bytes"] for i in emit)), "B")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
