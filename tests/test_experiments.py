import argparse
import json
import os
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from tracereg import calibrate_lambda0, cli, crossval, experiments, solvers, stream
from tracereg.cli import load_config_file, main
from tracereg.crossval import CV_STOP_RISES, cv_select, lambda_grid, make_folds
from tracereg.experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentRecord,
    child_seed,
    emit_outputs,
    read_records_csv,
    relative_error,
    run_exact_recovery,
    run_figure1,
    run_rsc_probe,
    summarize,
)
from tracereg.sampling import ENSEMBLES, MatrixCompletion, generate_dataset, load_dataset, save_dataset
from tracereg.solvers import lambda_max, solve_path


def small_fig1_cfg(out_dir, **overrides):
    base = dict(
        experiment="figure1",
        d=12,
        r=2,
        sigma=1.0,
        n_grid=(150,),
        replicates=1,
        k_folds=4,
        seed=11,
        calib_reps=60,
        out_dir=str(out_dir),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(n_grid=(100, 100))
        with pytest.raises(ConfigError):
            ExperimentConfig(replicates=0)
        with pytest.raises(ConfigError):
            ExperimentConfig(estimators=("bogus",))
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="exact_recovery", sigma=1.0)
        with pytest.raises(ConfigError, match="more than once: cv$"):
            ExperimentConfig(estimators=("cv", "oracle", "cv"))
        for overrides in (dict(calib_reps=9), dict(calib_reps=0), dict(calib_quantile=0.0),
                          dict(calib_quantile=1.5), dict(calib_quantile=float("nan")), dict(trials=0),
                          dict(seed=-1)):
            with pytest.raises(ConfigError, match=f"^{next(iter(overrides))} must"):
                ExperimentConfig(**overrides)
        with pytest.raises(ConfigError, match="k_folds must not exceed the smallest n for cv, got 100 > 60"):
            ExperimentConfig(n_grid=(60, 200), k_folds=100)
        # folds are drawn only for cv
        ExperimentConfig(n_grid=(60, 200), k_folds=100, estimators=("oracle", "theory1"))
        ExperimentConfig(experiment="rsc_probe", n_grid=(60,), k_folds=100)

    @pytest.mark.parametrize(
        "overrides",
        [dict(sigma=float("nan")), dict(sigma=float("inf")), dict(multiplier=float("nan")),
         dict(multiplier=float("-inf")), dict(n_grid=(0, 10)), dict(n_grid=(-5,)), dict(multiplier=0.0),
         dict(multiplier=-1.0)],
        ids=["sigma-nan", "sigma-inf", "multiplier-nan", "multiplier-neg-inf", "n-zero", "n-negative",
             "multiplier-zero", "multiplier-negative"],
    )
    def test_rejects_non_finite_scales_and_non_positive_sizes(self, overrides):
        with pytest.raises(ConfigError):
            ExperimentConfig(**overrides)

    def test_sigma_zero_rejects_only_the_theory_estimators(self):
        # at sigma = 0 the calibrated quantile is 0, so every theory lambda is
        with pytest.raises(ConfigError, match="sigma = 0 .* theory2"):
            ExperimentConfig(sigma=0.0, estimators=("oracle", "theory2"))
        ExperimentConfig(sigma=0.0, estimators=("oracle", "cv"))

    def test_child_seed_stable_and_distinct(self):
        assert child_seed(7, "data", 100, 0) == child_seed(7, "data", 100, 0)
        assert child_seed(7, "data", 100, 0) != child_seed(7, "data", 100, 1)
        assert child_seed(7, "data", 100, 0) != child_seed(8, "data", 100, 0)


class TestRunFigure1:
    def test_record_count_one_replicate(self, tmp_path):
        records = run_figure1(small_fig1_cfg(tmp_path))
        assert len(records) == 5
        assert sorted(rec.estimator for rec in records) == ["cv", "oracle", "theory1", "theory2", "theory3"]
        assert all(rec.relative_error >= 0 for rec in records)

    def test_byte_identical_outputs_across_runs(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            cfg = small_fig1_cfg(out_dir, replicates=2)
            records = run_figure1(cfg)
            paths = emit_outputs(records, summarize(records), cfg)
            outs.append(paths)
        for key in ("records", "figure", "summary"):
            with open(outs[0][key], "rb") as fa, open(outs[1][key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_calibration_cache_reused(self, tmp_path):
        cfg = small_fig1_cfg(tmp_path)
        first = run_figure1(cfg)
        cache_files = [p for p in os.listdir(tmp_path) if p.startswith("calib_")]
        assert len(cache_files) == 1
        second = run_figure1(cfg)
        assert [rec.relative_error for rec in first] == [rec.relative_error for rec in second]

    def test_cv_alone_reads_no_calibration(self, tmp_path):
        # cv's grid hangs from lambda_max, not from the calibrated quantile
        alone = run_figure1(small_fig1_cfg(tmp_path / "cv", replicates=2, estimators=("cv",)))
        both = run_figure1(small_fig1_cfg(tmp_path / "both", replicates=2, estimators=("oracle", "cv")))
        assert not (tmp_path / "cv").exists()  # so no calibration file
        assert [p for p in os.listdir(tmp_path / "both") if p.startswith("calib_")]
        assert alone == [rec for rec in both if rec.estimator == "cv"]

    def test_no_estimators_fills_the_cache_and_draws_no_replicate(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a replicate was generated")

        monkeypatch.setattr(experiments, "generate_dataset", refuse)
        cfg = small_fig1_cfg(tmp_path, n_grid=(120, 150), estimators=())
        assert run_figure1(cfg) == []
        assert len([p for p in os.listdir(tmp_path) if p.startswith("calib_")]) == 2

    def test_calibration_cache_gets_the_mode_of_the_other_outputs(self, tmp_path):
        umask = os.umask(0o022)
        try:
            assert main(["figure1", "--d", "6", "--r", "1", "--n", "40", "--replicates", "1", "--calib-reps", "10",
                         "--estimators", "theory1", "--out-dir", str(tmp_path)]) == 0
        finally:
            os.umask(umask)
        (cache,) = [p for p in os.listdir(tmp_path) if p.startswith("calib_")]
        mode = os.stat(tmp_path / cache).st_mode
        assert mode == os.stat(tmp_path / "records.csv").st_mode and mode & 0o777 == 0o644

    @pytest.mark.parametrize("corrupt", ["", '{"quantile_va', '{"reps": 60}', '{"quantile_value": NaN}',
                                         '{"quantile_value": -1.0}'])
    def test_corrupt_calibration_cache_is_recomputed(self, tmp_path, corrupt):
        argv = ["figure1", "--d", "10", "--r", "1", "--n", "120", "--replicates", "1", "--k-folds", "3",
                "--seed", "4", "--calib-reps", "40", "--estimators", "theory1,oracle"]
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        assert main(argv + ["--out-dir", str(clean)]) == 0
        assert main(argv + ["--out-dir", str(dirty)]) == 0
        (cache,) = dirty.glob("calib_*.json")
        cache.write_text(corrupt)
        with pytest.warns(UserWarning, match="calibration cache"):
            assert main(argv + ["--out-dir", str(dirty)]) == 0
        assert (dirty / "records.csv").read_bytes() == (clean / "records.csv").read_bytes()
        assert cache.read_bytes() == next(clean.glob("calib_*.json")).read_bytes()
        assert sorted(os.listdir(dirty)) == sorted(os.listdir(clean))

    def test_cache_under_pre_version_key_is_not_read(self, tmp_path):
        argv = ["figure1", "--d", "10", "--r", "1", "--n", "120", "--replicates", "1", "--k-folds", "3",
                "--seed", "4", "--calib-reps", "40", "--estimators", "theory1,oracle"]
        clean, stale = tmp_path / "clean", tmp_path / "stale"
        assert main(argv + ["--out-dir", str(clean)]) == 0
        (cache,) = clean.glob("calib_*.json")
        assert cache.name.startswith(f"calib_v{experiments._CALIB_FORMAT}_")
        # the same file under the key the cache used before it carried a version
        stale.mkdir()
        old = stale / cache.name.replace(f"calib_v{experiments._CALIB_FORMAT}_", "calib_")
        old.write_text('{"quantile_value": 123.0, "reps": 40, "quantile": 0.9}')
        assert main(argv + ["--out-dir", str(stale)]) == 0
        assert (stale / "records.csv").read_bytes() == (clean / "records.csv").read_bytes()
        assert (stale / cache.name).read_bytes() == cache.read_bytes()
        assert old.read_text() == '{"quantile_value": 123.0, "reps": 40, "quantile": 0.9}'

    def test_cache_from_the_full_calibration_is_read_unchanged(self, tmp_path, monkeypatch):
        # version-2 files hold calibrate_lambda0's quantile; the screened
        # quantile writes the same bytes, so such files stay valid
        argv = ["figure1", "--d", "10", "--r", "1", "--n", "120", "--replicates", "1", "--k-folds", "3",
                "--seed", "4", "--calib-reps", "40", "--estimators", "theory1,oracle"]
        clean, kept = tmp_path / "clean", tmp_path / "kept"
        assert main(argv + ["--out-dir", str(clean)]) == 0
        (cache,) = clean.glob("calib_v2_*.json")
        spec = MatrixCompletion(10, 10, plain_entries=True)
        full = calibrate_lambda0(spec, 120, 1.0, 1.0, 40, 0.9, stream(child_seed(4, "calibration", 120)))
        payload = json.dumps({"quantile_value": full.lambda0, "reps": 40, "quantile": 0.9})
        assert cache.read_text() == payload

        def no_recompute(*args):
            raise AssertionError("the cached quantile was not read")

        kept.mkdir()
        (kept / cache.name).write_text(payload)
        monkeypatch.setattr(experiments, "_noise_quantile", no_recompute)
        assert main(argv + ["--out-dir", str(kept)]) == 0
        assert (kept / "records.csv").read_bytes() == (clean / "records.csv").read_bytes()

    def test_one_lambda_max_per_replicate_and_grids_unchanged(self, tmp_path, monkeypatch):
        cfg = small_fig1_cfg(tmp_path, replicates=2)
        run_figure1(replace(cfg, estimators=()))  # fills the calibration cache
        base = experiments._calibration_quantile(cfg, experiments.make_ensemble(cfg), cfg.n_grid[0])
        real_cv, real_walk, real_norm = experiments.cv_select, experiments.solve_path, solvers.operator_norm
        # theory and oracle together walk the union of their penalties; alone, each its own
        for estimators in (cfg.estimators, ("theory1", "theory3"), ("oracle", "cv")):
            seen, norms = [], []

            def cv_select(ds, plan, grid, solver_cfg):
                seen.append(("cv", ds, grid))
                return real_cv(ds, plan, grid, solver_cfg)

            def walk(datasets, grid, solver_cfg):
                (ds,) = datasets
                seen.append(("walk", ds, grid))
                return real_walk(datasets, grid, solver_cfg)

            def operator_norm(m):
                norms.append(m.shape)
                return real_norm(m)

            monkeypatch.setattr(experiments, "cv_select", cv_select)
            monkeypatch.setattr(experiments, "solve_path", walk)
            monkeypatch.setattr(solvers, "operator_norm", operator_norm)
            run_figure1(replace(cfg, estimators=estimators))
            monkeypatch.undo()
            # lambda_max: calibration is cached, theory* needs none
            assert len(norms) == (cfg.replicates if {"oracle", "cv"} & set(estimators) else 0)
            assert [name for name, _, _ in seen] == ["walk", "cv"][: 1 + ("cv" in estimators)] * cfg.replicates
            theory = {c * base for c in (1.0, 2.0, 3.0) if f"theory{c:g}" in estimators}
            for name, ds, grid in seen:
                if name == "cv":
                    assert grid == lambda_grid(lambda_max(ds), 1e-4 * lambda_max(ds))
                    continue
                oracle = lambda_grid(lambda_max(ds), max(3.0 * base / 2.0, 1e-12)) if "oracle" in estimators else []
                assert grid == sorted(theory.union(oracle), reverse=True)

    @pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
    def test_theory_fits_are_one_path_as_good_as_lone_solves(self, tmp_path, monkeypatch, ensemble):
        # the distinct theory penalties of a replicate are one warm-started
        # walk, largest first; each of its fits must come as close to the
        # optimum as a cold solve at the figure1 tolerance does.  The bound
        # is 100x that rel_obj_tol: on replicates 0-3 of this config, cold
        # solves stopped up to 1.4e-6 above the optimum, the walk's fits up
        # to 1.1e-6.
        cfg = small_fig1_cfg(tmp_path, ensemble=ensemble, d=8, n_grid=(120, 200), replicates=2, calib_reps=20,
                             estimators=("theory1", "theory3", "theory2"))
        walks = []
        real_walk = experiments.solve_path

        def walk(datasets, grid, solver_cfg):
            fits = []
            walks.append((datasets, grid, fits))
            for row in real_walk(datasets, grid, solver_cfg):
                fits.append(row[0])
                yield row

        monkeypatch.setattr(experiments, "solve_path", walk)
        records = run_figure1(cfg)
        cells = [(n, rep) for n in cfg.n_grid for rep in range(cfg.replicates)]
        assert len(walks) == len(cells)
        tight = solvers.SolverConfig(max_iters=50000, rel_obj_tol=1e-12)
        spec = experiments.make_ensemble(cfg)
        for (n, rep), ((ds,), grid, fits) in zip(cells, walks):
            q = grid[-1]
            assert grid == [3.0 * q, 2.0 * q, q] and len(fits) == 3
            _, b_star, _ = experiments._replicate(cfg, spec, n, rep)
            for lam, fit in zip(grid, fits):
                lone = solvers.solve_convex(ds, lam, tight)
                assert fit.lam == lam and lone.converged
                assert abs(fit.objective - lone.objective) <= 1e-5 * lone.objective
            got = [(rec.estimator, rec.relative_error, rec.lambda_used, rec.converged)
                   for rec in records if (rec.n, rec.replicate) == (n, rep)]
            want = [(f"theory{c}", relative_error(fit.b_hat, b_star), fit.lam, fit.converged)
                    for c, fit in zip((3, 2, 1), fits)]
            assert sorted(got) == sorted(want)

    def test_cv_walk_is_a_prefix_of_the_full_path(self, tmp_path, monkeypatch):
        # one replicate of the figure1 protocol (plain-entry matrix
        # completion, sigma=1, its folds, solver settings and CV grid)
        cfg = small_fig1_cfg(tmp_path, d=20, n_grid=(400,), k_folds=5)
        n = cfg.n_grid[0]
        _, _, ds = experiments._replicate(cfg, experiments.make_ensemble(cfg), n, 0)
        plan = make_folds(n, cfg.k_folds, stream(child_seed(cfg.seed, "folds", n, 0)))
        top = lambda_max(ds)
        grid = lambda_grid(top, experiments._CV_FLOOR * top)
        solved_at = {}  # id of each lockstep row -> the config it was solved at
        rung = crossval.solve_rung

        def recording(sets, lam, at, x0s):
            row = rung(sets, lam, at, x0s)
            solved_at[id(row)] = at
            return row

        monkeypatch.setattr(crossval, "solve_rung", recording)
        res = cv_select(ds, plan, grid, experiments._FIG1_SOLVER)
        monkeypatch.undo()
        walked = len(res.lambda_grid)
        assert walked < len(grid) - 5  # the walk stopped well above the floor
        exact = [solved_at[id(row)] == experiments._FIG1_SOLVER for row in res.per_fold_estimates]
        # the rows solved at the figure1 config are a prefix; at most the
        # last CV_STOP_RISES rows are loose probes
        assert exact == sorted(exact, reverse=True) and sum(exact) >= walked - CV_STOP_RISES
        trains = [ds.subset(plan.complement(fold)) for fold in range(plan.k)]
        full = list(solve_path(trains, grid, experiments._FIG1_SOLVER))
        for row, full_row in zip(res.per_fold_estimates[:sum(exact)], full[:sum(exact)], strict=True):
            for est, ref in zip(row, full_row, strict=True):
                assert np.array_equal(est.b_hat, ref.b_hat)
                assert (est.iters, est.stop_reason) == (ref.iters, ref.stop_reason)
        holds = [ds.subset(plan.indices(fold)) for fold in range(plan.k)]
        e_full = [
            sum(float(np.sum((h.y - h.measurements.apply(est.b_hat)) ** 2)) for h, est in zip(holds, row)) / n
            for row in full
        ]
        assert res.lambda_cv == grid[int(np.argmin(e_full))]

    @pytest.mark.parametrize("ensemble", sorted(ENSEMBLES))
    def test_probes_never_change_the_cv_pick(self, tmp_path, monkeypatch, ensemble):
        # loose probes only confirm rises: on figure1 replicates (sizes
        # drawn per seed, fixed) the pick and the walked length equal the
        # walk's whose probe tolerance is the figure1 config's own
        solver = experiments._FIG1_SOLVER
        for seed in range(8):
            draw = stream(child_seed(seed, "probe-sizes"))
            d = int(draw.integers(6, 14))
            n = d * int(draw.integers(8, 30))
            cfg = small_fig1_cfg(tmp_path, ensemble=ensemble, d=d, n_grid=(n,), k_folds=5, seed=seed)
            _, _, ds = experiments._replicate(cfg, experiments.make_ensemble(cfg), n, 0)
            plan = make_folds(n, cfg.k_folds, stream(child_seed(seed, "folds", n, 0)))
            top = lambda_max(ds)
            grid = lambda_grid(top, experiments._CV_FLOOR * top)
            probed = cv_select(ds, plan, grid, solver)
            with monkeypatch.context() as patch:
                patch.setattr(crossval, "_PROBE_TOL", solver.rel_obj_tol)
                exact = cv_select(ds, plan, grid, solver)
            assert (probed.lambda_cv, len(probed.lambda_grid)) == (exact.lambda_cv, len(exact.lambda_grid)), (seed, d, n)

    def test_cv_close_to_oracle_off_matrix_completion(self, tmp_path):
        # Sized by measurement on factored_measurement at d=30, r=2,
        # n=900, sigma=1 (seeds 0-3, 8 replicates each): with the CV grid
        # ending at 0.01 * lambda_max, 13 of the 32 replicates had
        # CV/oracle above 1.5 (up to 2.29; 3 of the 8 at seed 0); down to
        # 1e-4 * lambda_max all 32 stayed at or below 1.20.
        cfg = ExperimentConfig(
            experiment="figure1",
            ensemble="factored_measurement",
            d=30,
            r=2,
            sigma=1.0,
            n_grid=(900,),
            replicates=8,
            seed=0,
            estimators=("oracle", "cv"),
            calib_reps=60,
            out_dir=str(tmp_path),
        )
        errors = {(rec.estimator, rec.replicate): rec.relative_error for rec in run_figure1(cfg)}
        for rep in range(cfg.replicates):
            assert errors["cv", rep] <= 1.5 * errors["oracle", rep]

    def test_mean_error_decreases_with_n(self, tmp_path):
        cfg = small_fig1_cfg(
            tmp_path, n_grid=(150, 300, 600), replicates=4, estimators=("oracle", "cv"), seed=3
        )
        rows = summarize(run_figure1(cfg))
        for name in ("oracle", "cv"):
            means = [row.mean for row in rows if row.estimator == name]
            assert means[0] > means[1] > means[2]


class TestRunExactRecovery:
    def test_success_on_determined_system(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="exact_recovery",
            ensemble="gaussian_ensemble",
            d=8,
            r=2,
            sigma=0.0,
            n_grid=(64,),
            replicates=2,
            seed=5,
            out_dir=str(tmp_path),
        )
        records = run_exact_recovery(cfg)
        assert len(records) == 2
        assert all(rec.success for rec in records)

    def test_byte_identical_records_across_runs(self, tmp_path):
        outs = []
        for run in ("a", "b"):
            cfg = ExperimentConfig(
                experiment="exact_recovery", ensemble="gaussian_ensemble", d=30, r=2, sigma=0.0,
                n_grid=(240, 600), replicates=2, seed=9, out_dir=str(tmp_path / run),
            )
            records = run_exact_recovery(cfg)
            outs.append(emit_outputs(records, summarize(records), cfg))
        for key in ("records", "summary"):
            with open(outs[0][key], "rb") as fa, open(outs[1][key], "rb") as fb:
                assert fa.read() == fb.read()

    def test_noise_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="exact_recovery", sigma=0.5, out_dir=str(tmp_path))


class TestSummarize:
    def test_single_record(self):
        rec = ExperimentRecord("cv", 100, 0, 0.25, 1.0, True, 7)
        rows = summarize([rec])
        assert rows[0].mean == 0.25 and rows[0].two_se == 0.0 and rows[0].count == 1 and rows[0].unconverged == 0

    def test_two_record_oracle(self):
        recs = [
            ExperimentRecord("cv", 100, 0, 1.0, 1.0, True, 7),
            ExperimentRecord("cv", 100, 1, 3.0, 1.0, True, 7),
        ]
        row = summarize(recs)[0]
        # sample std sqrt(2), so 2 * sqrt(2)/sqrt(2) = 2
        assert row.mean == pytest.approx(2.0)
        assert row.two_se == pytest.approx(2.0)

    def test_groups_partition_records(self):
        recs = [
            ExperimentRecord(est, n, rep, 0.1, 1.0, True, 7)
            for est in ("cv", "oracle")
            for n in (100, 200)
            for rep in range(3)
        ]
        rows = summarize(recs)
        assert sum(row.count for row in rows) == len(recs)
        assert len(rows) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_counts_solves_cut_at_max_iters(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "_FIG1_SOLVER", solvers.SolverConfig(max_iters=1, rel_obj_tol=1e-14))
        cfg = small_fig1_cfg(tmp_path, replicates=2)
        records = run_figure1(cfg)
        rows = summarize(records)
        for row in rows:
            group = [rec for rec in records if (rec.estimator, rec.n) == (row.estimator, row.n)]
            assert row.unconverged == sum(not rec.converged for rec in group)
        # one prox step cannot meet the tolerance at any theory penalty: not
        # at 3q from zero, nor at 2q and q from the path's warm starts
        assert [row.unconverged for row in rows if row.estimator.startswith("theory")] == [2, 2, 2]
        paths = emit_outputs(records, rows, cfg)
        with open(paths["summary"], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "estimator,n,mean,two_se,count,unconverged"
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:]] == [row.unconverged for row in rows]


class TestEmitOutputs:
    @pytest.fixture()
    def outputs(self, tmp_path):
        cfg = small_fig1_cfg(tmp_path, replicates=2, n_grid=(150, 300))
        records = run_figure1(cfg)
        summary = summarize(records)
        paths = emit_outputs(records, summary, cfg)
        return records, summary, paths, cfg

    def test_csv_round_trip(self, outputs, tmp_path):
        records, _, paths, _ = outputs
        assert read_records_csv(paths["records"]) == records
        # exact-recovery records add the success column, here both true and false
        cfg = ExperimentConfig(
            experiment="exact_recovery", ensemble="gaussian_ensemble", d=6, r=1, sigma=0.0,
            n_grid=(6, 40), replicates=2, seed=3, out_dir=str(tmp_path / "recovery"),
        )
        recovery = run_exact_recovery(cfg)
        assert {rec.success for rec in recovery} == {True, False}
        assert read_records_csv(emit_outputs(recovery, summarize(recovery), cfg)["records"]) == recovery

    @pytest.mark.parametrize("word", ["True", "yes", "1", "no", "0"])
    def test_bool_column_reads_only_the_written_words(self, tmp_path, word):
        path = tmp_path / "records.csv"
        path.write_text(f"estimator,n,replicate,relative_error,lambda_used,converged,seed\ncv,10,0,0.5,0.1,{word},1\n")
        with pytest.raises(ConfigError, match="cannot parse converged"):
            read_records_csv(str(path))

    def test_records_header(self, outputs):
        _, _, paths, _ = outputs
        with open(paths["records"], encoding="utf-8") as fh:
            assert fh.readline() == "estimator,n,replicate,relative_error,lambda_used,converged,seed\n"

    def test_summary_row_count(self, outputs):
        _, summary, paths, cfg = outputs
        assert len(summary) == len(cfg.estimators) * len(cfg.n_grid)
        with open(paths["summary"], encoding="utf-8") as fh:
            assert len(fh.read().splitlines()) == len(summary) + 1

    def test_svg_is_valid_xml_with_one_polyline_per_estimator(self, outputs):
        _, _, paths, cfg = outputs
        root = ET.parse(paths["figure"]).getroot()
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == len(cfg.estimators)

    def test_config_echo_contains_resolved_values(self, outputs):
        _, _, paths, cfg = outputs
        with open(paths["config"], encoding="utf-8") as fh:
            echo = dict(line.split("=", 1) for line in fh.read().splitlines())
        assert echo["d"] == str(cfg.d)
        assert echo["n_grid"] == "150,300"
        assert echo["seed"] == str(cfg.seed)


    def test_failed_replace_keeps_the_old_file_and_no_temporary(self, tmp_path, monkeypatch):
        path = tmp_path / "records.csv"
        path.write_text("old\n")

        def fail(src, dst):
            raise OSError("injected")

        monkeypatch.setattr(experiments.os, "replace", fail)
        with pytest.raises(OSError, match=f"^failed writing {re.escape(str(path))}: injected$"):
            experiments._write_text(str(path), "new\n")
        monkeypatch.undo()
        assert path.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["records.csv"]


class TestRscProbeExperiment:
    def test_report_fields(self, tmp_path):
        cfg = ExperimentConfig(
            experiment="rsc_probe",
            d=10,
            r=2,
            sigma=0.5,
            n_grid=(400,),
            trials=20,
            calib_reps=40,
            seed=2,
            out_dir=str(tmp_path),
        )
        report = run_rsc_probe(cfg)
        assert set(report) == {
            "experiment", "ensemble", "d", "n", "nu", "eta", "trials", "min_margin", "violation_count", "beta_emp"
        }
        assert report["eta"] == 144.0
        assert report["violation_count"] >= 0
        assert report["beta_emp"] >= 0.0
        assert report["nu"] > 0.0


class TestCli:
    def test_figure1_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "figure1",
                "--d", "10", "--r", "1", "--n", "120",
                "--replicates", "1", "--k-folds", "3",
                "--seed", "4", "--calib-reps", "40",
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        assert (out / "records.csv").exists()
        assert (out / "figure1.svg").exists()

    def test_config_file_with_cli_override(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text("d=10\nr=1\nn_grid=120\nreplicates=1\nk_folds=3\nseed=9\ncalib_reps=40\n# comment\n")
        parsed = load_config_file(str(cfg_file))
        assert parsed["d"] == 10 and parsed["n_grid"] == (120,)
        out = tmp_path / "out"
        code = main(["figure1", "--config", str(cfg_file), "--estimators", "theory1", "--out-dir", str(out)])
        assert code == 0
        with open(out / "config.echo", encoding="utf-8") as fh:
            echo = dict(line.split("=", 1) for line in fh.read().splitlines())
        assert echo["estimators"] == "theory1"  # CLI beats file default
        assert echo["seed"] == "9"  # file beats built-in default

    def test_reps_is_an_alias_of_calib_reps(self):
        parser = cli.build_parser()
        for flag in ("--reps", "--calib-reps"):
            cfg = cli.resolve_config(parser.parse_args(["calibration", flag, "30"]))
            assert cfg.calib_reps == 30

    def test_ensemble_choices_are_the_registry(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure1", "--ensemble", "bogus"])
        err = capsys.readouterr().err
        assert all(kind in err for kind in ENSEMBLES)
        for kind in ENSEMBLES:
            cfg = cli.resolve_config(cli.build_parser().parse_args(["figure1", "--ensemble", kind]))
            assert isinstance(experiments.make_ensemble(cfg), ENSEMBLES[kind])

    def test_corrupted_dataset_file_exit_code(self, tmp_path, monkeypatch, capsys):
        # no subcommand reads a dataset file yet, so the run is replaced by
        # one that loads a dataset whose stored row index is negative
        path = tmp_path / "ds.npz"
        save_dataset(generate_dataset(MatrixCompletion(4, 4), np.ones((4, 4)), 8, 0.1, seed=1), path)
        with np.load(path) as z:
            payload = dict(z)
        payload["rows"] = np.r_[-1, payload["rows"][1:]]
        np.savez(path, **payload)
        monkeypatch.setitem(experiments.EXPERIMENTS, "figure1", lambda cfg: load_dataset(path))
        assert main(["figure1", "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == ["error: rows must lie in [0, 4)"]

    def test_config_error_exit_code(self, tmp_path):
        code = main(["exact-recovery", "--sigma", "1.0", "--d", "8", "--n", "64", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_bad_config_file_exit_code(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("nonsense_key=1\n")
        assert main(["figure1", "--config", str(cfg_file)]) == 2

    @pytest.mark.parametrize("line", ["d=abc", "sigma=x", "n_grid=100,x"])
    def test_unparseable_config_file_value_exits_2_with_one_line(self, tmp_path, capsys, line):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"# comment\n{line}\n")
        assert main(["figure1", "--config", str(cfg_file), "--out-dir", str(tmp_path / "out")]) == 2
        key, _, raw = line.partition("=")
        assert capsys.readouterr().err.splitlines() == [f"config error: {cfg_file}:2: cannot parse {key}={raw!r}"]
        assert not (tmp_path / "out").exists()

    _UNPARSEABLE_FLAGS = [
        ("--n", "n_grid", "100,x"),
        ("--d", "d", "abc"),
        ("--r", "r", "2.5"),
        ("--sigma", "sigma", "x"),
        ("--replicates", "replicates", "ten"),
        ("--k-folds", "k_folds", "5.0"),
        ("--seed", "seed", "0x1"),
        ("--calib-reps", "calib_reps", "1e3"),
        ("--reps", "calib_reps", "many"),
        ("--trials", "trials", "1,000"),
        ("--multiplier", "multiplier", "3x"),
        ("--quantile", "calib_quantile", "90%"),
    ]

    @pytest.mark.parametrize("flag, field, raw", _UNPARSEABLE_FLAGS, ids=[case[0][2:] for case in _UNPARSEABLE_FLAGS])
    def test_unparseable_flag_value_exits_2_with_one_line(self, tmp_path, capsys, flag, field, raw):
        # a flag value parses as its config-file line does: one line, no usage block
        assert main(["figure1", flag, raw, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: cannot parse {field}={raw!r}"]
        assert not (tmp_path / "out").exists()

    def test_config_echo_is_a_config_file_that_repeats_the_run(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        argv = ["--d", "10", "--r", "1", "--sigma", "0.7", "--n", "120,160", "--replicates", "1", "--k-folds", "3",
                "--seed", "4", "--calib-reps", "40", "--quantile", "0.8", "--estimators", "theory2,oracle,cv"]
        assert main(["figure1", *argv, "--out-dir", str(first)]) == 0
        assert main(["figure1", "--config", str(first / "config.echo"), "--out-dir", str(second)]) == 0
        for name in ("records.csv", "summary.csv", "figure1.svg"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        echo_first, echo_second = ((out / "config.echo").read_text().splitlines() for out in (first, second))
        assert len(echo_first) == len(echo_second)
        assert [(a, b) for a, b in zip(echo_first, echo_second) if a != b] == [
            (f"out_dir={first}", f"out_dir={second}")
        ]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sigma", "nan"], "sigma must be finite and non-negative, got nan"),
            (["--multiplier", "nan"], "multiplier must be finite, got nan"),
            (["--n", "0"], "n_grid must be non-empty, positive and strictly increasing, got (0,)"),
        ],
        ids=["sigma-nan", "multiplier-nan", "n-zero"],
    )
    def test_non_finite_or_non_positive_value_exits_2_with_one_line(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        argv = ["calibration", "--d", "6", "--n", "50", "--sigma", "0.5", "--calib-reps", "20", *flags]
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", "0"])
    @pytest.mark.parametrize("command", ["calibration", "rsc-probe"])
    def test_non_positive_multiplier_exits_2_with_one_line(self, tmp_path, capsys, command, value):
        out = tmp_path / "out"
        argv = [command, "--d", "6", "--n", "50", "--sigma", "1", "--calib-reps", "20", "--multiplier", value]
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: multiplier must be positive, got {float(value)}"]
        assert not out.exists()

    def test_subcommands_and_estimator_help_follow_the_library_lists(self):
        parser = cli.build_parser()
        (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        assert list(sub.choices) == [name.replace("_", "-") for name in experiments.EXPERIMENTS]
        for command, subparser in sub.choices.items():
            assert cli.resolve_config(parser.parse_args([command])).experiment == command.replace("-", "_")
            assert f"subset of {','.join(experiments.ALL_ESTIMATORS)}" in " ".join(subparser.format_help().split())

    def test_every_flag_reaches_the_config(self, tmp_path):
        args = cli.build_parser().parse_args(
            ["figure1", "--ensemble", "multi_task", "--d", "7", "--r", "3", "--sigma", "0.25", "--n", "30,60",
             "--replicates", "2", "--k-folds", "4", "--seed", "5", "--estimators", "cv, oracle",
             "--out-dir", str(tmp_path), "--calib-reps", "11", "--trials", "12", "--multiplier", "1.5",
             "--quantile", "0.8"]
        )
        cfg = cli.resolve_config(args)
        assert (cfg.ensemble, cfg.d, cfg.r, cfg.sigma, cfg.n_grid, cfg.k_folds, cfg.seed, cfg.estimators) == (
            "multi_task", 7, 3, 0.25, (30, 60), 4, 5, ("cv", "oracle")
        )
        assert (cfg.out_dir, cfg.trials, cfg.multiplier, cfg.calib_quantile) == (str(tmp_path), 12, 1.5, 0.8)
        # explicit counts land as given
        assert (cfg.replicates, cfg.calib_reps) == (2, 11)

    def test_sigma_zero_with_a_theory_estimator_exits_2_before_writing(self, tmp_path, capsys):
        argv = ["figure1", "--d", "4", "--r", "1", "--n", "20", "--replicates", "1", "--calib-reps", "10", "--sigma", "0"]
        out = tmp_path / "out"
        assert main([*argv, "--out-dir", str(out)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: sigma = 0")
        assert not out.exists()
        assert main([*argv, "--estimators", "oracle,cv", "--out-dir", str(out)]) == 0
        assert (out / "records.csv").exists()

    def test_rsc_probe_with_no_trials_exits_2_before_calibrating(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["rsc-probe", "--d", "6", "--r", "1", "--n", "60", "--calib-reps", "20", "--trials", "0"]
        assert main([*argv, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == ["config error: trials must be at least 1, got 0"]
        assert not out.exists()  # no calibration cache

    def test_infeasible_rsc_probe_floor_exits_2_with_one_line(self, tmp_path, capsys):
        # a 1000x multiplier puts the constraint-set floor nu beyond any 6x6 draw
        argv = ["rsc-probe", "--d", "6", "--n", "50", "--calib-reps", "20", "--trials", "5", "--multiplier", "1000"]
        assert main([*argv, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: failed to sample the constraint set; nu may exceed its feasible range"
        ]

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(
            [
                "calibration",
                "--d", "6", "--n", "50", "--sigma", "0.5",
                "--calib-reps", "20", "--out-dir", "/dev/null/cannot",
            ]
        )
        assert code == 3
        capsys.readouterr()
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out"
        argv = ["figure1", "--d", "6", "--r", "1", "--n", "40", "--replicates", "1", "--estimators", "cv"]
        assert main([*argv, "--out-dir", str(out)]) == 3
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"io error: failed writing {out / 'records.csv'}: ")
        assert blocker.read_text() == ""

    def test_empty_estimators_fill_the_calibration_cache_and_exit_0(self, tmp_path):
        out = tmp_path / "out"
        argv = ["figure1", "--d", "6", "--r", "1", "--n", "60,80", "--replicates", "1", "--calib-reps", "20",
                "--seed", "1", "--estimators", "", "--out-dir", str(out)]
        assert main(argv) == 0
        files = os.listdir(out)
        assert len(files) == 2 and all(name.startswith("calib_v2_") for name in files)

    def test_value_error_during_run_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise ValueError("injected failure")

        monkeypatch.setitem(experiments.EXPERIMENTS, "figure1", fail)
        code = main(["figure1", "--d", "6", "--n", "50", "--out-dir", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: injected failure\n"

    def test_calibration_json_output(self, tmp_path):
        out = tmp_path / "cal"
        code = main(
            [
                "calibration",
                "--d", "6", "--n", "50", "--sigma", "0.5",
                "--calib-reps", "20", "--out-dir", str(out),
            ]
        )
        assert code == 0
        import json

        with open(out / "calibration.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert set(payload) == {
            "experiment", "ensemble", "d", "n", "sigma", "multiplier", "reps", "quantile", "lambda0", "samples"
        }
        assert payload["lambda0"] > 0
        assert len(payload["samples"]) == 20


def test_relative_error_definition():
    b_star = np.array([[2.0, 0.0], [0.0, 0.0]])
    b_hat = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert relative_error(b_hat, b_star) == pytest.approx(0.25)
