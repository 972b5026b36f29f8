"""Sweep harness tests: grid enumeration, aggregation, CSV round-trip, determinism."""

import dataclasses
import inspect
import itertools
import math
import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from poisonridge import blas, mnist, mp, report, resolvent, simulator, sweep, theory
from poisonridge.errors import EmptyGroup, SchemaMismatch, SolveFailure
from poisonridge.records import FIELD_NAMES, SweepRecord
from poisonridge.sweep import AxisMode, SweepGrid
from poisonridge.theory import ModelParams

TINY = SweepGrid(
    c_values=(0.5, 2.0),
    lambda_values=(0.1,),
    theta_values=(0.1,),
    vnorm_values=(1.0,),
    p=30,
    trials=3,
    master_seed=0,
)


def test_builtin_grid_values():
    g = SweepGrid.builtin()
    assert g.c_values == (0.1, 0.3, 0.5, 0.75, 1.25, 1.5, 2.0)
    assert g.lambda_values == (0.001, 0.005, 0.01, 0.05, 0.1, 1.0)
    assert g.theta_values == (0.01, 0.05, 0.1, 0.2)
    assert g.vnorm_values == (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    assert g.p == 500 and g.trials == 100


def test_point_counts():
    g = SweepGrid.builtin()
    assert len(g.points(AxisMode.ONE_AT_A_TIME)) == 7 + 6 + 4 + 9
    assert len(g.points(AxisMode.FULL)) == 7 * 6 * 4 * 9
    assert len(TINY.points(AxisMode.ONE_AT_A_TIME)) == 2 + 1 + 1 + 1


def test_one_at_a_time_holds_defaults():
    for pt in SweepGrid.builtin().points(AxisMode.ONE_AT_A_TIME):
        varied = sum(
            getattr(pt, k) != v
            for k, v in (("c", 0.1), ("lam", 0.1), ("theta", 0.1), ("v_norm", 1.0))
        )
        assert varied <= 1


def test_trial_seed_stateless():
    assert simulator.trial_seed(0, 1, 2) == simulator.trial_seed(0, 1, 2)
    assert simulator.trial_seed(0, 1, 2) != simulator.trial_seed(0, 2, 1)
    assert 0 <= simulator.trial_seed(5, 0, 0) < 2**64


def _single_point_records(values, grid_index=0):
    rows = []
    for ti, val in enumerate(values):
        rows.append(SweepRecord(
            grid_index=grid_index, trial_index=ti, c_target=0.5, c_effective=0.5,
            lam=0.1, theta=0.1, v_norm=1.0, p=10, n=20, seed=ti,
            mu_emp=val, sigma2_emp=val, eta_emp_mc=val, eta_emp_plugin=val,
            mu_theory=0.1, sigma2_theory=0.2, eta_theory=0.6, C_theory=0.1,
            centering_mode="population", wall_time_ms=1.0,
        ))
    return rows


def test_aggregate_quantile_oracle():
    # hand computation under linear interpolation: {1,2,3,4}
    rows = sweep.aggregate(_single_point_records([1.0, 2.0, 3.0, 4.0]))
    assert len(rows) == 1
    row = rows[0]
    assert row["mu_emp_mean"] == 2.5
    assert row["mu_emp_median"] == 2.5
    assert row["mu_emp_q25"] == 1.75
    assert row["mu_emp_q75"] == 3.25
    assert row["n_trials"] == 4 and row["n_errors"] == 0


def test_aggregate_identical_values():
    row = sweep.aggregate(_single_point_records([7.0] * 5))[0]
    for stat in ("mean", "median", "q25", "q75"):
        assert row[f"mu_emp_{stat}"] == 7.0


def test_aggregate_excludes_error_rows():
    nan = float("nan")
    records = _single_point_records([1.0, 3.0])
    records.append(SweepRecord(
        grid_index=0, trial_index=2, c_target=0.5, c_effective=0.5,
        lam=0.1, theta=0.1, v_norm=1.0, p=10, n=20, seed=2,
        mu_emp=nan, sigma2_emp=nan, eta_emp_mc=nan, eta_emp_plugin=nan,
        mu_theory=0.1, sigma2_theory=0.2, eta_theory=0.6, C_theory=0.1,
        centering_mode="population", wall_time_ms=0.0,
    ))
    assert records[-1].is_error
    row = sweep.aggregate(records)[0]
    assert row["mu_emp_mean"] == 2.0
    assert row["n_trials"] == 3 and row["n_errors"] == 1

    all_bad = [r for r in records if r.is_error]
    with pytest.raises(EmptyGroup):
        sweep.aggregate(all_bad)
    with pytest.raises(EmptyGroup):
        sweep.aggregate([])


def test_run_sweep_records_and_theory_columns():
    records = sweep.run_sweep(TINY, AxisMode.ONE_AT_A_TIME, m_test=50)
    assert len(records) == 5 * TINY.trials
    by_point = {}
    for r in records:
        by_point.setdefault(r.grid_index, []).append(r)
    for group in by_point.values():
        assert len({g.mu_theory for g in group}) == 1  # theory fixed per point
        assert [g.trial_index for g in group] == sorted(g.trial_index for g in group)
    assert not any(r.is_error for r in records)


class _InlinePool:
    """A stand-in for ThreadPoolExecutor that records its size and runs each
    job here, as it is submitted."""
    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, cancel_futures=False):
        pass


def test_pool_holds_at_most_one_worker_per_job(monkeypatch):
    # the stand-in starts no thread: 5000 workers must never be 5000 threads
    monkeypatch.setattr(blas, "ThreadPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    points = dict(enumerate(TINY.points(AxisMode.FULL)))  # two aspect ratios: two groups

    def rows(points, trials, workers):
        return [r.to_row() for r in sweep.run_grid(points, TINY.p, trials, 0, 50,
                                                   workers=workers)]

    for trials, workers in ((1, 5000), (2, 3), (2, 2)):
        assert rows(points, trials, workers) == rows(points, trials, 1)
    # one job runs on this thread, without a pool
    assert rows({0: points[0]}, 1, 5000) == rows({0: points[0]}, 1, 1)
    assert _InlinePool.sizes == [2, 3, 2]


def test_one_usable_cpu_builds_no_pool(monkeypatch):
    points = dict(enumerate(TINY.points(AxisMode.FULL)))
    pooled = [r.to_row() for r in sweep.run_grid(points, TINY.p, 2, 0, 50, workers=2)]

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was built with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(blas, "ThreadPoolExecutor", no_pool)
    assert blas.usable_cpus() == 1
    before = threading.active_count()
    assert [r.to_row() for r in sweep.run_grid(points, TINY.p, 2, 0, 50)] == pooled
    assert threading.active_count() == before


def test_run_sweep_worker_count_invariance(tmp_path):
    serial = sweep.run_sweep(TINY, AxisMode.ONE_AT_A_TIME, m_test=50, workers=1)
    parallel = sweep.run_sweep(TINY, AxisMode.ONE_AT_A_TIME, m_test=50, workers=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep.write_records(p1, serial)
    sweep.write_records(p2, parallel)
    assert p1.read_bytes() == p2.read_bytes()


# several lambda values, so one-at-a-time points form groups: the centre
# point's lambda axis and its repeats on the other axes
PATH_GRID = dataclasses.replace(TINY, c_values=(0.1, 2.0), lambda_values=(0.01, 0.1, 1.0),
                                theta_values=(0.1, 0.2))


def test_draw_groups():
    points = dict(enumerate(PATH_GRID.points(AxisMode.ONE_AT_A_TIME)))
    groups = sweep.draw_groups(points)
    assert [[gi for gi, _ in g] for g in groups] == [[0, 2, 3, 4, 5, 6, 7], [1]]
    assert [params.lam for _, params in groups[0]] == [0.1, 0.01, 0.1, 1.0, 0.1, 0.1, 0.1]
    assert [params.theta for _, params in groups[0]] == [0.1] * 5 + [0.2, 0.1]
    full = sweep.draw_groups(dict(enumerate(PATH_GRID.points(AxisMode.FULL))))
    assert [len(g) for g in full] == [6] * 2
    assert [{params.c for _, params in g} for g in full] == [{0.1}, {2.0}]


def test_lambda_path_worker_count_invariance(tmp_path):
    serial = sweep.run_sweep(PATH_GRID, AxisMode.ONE_AT_A_TIME, m_test=50, workers=1)
    parallel = sweep.run_sweep(PATH_GRID, AxisMode.ONE_AT_A_TIME, m_test=50, workers=2)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep.write_records(p1, serial)
    sweep.write_records(p2, parallel)
    assert p1.read_bytes() == p2.read_bytes()
    assert [(r.grid_index, r.trial_index) for r in serial] == [
        (g, t) for g in range(8) for t in range(PATH_GRID.trials)]
    # repeats of a point are the same trial
    assert all(serial[i].mu_emp == serial[i + 3 * PATH_GRID.trials].mu_emp for i in range(3))


def test_lambda_path_rows_equal_one_lambda_trials():
    points = dict(enumerate(PATH_GRID.points(AxisMode.ONE_AT_A_TIME)))
    records = sweep.run_grid(points, 30, 2, 5, 50)
    for r in records:
        shape = simulator.shape_for(30, r.c_target, r.seed)
        params = ModelParams(c=r.c_target, lam=r.lam, theta=r.theta, v_norm=r.v_norm)
        alone = simulator.run_trial(params, shape, grid_index=r.grid_index,
                                    trial_index=r.trial_index, m_test=50)
        assert dataclasses.replace(alone, wall_time_ms=r.wall_time_ms) == r


def test_solve_failure_at_one_lambda_is_one_error_row(monkeypatch):
    points = {0: ModelParams(c=0.5, lam=0.1, theta=0.1, v_norm=1.0)}
    points.update({g: dataclasses.replace(points[0], lam=lam)
                   for g, lam in ((1, 0.01), (2, 1.0), (3, 0.1))})
    clean = sweep.run_grid(points, 20, 2, 0, 50)
    solve = simulator._solve

    def fail_at(lam_bad):
        def solve_one(system, factor, lam):
            if lam == lam_bad:
                raise SolveFailure("injected")
            return solve(system, factor, lam)
        return solve_one

    # a failure at the first, a middle and the last lambda of the path
    for lam_bad in (0.1, 0.01, 1.0):
        monkeypatch.setattr(simulator, "_solve", fail_at(lam_bad))
        records = sweep.run_grid(points, 20, 2, 0, 50)
        for got, want in zip(records, clean, strict=True):
            got = dataclasses.replace(got, wall_time_ms=want.wall_time_ms)
            if got.lam == lam_bad:
                assert got.is_error and got.mu_theory == want.mu_theory
            else:
                assert got == want


# every theta and trigger norm, the degenerate 0 and 1 included, at two
# aspect ratios: one draw group per c, nine (theta, ||v||) subgroups in each
DRAW_GRID = SweepGrid(c_values=(0.5, 2.0), lambda_values=(0.01, 0.1, 1.0),
                      theta_values=(0.0, 0.1, 1.0), vnorm_values=(0.0, 1.0, 2.0),
                      p=20, trials=2, master_seed=4)


def _run_draw_grid(centering, workers=1):
    points = dict(enumerate(DRAW_GRID.points(AxisMode.FULL)))
    return sweep.run_grid(points, DRAW_GRID.p, DRAW_GRID.trials, DRAW_GRID.master_seed, 50,
                          centering=centering, workers=workers)


def _persisted(record):
    # repr of the persisted columns, so NaN columns of error rows compare equal
    return repr(record.to_row())


@pytest.mark.parametrize("centering", list(simulator.Centering))
def test_draw_group_rows_equal_one_point_trials(centering):
    records = _run_draw_grid(centering)
    assert len(records) == 2 * 3 * 3 * 3 * DRAW_GRID.trials
    # one seed, so one draw, per (c, trial)
    assert {(r.c_target, r.trial_index): r.seed for r in records} == {
        (c, t): simulator.trial_seed(DRAW_GRID.master_seed, 27 * k, t)
        for k, c in enumerate(DRAW_GRID.c_values) for t in range(DRAW_GRID.trials)}
    assert not all(r.is_error for r in records)
    for r in records:
        shape = simulator.shape_for(DRAW_GRID.p, r.c_target, r.seed)
        params = ModelParams(c=r.c_target, lam=r.lam, theta=r.theta, v_norm=r.v_norm)
        alone = simulator.run_trial(params, shape, centering=centering, grid_index=r.grid_index,
                                    trial_index=r.trial_index, m_test=50)
        assert _persisted(alone) == _persisted(r)


def test_dual_draw_group_factors_one_tail_per_lambda(monkeypatch):
    # at c = 2 (p = 20, n = 10) the 9 population-centered (theta, ||v||)
    # subgroups share rows 1:, so each lambda factors the 10 x 10 dual Gram
    # of those rows once for all of them, and each brings in its own row 0
    (group,) = [g for g in sweep.draw_groups(dict(enumerate(DRAW_GRID.points(AxisMode.FULL))))
                if g[0][1].c == 2.0]
    assert len(group) == 27
    shapes = []
    factor = simulator._factor
    monkeypatch.setattr(simulator, "_factor",
                        lambda G, shift: shapes.append(G.shape) or factor(G, shift))
    records = simulator.run_trial_path(group, simulator.shape_for(DRAW_GRID.p, 2.0, seed=6),
                                       m_test=50)
    assert shapes == [(10, 10)] * 3
    assert len(records) == 27 and not any(r.is_error for r in records)


@pytest.mark.parametrize("centering", list(simulator.Centering))
def test_draw_group_worker_count_invariance(tmp_path, centering):
    paths = [tmp_path / "serial.csv", tmp_path / "pool.csv"]
    for path, workers in zip(paths, (1, 2)):
        sweep.write_records(path, _run_draw_grid(centering, workers))
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("centering", list(simulator.Centering))
def test_failure_at_one_theta_is_that_subgroups_error_rows(monkeypatch, centering):
    clean = _run_draw_grid(centering)
    center = simulator._center

    def fail_at(theta_bad):
        def center_then_fail(X, y, v, theta, mode):
            out = center(X, y, v, theta, mode)  # X is poisoned and centered before the failure
            if theta == theta_bad:
                raise SolveFailure("injected")
            return out
        return center_then_fail

    # the first, a middle and the last subgroups of each draw group
    for theta_bad in DRAW_GRID.theta_values:
        monkeypatch.setattr(simulator, "_center", fail_at(theta_bad))
        records = _run_draw_grid(centering)
        for got, want in zip(records, clean, strict=True):
            if got.theta == theta_bad:
                assert got.is_error
                assert repr(got.sigma2_theory) == repr(want.sigma2_theory)
            else:
                assert _persisted(got) == _persisted(want)


def test_csv_round_trip(tmp_path):
    records = sweep.run_sweep(TINY, AxisMode.ONE_AT_A_TIME, m_test=50)
    path = tmp_path / "records.csv"
    sweep.write_records(path, records)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == ",".join(FIELD_NAMES)
    assert "\r" not in text
    back = sweep.read_records(path)
    # repr floats round-trip exactly; wall_time_ms is not persisted
    import dataclasses

    assert back == [dataclasses.replace(r, wall_time_ms=0.0) for r in records]

    agg_path = tmp_path / "records_agg.csv"
    rows = sweep.aggregate(records)
    sweep.write_aggregates(agg_path, rows)
    agg = sweep.read_aggregates(agg_path)
    # one parse rule gives back every value with its type: counts stay ints
    assert agg == rows
    assert [type(v) for v in agg[0].values()] == [type(v) for v in rows[0].values()]
    for row in agg:
        assert row["mu_emp_q25"] <= row["mu_emp_median"] <= row["mu_emp_q75"]


def test_read_records_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        sweep.read_records(path)
    with pytest.raises(SchemaMismatch):
        sweep.read_aggregates(path)
    # the right header, but a row with a word for a number or too few values
    records = sweep.run_sweep(TINY, AxisMode.ONE_AT_A_TIME, m_test=50)
    for read, write, rows in ((sweep.read_records, sweep.write_records, records),
                              (sweep.read_aggregates, sweep.write_aggregates,
                               sweep.aggregate(records))):
        write(path, rows)
        header, first, *rest = path.read_text(encoding="utf-8").splitlines()
        for bad in (",".join(["abc", *first.split(",")[1:]]), ",".join(first.split(",")[:5])):
            path.write_text("\n".join([header, bad, *rest]) + "\n", encoding="utf-8")
            with pytest.raises(SchemaMismatch):
                read(path)


def test_error_record_keeps_theory_columns():
    from poisonridge.theory import ModelParams

    params = ModelParams(c=0.5, lam=0.1, theta=0.1, v_norm=1.0)
    shape = simulator.shape_for(10, params.c, seed=9)
    rec = simulator.make_record(params, shape, theory.predict(params),
                                simulator.Centering.POPULATION, grid_index=4, trial_index=2)
    assert rec.is_error
    assert math.isnan(rec.sigma2_emp)
    assert not math.isnan(rec.mu_theory)
    assert rec.n == 20


def test_failed_trial_becomes_error_row():
    from poisonridge.theory import ModelParams

    # lambda = 0 fails both the ridge solve and the closed-form prediction
    params = ModelParams(c=0.5, lam=0.0, theta=0.1, v_norm=1.0)
    shape = simulator.shape_for(10, params.c, simulator.trial_seed(0, 4, 2))
    (rec,) = simulator.run_trial_path(((4, params),), shape, trial_index=2, m_test=50)
    assert rec.is_error
    assert math.isnan(rec.mu_theory) and math.isnan(rec.eta_emp_mc)
    assert (rec.grid_index, rec.trial_index, rec.n) == (4, 2, 20)
    assert rec.seed == simulator.trial_seed(0, 4, 2)


def test_numpy_percentile_convention_reference():
    # the documented quantile rule is numpy's linear interpolation
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    assert float(np.percentile(vals, 50)) == 2.5
    assert float(np.percentile(vals, 25)) == 1.75
    assert float(np.percentile(vals, 75)) == 3.25


def _record_threads(monkeypatch):
    """Wrap every public function of the modules perfbench traces, as its
    tracer does, and the worker phases' entries, to record the thread of each
    call: name -> thread idents."""
    calls = {}

    def wrap(module, attr, fn):
        def recorded(*args, **kwargs):
            calls.setdefault(f"{module.__name__}.{attr}", []).append(threading.get_ident())
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, recorded)

    for module in (mp, theory, simulator, sweep, resolvent, mnist, report):
        for attr, obj in list(vars(module).items()):
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                wrap(module, attr, obj)
    wrap(simulator, "_path_fits", simulator._path_fits)
    wrap(mnist, "_fits", mnist._fits)
    return calls


@pytest.mark.parametrize("command", ["simulate", "mnist"])
def test_pooled_run_calls_public_functions_on_the_calling_thread_only(monkeypatch, command):
    # perfbench's tracer keeps one span stack, so the worker threads may call
    # no public function of the traced modules; they run the fits alone
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    main = threading.get_ident()
    if command == "mnist":
        rng = np.random.default_rng(3)
        images = mnist.IdxImages(count=300, rows=6, cols=5,
                                 pixels=rng.integers(0, 256, size=(300, 6, 5), dtype=np.uint8))
        task = mnist.build_binary_task(images, np.arange(300) % 2)
        trigger = mnist.make_patch_trigger(offset=(1, 1), size=2, v_norm_target=1.0,
                                           rows=6, cols=5)
        points = dict(enumerate(itertools.product((0.1, 0.2), (0.1, 1.0), (20, 60))))

        def run():
            return mnist.run_mnist_grid(task, trigger, points, trials=3, seed=2, m_test=50)
    else:
        points = dict(enumerate(DRAW_GRID.points(AxisMode.FULL)))  # two draw groups

        def run():
            return sweep.run_grid(points, DRAW_GRID.p, 3, 4, 50, workers=2)
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = [_persisted(r) for r in run()]
    with monkeypatch.context() as patch:
        calls = _record_threads(patch)
        records = run()
    fits = calls.pop("poisonridge.mnist._fits" if command == "mnist"
                     else "poisonridge.simulator._path_fits")
    assert len(fits) == 6 and main not in fits
    assert calls["poisonridge.theory.predict"] == [main] * len(records)
    assert {ident for idents in calls.values() for ident in idents} == {main}
    assert [_persisted(r) for r in records] == serial
