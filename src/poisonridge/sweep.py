"""Grid enumeration, the one grid x trial loop `run_grid`, aggregation and CSV.

`run_grid` runs the trials of `simulate` (one point), `sweep` (the built-in
grid) and `mnist` (theta x lambda x subsample-n).  An input no trial could
run with is refused before any trial, so the command exits 2 and writes
nothing; a trial that fails becomes an error row, and the command exits 1.
The built-in grid covers seven aspect ratios, six penalties, four poison
fractions and nine trigger norms, with p = 500 and 100 trials per point.
Grid points that share an aspect ratio c form a group, and one trial of a
group draws once, with the seed of the group's first grid point, and runs
every point of the group from that draw, so its rows are common random
numbers (the `simulator` module docstring sets out how).  Records are
reproducible from (master_seed, first grid_index of the group, trial_index)
alone, and the trials run on the threads of `blas.map_ahead`, so neither
the worker count, the core count nor the execution order changes the bytes
on disk.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import math
import time
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import simulator
from .blas import map_ahead
from .errors import (
    EmptyGrid, EmptyGroup, InvalidLambda, InvalidSeed, InvalidTrialCount,
    InvalidWorkerCount, SchemaMismatch,
)
from .records import _EMPIRICAL_FIELDS, FIELD_NAMES, SweepRecord, read_csv, write_csv
from .simulator import Centering, trial_seed
from .theory import ModelParams

# each axis of the one-at-a-time sweep varies a single parameter around
# these fixed values, in this order; AXIS_COLUMNS names each parameter's
# aggregate column

DEFAULTS = {"c": 0.1, "lam": 0.1, "theta": 0.1, "v_norm": 1.0}
AXIS_COLUMNS = {"c": "c_target", "lam": "lambda", "theta": "theta", "v_norm": "v_norm"}


class AxisMode(enum.Enum):
    FULL = "full"
    ONE_AT_A_TIME = "one-at-a-time"


@dataclass(frozen=True)
class SweepGrid:
    c_values: tuple = (0.1, 0.3, 0.5, 0.75, 1.25, 1.5, 2.0)
    lambda_values: tuple = (0.001, 0.005, 0.01, 0.05, 0.1, 1.0)
    theta_values: tuple = (0.01, 0.05, 0.1, 0.2)
    vnorm_values: tuple = (0.1, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
    p: int = 500
    trials: int = 100
    master_seed: int = 0

    @classmethod
    def builtin(cls, p: int = 500, trials: int = 100, master_seed: int = 0) -> "SweepGrid":
        return cls(p=p, trials=trials, master_seed=master_seed)

    def points(self, axis_mode: AxisMode) -> list[ModelParams]:
        """Grid points in deterministic order."""
        axes = (self.c_values, self.lambda_values, self.theta_values, self.vnorm_values)
        if axis_mode is AxisMode.FULL:
            return [ModelParams(*point) for point in itertools.product(*axes)]
        base = ModelParams(**DEFAULTS)
        return [dataclasses.replace(base, **{name: value})
                for name, values in zip(DEFAULTS, axes) for value in values]


def draw_groups(points: dict[int, ModelParams]) -> list[tuple]:
    """The grid points that share an aspect ratio c, identical points included.

    Each group is a tuple of (grid_index, params) in grid order; the groups
    are in the order of their first grid index.
    """
    groups = {}
    for gi in sorted(points):
        groups.setdefault(points[gi].c, []).append((gi, points[gi]))
    return [tuple(group) for group in groups.values()]


def _fit_job(job, fit, centering: Centering):
    """The worker phase of one job of `run_grid`, and its wall time in ms."""
    group, shape, _ = job
    t0 = time.perf_counter()
    fitted = fit(group, shape, centering)
    return fitted, (time.perf_counter() - t0) * 1e3


def run_grid(points: dict[int, ModelParams], p: int, trials: int, master_seed: int, m_test: int,
             *, fit=None, centering: Centering = Centering.POPULATION,
             workers: int | None = None) -> list[SweepRecord]:
    """Every (grid point, trial) record of a Monte Carlo run, in (grid, trial) order.

    `points` maps a grid index to its parameters, run at n = round(p/c).
    The points that share c form a group (`draw_groups`), and trial t of a
    group whose first grid index is g is one job, with shape.seed =
    trial_seed(master_seed, g, t).  A job runs in two phases.  On a worker
    thread, `fit(group, shape, centering)`, default `simulator._path_fits`,
    draws, poisons, centers and solves; it calls no public function of the
    package, so that a tracer that wraps them keeps one stack.  Then on this
    thread, in job order, `simulator._trial_records` joins each fit with its
    closed-form prediction and its efficacy draw into a record per point.  A
    failed fit or prediction is an error row (NaN empirical columns), not
    the end of the run; near-singular solves at tiny lambda and c near 1 are
    expected.  `workers` threads run the fits (`blas.map_ahead`, which also
    sets the default); with one, this thread runs them and no thread starts.
    Each record's wall time is its share of its job's two phases.
    """
    if workers is not None and workers < 1:
        raise InvalidWorkerCount(f"workers must be >= 1, got {workers}")
    if not points:
        raise EmptyGrid("a run needs at least one grid point")
    if trials < 1:
        raise InvalidTrialCount(f"trials must be >= 1, got {trials}")
    if master_seed < 0:
        raise InvalidSeed(f"the master seed must be >= 0, got {master_seed}")
    # refused here: inside a trial they would only make every row an error row
    simulator._check_test_count(m_test)
    for params in points.values():
        if not params.lam > 0.0:
            raise InvalidLambda(f"the ridge solve requires lambda > 0, got {params.lam}")
    jobs = [(group, simulator.shape_for(p, group[0][1].c,
                                        trial_seed(master_seed, group[0][0], ti)), ti)
            for group in draw_groups(points) for ti in range(trials)]
    fit_job = functools.partial(_fit_job, fit=fit or simulator._path_fits, centering=centering)
    records = []
    with closing(map_ahead(fit_job, jobs, workers)) as fits:
        for (_, shape, ti), (fitted, fit_ms) in zip(jobs, fits):
            t0 = time.perf_counter()
            rows = simulator._trial_records(fitted, shape, centering, ti, m_test)
            share_ms = (fit_ms + (time.perf_counter() - t0) * 1e3) / len(rows)
            records += [dataclasses.replace(r, wall_time_ms=share_ms) for r in rows]
    return sorted(records, key=lambda r: (r.grid_index, r.trial_index))


def run_sweep(grid: SweepGrid, axis_mode: AxisMode = AxisMode.ONE_AT_A_TIME,
              m_test: int = 10000, workers: int | None = None) -> list[SweepRecord]:
    """All (grid point, trial) records of the grid, through `run_grid`."""
    points = dict(enumerate(grid.points(axis_mode)))
    return run_grid(points, grid.p, grid.trials, grid.master_seed, m_test, workers=workers)


# --- aggregation ---

AGG_FIELDS = [
    "grid_index", "c_target", "lambda", "theta", "v_norm", "p", "n",
    "n_trials", "n_errors",
]
for _col in _EMPIRICAL_FIELDS:
    AGG_FIELDS += [f"{_col}_mean", f"{_col}_median", f"{_col}_q25", f"{_col}_q75"]
AGG_FIELDS += ["mu_theory", "sigma2_theory", "eta_theory", "C_theory"]


def aggregate(records: list[SweepRecord]) -> list[dict]:
    """Per grid point: mean, median, q25, q75 of each empirical column.

    Quantiles use linear interpolation between closest ranks (numpy's
    default convention).  Error rows are excluded from all statistics, so a
    point whose every trial failed has n_errors == n_trials and NaN
    statistics.  Only a run without a single valid record is refused.
    """
    if all(r.is_error for r in records):
        raise EmptyGroup("no valid records to aggregate")
    rows = []
    keyfn = lambda r: r.grid_index
    for gi, group_iter in itertools.groupby(sorted(records, key=keyfn), key=keyfn):
        group = list(group_iter)
        valid = [r for r in group if not r.is_error]
        first = (valid or group)[0]
        row = {
            "grid_index": gi,
            "c_target": first.c_target,
            "lambda": first.lam,
            "theta": first.theta,
            "v_norm": first.v_norm,
            "p": first.p,
            "n": first.n,
            "n_trials": len(group),
            "n_errors": len(group) - len(valid),
        }
        # a C-ordered row per empirical column: each mean sums as a 1-D array's did
        vals = np.array([[getattr(r, col) for r in valid] or [math.nan]
                         for col in _EMPIRICAL_FIELDS])
        stats = np.vstack((vals.mean(axis=1), np.percentile(vals, (50, 25, 75), axis=1)))
        for col, col_stats in zip(_EMPIRICAL_FIELDS, stats.T):
            for name, value in zip(("mean", "median", "q25", "q75"), col_stats):
                row[f"{col}_{name}"] = float(value)
        for col in ("mu_theory", "sigma2_theory", "eta_theory", "C_theory"):
            row[col] = getattr(first, col)
        rows.append(row)
    return rows


# --- CSV persistence, in the convention of records.write_csv ---

def write_records(path, records: list[SweepRecord]) -> None:
    write_csv(path, FIELD_NAMES, [r.to_row() for r in records])


def read_records(path) -> list[SweepRecord]:
    return [SweepRecord.from_row(row) for row in read_csv(path, FIELD_NAMES)]


def write_aggregates(path, rows: list[dict]) -> None:
    write_csv(path, AGG_FIELDS, rows)


def _number(text: str):
    # repr never writes a float without '.', 'e', 'inf' or 'nan'
    return int(text) if text.lstrip("-").isdigit() else float(text)


def read_aggregates(path) -> list[dict]:
    try:
        return [dict(zip(AGG_FIELDS, map(_number, row))) for row in read_csv(path, AGG_FIELDS)]
    except ValueError as exc:  # a value that is not a number
        raise SchemaMismatch(f"unparsable aggregate value in {path}: {exc}") from exc
