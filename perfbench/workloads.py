"""The four benchmark workloads: CLI argument lists, inputs and output checks.

Every workload runs `poisonridge.cli.main` the way a user runs the CLI.
The sizes are cut so that one run of a workload takes about 1-16 s on a
2-core machine, which lets one benchmark run repeat it several times.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# sweep-axis: the acceptance-sweep configuration at two trials per grid point
SWEEP_P = 500
SWEEP_TRIALS = 2
SWEEP_M_TEST = 200
SWEEP_POINTS = 26  # one-at-a-time grid: 7 c + 6 lambda + 4 theta + 9 |v|
SWEEP_WORKERS = 2
REPORT_KINDS = ("mu", "sigma", "eta")
REPORT_AXES = 4

# simulate-efficacy: n = 250, so the m_test x p efficacy draw dominates
SIM_P = 500
SIM_C = 2.0
SIM_TRIALS = 5
SIM_M_TEST = 10000  # CLI default, written out so the replay can use it

# resolvent-default: the CLI defaults, which the checks below expect; with 4
# or 8 seeds "median error falls from p=100 to p=400" comes close to failing
# by chance
RES_SIZES = (100, 200, 400)
RES_CHECKS = ("feature", "feature_sq", "gram", "gram_sq")
RES_SEEDS = 20

# mnist-fixture: synthetic two-class IDX pair written from the workload seed
MNIST_COUNT = 8000
MNIST_SUBSAMPLE = 4000
MNIST_TRIALS = 4
MNIST_THETA = 0.1
MNIST_LAMBDA = 0.1
MNIST_M_TEST = 10000
MNIST_PATCH = ((2, 2), 3)  # CLI default offset and size
MNIST_VNORM = 1.0


@dataclass
class RunCheck:
    """Outcome of checking the outputs of one workload run."""

    error_items: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""
    svg_bytes: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    items: int  # trials, or resolvent checks, per run
    pool_workers: int
    argvs: Callable  # (outdir, seed, fixture) -> list of CLI argument lists
    check: Callable  # outdir -> RunCheck
    primary: str  # primary CSV, relative to outdir


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_records(path, expected: int) -> RunCheck:
    """Row count and error rows of a SweepRecord CSV."""
    out = RunCheck()
    if not Path(path).is_file():
        out.failures.append(f"missing {path}")
        out.error_items = expected
        return out
    rows = _rows(path)
    if len(rows) != expected:
        out.failures.append(f"{path}: {len(rows)} rows, expected {expected}")
    out.error_items = sum(math.isnan(float(r["mu_emp"])) for r in rows)
    return out


# --- sweep-axis ---

def sweep_argv(outdir, seed: int, workers: int) -> list[str]:
    return ["sweep", "--mode", "one-at-a-time", "--p", str(SWEEP_P),
            "--trials", str(SWEEP_TRIALS), "--m-test", str(SWEEP_M_TEST),
            "--workers", str(workers), "--seed", str(seed), "--out", str(outdir)]


def _sweep_argvs(outdir, seed, fixture):
    csv_path = str(Path(outdir) / "sweep.csv")
    return [sweep_argv(outdir, seed, SWEEP_WORKERS)] + [
        ["report", "--input", csv_path, "--kind", kind] for kind in REPORT_KINDS
    ]


def _sweep_check(outdir) -> RunCheck:
    outdir = Path(outdir)
    out = _check_records(outdir / "sweep.csv", SWEEP_POINTS * SWEEP_TRIALS)
    svgs = sorted(outdir.glob("sweep_*_vs_*.svg"))
    if len(svgs) != len(REPORT_KINDS) * REPORT_AXES:
        out.failures.append(f"{len(svgs)} SVG panels, expected {len(REPORT_KINDS) * REPORT_AXES}")
    out.svg_bytes = sum(p.stat().st_size for p in svgs)
    if not out.failures:
        out.digest = _digest([outdir / "sweep.csv", outdir / "sweep_agg.csv", *svgs])
    return out


# --- simulate-efficacy ---

def _sim_argvs(outdir, seed, fixture):
    return [["simulate", "--p", str(SIM_P), "--c", str(SIM_C), "--trials", str(SIM_TRIALS),
             "--m-test", str(SIM_M_TEST), "--seed", str(seed), "--out", str(outdir)]]


def _sim_check(outdir) -> RunCheck:
    path = Path(outdir) / "simulate.csv"
    out = _check_records(path, SIM_TRIALS)
    if not out.failures:
        out.digest = _digest([path])
    return out


# --- resolvent-default ---

def _res_argvs(outdir, seed, fixture):
    return [["resolvent-check", "--seed", str(seed), "--out", str(outdir)]]


def _res_check(outdir) -> RunCheck:
    path = Path(outdir) / "resolvent_checks.csv"
    expected = len(RES_CHECKS) * len(RES_SIZES) * RES_SEEDS
    out = RunCheck()
    if not path.is_file():
        out.failures.append(f"missing {path}")
        out.error_items = expected
        return out
    rows = _rows(path)
    if len(rows) != expected:
        out.failures.append(f"{path}: {len(rows)} rows, expected {expected}")
    errors = [(int(r["p"]), float(r["abs_error"])) for r in rows]
    out.error_items = sum(not math.isfinite(e) for _, e in errors)
    if out.error_items:
        out.failures.append(f"{out.error_items} non-finite abs_error values")
    else:
        lo, hi = min(RES_SIZES), max(RES_SIZES)
        med_lo = statistics.median(e for p, e in errors if p == lo)
        med_hi = statistics.median(e for p, e in errors if p == hi)
        if not med_hi < med_lo:
            out.failures.append(
                f"median abs_error at p={hi} ({med_hi:.3g}) not below p={lo} ({med_lo:.3g})")
    if not out.failures:
        out.digest = _digest([path])
    return out


# --- mnist-fixture ---

def write_idx_fixture(directory, seed: int) -> tuple[Path, Path]:
    """Synthetic 28x28 IDX pair: blurred ring (digit 0), bar (1) and stroke (7).

    Each image is a class template with random intensity, a shift of up to
    two pixels and pixel noise, so the two classes differ in mean and the
    pixels are correlated (not isotropic).  Digit 7 is filtered out by the
    0-vs-1 task.
    """
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    r, c = np.mgrid[0:28, 0:28].astype(np.float64)
    ring = np.exp(-((np.hypot(r - 14, c - 14) - 7) ** 2) / 4)
    bar = np.exp(-((c - 14) ** 2) / 3) * ((r > 4) & (r < 24))
    stroke = (np.exp(-((r - 6) ** 2) / 3) * ((c > 7) & (c < 21))
              + np.exp(-((c - (20 - 0.4 * (r - 6))) ** 2) / 3) * ((r > 6) & (r < 24)))
    templates = np.stack([ring, bar, stroke])
    digits = np.array([0, 1, 7], dtype=np.uint8)
    # fixed class counts keep every array shape, and so the memory use, the
    # same for every seed
    pair = MNIST_COUNT * 9 // 20
    cls = rng.permutation(np.repeat([0, 1, 2], [pair, pair, MNIST_COUNT - 2 * pair]))
    shifts = rng.integers(-2, 3, size=(MNIST_COUNT, 2))
    # float32 and in-place steps keep the fixture's memory well below the
    # program's, so peak_rss_mb measures the program
    images = np.empty((MNIST_COUNT, 28, 28), dtype=np.float32)
    for k, tmpl in enumerate(templates):
        for dr in range(-2, 3):
            for dc in range(-2, 3):
                sel = (cls == k) & (shifts[:, 0] == dr) & (shifts[:, 1] == dc)
                images[sel] = np.roll(tmpl, (dr, dc), axis=(0, 1))
    images *= rng.uniform(150.0, 255.0, size=(MNIST_COUNT, 1, 1)).astype(np.float32)
    images += 20.0 * rng.standard_normal(images.shape, dtype=np.float32)
    pixels = np.clip(np.rint(images, out=images), 0, 255, out=images).astype(np.uint8)

    directory = Path(directory)
    img_path = directory / "fixture-images-idx3-ubyte"
    lbl_path = directory / "fixture-labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, MNIST_COUNT, 28, 28) + pixels.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x00000801, MNIST_COUNT) + digits[cls].tobytes())
    return img_path, lbl_path


def _mnist_argvs(outdir, seed, fixture):
    images, labels = fixture
    (row, col), size = MNIST_PATCH
    return [["mnist", "--images", str(images), "--labels", str(labels),
             "--theta", str(MNIST_THETA), "--lambda", str(MNIST_LAMBDA),
             "--subsample-n", str(MNIST_SUBSAMPLE), "--trials", str(MNIST_TRIALS),
             "--patch-row", str(row), "--patch-col", str(col), "--patch-size", str(size),
             "--vnorm", str(MNIST_VNORM), "--m-test", str(MNIST_M_TEST),
             "--seed", str(seed), "--out", str(outdir)]]


def _mnist_check(outdir) -> RunCheck:
    path = Path(outdir) / "mnist.csv"
    out = _check_records(path, MNIST_TRIALS)
    if not out.failures:
        out.digest = _digest([path])
    return out


# why each workload exists: BENCHMARK.json and README.md in this directory
WORKLOADS = {w.name: w for w in (
    Workload("sweep-axis", SWEEP_POINTS * SWEEP_TRIALS, SWEEP_WORKERS,
             _sweep_argvs, _sweep_check, "sweep.csv"),
    Workload("simulate-efficacy", SIM_TRIALS, 1, _sim_argvs, _sim_check, "simulate.csv"),
    Workload("resolvent-default", len(RES_CHECKS) * len(RES_SIZES) * RES_SEEDS, 1,
             _res_argvs, _res_check, "resolvent_checks.csv"),
    Workload("mnist-fixture", MNIST_TRIALS, 1, _mnist_argvs, _mnist_check, "mnist.csv"),
)}
