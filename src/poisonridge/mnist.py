"""MNIST IDX ingestion, the 0-vs-1 binary task, and pixel-patch backdoors.

The IDX container is big-endian: a 4-byte magic (0x00000803 for images,
0x00000801 for labels), 32-bit dimension fields, then row-major unsigned
bytes.  Runs on real data use empirical centering because the defender
cannot know theta or the trigger.  A trial subsamples and draws its poison
flip uniforms once for all the grid points that share subsample_n, and its
seed is that of the first of them.  A task keeps its images as bytes, and a
trial scales only the ones it subsamples.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import simulator, sweep
from .errors import (
    BadMagic,
    CountMismatch,
    InvalidShape,
    InvalidTriggerNorm,
    NoSamplesForDigit,
    PatchOutOfBounds,
    PoisonRidgeError,
    SameDigits,
    SubsampleTooLarge,
    TruncatedFile,
)
from .records import SweepRecord
from .theory import ModelParams

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class IdxImages:
    count: int
    rows: int
    cols: int
    pixels: np.ndarray  # count x rows x cols uint8


@dataclass(frozen=True)
class BinaryTask:
    """The selected images, as bytes, and their -1/+1 labels.

    A feature is float64(pixel) / `divisor`: 255 at scale "unit", 1 at
    scale "raw".
    """
    pixels: np.ndarray  # n x p uint8, one image per row, p = rows*cols
    y: np.ndarray  # -1/+1 labels
    divisor: float

    @functools.cached_property
    def X(self) -> np.ndarray:
        """Every image as features, p x n and F-ordered: one image per column."""
        return _features(self, slice(None))


def _features(task: BinaryTask, idx) -> np.ndarray:
    """The images idx of task as features, gathered and scaled in one pass
    from their bytes: a new p x len(idx) F-ordered float64 array, one image
    per column, so each image is one run of memory."""
    return np.divide(task.pixels[idx], task.divisor, dtype=np.float64).T


@dataclass(frozen=True)
class PatchTrigger:
    v: np.ndarray  # the patch image, flattened and scaled to the requested norm


def parse_idx_images(data: bytes) -> IdxImages:
    if len(data) < 16:
        raise TruncatedFile(f"image file has {len(data)} bytes, header needs 16")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IMAGE_MAGIC:
        raise BadMagic(f"expected image magic {IMAGE_MAGIC:#010x}, got {magic:#010x}")
    expected = 16 + count * rows * cols
    if len(data) != expected:
        raise TruncatedFile(f"image byte length {len(data)}, header implies {expected}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows, cols)
    return IdxImages(count=count, rows=rows, cols=cols, pixels=pixels)


def parse_idx_labels(data: bytes) -> np.ndarray:
    if len(data) < 8:
        raise TruncatedFile(f"label file has {len(data)} bytes, header needs 8")
    magic, count = struct.unpack(">II", data[:8])
    if magic != LABEL_MAGIC:
        raise BadMagic(f"expected label magic {LABEL_MAGIC:#010x}, got {magic:#010x}")
    expected = 8 + count
    if len(data) != expected:
        raise TruncatedFile(f"label byte length {len(data)}, header implies {expected}")
    return np.frombuffer(data, dtype=np.uint8, offset=8).copy()


def serialize_idx_images(images: IdxImages) -> bytes:
    header = struct.pack(">IIII", IMAGE_MAGIC, images.count, images.rows, images.cols)
    return header + images.pixels.astype(np.uint8).tobytes()


def serialize_idx_labels(labels: np.ndarray) -> bytes:
    header = struct.pack(">II", LABEL_MAGIC, len(labels))
    return header + np.asarray(labels, dtype=np.uint8).tobytes()


def load_pair(image_path, label_path) -> tuple:
    with open(image_path, "rb") as fh:
        images = parse_idx_images(fh.read())
    with open(label_path, "rb") as fh:
        labels = parse_idx_labels(fh.read())
    if images.count != len(labels):
        raise CountMismatch(
            f"{images.count} images but {len(labels)} labels"
        )
    return images, labels


def build_binary_task(
    images: IdxImages,
    labels: np.ndarray,
    digit_neg: int = 0,
    digit_pos: int = 1,
    scale: str = "unit",
) -> BinaryTask:
    """Filter to two digits and map them to -1/+1, in input order."""
    if scale not in ("raw", "unit"):
        raise ValueError(f"scale must be 'raw' or 'unit', got {scale!r}")
    if digit_neg == digit_pos:
        raise SameDigits(f"both classes are digit {digit_neg}")
    mask = (labels == digit_neg) | (labels == digit_pos)
    if not np.any(labels == digit_neg):
        raise NoSamplesForDigit(f"no samples for digit {digit_neg}")
    if not np.any(labels == digit_pos):
        raise NoSamplesForDigit(f"no samples for digit {digit_pos}")
    selected = images.pixels[mask]
    y = np.where(labels[mask] == digit_pos, 1.0, -1.0)
    return BinaryTask(pixels=selected.reshape(selected.shape[0], -1), y=y,
                      divisor=255.0 if scale == "unit" else 1.0)


def make_patch_trigger(
    offset: tuple,
    size: int,
    v_norm_target: float,
    rows: int = 28,
    cols: int = 28,
) -> PatchTrigger:
    """Constant-intensity size x size patch, rescaled to the requested norm.

    The rescaled patch's squared norm must be finite, as `ModelParams`
    requires: past `theory._SQRT_MAX`, or rounded past the largest float, it is not.
    """
    r0, c0 = offset
    if size < 1 or r0 < 0 or c0 < 0 or r0 + size > rows or c0 + size > cols:
        raise PatchOutOfBounds(
            f"{size}x{size} patch at {offset} does not fit in {rows}x{cols}"
        )
    grid = np.zeros((rows, cols))
    grid[r0:r0 + size, c0:c0 + size] = 1.0
    flat = grid.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # what these make is refused below
        v = flat * (v_norm_target / float(np.linalg.norm(flat)))
        finite_square = math.isfinite(np.linalg.norm(v))
    if not (v_norm_target >= 0.0 and finite_square):
        raise InvalidTriggerNorm(
            f"v_norm_target must be nonnegative with a finite square, got {v_norm_target}")
    return PatchTrigger(v=v)


def _grid_params(task: BinaryTask, trigger: PatchTrigger, theta: float, lam: float,
                 subsample_n: int) -> ModelParams:
    """The parameters of one grid point, at c = p/subsample_n."""
    if subsample_n < 1:
        raise InvalidShape(f"subsample_n must be >= 1, got {subsample_n}")
    n_avail, p = task.pixels.shape
    if subsample_n > n_avail:
        raise SubsampleTooLarge(f"requested {subsample_n} of {n_avail} samples")
    return ModelParams(
        c=p / subsample_n, lam=lam, theta=theta,
        v_norm=float(np.linalg.norm(trigger.v)),
    )


def _fits(task, trigger, points, shape, centering) -> simulator._TrialFits:
    """The worker phase of `_trial`, for `sweep.run_grid`: it calls no public
    function of the package."""
    rng = simulator._rng_from(shape.seed)
    idx = rng.choice(task.pixels.shape[0], size=shape.n, replace=False)
    y = task.y[idx]
    uniforms = simulator._flip_uniforms(y, rng)
    subgroups = simulator._subgroups(points)
    fits = [_theta_fits(task, idx, y, uniforms, trigger.v, centering, subgroup)
            for subgroup in subgroups]
    return simulator._TrialFits(subgroups, [trigger.v] * len(subgroups), fits, rng)


def _theta_fits(task, idx, y, uniforms, v, centering, subgroup) -> dict:
    """One theta's {lambda: fit}, on its own copy of the subsample, which it
    poisons and centers in place and drops on return."""
    theta = subgroup[0][1].theta
    X, y = _features(task, idx), y.copy()
    try:
        simulator._poison(X, y, theta, v, uniforms)
        system = simulator._system(*simulator._center(X, y, v, theta, centering))
    except PoisonRidgeError:
        return {}
    (fits,) = simulator._solve_path([(system, [params.lam for _, params in subgroup])])
    return fits


def _trial(task, trigger, points, shape, *, centering, trial_index, m_test) -> list[SweepRecord]:
    """One trial at each (grid_index, params) of `points`, which share subsample_n.

    Subsamples shape.n images once, from shape.seed's stream, which then
    draws the flip uniforms once.  The patch trigger spans many rows, so
    each theta gathers and scales its own fresh p x n copy of the subsample
    (`_features`), poisons and centers it in place, solves it at each of its
    lambdas and drops it before the next theta gathers again.  The rows are
    `simulator._trial_records`'s, as in a synthetic trial.
    """
    return simulator._trial_records(_fits(task, trigger, points, shape, centering), shape,
                                    centering, trial_index, m_test)


def run_mnist_grid(task: BinaryTask, trigger: PatchTrigger, points: dict, trials: int, seed: int,
                   m_test: int = 10000) -> list[SweepRecord]:
    """Poisoned-ridge trials on real data with empirical centering, by `sweep.run_grid`.

    `points` maps a grid index to its (theta, lambda, subsample_n).  Each
    trial subsamples without replacement, poisons the negative class at rate
    theta, solves the ridge problem and joins with the closed-form
    prediction at c = p/subsample_n; its n is round(p/c) = subsample_n.  To
    poison the positive class instead, build the task with the two digits
    exchanged.  The points that share subsample_n share each trial's
    subsample, flip uniforms and seed, and those that also share theta share
    one poisoned copy of the subsample, its Gram and each lambda's factor
    (`_trial`).
    """
    grid = {gi: _grid_params(task, trigger, *point) for gi, point in points.items()}
    return sweep.run_grid(grid, task.pixels.shape[1], trials, seed, m_test,
                          fit=functools.partial(_fits, task, trigger),
                          centering=simulator.Centering.EMPIRICAL)


def run_mnist_experiment(task: BinaryTask, trigger: PatchTrigger, theta: float, lam: float,
                         subsample_n: int, trials: int, seed: int, m_test: int = 10000,
                         grid_index: int = 0) -> list[SweepRecord]:
    """The trials of one grid point of `run_mnist_grid`."""
    return run_mnist_grid(task, trigger, {grid_index: (theta, lam, subsample_n)}, trials, seed,
                          m_test)
