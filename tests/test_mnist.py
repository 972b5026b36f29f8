"""IDX parsing, binary task construction, patch triggers, real-data experiment."""

import re
import struct
import tracemalloc

import numpy as np
import pytest

from poisonridge import mnist, simulator, theory
from poisonridge.errors import (
    BadMagic,
    CountMismatch,
    InvalidTriggerNorm,
    NoSamplesForDigit,
    PatchOutOfBounds,
    SubsampleTooLarge,
    TruncatedFile,
)


def _image_bytes(pixels: np.ndarray) -> bytes:
    count, rows, cols = pixels.shape
    return struct.pack(">IIII", 0x00000803, count, rows, cols) + pixels.astype(
        np.uint8
    ).tobytes()


def _label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


def _fake_mnist(n0: int, n1: int, seed: int = 0, rows: int = 28, cols: int = 28):
    """Synthetic digits: class 0 is a bright border, class 1 a center bar."""
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 30, size=(n0 + n1, rows, cols)).astype(np.uint8)
    pixels[:n0, 1:-1, 1] = 200
    pixels[:n0, 1:-1, -2] = 200
    pixels[n0:, :, cols // 2] = 220
    labels = np.array([0] * n0 + [1] * n1, dtype=np.uint8)
    perm = rng.permutation(n0 + n1)
    return pixels[perm], labels[perm]


def test_parse_images_hand_fixture():
    pixels = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    images = mnist.parse_idx_images(_image_bytes(pixels))
    assert (images.count, images.rows, images.cols) == (2, 2, 3)
    assert np.array_equal(images.pixels, pixels)
    assert images.pixels[1, 0, 2] == 8  # row-major order


def test_parse_labels_hand_fixture():
    labels = mnist.parse_idx_labels(_label_bytes([0, 1, 1, 0, 1]))
    assert np.array_equal(labels, [0, 1, 1, 0, 1])


def test_parse_rejects_bad_magic():
    good = _image_bytes(np.zeros((1, 2, 2), dtype=np.uint8))
    bad = struct.pack(">I", 0x00000801) + good[4:]
    with pytest.raises(BadMagic):
        mnist.parse_idx_images(bad)
    with pytest.raises(BadMagic):
        mnist.parse_idx_labels(good[:8])


def test_parse_rejects_truncation():
    good = _image_bytes(np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(TruncatedFile):
        mnist.parse_idx_images(good[:-1])
    with pytest.raises(TruncatedFile):
        mnist.parse_idx_images(good[:10])
    with pytest.raises(TruncatedFile):
        mnist.parse_idx_labels(_label_bytes([1, 2, 3])[:-2])
    with pytest.raises(TruncatedFile):
        mnist.parse_idx_labels(b"\x00\x00")


def test_serialize_round_trip():
    pixels = np.random.default_rng(2).integers(0, 256, size=(4, 3, 5)).astype(np.uint8)
    raw = _image_bytes(pixels)
    assert mnist.serialize_idx_images(mnist.parse_idx_images(raw)) == raw
    raw_l = _label_bytes([9, 0, 3])
    assert mnist.serialize_idx_labels(mnist.parse_idx_labels(raw_l)) == raw_l


def test_load_pair_count_mismatch(tmp_path):
    img_path = tmp_path / "imgs"
    lbl_path = tmp_path / "lbls"
    img_path.write_bytes(_image_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
    lbl_path.write_bytes(_label_bytes([0, 1]))
    with pytest.raises(CountMismatch):
        mnist.load_pair(img_path, lbl_path)
    lbl_path.write_bytes(_label_bytes([0, 1, 0]))
    images, labels = mnist.load_pair(img_path, lbl_path)
    assert images.count == 3 and len(labels) == 3


def test_build_binary_task():
    pixels, labels = _fake_mnist(3, 2, rows=4, cols=4)
    labels_full = np.concatenate([labels, [7]])
    pixels_full = np.concatenate([pixels, pixels[:1]], axis=0)
    images = mnist.IdxImages(count=6, rows=4, cols=4, pixels=pixels_full)
    task = mnist.build_binary_task(images, labels_full, digit_neg=0, digit_pos=1)
    assert task.X.shape == (16, 5)  # digit 7 filtered out
    assert sorted(task.y.tolist()) == [-1.0, -1.0, -1.0, 1.0, 1.0]
    assert task.X.max() <= 1.0 and task.X.min() >= 0.0  # unit scale

    raw = mnist.build_binary_task(images, labels_full, scale="raw")
    assert raw.X.max() > 1.0
    with pytest.raises(NoSamplesForDigit):
        mnist.build_binary_task(images, labels_full, digit_neg=5, digit_pos=1)
    with pytest.raises(ValueError):
        mnist.build_binary_task(images, labels_full, scale="weird")


def test_patch_trigger_values():
    single = mnist.make_patch_trigger(offset=(0, 0), size=1, v_norm_target=1.0,
                                      rows=4, cols=4)
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.allclose(single.v, expected)

    patch = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=1.0)
    assert np.count_nonzero(patch.v) == 9
    nz = patch.v[patch.v != 0]
    assert np.allclose(nz, 1.0 / 3.0)  # 9 equal entries with unit total norm
    assert np.linalg.norm(patch.v) == pytest.approx(1.0)
    grid = patch.v.reshape(28, 28)
    assert np.count_nonzero(grid[2:5, 2:5]) == 9

    scaled = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=2.5)
    assert np.linalg.norm(scaled.v) == pytest.approx(2.5)
    with pytest.raises(PatchOutOfBounds):
        mnist.make_patch_trigger(offset=(27, 27), size=3, v_norm_target=1.0)
    with pytest.raises(PatchOutOfBounds):
        mnist.make_patch_trigger(offset=(-1, 0), size=2, v_norm_target=1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("size,v_norm", [(3, 1e200), (3, theory._SQRT_MAX), (1, float("inf"))])
def test_patch_trigger_refuses_a_norm_whose_square_overflows(size, v_norm):
    # past the bound of ModelParams, or at it where the 3 x 3 patch's squared
    # norm rounds past the largest float, the requested norm is refused by name
    with pytest.raises(InvalidTriggerNorm, match=re.escape(f"got {v_norm}") + "$"):
        mnist.make_patch_trigger(offset=(2, 2), size=size, v_norm_target=v_norm)
    edge = mnist.make_patch_trigger(offset=(2, 2), size=1, v_norm_target=theory._SQRT_MAX)
    assert np.linalg.norm(edge.v) == theory._SQRT_MAX


def test_poison_touches_only_patch_pixels():
    pixels, labels = _fake_mnist(30, 30, seed=4)
    images = mnist.IdxImages(count=60, rows=28, cols=28, pixels=pixels)
    task = mnist.build_binary_task(images, labels)
    trigger = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=1.0)
    ds = simulator.apply_poison(task.X.copy(), task.y.copy(), 1.0, trigger.v, seed=5)
    diff = ds.X - task.X
    poisoned = ds.u == 1
    assert poisoned.sum() == (task.y < 0).sum()
    support = trigger.v != 0
    assert np.allclose(diff[:, poisoned][support], 1.0 / 3.0)
    assert np.all(diff[:, poisoned][~support] == 0.0)
    assert np.all(diff[:, ~poisoned] == 0.0)


def test_run_mnist_experiment_smoke():
    pixels, labels = _fake_mnist(300, 300, seed=6)
    images = mnist.IdxImages(count=600, rows=28, cols=28, pixels=pixels)
    task = mnist.build_binary_task(images, labels)
    trigger = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=1.0)
    records = mnist.run_mnist_experiment(
        task, trigger, theta=0.1, lam=0.1, subsample_n=400, trials=4, seed=0,
        m_test=200,
    )
    assert len(records) == 4
    assert all(r.centering_mode == "empirical" for r in records)
    assert all(r.n == 400 and r.p == 784 for r in records)
    assert all(r.c_target == pytest.approx(784 / 400) for r in records)
    again = mnist.run_mnist_experiment(
        task, trigger, theta=0.1, lam=0.1, subsample_n=400, trials=4, seed=0,
        m_test=200,
    )
    assert [r.mu_emp for r in records] == [r.mu_emp for r in again]

    # poisoning the +1 class instead is the task with the digits' roles swapped
    swapped_task = mnist.build_binary_task(images, labels, digit_neg=1, digit_pos=0)
    assert np.array_equal(swapped_task.X, task.X)
    assert np.array_equal(swapped_task.y, -task.y)
    swapped = mnist.run_mnist_experiment(
        swapped_task, trigger, theta=0.1, lam=0.1, subsample_n=400, trials=2, seed=0,
        m_test=200,
    )
    assert len(swapped) == 2

    with pytest.raises(SubsampleTooLarge):
        mnist.run_mnist_experiment(task, trigger, theta=0.1, lam=0.1,
                                   subsample_n=10000, trials=1, seed=0)


def test_run_mnist_experiment_theta_orders_mu():
    # more poison means more trigger alignment, even on structured data
    pixels, labels = _fake_mnist(400, 400, seed=7)
    images = mnist.IdxImages(count=800, rows=28, cols=28, pixels=pixels)
    task = mnist.build_binary_task(images, labels)
    trigger = mnist.make_patch_trigger(offset=(2, 2), size=3, v_norm_target=1.0)

    def median_mu(theta):
        records = mnist.run_mnist_experiment(
            task, trigger, theta=theta, lam=0.1, subsample_n=600, trials=8,
            seed=1, m_test=100,
        )
        return float(np.median([r.mu_emp for r in records]))

    assert median_mu(0.2) > median_mu(0.01)


def test_multi_theta_trial_holds_one_subsample_copy():
    # each theta gathers its own copy of the subsample, which its fit consumes;
    # the previous copy is dropped before the next one is gathered
    pixels, labels = _fake_mnist(2500, 2500, seed=8, rows=6, cols=5)
    task = mnist.build_binary_task(mnist.IdxImages(count=5000, rows=6, cols=5, pixels=pixels),
                                   labels)
    trigger = mnist.make_patch_trigger(offset=(1, 1), size=2, v_norm_target=1.0, rows=6, cols=5)
    n = 4000
    points = [(gi, mnist._grid_params(task, trigger, theta, 0.1, n))
              for gi, theta in enumerate((0.05, 0.1, 0.2))]
    tracemalloc.start()
    try:
        records = mnist._trial(task, trigger, points, simulator.SimShape(p=30, n=n, seed=9),
                               centering=simulator.Centering.EMPIRICAL, trial_index=0, m_test=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 3 and not any(r.is_error for r in records)
    assert peak < 1.5 * 30 * n * 8
