import math

import numpy as np
import pytest

from periodsplat import optim
from periodsplat.errors import OutOfRange, ShapeMismatch, TooSmall

from oracles import adam_oracle_trace, l1_oracle, psnr_oracle, ssim_oracle


# ---------------------------------------------------------------------------
# L1

def test_l1_identical_and_offset(rng):
    img = rng.uniform(0, 1, size=(8, 8, 3))
    value, grad = optim.l1_loss(img, img)
    assert value == 0.0
    value, _ = optim.l1_loss(np.clip(img, 0, 0.9) + 0.1, np.clip(img, 0, 0.9))
    assert value == pytest.approx(0.1, abs=1e-12)


def test_l1_matches_naive(rng):
    a = rng.uniform(0, 1, size=(6, 7, 3))
    b = rng.uniform(0, 1, size=(6, 7, 3))
    value, grad = optim.l1_loss(a, b)
    assert abs(value - l1_oracle(a, b)) < 1e-12
    np.testing.assert_allclose(grad, np.sign(a - b) / a.size, atol=1e-15)


def test_l1_shape_mismatch(rng):
    with pytest.raises(ShapeMismatch):
        optim.l1_loss(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))


# ---------------------------------------------------------------------------
# SSIM

def test_ssim_identical_is_one(rng):
    img = rng.uniform(0, 1, size=(14, 14, 3))
    value, _ = optim.ssim(img, img)
    assert value == 1.0


def test_ssim_midgray_inversion():
    gt = np.full((12, 12, 3), 0.5)
    value, _ = optim.ssim(1.0 - gt, gt)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_ssim_too_small(rng):
    with pytest.raises(TooSmall):
        optim.ssim(np.zeros((8, 8, 3)), np.zeros((8, 8, 3)))


def test_ssim_symmetry_and_bound(rng):
    for _ in range(5):
        a = rng.uniform(0, 1, size=(13, 15, 3))
        b = rng.uniform(0, 1, size=(13, 15, 3))
        v1, _ = optim.ssim(a, b)
        v2, _ = optim.ssim(b, a)
        assert abs(v1 - v2) <= 1e-12
        assert v1 <= 1.0


def test_ssim_matches_windowed_oracle(rng):
    for _ in range(3):
        a = rng.uniform(0, 1, size=(13, 13, 3))
        b = rng.uniform(0, 1, size=(13, 13, 3))
        value, _ = optim.ssim(a, b)
        assert abs(value - ssim_oracle(a, b)) < 1e-10


def test_ssim_gradient_finite_difference(rng):
    a = rng.uniform(0, 1, size=(16, 16, 3))
    b = rng.uniform(0, 1, size=(16, 16, 3))
    _, grad = optim.ssim(a, b)
    h = 1e-6
    for _ in range(40):
        iy, ix, c = rng.integers(16), rng.integers(16), rng.integers(3)
        orig = a[iy, ix, c]
        a[iy, ix, c] = orig + h
        fp, _ = optim.ssim(a, b)
        a[iy, ix, c] = orig - h
        fm, _ = optim.ssim(a, b)
        a[iy, ix, c] = orig
        assert abs((fp - fm) / (2 * h) - grad[iy, ix, c]) < 1e-5


# ---------------------------------------------------------------------------
# hybrid loss

def test_hybrid_identical_zero(rng):
    img = rng.uniform(0, 1, size=(12, 12, 3))
    for lam in (0.0, 0.5, 1.0):
        report, grad = optim.hybrid_loss(img, img, lam)
        assert report.total == 0.0


def test_hybrid_lambda_one_equals_l1(rng):
    a = rng.uniform(0, 1, size=(6, 6, 3))
    b = rng.uniform(0, 1, size=(6, 6, 3))
    report, grad = optim.hybrid_loss(a, b, 1.0)
    value, l1_grad = optim.l1_loss(a, b)
    assert report.total == value
    np.testing.assert_array_equal(grad, l1_grad)


def test_hybrid_recombination(rng):
    a = rng.uniform(0, 1, size=(14, 14, 3))
    b = rng.uniform(0, 1, size=(14, 14, 3))
    report, _ = optim.hybrid_loss(a, b, 0.8)
    l1v, _ = optim.l1_loss(a, b)
    sv, _ = optim.ssim(a, b)
    assert abs(report.total - (0.8 * l1v + 0.2 * (1 - sv))) < 1e-14
    assert abs(report.total - (report.lam * report.l1
                               + (1 - report.lam) * (1 - report.ssim))) < 1e-14


def test_hybrid_lambda_out_of_range(rng):
    with pytest.raises(OutOfRange):
        optim.hybrid_loss(np.zeros((12, 12, 3)), np.zeros((12, 12, 3)), 1.5)


def test_hybrid_directional_derivative(rng):
    a = rng.uniform(0.1, 0.9, size=(14, 14, 3))
    b = rng.uniform(0, 1, size=(14, 14, 3))
    report, grad = optim.hybrid_loss(a, b, 0.8)
    v = rng.normal(size=a.shape)
    # L1 is piecewise linear; keep the probe off sign-flip boundaries
    eps = 1e-7
    rp, _ = optim.hybrid_loss(a + eps * v, b, 0.8)
    rm, _ = optim.hybrid_loss(a - eps * v, b, 0.8)
    dd = (rp.total - rm.total) / (2 * eps)
    assert abs(dd - float((grad * v).sum())) < 1e-5


# ---------------------------------------------------------------------------
# PSNR

def test_psnr_cases(rng):
    img = rng.uniform(0, 1, size=(8, 8, 3))
    assert optim.psnr(img, img) == math.inf
    base = np.full((8, 8, 3), 0.4)
    assert optim.psnr(base + 0.1, base) == pytest.approx(20.0, abs=1e-12)
    a = rng.uniform(0, 1, size=(9, 9, 3))
    b = rng.uniform(0, 1, size=(9, 9, 3))
    assert abs(optim.psnr(a, b) - psnr_oracle(a, b)) < 1e-9


# ---------------------------------------------------------------------------
# learning-rate schedules

def test_lr_endpoints_and_midpoint():
    sls = 2.5
    sched = optim.LrSchedule(0.01 * sls, 0.0001 * sls, 1000, "exp")
    assert optim.lr_at(sched, 0) == pytest.approx(0.01 * sls)
    assert optim.lr_at(sched, 1000) == pytest.approx(0.0001 * sls)
    assert optim.lr_at(sched, 500) == pytest.approx(np.sqrt(0.01 * 0.0001) * sls)
    const = optim.LrSchedule(0.004, 0.004, 1000, "const")
    assert optim.lr_at(const, 700) == 0.004


def test_lr_out_of_range():
    sched = optim.LrSchedule(0.01, 0.001, 100, "exp")
    with pytest.raises(OutOfRange):
        optim.lr_at(sched, -1)
    with pytest.raises(OutOfRange):
        optim.lr_at(sched, 101)


def test_lr_monotone_non_increasing():
    sched = optim.LrSchedule(0.02, 0.0005, 300, "exp")
    values = [optim.lr_at(sched, s) for s in range(301)]
    assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# Adam

def make_group(p, lr=0.01, row_state=False):
    return optim.ParamGroup("test", [p], optim.LrSchedule(lr, lr, 10_000, "const"),
                            row_state=row_state)


def test_adam_zero_gradient(rng):
    p = rng.normal(size=(4, 3))
    orig = p.copy()
    group = make_group(p)
    optim.adam_step(group, [np.zeros_like(p)], step=0)
    np.testing.assert_array_equal(p, orig)
    assert group.step[0] == 1


def test_adam_first_step_sign(rng):
    p = np.zeros(5)
    g = rng.normal(size=5) * 10
    group = make_group(p, lr=0.01)
    optim.adam_step(group, [g], step=0)
    np.testing.assert_allclose(p, -0.01 * np.sign(g), rtol=1e-10)


def test_adam_hundred_step_trace_matches_oracle(rng):
    p0 = rng.normal(size=(3, 4))
    grads = [rng.normal(size=(3, 4)) for _ in range(100)]
    p = p0.copy()
    group = make_group(p, lr=0.003)
    for i, g in enumerate(grads):
        optim.adam_step(group, [g], step=i)
    ref = adam_oracle_trace(p0, grads, lr=0.003)
    np.testing.assert_allclose(p, ref, atol=1e-10)


def test_adam_scale_free_first_direction(rng):
    g = rng.normal(size=6)
    p1, p2 = np.zeros(6), np.zeros(6)
    optim.adam_step(make_group(p1, lr=0.01), [g], step=0)
    optim.adam_step(make_group(p2, lr=0.01), [g * 37.0], step=0)
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_adam_shape_mismatch(rng):
    group = make_group(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        optim.adam_step(group, [np.zeros((2, 3))], step=0)


def test_adam_row_state_fresh_rows(rng):
    """Rows appended mid-run start their bias correction at step one."""
    p = rng.normal(size=(2, 3))
    group = make_group(p, lr=0.01, row_state=True)
    g = rng.normal(size=(2, 3))
    for i in range(5):
        optim.adam_step(group, [g], step=i)
    # grow one row
    p2 = np.concatenate([group.params[0], np.zeros((1, 3))], axis=0)
    group.resize_rows(p2, added=1, keep=np.ones(3, dtype=bool))
    gnew = rng.normal(size=(3, 3))
    optim.adam_step(group, [gnew], step=5)
    assert group.step[0].tolist() == [6, 6, 1]
    # the fresh row's first update equals a first Adam step on its gradient
    expected = -0.01 * gnew[2] / (np.abs(gnew[2]) + optim.ADAM_EPS)
    np.testing.assert_allclose(p2[2], expected, rtol=1e-10)
