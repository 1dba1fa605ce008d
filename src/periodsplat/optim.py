"""Photometric losses, image metrics, Adam, and learning-rate schedules.

The training objective is the hybrid photometric loss

    total = lam * L1(pred, gt) + (1 - lam) * (1 - SSIM(pred, gt))

with analytic gradients for both terms. SSIM uses the standard 11x11
Gaussian window (sigma 1.5), C1 = 0.01^2, C2 = 0.03^2 at dynamic range 1,
valid-region convolution, per-channel mean then channel average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import OutOfRange, ShapeMismatch, TooSmall

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-15

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _gaussian_window():
    xs = np.arange(SSIM_WINDOW, dtype=np.float64) - (SSIM_WINDOW - 1) / 2.0
    w = np.exp(-(xs ** 2) / (2.0 * SSIM_SIGMA ** 2))
    return w / w.sum()


_WINDOW_1D = _gaussian_window()


def _check_images(pred, gt):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"image shapes differ: {pred.shape} vs {gt.shape}")
    return pred, gt


def l1_loss(pred, gt):
    """Mean absolute error and its gradient with respect to pred."""
    pred, gt = _check_images(pred, gt)
    diff = pred - gt
    value = float(np.abs(diff).mean())
    grad = np.sign(diff) / diff.size
    return value, grad


@lru_cache(maxsize=8)
def _band(n):
    """Band matrix B, (n - SSIM_WINDOW + 1, n), with B[i, i + k] = w[k]:
    B @ x is the valid correlation of x's columns with the window. Cached
    and read-only."""
    rows = np.arange(n - SSIM_WINDOW + 1)
    band = np.zeros((rows.size, n), dtype=np.float64)
    for k, w in enumerate(_WINDOW_1D):
        band[rows, rows + k] = w
    band.flags.writeable = False
    return band


def _valid_conv(img):
    return _band(img.shape[0]) @ img @ _band(img.shape[1]).T


def _spread(field, shape):
    """Adjoint of _valid_conv: scatter a valid-region field back to full size."""
    return _band(shape[0]).T @ field @ _band(shape[1])


def ssim(pred, gt):
    """Structural similarity and its analytic gradient with respect to pred.

    Both images are (H, W, 3) in [0, 1] with H, W >= 11. The windowed
    statistics use valid convolution only, so boundary pixels influence the
    score solely through windows fully inside the image.
    """
    pred, gt = _check_images(pred, gt)
    if pred.ndim != 3 or pred.shape[2] != 3:
        raise ShapeMismatch(f"expected (H, W, 3) images, got {pred.shape}")
    H, W = pred.shape[:2]
    if H < SSIM_WINDOW or W < SSIM_WINDOW:
        raise TooSmall(f"images must be at least {SSIM_WINDOW}x{SSIM_WINDOW} for SSIM")

    grad = np.zeros_like(pred)
    total = 0.0
    n_pos = (H - SSIM_WINDOW + 1) * (W - SSIM_WINDOW + 1)
    norm = 1.0 / (n_pos * 3)
    for ch in range(3):
        x = pred[:, :, ch]
        y = gt[:, :, ch]
        mu_x = _valid_conv(x)
        mu_y = _valid_conv(y)
        x2 = _valid_conv(x * x)
        y2 = _valid_conv(y * y)
        xy = _valid_conv(x * y)
        var_x = x2 - mu_x ** 2
        var_y = y2 - mu_y ** 2
        cov = xy - mu_x * mu_y

        a1 = 2 * mu_x * mu_y + SSIM_C1
        a2 = 2 * cov + SSIM_C2
        b1 = mu_x ** 2 + mu_y ** 2 + SSIM_C1
        b2 = var_x + var_y + SSIM_C2
        inv_b = 1.0 / (b1 * b2)
        s = a1 * a2 * inv_b
        total += s.mean()

        # Partials of s with respect to the windowed statistics of x.
        d_mu = 2 * mu_y * a2 * inv_b - 2 * mu_x * s / b1 \
            - 2 * mu_y * a1 * inv_b + 2 * mu_x * s / b2
        d_x2 = -s / b2
        d_xy = 2 * a1 * inv_b
        grad[:, :, ch] = (
            _spread(d_mu, (H, W))
            + 2 * x * _spread(d_x2, (H, W))
            + y * _spread(d_xy, (H, W))
        ) * norm

    return total / 3.0, grad


def psnr(pred, gt):
    """Peak signal-to-noise ratio in dB; returns inf for identical images."""
    pred, gt = _check_images(pred, gt)
    mse = float(((pred - gt) ** 2).mean())
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


@dataclass
class LossReport:
    total: float
    l1: float
    ssim: float
    lam: float


def hybrid_loss(pred, gt, lam):
    """Hybrid L1/SSIM photometric objective with its image gradient.

    With lam == 1 the SSIM term is skipped entirely (and reported as 1.0),
    which also permits images smaller than the SSIM window.
    """
    if not (0.0 <= lam <= 1.0):
        raise OutOfRange(f"lambda {lam} outside [0, 1]")
    l1_value, l1_grad = l1_loss(pred, gt)
    if lam == 1.0:
        return LossReport(total=l1_value, l1=l1_value, ssim=1.0, lam=lam), l1_grad
    ssim_value, ssim_grad = ssim(pred, gt)
    total = lam * l1_value + (1.0 - lam) * (1.0 - ssim_value)
    grad = lam * l1_grad - (1.0 - lam) * ssim_grad
    return LossReport(total=total, l1=l1_value, ssim=ssim_value, lam=lam), grad


@dataclass
class LrSchedule:
    """Exponential (geometric) decay from initial to final, or constant."""

    initial: float
    final: float
    total_steps: int
    kind: str = "exp"  # "exp" | "const"


def lr_at(schedule, step):
    if step < 0 or step > schedule.total_steps:
        raise OutOfRange(f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.kind == "const" or schedule.initial == schedule.final:
        return schedule.initial
    if schedule.total_steps == 0:
        return schedule.initial
    frac = step / schedule.total_steps
    return schedule.initial * (schedule.final / schedule.initial) ** frac


@dataclass
class ParamGroup:
    """Named set of learnable arrays sharing one schedule and Adam state.

    row_state groups (per-anchor tensors) keep per-row step counts so
    anchors grown mid-training start their bias correction fresh; their
    first axis must match across all arrays in the group.
    """

    name: str
    params: list
    schedule: LrSchedule
    row_state: bool = False
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    step: list = field(default_factory=list)

    def __post_init__(self):
        if not self.m:
            self.m = [np.zeros_like(p) for p in self.params]
            self.v = [np.zeros_like(p) for p in self.params]
            if self.row_state:
                self.step = [np.zeros(p.shape[0], dtype=np.int64) for p in self.params]
            else:
                self.step = [0 for _ in self.params]

    def resize_rows(self, param, added, keep):
        """Follow a grow and a prune of the one array of a row_state group:
        rebind the group to the resized array, append `added` zero rows to
        m, v and step, then keep the rows where keep is True."""
        def resize(a):
            return np.concatenate([a, np.zeros((added,) + a.shape[1:], dtype=a.dtype)])[keep]

        self.params = [param]
        self.m = [resize(self.m[0])]
        self.v = [resize(self.v[0])]
        self.step = [resize(self.step[0])]


def adam_step(group, grads, step):
    """One Adam update on every array of the group.

    grads must match the parameter shapes. The learning rate comes from the
    group's schedule evaluated at the global step; bias correction uses the
    group's own update counts. Moments: m <- b1 m + (1-b1) g,
    v <- b2 v + (1-b2) g^2, update = lr * mhat / (sqrt(vhat) + eps).
    """
    lr = lr_at(group.schedule, step)
    for i, (p, g) in enumerate(zip(group.params, grads)):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeMismatch(f"group {group.name}: grad shape {g.shape} != param {p.shape}")
        group.m[i] = ADAM_BETA1 * group.m[i] + (1 - ADAM_BETA1) * g
        group.v[i] = ADAM_BETA2 * group.v[i] + (1 - ADAM_BETA2) * g * g
        if group.row_state:
            group.step[i] = group.step[i] + 1
            t = group.step[i].astype(np.float64).reshape((-1,) + (1,) * (p.ndim - 1))
        else:
            group.step[i] += 1
            t = float(group.step[i])
        m_hat = group.m[i] / (1 - ADAM_BETA1 ** t)
        v_hat = group.v[i] / (1 - ADAM_BETA2 ** t)
        update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p -= update
