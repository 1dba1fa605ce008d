"""Independent reference implementations the engine is checked against.

Everything here is written for clarity, not speed, and deliberately avoids
sharing code paths with the package: direct per-pixel loops, explicit
windowed statistics, a from-scratch Adam trace.
"""

import numpy as np

ALPHA_CAP = 0.99
ALPHA_SKIP = 1.0 / 255.0
STOP_T = 1e-4
NEAR_PLANE = 0.01


def quat_matrix_oracle(q):
    """Rotation matrix built column-by-column by rotating the basis vectors
    with the quaternion product q * v * conj(q)."""
    def qmul(a, b):
        w1, x1, y1, z1 = a
        w2, x2, y2, z2 = b
        return np.array([
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ])

    conj = np.array([q[0], -q[1], -q[2], -q[3]])
    cols = []
    for e in np.eye(3):
        v = np.concatenate([[0.0], e])
        cols.append(qmul(qmul(q, v), conj)[1:])
    return np.stack(cols, axis=1)


def pinhole_oracle(fx, fy, cx, cy, point):
    x, y, z = point
    return np.array([fx * x / z + cx, fy * y / z + cy]), z


def frustum_test(camera, point, margin=None):
    """True when the point is in front of the camera and projects inside the
    image bounds expanded by ``margin`` pixels (default 15% of the diagonal)."""
    if margin is None:
        margin = 0.15 * camera.image_diagonal()
    view = camera.rotation_matrix() @ np.asarray(point, dtype=np.float64) + camera.translation
    if view[2] <= NEAR_PLANE:
        return False
    px = camera.fx * view[0] / view[2] + camera.cx
    py = camera.fy * view[1] / view[2] + camera.cy
    return (-margin <= px <= camera.width + margin) and (-margin <= py <= camera.height + margin)


def naive_composite_image(mean2d, cov, opacity, color, order, H, W, background,
                          use_thresholds, use_stop=None):
    """Direct per-pixel evaluation of the compositing sum over every splat
    in the given front-to-back order; no culling, no footprints. use_stop
    controls the transmittance early-out separately (defaults to
    use_thresholds)."""
    if use_stop is None:
        use_stop = use_thresholds
    img = np.zeros((H, W, 3))
    for iy in range(H):
        for ix in range(W):
            u = np.array([ix + 0.5, iy + 0.5])
            trans = 1.0
            c = np.zeros(3)
            for n in order:
                if use_stop and trans < STOP_T:
                    break
                a, b, cc = cov[n]
                det = a * cc - b * b
                d = u - mean2d[n]
                power = -0.5 * (cc * d[0] ** 2 - 2 * b * d[0] * d[1] + a * d[1] ** 2) / det
                ahat = min(opacity[n] * np.exp(power), ALPHA_CAP)
                if use_thresholds and ahat < ALPHA_SKIP:
                    continue
                c = c + color[n] * ahat * trans
                trans *= 1.0 - ahat
            img[iy, ix] = c + trans * np.asarray(background)
    return img


def two_layer_oracle(W1, b1, W2, b2, u):
    """Plain-loop two-layer MLP forward for one input vector."""
    hidden = np.zeros(W1.shape[0])
    for i in range(W1.shape[0]):
        acc = b1[i]
        for j in range(W1.shape[1]):
            acc += W1[i, j] * u[j]
        hidden[i] = max(acc, 0.0)
    out = np.zeros(W2.shape[0])
    for i in range(W2.shape[0]):
        acc = b2[i]
        for j in range(W2.shape[1]):
            acc += W2[i, j] * hidden[j]
        out[i] = acc
    return out


def l1_oracle(pred, gt):
    total = 0.0
    count = 0
    for v1, v2 in zip(pred.reshape(-1), gt.reshape(-1)):
        total += abs(v1 - v2)
        count += 1
    return total / count


def psnr_oracle(pred, gt):
    se = 0.0
    count = 0
    for v1, v2 in zip(pred.reshape(-1), gt.reshape(-1)):
        se += (v1 - v2) ** 2
        count += 1
    return 10.0 * np.log10(1.0 / (se / count))


def ssim_oracle(pred, gt, window=11, sigma=1.5, c1=0.01 ** 2, c2=0.03 ** 2):
    """Windowed SSIM with explicit loops over valid window positions."""
    xs = np.arange(window) - (window - 1) / 2.0
    w1d = np.exp(-(xs ** 2) / (2 * sigma ** 2))
    w1d /= w1d.sum()
    w2d = np.outer(w1d, w1d)
    H, W = pred.shape[:2]
    values = []
    for ch in range(3):
        x = pred[:, :, ch]
        y = gt[:, :, ch]
        scores = []
        for iy in range(H - window + 1):
            for ix in range(W - window + 1):
                px = x[iy:iy + window, ix:ix + window]
                py = y[iy:iy + window, ix:ix + window]
                mx = (w2d * px).sum()
                my = (w2d * py).sum()
                vx = (w2d * px * px).sum() - mx * mx
                vy = (w2d * py * py).sum() - my * my
                cxy = (w2d * px * py).sum() - mx * my
                scores.append(((2 * mx * my + c1) * (2 * cxy + c2))
                              / ((mx * mx + my * my + c1) * (vx + vy + c2)))
        values.append(np.mean(scores))
    return float(np.mean(values))


def adam_oracle_trace(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-15):
    """Reference Adam trajectory over a list of gradients at constant lr."""
    p = p0.astype(np.float64).copy()
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


def _reference_splat_alpha(splats, n, xs_half, ys_half):
    """One splat's (ahat, uncapped alpha*G, G, dx, dy) over its bbox."""
    x0, x1, y0, y1 = splats.bbox[n]
    dx = xs_half[x0:x1 + 1] - splats.mean2d[n, 0]
    dy = ys_half[y0:y1 + 1] - splats.mean2d[n, 1]
    A, B, C = splats.conic[n]
    power = -0.5 * (A * dx[None, :] ** 2 + C * dy[:, None] ** 2) - B * dy[:, None] * dx[None, :]
    G = np.exp(power)
    alpha_full = splats.opacity[n] * G
    return np.minimum(alpha_full, ALPHA_CAP), alpha_full, G, dx, dy


def reference_composite_forward(splats, H, W, background, use_thresholds):
    """Footprint-by-footprint compositing with explicit masks: every term is
    tested for skip and stop, and masked-out pixels keep their values through
    np.where. Returns (image, final transmittance, stop index per pixel)."""
    M = splats.mean2d.shape[0]
    acc = np.zeros((H, W, 3), dtype=np.float64)
    trans = np.ones((H, W), dtype=np.float64)
    stop = np.full((H, W), M, dtype=np.int64)
    xs_half = np.arange(W, dtype=np.float64) + 0.5
    ys_half = np.arange(H, dtype=np.float64) + 0.5

    for n in range(M):
        x0, x1, y0, y1 = splats.bbox[n]
        sl = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        ahat, _, _, _, _ = _reference_splat_alpha(splats, n, xs_half, ys_half)
        t_sub = trans[sl]
        stop_sub = stop[sl]
        if use_thresholds:
            stop_sub[(stop_sub == M) & (t_sub < STOP_T)] = n
            mask = (stop_sub > n) & (ahat >= ALPHA_SKIP)
        else:
            mask = np.ones_like(ahat, dtype=bool)
        if not mask.any():
            continue
        weight = np.where(mask, ahat * t_sub, 0.0)
        acc[sl] += weight[:, :, None] * splats.color[n]
        trans[sl] = np.where(mask, t_sub * (1.0 - ahat), t_sub)

    image = acc + trans[:, :, None] * background
    return image, trans, stop


def reference_composite_backward(splats, H, W, background, use_thresholds, final_trans,
                                 stop, grad_image):
    """Adjoint of reference_composite_forward, walking the terms back to front
    with the full (H, W, 3) colour suffix and per-entry sums for the mean and
    conic gradients. Returns (g_mean2d, g_cov, g_opacity, g_color)."""
    M = splats.mean2d.shape[0]
    xs_half = np.arange(W, dtype=np.float64) + 0.5
    ys_half = np.arange(H, dtype=np.float64) + 0.5

    t_run = final_trans.copy()
    suffix = final_trans[:, :, None] * np.asarray(background, dtype=np.float64)
    g_mean2d = np.zeros((M, 2), dtype=np.float64)
    g_cov = np.zeros((M, 3), dtype=np.float64)
    g_opacity = np.zeros(M, dtype=np.float64)
    g_color = np.zeros((M, 3), dtype=np.float64)

    for n in range(M - 1, -1, -1):
        x0, x1, y0, y1 = splats.bbox[n]
        sl = (slice(y0, y1 + 1), slice(x0, x1 + 1))
        ahat, alpha_full, G, dx, dy = _reference_splat_alpha(splats, n, xs_half, ys_half)
        if use_thresholds:
            mask = (stop[sl] > n) & (ahat >= ALPHA_SKIP)
        else:
            mask = np.ones_like(ahat, dtype=bool)
        if not mask.any():
            continue

        one_minus = 1.0 - ahat
        t_sub = t_run[sl]
        t_before = np.where(mask, t_sub / one_minus, t_sub)
        gI = grad_image[sl]
        weight = np.where(mask, ahat * t_before, 0.0)
        g_color[n] = np.einsum("hw,hwc->c", weight, gI)

        g_dot_c = gI @ splats.color[n]
        g_dot_s = np.einsum("hwc,hwc->hw", gI, suffix[sl])
        g_ahat = np.where(mask, g_dot_c * t_before - g_dot_s / one_minus, 0.0)
        # The cap is flat: capped terms get zero gradient.
        g_alpha_full = np.where(alpha_full > ALPHA_CAP, 0.0, g_ahat)
        g_opacity[n] = np.sum(g_alpha_full * G)
        gP = g_alpha_full * alpha_full  # dG/dP = G and alpha_full = opacity * G

        A, B, C = splats.conic[n]
        adx_bdy = A * dx[None, :] + B * dy[:, None]
        bdx_cdy = B * dx[None, :] + C * dy[:, None]
        g_mean2d[n, 0] = np.sum(gP * adx_bdy)
        g_mean2d[n, 1] = np.sum(gP * bdx_cdy)
        gA = np.sum(gP * (-0.5 * dx[None, :] ** 2))
        gB = np.sum(gP * (-(dx[None, :] * dy[:, None])))
        gC = np.sum(gP * (-0.5 * dy[:, None] ** 2))
        # Conic is the inverse of the (dilated) covariance: dN = -N dM N.
        g_cov[n, 0] = -(gA * A * A + gB * A * B + gC * B * B)
        g_cov[n, 1] = -(2 * gA * A * B + gB * (A * C + B * B) + 2 * gC * B * C)
        g_cov[n, 2] = -(gA * B * B + gB * B * C + gC * C * C)

        suffix[sl] = np.where(mask[:, :, None], suffix[sl] + weight[:, :, None] * splats.color[n],
                              suffix[sl])
        t_run[sl] = t_before

    return g_mean2d, g_cov, g_opacity, g_color


def per_pixel_transmittance(splats, H, W):
    """Final transmittance and stop index of each pixel, walking the splats
    whose bbox covers it one scalar term at a time: the stop index is the
    first covering splat met once the transmittance is below STOP_T."""
    M = splats.mean2d.shape[0]
    trans = np.ones((H, W))
    stop = np.full((H, W), M, dtype=np.int64)
    for iy in range(H):
        for ix in range(W):
            t = 1.0
            for n in range(M):
                x0, x1, y0, y1 = splats.bbox[n]
                if not (x0 <= ix <= x1 and y0 <= iy <= y1):
                    continue
                if t < STOP_T:
                    stop[iy, ix] = n
                    break
                A, B, C = splats.conic[n]
                dx = ix + 0.5 - splats.mean2d[n, 0]
                dy = iy + 0.5 - splats.mean2d[n, 1]
                g = np.exp(-0.5 * (A * dx * dx + C * dy * dy) - B * dx * dy)
                ahat = min(splats.opacity[n] * g, ALPHA_CAP)
                if ahat < ALPHA_SKIP:
                    continue
                t *= 1.0 - ahat
            trans[iy, ix] = t
    return trans, stop
