"""Differentiable forward rendering and its exact backward pass.

Forward: visible anchors are fused, decoded, activation-filtered (slots with
non-positive raw opacity never reach compositing), projected to 2D splats,
depth-sorted globally, and alpha-composited front to back:

    C(u) = sum_n c_n ahat_n(u) prod_{j<n} (1 - ahat_j(u)) + T_final * bg
    ahat_n(u) = min(0.99, alpha_n * exp(-0.5 d' Sigma'^-1 d)),  d = u - mean2d

Terms with ahat < 1/255 are skipped and accumulation stops once the
transmittance falls below 1e-4; use_thresholds=False disables both
shortcuts for oracle comparisons. A skipped or stopped term has its ahat
set to exactly 0, so it composites as a no-op (weight 0, factor 1.0) without
a mask of its own.

Compositing works in windows: runs of consecutive depth-sorted splats whose
bbox areas sum to at most WINDOW_PX. ahat does not depend on compositing
order, so a window's alphas are computed first, many splats per numpy call:
the splats are grouped by bbox width rounded up to WIDTH_QUANTUM, and each
group stacks the bbox rows of its splats into one array. The per-splat loop
then keeps only what depends on order: the transmittance and the colour in
the forward, the transmittance and g . suffix in the backward. A splat
whose bbox has stopped at every pixel is skipped (the forward still records
its stop index). Nothing is kept between the passes: the RenderGraph holds
only the final transmittance and the per-pixel stop index, and the backward
recomputes each window's alphas. No buffer grows with a frame's total
footprint.

render_backward replays the composite in reverse order, carrying the scalar
field g . suffix (image gradient dotted with the colour composited behind
the current term) and dividing the transmittance back in place. It stores
each term's transmittance and g . suffix / (1 - ahat) in the window's
arrays, from which the colour gradients and the moments of dL/dpower, and
through them the opacity, mean and conic gradients, follow for a whole
window at once. The gradients then chain through the projection, the
decoder, and the feature fusion down to every learnable tensor. Capped,
skipped and stopped terms receive exactly zero gradient, as do inactive
slots.
"""

from __future__ import annotations

from bisect import bisect_right
from types import SimpleNamespace

import numpy as np

from . import geom
from .decoder import MlpWeights, decode_anchors, decode_backward
from .errors import InternalError, MissingForwardState
from .scaffold import visible_anchors
from .temporal import encode_time, reduce_periods, reduce_periods_many

ALPHA_CAP = 0.99
ALPHA_SKIP = 1.0 / 255.0
STOP_TRANSMITTANCE = 1e-4
# 99%-mass radius of a 2D Gaussian: chi-square quantile, 2 dof.
MASS_RADIUS_SQ = 9.210340371976184
# With thresholds disabled the footprint is widened until the dropped tail
# is below this value, so naive no-culling oracles agree to ~1e-8 per term.
TAIL_EPS = 1e-8
# Compositing computes alphas for a window of consecutive splats at a time:
# WINDOW_PX bounds the window's padded bbox area, and widths are padded to a
# multiple of WIDTH_QUANTUM so that similar splats share one array.
WINDOW_PX = 1 << 15
WIDTH_QUANTUM = 4


def _footprint_radius_sq(opacity, use_thresholds):
    """Squared Mahalanobis radius beyond which a splat cannot contribute."""
    if use_thresholds:
        r2 = 2.0 * np.log(np.maximum(opacity, ALPHA_SKIP) / ALPHA_SKIP)
        return np.maximum(r2, MASS_RADIUS_SQ)
    return 2.0 * np.log(np.maximum(opacity, TAIL_EPS) / TAIL_EPS)


def _project_and_cull(camera, means, quats, scales, opacity, colors, rows, slots,
                      use_thresholds):
    """Shared projection + culling for flattened Gaussian arrays.

    rows/slots identify each entry's source (anchor row, offset slot).
    Returns splat arrays sorted by (depth, row, slot), plus the saved
    projection state for the backward pass.
    """
    # Drop entries that cannot contribute at all.
    if use_thresholds:
        keep = opacity > ALPHA_SKIP
    else:
        keep = opacity > TAIL_EPS
    means, quats, scales = means[keep], quats[keep], scales[keep]
    opacity, colors, rows, slots = opacity[keep], colors[keep], rows[keep], slots[keep]

    if means.shape[0]:
        front = geom.world_to_view_many(camera, means)[:, 2] > geom.NEAR_PLANE
        means, quats, scales = means[front], quats[front], scales[front]
        opacity, colors, rows, slots = opacity[front], colors[front], rows[front], slots[front]

    if means.shape[0] == 0:
        return _empty_splats(), None

    proj = geom.project_splats(camera, means, quats, scales)
    a, b, c = proj.cov[:, 0], proj.cov[:, 1], proj.cov[:, 2]
    det = a * c - b * b
    if np.any(det <= 0):
        raise InternalError("projected covariance is not positive definite")

    r2 = _footprint_radius_sq(opacity, use_thresholds)
    rx = np.sqrt(r2 * a)
    ry = np.sqrt(r2 * c)
    mx, my = proj.mean2d[:, 0], proj.mean2d[:, 1]
    x0 = np.maximum(np.ceil(mx - rx - 0.5), 0).astype(np.int64)
    x1 = np.minimum(np.floor(mx + rx - 0.5), camera.width - 1).astype(np.int64)
    y0 = np.maximum(np.ceil(my - ry - 0.5), 0).astype(np.int64)
    y1 = np.minimum(np.floor(my + ry - 0.5), camera.height - 1).astype(np.int64)
    on_image = (x0 <= x1) & (y0 <= y1)
    if not on_image.any():
        return _empty_splats(), None

    order = np.nonzero(on_image)[0][
        np.lexsort((slots[on_image], rows[on_image], proj.depth[on_image]))
    ]
    conic = np.stack([c / det, -b / det, a / det], axis=1)
    splats = SimpleNamespace(
        mean2d=proj.mean2d[order],
        cov=proj.cov[order],
        conic=conic[order],
        depth=proj.depth[order],
        opacity=opacity[order],
        color=colors[order],
        bbox=np.stack([x0, x1, y0, y1], axis=1)[order],
        rows=rows[order],
        slots=slots[order],
        # Indices into the pre-sort, pre-bbox-cull projection arrays.
        proj_index=order,
    )
    return splats, proj


def _empty_splats():
    return SimpleNamespace(
        mean2d=np.zeros((0, 2)), cov=np.zeros((0, 3)), conic=np.zeros((0, 3)),
        depth=np.zeros(0), opacity=np.zeros(0), color=np.zeros((0, 3)),
        bbox=np.zeros((0, 4), dtype=np.int64),
        rows=np.zeros(0, dtype=np.int64), slots=np.zeros(0, dtype=np.int64),
        proj_index=np.zeros(0, dtype=np.int64),
    )


def _splat_params(splats):
    """(M, 6) rows (mx, my, A, B, C, opacity), gathered per bbox row by
    _window_alphas."""
    return np.column_stack((splats.mean2d, splats.conic, splats.opacity))


def _windows(bbox):
    """Bounds (n0, n1) of consecutive splat runs whose bbox areas, with the
    width padded to WIDTH_QUANTUM, sum to at most WINDOW_PX; a splat larger
    than that gets a window of its own."""
    h = bbox[:, 3] - bbox[:, 2] + 1
    cum = np.cumsum(h * _padded_width(bbox)).tolist()
    bounds = [0]
    while bounds[-1] < len(cum):
        n0 = bounds[-1]
        n1 = bisect_right(cum, (cum[n0 - 1] if n0 else 0) + WINDOW_PX, lo=n0)
        bounds.append(max(n1, n0 + 1))
    return list(zip(bounds[:-1], bounds[1:]))


def _padded_width(bbox):
    return -(-(bbox[:, 1] - bbox[:, 0] + 1) // WIDTH_QUANTUM) * WIDTH_QUANTUM


def _window_alphas(params, bbox, n0, n1, use_thresholds):
    """ahat of splats n0..n1-1 over their bboxes, and where alpha is capped,
    many splats per numpy call.

    The splats are grouped by padded bbox width, in (padded width, n) order;
    a group stacks the bbox rows of its splats into one (rows, padded width)
    array, and row r of the stack belongs to splat n0 + local[r]. Every
    element is computed with the same operations as over a single splat's
    patch, so the values do not depend on the grouping. Skipped terms have
    ahat = 0 exactly; the padding columns hold values of no term and are
    never read through the per-splat patches.
    """
    box = bbox[n0:n1]
    x0, y0 = box[:, 0], box[:, 2]
    h = box[:, 3] - y0 + 1
    wp = _padded_width(box)
    order = np.argsort(wp, kind="stable")
    hs = h[order]
    starts = np.cumsum(hs) - hs
    local = np.repeat(order, hs)
    ry = np.arange(hs.sum()) + np.repeat(y0[order] - starts, hs)
    rx0 = x0[local]
    mx, my, A, B, C, opacity = params[n0 + local].T
    # Per row: -0.5 A, -0.5 C dy^2 and B dy, rounded like the direct form
    # -0.5 (A dx^2 + C dy^2) - B dy dx (scaling by -0.5 is exact).
    dy = (ry + 0.5) - my
    ax, cy, by = -0.5 * A, (-0.5 * C) * (dy * dy), B * dy

    win = SimpleNamespace(k=n1 - n0, order=order, starts=starts, local=local, dy=dy,
                          ry=ry, rx0=rx0, groups=[], members=[])
    widths = (box[:, 1] - x0 + 1).tolist()
    wps, starts_l, hs_l, order_l = (wp[order].tolist(), starts.tolist(), hs.tolist(),
                                    order.tolist())
    j0 = 0
    while j0 < win.k:
        j1 = j0 + 1
        while j1 < win.k and wps[j1] == wps[j0]:
            j1 += 1
        r0 = starts_l[j0]
        rows = slice(r0, starts_l[j1 - 1] + hs_l[j1 - 1])
        cols = np.arange(wps[j0])
        dx = rx0[rows, None] + (cols + 0.5)
        dx -= mx[rows, None]
        dx2 = dx * dx
        alpha = ax[rows, None] * dx2
        alpha += cy[rows, None]
        alpha -= by[rows, None] * dx
        np.exp(alpha, out=alpha)
        alpha *= opacity[rows, None]
        capped = alpha > ALPHA_CAP
        if use_thresholds:
            np.putmask(alpha, alpha < ALPHA_SKIP, 0.0)
        ahat = np.minimum(alpha, ALPHA_CAP, out=alpha)
        win.groups.append(SimpleNamespace(rows=rows, cols=cols, dx=dx, dx2=dx2,
                                          capped=capped, ahat=ahat))
        win.members.append([
            (order_l[j], (slice(starts_l[j] - r0, starts_l[j] - r0 + hs_l[j]),
                          slice(0, widths[order_l[j]])))
            for j in range(j0, j1)])
        j0 = j1
    return win


def _patches(win, *names):
    """For each splat of the window, in depth order, the (h, w) views of its
    bbox rows in the stacked group arrays called names."""
    out = [None] * win.k
    for group, members in zip(win.groups, win.members):
        arrays = [getattr(group, name) for name in names]
        for i, patch in members:
            out[i] = [arr[patch] for arr in arrays]
    return out


def _per_splat(win, row_values):
    """Sum stacked-row values over each splat's rows, in the stacked order
    (splat n0 + win.order[j] for entry j)."""
    return np.add.reduceat(row_values, win.starts, axis=0)


def _composite_forward(splats, camera, background, use_thresholds):
    H, W = camera.height, camera.width
    M = splats.mean2d.shape[0]
    acc = np.zeros((3, H, W), dtype=np.float64)  # channel first: long inner loops
    trans = np.ones((H, W), dtype=np.float64)
    stop = np.full((H, W), M, dtype=np.int64)
    params = _splat_params(splats)
    boxes = splats.bbox.tolist()
    colors = splats.color[:, :, None, None]

    for n0, n1 in _windows(splats.bbox):
        win = _window_alphas(params, splats.bbox, n0, n1, use_thresholds)
        for group in win.groups:
            group.one_minus = 1.0 - group.ahat
        for n, (x0, x1, y0, y1), (ahat, one_minus) in zip(
                range(n0, n1), boxes[n0:n1], _patches(win, "ahat", "one_minus")):
            sl = (slice(y0, y1 + 1), slice(x0, x1 + 1))
            t_sub = trans[sl]
            # Stopped pixels keep their transmittance, which stays below the
            # threshold, so the test below finds every pixel stopped so far.
            if use_thresholds and t_sub.min() < STOP_TRANSMITTANCE:
                stopped = t_sub < STOP_TRANSMITTANCE
                np.minimum(stop[sl], n, out=stop[sl], where=stopped)
                if stopped.all():
                    continue  # a no-op at every pixel
                ahat[stopped] = 0.0
                one_minus[stopped] = 1.0
            acc_sub = acc[:, y0:y1 + 1, x0:x1 + 1]
            acc_sub += colors[n] * (ahat * t_sub)
            t_sub *= one_minus
        del win  # frees this window's arrays before the next is built

    image = trans[:, :, None] * background
    image += acc.transpose(1, 2, 0)
    return image, trans, stop


def _composite_backward(splats, camera, background, use_thresholds, final_trans, stop,
                        grad_image):
    W = camera.width
    M = splats.mean2d.shape[0]
    params = _splat_params(splats)
    boxes = splats.bbox.tolist()
    first_stop = int(stop.min())  # terms before it are stopped at no pixel
    # Padded by WIDTH_QUANTUM - 1 columns, so that the padding columns of a
    # stacked row index inside the image: they are stopped and get no image
    # gradient.
    pad = ((0, 0), (0, WIDTH_QUANTUM - 1))
    padded_width = W + WIDTH_QUANTUM - 1
    stop_pad = np.pad(stop, pad, constant_values=-1).ravel()
    grad_pad = np.pad(np.moveaxis(grad_image, 2, 0), ((0, 0),) + pad).reshape(3, -1)

    t_run = final_trans.copy()
    # g . suffix, where suffix(u) is the colour composited behind the current
    # term: the later terms plus the background.
    g_suffix = final_trans * (grad_image @ np.asarray(background, dtype=np.float64))
    g_mean2d = np.zeros((M, 2), dtype=np.float64)
    g_cov = np.zeros((M, 3), dtype=np.float64)
    g_opacity = np.zeros(M, dtype=np.float64)
    g_color = np.zeros((M, 3), dtype=np.float64)

    for n0, n1 in reversed(_windows(splats.bbox)):
        win = _window_alphas(params, splats.bbox, n0, n1, use_thresholds)
        live_rows = np.empty(win.dy.size, dtype=np.int64)
        for group in win.groups:
            rows = group.rows
            pix = win.ry[rows, None] * padded_width + (win.rx0[rows, None] + group.cols)
            if n1 > first_stop:
                live = stop_pad.take(pix) > (n0 + win.local[rows])[:, None]
                group.ahat *= live
                live_rows[rows] = live.sum(axis=1)
            else:
                live_rows[rows] = 1
            group.one_minus = 1.0 - group.ahat
            group.g_image = grad_pad.take(pix, axis=1)  # channel first
            # g . colour of the term at each pixel, and ahat times it.
            group.g_dot_c = np.einsum("crj,rc->rj", group.g_image,
                                      splats.color[n0 + win.local[rows]])
            group.ahat_g_dot_c = group.ahat * group.g_dot_c
            # Filled by the loop: the transmittance in front of the term
            # and g . suffix / (1 - ahat); zero for terms never visited.
            group.t_front = np.zeros_like(group.ahat)
            group.s_over = np.zeros_like(group.ahat)
        dead = np.zeros(win.k, dtype=bool)
        dead[win.order] = _per_splat(win, live_rows) == 0
        terms = zip(boxes[n0:n1], dead.tolist(),
                    _patches(win, "one_minus", "ahat_g_dot_c", "t_front", "s_over"))

        for (x0, x1, y0, y1), is_dead, (one_minus, ahat_g_dot_c, t_front, s_over) in (
                reversed(list(terms))):
            if is_dead:
                continue  # stopped at every pixel: no term, no gradient
            sl = (slice(y0, y1 + 1), slice(x0, x1 + 1))
            t_sub = t_run[sl]
            t_sub /= one_minus  # now the transmittance in front of the term
            t_front[...] = t_sub
            s_sub = g_suffix[sl]
            np.divide(s_sub, one_minus, out=s_over)
            s_sub += ahat_g_dot_c * t_sub

        # Per stacked row: g_color's terms, and the sums over dx^b of
        # dL/dpower = dL/dalpha * alpha, zero for capped terms (the cap is
        # flat) and for skipped, stopped and padding ones (ahat = 0).
        color_rows = np.empty((win.dy.size, 3))
        dx_sums = np.empty((win.dy.size, 3))
        for group in win.groups:
            rows = group.rows
            weight = group.ahat * group.t_front
            color_rows[rows] = np.einsum("rj,crj->rc", weight, group.g_image)
            g_power = group.g_dot_c * group.t_front
            g_power -= group.s_over
            g_power *= np.where(group.capped, 0.0, group.ahat)
            dx_sums[rows, 0] = g_power.sum(axis=1)
            dx_sums[rows, 1] = np.einsum("rj,rj->r", g_power, group.dx)
            dx_sums[rows, 2] = np.einsum("rj,rj->r", g_power, group.dx2)
        idx = n0 + win.order
        g_color[idx] = _per_splat(win, color_rows)
        # Moments m[a][b] = sum gP dy^a dx^b. The exponent is quadratic in
        # (dx, dy), so these carry every opacity, mean and conic gradient.
        dy = win.dy
        dy_pows = np.stack((np.ones_like(dy), dy, dy * dy), axis=1)
        m = _per_splat(win, dy_pows[:, :, None] * dx_sums[:, None, :])
        _, _, A, B, C, opacity = params[idx].T
        g_opacity[idx] = m[:, 0, 0] / opacity  # dalpha/dopacity = G = alpha / opacity
        g_mean2d[idx] = np.stack((A * m[:, 0, 1] + B * m[:, 1, 0],
                                  B * m[:, 0, 1] + C * m[:, 1, 0]), axis=1)
        gA, gB, gC = -0.5 * m[:, 0, 2], -m[:, 1, 1], -0.5 * m[:, 2, 0]
        # Conic is the inverse of the (dilated) covariance: dN = -N dM N.
        g_cov[idx] = np.stack((-(gA * A * A + gB * A * B + gC * B * B),
                               -(2 * gA * A * B + gB * (A * C + B * B) + 2 * gC * B * C),
                               -(gA * B * B + gB * B * C + gC * C * C)), axis=1)
        del win  # frees this window's arrays before the next is built

    return g_mean2d, g_cov, g_opacity, g_color


def render_gaussians(gaussians, camera, background=(0.0, 0.0, 0.0), use_thresholds=True):
    """Render a plain list of Gaussian3D (no scaffold, no decoder).

    Used by the synthetic-scene generator and by oracle tests; shares the
    projection, culling, and compositing code with the full pipeline.
    """
    m = len(gaussians)
    background = np.asarray(background, dtype=np.float64)
    if m == 0:
        H, W = camera.height, camera.width
        return np.broadcast_to(background, (H, W, 3)).copy()
    splats, _ = _project_and_cull(
        camera,
        np.stack([g.mean for g in gaussians]),
        np.stack([geom.quat_normalize(g.rotation) for g in gaussians]),
        np.stack([g.scale for g in gaussians]),
        np.array([g.opacity for g in gaussians], dtype=np.float64),
        np.stack([g.color for g in gaussians]),
        np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64),
        use_thresholds,
    )
    image, _, _ = _composite_forward(splats, camera, background, use_thresholds)
    return image


def render(scaffold, camera, t, weights, global_rows, background=(0.0, 0.0, 0.0),
           use_thresholds=True, ablate=(False, False, False)):
    """Full forward render of the scaffold at timestamp t.

    ablate = (base, var, global) zeroes the matching feature component
    before fusion without touching any parameter shapes. Returns a
    RenderGraph retaining every intermediate the backward pass needs.
    """
    background = np.asarray(background, dtype=np.float64)
    e = encode_time(t, scaffold.T)
    vis = visible_anchors(scaffold, camera)
    V = vis.shape[0]
    d_b, d_v = scaffold.d_b, scaffold.d_v
    d_g = global_rows.shape[1]

    base = np.zeros((V, d_b)) if ablate[0] else scaffold.f_base[vis]
    local = np.zeros((V, d_v)) if ablate[1] else reduce_periods_many(scaffold.f_var[vis], e)
    glob = np.zeros(d_g) if ablate[2] else reduce_periods(global_rows, e)
    h = np.concatenate([base, local, np.broadcast_to(glob, (V, d_g))], axis=1)

    batch, dstate = decode_anchors(
        scaffold.positions[vis], scaffold.offsets[vis], scaffold.offset_scale[vis],
        scaffold.shape_scale[vis], h, camera, weights)

    K = scaffold.K
    act_rows, act_slots = np.nonzero(batch.active)
    splats, proj = _project_and_cull(
        camera,
        batch.means[act_rows, act_slots],
        batch.rotations[act_rows, act_slots],
        batch.scales[act_rows, act_slots],
        batch.raw_opacity[act_rows, act_slots],
        batch.colors[act_rows, act_slots],
        act_rows.astype(np.int64), act_slots.astype(np.int64),
        use_thresholds,
    )
    image, trans, stop = _composite_forward(splats, camera, background, use_thresholds)

    max_opacity = np.maximum(batch.raw_opacity, 0.0).max(axis=1) if V else np.zeros(0)
    return SimpleNamespace(
        image=image, background=background, camera=camera, t=float(t), encoding=e,
        use_thresholds=use_thresholds, ablate=tuple(ablate),
        visible=vis, n_anchors=len(scaffold),
        d_b=d_b, d_v=d_v, d_g=d_g, K=K, T=scaffold.T,
        h=h, decode_state=dstate, batch=batch, proj=proj,
        weights_ref=weights,
        splats=splats,
        splat_anchors=vis[splats.rows] if V else splats.rows,
        splat_slots=splats.slots,
        final_trans=trans, stop=stop,
        max_opacity=max_opacity,
    )


def render_backward(graph, grad_image):
    """Exact adjoint of render: image gradient -> every learnable tensor.

    Returns a namespace with full-size gradient arrays (zeros for anchors
    that were not visible), the decoder weight gradients, and the per-splat
    2D positional gradients used by the densification statistics.
    """
    if graph.decode_state is None and graph.visible.size:
        raise MissingForwardState("render graph is missing its decode state")
    splats = graph.splats
    g_mean2d, g_cov, g_opacity_s, g_color_s = _composite_backward(
        splats, graph.camera, graph.background, graph.use_thresholds,
        graph.final_trans, graph.stop, grad_image)

    V = graph.visible.shape[0]
    K = graph.K
    g_means_g = np.zeros((V, K, 3))
    g_quats_g = np.zeros((V, K, 4))
    g_scales_g = np.zeros((V, K, 3))
    g_opac_g = np.zeros((V, K))
    g_color_g = np.zeros((V, K, 3))

    M = splats.mean2d.shape[0]
    if M:
        # Chain through the projection only for splats that were rasterized:
        # every field of graph.proj has one row per projected Gaussian.
        sub = SimpleNamespace(**{key: value[splats.proj_index]
                                 for key, value in vars(graph.proj).items()})
        g_means_w, g_quats_w, g_scales_w = geom.project_splats_backward(
            graph.camera, sub, g_mean2d, g_cov)
        r, s = splats.rows, splats.slots
        g_means_g[r, s] = g_means_w
        g_quats_g[r, s] = g_quats_w
        g_scales_g[r, s] = g_scales_w
        g_opac_g[r, s] = g_opacity_s
        g_color_g[r, s] = g_color_s

    dg = decode_backward(graph.decode_state, graph.weights_ref, g_means_g, g_quats_g,
                         g_scales_g, g_opac_g, g_color_g) if V else None

    n = graph.n_anchors
    T = graph.T
    w = graph.weights_ref

    def zero_like_head(head):
        return MlpWeights(*[np.zeros_like(a) for a in head.arrays()])

    out = SimpleNamespace(
        f_base=np.zeros((n, graph.d_b)),
        f_var=np.zeros((n, T, graph.d_v)),
        offsets=np.zeros((n, K, 3)),
        offset_scale=np.zeros((n, 3)),
        shape_scale=np.zeros((n, 3)),
        g=np.zeros((T, graph.d_g)),
        opacity_mlp=zero_like_head(w.opacity),
        color_mlp=zero_like_head(w.color),
        covariance_mlp=zero_like_head(w.covariance),
        splat_mean2d=g_mean2d,
    )
    if V:
        vis = graph.visible
        e = graph.encoding
        gh = dg.h
        if not graph.ablate[0]:
            out.f_base[vis] = gh[:, :graph.d_b]
        if not graph.ablate[1]:
            mid = gh[:, graph.d_b:graph.d_b + graph.d_v]
            out.f_var[vis] = np.einsum("t,vd->vtd", e.weights, mid)
        if not graph.ablate[2]:
            tail = gh[:, graph.d_b + graph.d_v:]
            out.g = e.weights[:, None] * tail.sum(axis=0)[None, :]
        out.offsets[vis] = dg.offsets
        out.offset_scale[vis] = dg.offset_scale
        out.shape_scale[vis] = dg.shape_scale
        out.opacity_mlp = dg.opacity
        out.color_mlp = dg.color
        out.covariance_mlp = dg.covariance
    return out
