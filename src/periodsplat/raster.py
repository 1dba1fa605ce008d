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
a mask of its own. A frame with no visible anchor, no active slot or no
splat on the image takes the same path in both passes, on zero-size arrays.

Compositing works on TILE x TILE pixel tiles. Each tile lists the terms
of the splats whose bbox overlaps it, in depth order, and both passes work
on blocks of at most BLOCK_CELLS (term, tile, pixel) cells: tiles whose
lists have similar lengths share one (L, tiles, TILE * TILE) array, padded
with terms of alpha 0, and a longer list is cut into chunks, each carrying
the transmittance and colour of the ones before it as a prepended row, so
no per-pixel buffer outgrows a block and the image. With thresholds on, a
bbox is opacity-exact (no pixel outside it reaches ALPHA_SKIP), so a block
needs no bbox mask. The transmittance is a multiply.accumulate and the
colour an add.reduce along the term axis, both in term order at every
pixel, so image and final_trans are bitwise those of a term-by-term loop.
A term is stopped where the transmittance in front of it is below
STOP_TRANSMITTANCE, and so is every later one, so a block's colour sum
ends at its last live term and a tile whose pixels have all stopped is
skipped. The RenderGraph keeps the final transmittance and the tile plan
with its carries, the transmittance of each tile at the start of each round.

render_backward recomputes each block's alphas and rescans them from the
carry of its round, so that the transmittance in front of each term is
bitwise the forward's; it zeroes the stopped terms, skips the tiles the
forward skipped, and takes g . suffix (the image gradient dotted with the
colour composited behind a term) as a reverse cumulative sum, chunk by
chunk from the back. The colour gradients and the moments of dL/dpower,
which carry the opacity, mean and conic gradients, follow per (tile, term)
pair and are summed into the splats. The gradients then chain through the
projection, the decoder, and the feature fusion down to every learnable
tensor. Capped, skipped and stopped terms receive exactly zero gradient, as
do inactive slots.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from . import geom
from .decoder import decode_anchors, decode_backward
from .errors import InternalError, MissingForwardState
from .scaffold import visible_anchors
from .temporal import encode_time, reduce_periods, reduce_periods_many

ALPHA_CAP = 0.99
ALPHA_SKIP = 1.0 / 255.0
STOP_TRANSMITTANCE = 1e-4
# With thresholds disabled the footprint is widened until the dropped tail
# is below this value, so naive no-culling oracles agree to ~1e-8 per term.
TAIL_EPS = 1e-8
# Compositing works on TILE x TILE pixel tiles, in blocks of at most
# BLOCK_CELLS (term, tile, pixel) cells; a block takes no further tile once
# that would add more than PAD_SLACK padding terms (fewer blocks against
# fewer padded cells, measured on small frames).
TILE = 8
BLOCK_CELLS = 1 << 15
PAD_SLACK = 32


def _footprint_radius_sq(opacity, use_thresholds):
    """Squared Mahalanobis radius beyond which a splat cannot contribute."""
    if use_thresholds:
        # alpha = opacity * exp(-r2 / 2) reaches ALPHA_SKIP at this radius;
        # the margin covers the rounding of alpha, so that no pixel outside
        # the bbox has a computed alpha of ALPHA_SKIP or more.
        r2 = 2.0 * np.log(np.maximum(opacity, ALPHA_SKIP) / ALPHA_SKIP)
        return r2 * (1.0 + 1e-6) + 1e-9
    return 2.0 * np.log(np.maximum(opacity, TAIL_EPS) / TAIL_EPS)


def _footprint_bbox(mean2d, cov, opacity, use_thresholds, width, height):
    """(M, 4) inclusive pixel bounds x0, x1, y0, y1 of each splat's footprint,
    clipped to the image (x0 > x1 or y0 > y1 for a splat off the image)."""
    r2 = _footprint_radius_sq(opacity, use_thresholds)
    radius = np.sqrt(r2[:, None] * cov[:, [0, 2]])
    lo = np.maximum(np.ceil(mean2d - radius - 0.5), 0)
    hi = np.minimum(np.floor(mean2d + radius - 0.5), [width - 1, height - 1])
    return np.stack((lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]), axis=1).astype(np.int64)


def _project_and_cull(camera, means, quats, scales, opacity, colors, rows, slots,
                      use_thresholds):
    """Shared projection + culling for flattened Gaussian arrays.

    rows/slots identify each entry's source (anchor row, offset slot).
    Returns one namespace with a row per rasterized splat, sorted by (depth,
    row, slot): every field of geom.project_splats (the state its adjoint
    reads), plus conic, opacity, color, bbox, rows and slots.
    """
    # The entries that add something and lie in front of the near plane.
    src = np.nonzero(opacity > (ALPHA_SKIP if use_thresholds else TAIL_EPS))[0]
    src = src[geom.world_to_view_many(camera, means[src])[:, 2] > geom.NEAR_PLANE]
    proj = geom.project_splats(camera, means[src], quats[src], scales[src])
    a, b, c = proj.cov.T
    det = a * c - b * b
    if np.any(det <= 0):
        raise InternalError("projected covariance is not positive definite")

    bbox = _footprint_bbox(proj.mean2d, proj.cov, opacity[src], use_thresholds, camera.width,
                           camera.height)
    order = np.nonzero((bbox[:, 0] <= bbox[:, 1]) & (bbox[:, 2] <= bbox[:, 3]))[0]
    order = order[np.lexsort((slots[src[order]], rows[src[order]], proj.depth[order]))]
    src = src[order]
    # take along axis 0 copies (M, 3, 3) rows about 3 times faster than [order].
    return SimpleNamespace(
        **{key: value.take(order, axis=0) for key, value in vars(proj).items()},
        conic=np.stack([c / det, -b / det, a / det], axis=1).take(order, axis=0),
        opacity=opacity[src], color=colors.take(src, axis=0), bbox=bbox.take(order, axis=0),
        rows=rows[src], slots=slots[src])


def _terms(splats):
    """Rows mx, my, -0.5 A, B, -0.5 C, opacity and colour, and the bbox bounds,
    per splat; column M is the padding term: alpha 0 and an empty bbox."""
    M = splats.mean2d.shape[0]
    A, B, C = splats.conic.T
    values = np.zeros((9, M + 1))
    values[:, :M] = (*splats.mean2d.T, -0.5 * A, B, -0.5 * C, splats.opacity, *splats.color.T)
    return values, np.vstack((splats.bbox, [0, -1, 0, -1])).T


def _to_tiles(image, fill):
    """(H, W, ...) -> (tiles, TILE * TILE, ...), tiles in row-major order, the
    pixels beyond the image edge set to fill."""
    (H, W), rest = image.shape[:2], image.shape[2:]
    ny, nx = -(-H // TILE), -(-W // TILE)
    padded = np.full((ny * TILE, nx * TILE) + rest, fill, dtype=image.dtype)
    padded[:H, :W] = image
    return padded.reshape(ny, TILE, nx, TILE, *rest).swapaxes(1, 2).reshape(ny * nx, -1, *rest)


def _from_tiles(tiles, H, W):
    ny, nx = -(-H // TILE), -(-W // TILE)
    image = tiles.reshape(ny, nx, TILE, TILE, *tiles.shape[2:]).swapaxes(1, 2)
    return np.ascontiguousarray(image.reshape(ny * TILE, nx * TILE, *tiles.shape[2:])[:H, :W])


def _tile_pairs(bbox, nx):
    """The (tile, splat) pairs of every tile a splat's bbox overlaps, grouped by
    tile and in depth order within a tile."""
    tx0, ty0 = bbox[:, 0] // TILE, bbox[:, 2] // TILE
    w = bbox[:, 1] // TILE - tx0 + 1
    n = w * (bbox[:, 3] // TILE - ty0 + 1)
    splat = np.repeat(np.arange(bbox.shape[0]), n)
    k = np.arange(splat.size) - np.repeat(np.cumsum(n) - n, n)
    w = w[splat]
    tile = (ty0[splat] + k // w) * nx + tx0[splat] + k % w
    # A stable sort of integers of 16 bits or fewer is a radix sort.
    order = np.argsort(tile.astype(np.min_scalar_type(tile.max(initial=0))), kind="stable")
    return tile[order], splat[order]


def _rounds(tile, n_tiles):
    """The tile lists as blocks (tiles, first pair index, length), per round.
    A list longer than BLOCK_CELLS / TILE^2 terms is cut into chunks of that
    length, chunk r going to round r. A round's chunks, sorted by length, are
    packed into blocks of at most BLOCK_CELLS cells, or of one tile."""
    budget = max(1, BLOCK_CELLS // (TILE * TILE))
    counts = np.bincount(tile, minlength=n_tiles)
    starts = np.cumsum(counts) - counts
    rounds = []
    for r in range(-(-counts.max(initial=0) // budget)):
        left = counts - r * budget
        tiles = np.nonzero(left > 0)[0]
        lens = np.minimum(left[tiles], budget)
        order = np.argsort(lens, kind="stable")
        tiles, lens = tiles[order], lens[order]
        lens_l, blocks, j0 = lens.tolist(), [], 0
        for j in range(1, tiles.size + 1):
            if (j == tiles.size or (j + 1 - j0) * lens_l[j] > budget
                    or (lens_l[j] - lens_l[j - 1]) * (j - j0) > PAD_SLACK):
                blocks.append((tiles[j0:j], starts[tiles[j0:j]] + r * budget, lens[j0:j]))
                j0 = j
        rounds.append(blocks)
    return rounds


def _block_alphas(values, bbox, splat, block, nx, use_thresholds):
    """alpha (L, b, TILE * TILE), not yet capped, of the terms of a block's b
    tiles at their pixels, the chunks padded to the longest with the padding
    term. Each element is computed with the same operations as over one
    splat, so the values do not depend on the blocks. With thresholds on, no
    pixel outside a splat's bbox reaches ALPHA_SKIP (see _footprint_radius_sq)
    and smaller alphas are zeroed; with them off, alpha is masked to the bbox."""
    tiles, first, lens = block
    k = np.arange(lens[-1])[:, None]
    s = np.where(k < lens, splat.take(first + k, mode="clip"), values.shape[1] - 1)
    # (TILE, TILE, L * b): the (term, tile) pairs innermost, for long loops.
    mx, my, ax, B, cc, opacity = values[:6, s]
    centres = np.arange(TILE)[:, None] + 0.5
    cx, cy = tiles % nx * TILE + centres, tiles // nx * TILE + centres  # (TILE, b)
    dx = (cx[:, None] - mx).reshape(TILE, -1)
    dy = (cy[:, None] - my).reshape(TILE, -1)
    dx2 = dx * dx
    alpha = ax.ravel() * dx2 + (cc.ravel() * (dy * dy))[:, None]
    alpha -= (B.ravel() * dy)[:, None] * dx
    np.exp(alpha, out=alpha)
    alpha *= opacity.ravel()
    alpha = alpha.reshape(TILE * TILE, -1).T.reshape(s.shape + (-1,)).copy()
    alpha *= (alpha >= ALPHA_SKIP) if use_thresholds else _covers(bbox, s, cx.T, cy.T)
    return SimpleNamespace(s=s, alpha=alpha, dx=dx.T.reshape(s.shape + (TILE,)),
                           dx2=dx2.T.reshape(s.shape + (TILE,)), dy=dy.T.reshape(s.shape + (TILE,)))


def _covers(bbox, s, cx, cy):
    """(L, b, TILE * TILE): whether the bbox of term s[l, i] holds the pixel
    of tile i centred at (cy[i], cx[i])."""
    x0, x1, y0, y1 = bbox[:, s, None]
    inside_x, inside_y = (cx > x0) & (cx < x1 + 1), (cy > y0) & (cy < y1 + 1)
    return (inside_y[..., None] & inside_x[..., None, :]).reshape(s.shape + (-1,))


def _open(block, keep):
    """The block restricted to the tiles where keep holds; None if none does."""
    return block if keep.all() else tuple(a[keep] for a in block) if keep.any() else None


def _scan(ahat, t_start):
    """(L + 1, b, P): t_start, then the transmittance behind each term,
    multiplied in term order; row j is the transmittance in front of term j."""
    scan = np.empty((len(ahat) + 1,) + ahat.shape[1:])
    scan[0] = t_start
    np.subtract(1.0, ahat, out=scan[1:])
    return np.multiply.accumulate(scan, axis=0, out=scan)


def _open_tiles(trans, use_thresholds):
    """Per tile, whether a pixel of it has not stopped (all tiles with thresholds off)."""
    return (trans >= STOP_TRANSMITTANCE).any(axis=1) | (not use_thresholds)


def _composite_forward(splats, camera, background, use_thresholds):
    """Returns the image, the final transmittance and the tile plan: the
    depth-sorted splat of each (tile, splat) pair, the rounds of blocks over
    them, and the carries, the tiles' transmittance at the start of each round."""
    H, W = camera.height, camera.width
    nx = -(-W // TILE)
    values, bbox = _terms(splats)
    tile, splat = _tile_pairs(splats.bbox, nx)
    # Pixels beyond the image edge start stopped, so that a tile whose pixels
    # have all stopped is skipped.
    trans = _to_tiles(np.ones((H, W)), 0.0)
    acc = np.zeros((3,) + trans.shape)
    plan = SimpleNamespace(splat=splat, rounds=_rounds(tile, len(trans)), carries=[])

    def composite(block):
        tiles = block[0]
        blk = _block_alphas(values, bbox, splat, block, nx, use_thresholds)
        ahat, s = np.minimum(blk.alpha, ALPHA_CAP, out=blk.alpha), blk.s
        scan = _scan(ahat, trans[tiles])
        t_front = scan[:-1]
        weight = np.multiply(ahat, t_front, out=ahat)
        if use_thresholds and (t_front[-1] < STOP_TRANSMITTANCE).any():
            # The live terms are a prefix. The transmittance keeps its value in
            # front of the first stopped term, and the colour sum ends at the
            # block's last live term (each term after it would add 0.0).
            live = t_front >= STOP_TRANSMITTANCE
            n_live = live.sum(axis=0)
            trans[tiles] = np.take_along_axis(scan, n_live[None], 0)[0]
            weight, s = weight[:n_live.max()], s[:n_live.max()]
            weight *= live[:len(s)]
        else:
            trans[tiles] = scan[-1]
        # The colour sums run along the term axis, row by row, so each
        # pixel's sum is sequential in term order.
        terms = np.empty((3, len(s) + 1) + weight.shape[1:])
        terms[:, 0] = acc[:, tiles]
        np.multiply(weight, values[6:, s, None], out=terms[:, 1:])
        acc[:, tiles] = np.add.reduce(terms, axis=1)

    for blocks in plan.rounds:
        plan.carries.append(trans.copy())
        open_tiles = _open_tiles(trans, use_thresholds)
        for block in blocks:
            block = _open(block, open_tiles[block[0]])
            if block is not None:  # else a no-op at every pixel
                composite(block)

    trans = _from_tiles(trans, H, W)
    image = trans[:, :, None] * background
    image += _from_tiles(np.moveaxis(acc, 0, 2), H, W)
    return image, trans, plan


def _composite_backward(splats, camera, background, use_thresholds, final_trans, plan,
                        grad_image):
    M = splats.mean2d.shape[0]
    nx = -(-camera.width // TILE)
    values, bbox = _terms(splats)
    g_tiles = _to_tiles(grad_image, 0.0)
    # Carried from the back, chunk by chunk: g . suffix, where suffix(u) is the
    # colour composited behind the chunk (the later chunks and the background).
    g_suffix = _to_tiles(final_trans * (grad_image @ np.asarray(background, float)), 0.0)
    # Per term: g_color, then the moments m[a][b] = sum gP dy^a dx^b of
    # dL/dpower; the exponent is quadratic in (dx, dy), so these carry every
    # opacity, mean and conic gradient. Row M gathers the padding terms.
    sums = np.zeros((M + 1, 12))

    def accumulate(block, carry):
        tiles = block[0]
        blk = _block_alphas(values, bbox, plan.splat, block, nx, use_thresholds)
        s, uncapped = blk.s, blk.alpha <= ALPHA_CAP
        ahat = np.minimum(blk.alpha, ALPHA_CAP, out=blk.alpha)
        L, b, P = ahat.shape
        # The forward's scan from the forward's carry: bitwise its t_front.
        t_front = _scan(ahat, carry[tiles])[:-1]
        if use_thresholds and (t_front[-1] < STOP_TRANSMITTANCE).any():
            ahat *= t_front >= STOP_TRANSMITTANCE  # the stopped terms
        weight = ahat * t_front
        g = g_tiles[tiles]
        g_dot_c = (values[6:, s].transpose(1, 2, 0)[:, :, None] @ g.swapaxes(1, 2))[:, :, 0]
        # rev[k] is g . suffix behind the chunk's last k terms.
        rev = np.empty((L + 1, b, P))
        rev[0] = g_suffix[tiles]
        np.multiply(weight[::-1], g_dot_c[::-1], out=rev[1:])
        np.cumsum(rev, axis=0, out=rev)
        g_suffix[tiles] = rev[L]
        # dL/dpower = dL/dalpha * alpha, zero for capped terms (the cap is
        # flat) and for skipped, stopped and padding ones (ahat = 0).
        g_power = g_dot_c * t_front
        g_power -= rev[L - 1::-1] / (1.0 - ahat)
        g_power *= ahat
        g_power *= uncapped
        ones = np.ones_like(blk.dx)
        dx_pows = np.stack((ones, blk.dx, blk.dx2), axis=-1)
        dy_pows = np.stack((ones, blk.dy, blk.dy * blk.dy), axis=-2)
        moments = dy_pows @ (g_power.reshape(L, b, TILE, TILE) @ dx_pows)
        g_color = (weight[:, :, None] @ g)[:, :, 0]
        np.add.at(sums, s, np.concatenate((g_color, moments.reshape(L, b, 9)), axis=2))

    for blocks, carry in zip(reversed(plan.rounds), reversed(plan.carries)):
        open_tiles = _open_tiles(carry, use_thresholds)  # the tiles the forward composited
        for block in reversed(blocks):
            block = _open(block, open_tiles[block[0]])
            if block is not None:
                accumulate(block, carry)

    g_color, m = sums[:M, :3], sums[:M, 3:].reshape(M, 3, 3)
    A, B, C = splats.conic.T
    g_opacity = m[:, 0, 0] / splats.opacity  # dalpha/dopacity = G = alpha / opacity
    g_mean2d = np.stack((A * m[:, 0, 1] + B * m[:, 1, 0], B * m[:, 0, 1] + C * m[:, 1, 0]), axis=1)
    gA, gB, gC = -0.5 * m[:, 0, 2], -m[:, 1, 1], -0.5 * m[:, 2, 0]
    # Conic is the inverse of the (dilated) covariance: dN = -N dM N.
    g_cov = np.stack((-(gA * A * A + gB * A * B + gC * B * B),
                      -(2 * gA * A * B + gB * (A * C + B * B) + 2 * gC * B * C),
                      -(gA * B * B + gB * B * C + gC * C * C)), axis=1)
    return g_mean2d, g_cov, g_opacity, g_color


def render_gaussians(gaussians, camera, background=(0.0, 0.0, 0.0), use_thresholds=True):
    """Render a plain list of Gaussian3D (no scaffold, no decoder).

    Used by the synthetic-scene generator and by oracle tests; shares the
    projection, culling, and compositing code with the full pipeline.
    """
    m = len(gaussians)
    background = np.asarray(background, dtype=np.float64)
    splats = _project_and_cull(
        camera,
        np.array([g.mean for g in gaussians]).reshape(m, 3),
        np.array([geom.quat_normalize(g.rotation) for g in gaussians]).reshape(m, 4),
        np.array([g.scale for g in gaussians]).reshape(m, 3),
        np.array([g.opacity for g in gaussians], dtype=np.float64),
        np.array([g.color for g in gaussians]).reshape(m, 3),
        np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64),
        use_thresholds,
    )
    image, _, _ = _composite_forward(splats, camera, background, use_thresholds)
    return image


def render(scaffold, camera, t, weights, global_rows, background=(0.0, 0.0, 0.0),
           use_thresholds=True):
    """Full forward render of the scaffold at timestamp t.

    The decoder input of each visible anchor is its base row, its period
    rows reduced at t and the reduced global row, concatenated. Returns a
    RenderGraph retaining every intermediate the backward pass needs, the
    compositing's tile plan and per-round transmittance carries among them.
    """
    background = np.asarray(background, dtype=np.float64)
    e = encode_time(t, scaffold.T)
    vis = visible_anchors(scaffold, camera)
    glob = reduce_periods(global_rows, e)
    h = np.concatenate([scaffold.f_base[vis], reduce_periods_many(scaffold.f_var[vis], e),
                        np.broadcast_to(glob, (vis.shape[0], glob.shape[0]))], axis=1)

    batch = decode_anchors(
        scaffold.positions[vis], scaffold.offsets[vis], scaffold.offset_scale[vis],
        scaffold.shape_scale[vis], h, camera, weights)

    act_rows, act_slots = np.nonzero(batch.active)
    splats = _project_and_cull(
        camera,
        batch.means[act_rows, act_slots],
        batch.rotations[act_rows, act_slots],
        batch.scales[act_rows, act_slots],
        batch.raw_opacity[act_rows, act_slots],
        batch.colors[act_rows, act_slots],
        act_rows.astype(np.int64), act_slots.astype(np.int64),
        use_thresholds,
    )
    image, trans, plan = _composite_forward(splats, camera, background, use_thresholds)
    return SimpleNamespace(
        image=image, background=background, camera=camera, encoding=e,
        use_thresholds=use_thresholds,
        visible=vis, n_anchors=len(scaffold),
        d_b=scaffold.d_b, d_v=scaffold.d_v, K=scaffold.K,
        batch=batch,
        weights_ref=weights,
        splats=splats,
        final_trans=trans, plan=plan,
    )


def render_backward(graph, grad_image):
    """Exact adjoint of render: image gradient -> every learnable tensor.

    Compositing reuses the forward's tile plan and rescans each block from
    its round's carry, so stopped and skipped terms match the forward's.
    Returns a namespace with full-size gradient arrays (zeros for anchors
    that were not visible), the decoder weight gradients, and the per-splat
    2D positional gradients used by the densification statistics.
    """
    if graph.batch is None:
        raise MissingForwardState("render graph is missing its decoded batch")
    splats = graph.splats
    g_mean2d, g_cov, g_opacity_s, g_color_s = _composite_backward(
        splats, graph.camera, graph.background, graph.use_thresholds,
        graph.final_trans, graph.plan, grad_image)

    V, K = graph.batch.active.shape

    per_splat = geom.project_splats_backward(graph.camera, splats, g_mean2d, g_cov)
    # means, quats, scales, opacity and colour per (visible anchor, slot)
    per_slot = []
    for grad in (*per_splat, g_opacity_s, g_color_s):
        per_slot.append(np.zeros((V, K) + grad.shape[1:]))
        per_slot[-1][splats.rows, splats.slots] = grad
    dg = decode_backward(graph.batch, graph.weights_ref, *per_slot)

    n, vis, d_b, d_v = graph.n_anchors, graph.visible, graph.d_b, graph.d_v
    out = SimpleNamespace(
        f_base=np.zeros((n, d_b)),
        f_var=np.zeros((n, graph.encoding.size, d_v)),
        offsets=np.zeros((n, K, 3)),
        offset_scale=np.zeros((n, 3)),
        shape_scale=np.zeros((n, 3)),
        g=graph.encoding[:, None] * dg.h[:, d_b + d_v:].sum(axis=0)[None, :],
        opacity_mlp=dg.opacity,
        color_mlp=dg.color,
        covariance_mlp=dg.covariance,
        splat_mean2d=g_mean2d,
    )
    out.f_base[vis] = dg.h[:, :d_b]
    out.f_var[vis] = np.einsum("t,vd->vtd", graph.encoding, dg.h[:, d_b:d_b + d_v])
    out.offsets[vis] = dg.offsets
    out.offset_scale[vis] = dg.offset_scale
    out.shape_scale[vis] = dg.shape_scale
    return out
