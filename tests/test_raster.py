import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from periodsplat import geom, raster
from periodsplat.decoder import MlpWeights, DecoderWeights
from periodsplat.errors import MissingForwardState
from periodsplat.optim import l1_loss
from periodsplat.temporal import encode_time
from types import SimpleNamespace

import oracles
from conftest import identity_camera, micro_scene
from oracles import (naive_composite_image, per_pixel_transmittance,
                     reference_composite_backward, reference_composite_forward)


def make_cluster(raws, means, colors=None, scales=0.15, K=None):
    """Hand-built decoded cluster with given raw opacities and world means."""
    K = K or len(raws)
    raws = np.asarray(raws, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64).reshape(K, 3)
    colors = (np.full((K, 3), 0.6) if colors is None
              else np.asarray(colors, dtype=np.float64).reshape(K, 3))
    return SimpleNamespace(
        means=means,
        rotations=np.tile(np.array([1.0, 0, 0, 0]), (K, 1)),
        scales=np.full((K, 3), scales, dtype=np.float64),
        raw_opacity=raws,
        colors=colors,
        active=raws > 0,
    )


def random_gaussians(rng, m, spread=0.5):
    out = []
    for _ in range(m):
        out.append(geom.Gaussian3D(
            mean=rng.normal(size=3) * [spread, spread, 0.4],
            rotation=geom.quat_normalize(rng.normal(size=4)),
            scale=rng.uniform(0.02, 0.35, size=3),
            opacity=rng.uniform(0.02, 1.0),
            color=rng.uniform(0, 1, size=3)))
    return out


def project_gaussians(gaussians, cam, use_thresholds):
    m = len(gaussians)
    splats = raster._project_and_cull(
        cam,
        np.stack([g.mean for g in gaussians]),
        np.stack([geom.quat_normalize(g.rotation) for g in gaussians]),
        np.stack([g.scale for g in gaussians]),
        np.array([g.opacity for g in gaussians]),
        np.stack([g.color for g in gaussians]),
        np.arange(m, dtype=np.int64), np.zeros(m, dtype=np.int64), use_thresholds)
    return splats


def cull_cluster(cluster, cam):
    """_project_and_cull over every slot of one decoded cluster."""
    K = cluster.raw_opacity.shape[0]
    splats = raster._project_and_cull(
        cam, cluster.means, cluster.rotations, cluster.scales, cluster.raw_opacity,
        cluster.colors, np.zeros(K, dtype=np.int64), np.arange(K), True)
    return splats


# ---------------------------------------------------------------------------
# culling

def test_cull_drops_inactive_keeps_active():
    cam = identity_camera()
    splats = cull_cluster(make_cluster([-0.3, 0.7], [[0, 0, 0], [0.1, 0, 0]]), cam)
    assert splats.opacity.tolist() == [0.7]
    assert (splats.rows[0], splats.slots[0]) == (0, 1)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(sigma=st.tuples(st.floats(0.3, 12.0), st.floats(0.3, 12.0)),
       rho=st.floats(-0.97, 0.97),
       opacity=st.one_of(st.floats(raster.ALPHA_SKIP, 1.0, exclude_min=True),
                         st.floats(raster.ALPHA_SKIP, raster.ALPHA_SKIP * (1 + 1e-9),
                                   exclude_min=True),
                         st.floats(raster.ALPHA_CAP, 1.0)),
       axis=st.integers(0, 1), side=st.sampled_from([-1.0, 1.0]),
       offset=st.one_of(st.floats(-1e-3, 1e-3), st.floats(-1e-12, 1e-12)))
def test_thresholded_bbox_drops_no_term(sigma, rho, opacity, axis, side, offset):
    """With thresholds on, every pixel centre outside a splat's bbox has a
    computed alpha below ALPHA_SKIP, so the tile passes need no bbox mask.
    Random 2D covariances and opacities, including opacities just above
    ALPHA_SKIP and above ALPHA_CAP; the mean is placed so that the centre of
    pixel (32, 32) lies at the footprint's extreme point along one axis,
    moved outward by a relative offset, where the bbox edge is closest."""
    H = W = 64
    sx, sy = sigma
    a, b, c = sx * sx, rho * sx * sy, sy * sy
    r2 = 2.0 * np.log(opacity / raster.ALPHA_SKIP)  # alpha = ALPHA_SKIP on this ellipse
    if axis == 0:
        extreme = np.sqrt(r2 / a) * np.array([a, b])
    else:
        extreme = np.sqrt(r2 / c) * np.array([b, c])
    mean2d = np.array([[32.5, 32.5]]) - side * (1.0 + offset) * extreme
    cov = np.array([[a, b, c]])
    x0, x1, y0, y1 = raster._footprint_bbox(mean2d, cov, np.array([opacity]), True, W, H)[0]
    det = a * c - b * b
    A, B, C = c / det, -b / det, a / det
    # the compositing arithmetic: power = -0.5 (A dx^2 + C dy^2) - B dy dx
    dx = (np.arange(W) + 0.5)[None, :] - mean2d[0, 0]
    dy = (np.arange(H) + 0.5)[:, None] - mean2d[0, 1]
    alpha = opacity * np.exp(-0.5 * (A * dx * dx + C * dy * dy) - (B * dy) * dx)
    inside = np.zeros((H, W), dtype=bool)
    inside[y0:y1 + 1, x0:x1 + 1] = True
    assert alpha[~inside].max(initial=0.0) < raster.ALPHA_SKIP


def test_cull_matches_brute_force_count(rng):
    cam = identity_camera(width=24, height=24, fx=26.0, fy=26.0)
    for _ in range(10):
        K = 6
        raws = rng.uniform(-1, 1, size=K)
        means = rng.normal(size=(K, 3)) * [1.5, 1.5, 0.3]
        cluster = make_cluster(raws, means, scales=0.05)
        splats = cull_cluster(cluster, cam)
        proj = geom.project_splats(cam, means, cluster.rotations, cluster.scales)
        expected = 0
        for k in range(K):
            if raws[k] <= 0:
                continue
            if proj.view[k, 2] <= geom.NEAR_PLANE:
                continue
            a, b, c = proj.cov[k]
            pix = proj.mean2d[k]
            r2 = raster._footprint_radius_sq(np.array([raws[k]]), True)[0]
            rx, ry = np.sqrt(r2 * a), np.sqrt(r2 * c)
            on = (pix[0] + rx >= 0.5 and pix[0] - rx <= cam.width - 0.5
                  and pix[1] + ry >= 0.5 and pix[1] - ry <= cam.height - 0.5)
            expected += int(on)
        assert splats.mean2d.shape[0] == expected


# ---------------------------------------------------------------------------
# closed forms at the centre pixel, through render_gaussians

def centred_gaussian(z, opacity, color):
    """A Gaussian on the optical axis; on a 9x9 identity camera it projects
    onto the centre of pixel (4, 4)."""
    return geom.Gaussian3D(mean=np.array([0.0, 0.0, z]), rotation=np.array([1.0, 0, 0, 0]),
                           scale=np.full(3, 0.1), opacity=opacity, color=color)


def test_composite_single_capped_splat():
    cam = identity_camera(width=9, height=9)
    color = np.array([0.2, 0.4, 0.8])
    image = raster.render_gaussians([centred_gaussian(0.0, 1.0, color)], cam, np.zeros(3))
    np.testing.assert_allclose(image[4, 4], 0.99 * color, atol=1e-15)


@pytest.mark.parametrize("use_thresholds", [True, False])
def test_render_no_gaussians_is_background(use_thresholds):
    """An empty list takes the general path on zero-size arrays and returns
    the background bitwise, as a writable array of the camera's size."""
    cam = identity_camera(width=7, height=5)
    bg = np.array([0.1, 0.7, 0.3])
    image = raster.render_gaussians([], cam, bg, use_thresholds)
    assert image.flags.writeable and image.dtype == np.float64
    assert image.tobytes() == np.tile(bg, (5, 7, 1)).tobytes()


def test_composite_two_splats_expansion():
    cam = identity_camera(width=9, height=9)
    c1, c2, bg = np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])
    gaussians = [centred_gaussian(0.0, 0.5, c2), centred_gaussian(-1.0, 0.5, c1)]
    image = raster.render_gaussians(gaussians, cam, bg)
    np.testing.assert_allclose(image[4, 4], 0.5 * c1 + 0.25 * c2 + 0.25 * bg, atol=1e-15)


# ---------------------------------------------------------------------------
# render_gaussians vs the naive image oracle

@pytest.mark.parametrize("use_thresholds,tol", [(True, 5e-3), (False, 1e-5)])
def test_render_matches_naive_oracle(rng, use_thresholds, tol):
    """No-culling, no-early-stop per-pixel oracle; the per-term skip belongs
    to the alpha definition, so the oracle keeps it when thresholds are on."""
    cam = identity_camera(width=16, height=16, fx=20.0, fy=20.0, z_offset=2.0)
    bg = np.array([0.05, 0.1, 0.2])
    for _ in range(10):
        gaussians = random_gaussians(rng, int(rng.integers(1, 50)))
        img = raster.render_gaussians(gaussians, cam, bg, use_thresholds)
        means = np.stack([g.mean for g in gaussians])
        quats = np.stack([geom.quat_normalize(g.rotation) for g in gaussians])
        scales = np.stack([g.scale for g in gaussians])
        proj = geom.project_splats(cam, means, quats, scales)
        front = proj.view[:, 2] > geom.NEAR_PLANE
        opac = np.array([g.opacity for g in gaussians])
        colors = np.stack([g.color for g in gaussians])
        idx = np.nonzero(front)[0]
        order = idx[np.lexsort((idx, proj.depth[front]))]
        ref = naive_composite_image(proj.mean2d, proj.cov, opac, colors, order,
                                    16, 16, bg, use_thresholds, use_stop=False)
        assert np.abs(img - ref).max() < tol


def test_skipping_soundness(rng):
    """Enabling/disabling the skip thresholds moves no pixel by 5e-3 or more.

    Each skipped term moves a pixel by at most 1/255, so the bound is
    guaranteed whenever splat footprints do not stack several borderline
    terms on one pixel; the test uses separated splats accordingly (heavily
    overlapped scenes can reach ~2/255 by stacking two skipped terms)."""
    cam = identity_camera(width=24, height=24, fx=26.0, fy=26.0, z_offset=2.0)
    bg = np.zeros(3)
    centers = np.array([[-0.5, -0.5], [0.5, -0.5], [-0.5, 0.5], [0.5, 0.5]])
    for _ in range(10):
        gaussians = [geom.Gaussian3D(
            mean=np.array([c[0], c[1], rng.normal() * 0.2]),
            rotation=geom.quat_normalize(rng.normal(size=4)),
            scale=rng.uniform(0.02, 0.08, size=3),
            opacity=rng.uniform(0.02, 1.0),
            color=rng.uniform(0, 1, size=3)) for c in centers]
        on = raster.render_gaussians(gaussians, cam, bg, use_thresholds=True)
        off = raster.render_gaussians(gaussians, cam, bg, use_thresholds=False)
        assert np.abs(on - off).max() < 5e-3


# ---------------------------------------------------------------------------
# full render

def test_render_zero_weights_gives_background(rng):
    scaffold, _, global_g = micro_scene(rng)
    scaffold.f_base[:] = 0
    scaffold.f_var[:] = 0
    d_h = scaffold.d_b + scaffold.d_v + global_g.shape[1]
    def zero_head(out):
        return MlpWeights(np.zeros((8, d_h + 3)), np.zeros(8), np.zeros((out, 8)),
                          np.zeros(out))
    weights = DecoderWeights(zero_head(4), zero_head(12), zero_head(28))
    cam = identity_camera()
    bg = np.array([0.3, 0.5, 0.7])
    graph = raster.render(scaffold, cam, 0, weights, global_g, background=bg)
    assert not graph.batch.active.any()
    np.testing.assert_array_equal(graph.image, np.broadcast_to(bg, (16, 16, 3)))


def test_render_engineered_opaque_gaussian():
    """A single huge near-opaque Gaussian covering the image composites to
    0.99 * color + 0.01 * background at every pixel."""
    cam = identity_camera(width=12, height=12, fx=14.0, fy=14.0, z_offset=2.0)
    color = np.array([0.9, 0.2, 0.4])
    bg = np.array([0.0, 1.0, 0.0])
    g = geom.Gaussian3D(mean=np.zeros(3), rotation=np.array([1.0, 0, 0, 0]),
                        scale=np.array([50.0, 50.0, 0.1]), opacity=1.0, color=color)
    img = raster.render_gaussians([g], cam, bg)
    expected = 0.99 * color + 0.01 * bg
    assert np.abs(img - expected).max() < 1e-6


def test_render_integer_t_equals_manual_one_hot(rng):
    scaffold, weights, global_g = micro_scene(rng)
    cam = identity_camera()
    graph1 = raster.render(scaffold, cam, 1, weights, global_g)
    assert np.array_equal(encode_time(1, 2), [0.0, 1.0])
    graph2 = raster.render(scaffold, cam, 1.0, weights, global_g)
    assert graph1.image.tobytes() == graph2.image.tobytes()


def test_rendered_channels_in_unit_range(rng):
    scaffold, weights, global_g = micro_scene(rng)
    cam = identity_camera()
    for t in (0, 1, 0.5):
        graph = raster.render(scaffold, cam, t, weights, global_g,
                              background=np.array([0.2, 0.9, 0.4]))
        assert graph.image.min() >= -1e-12 and graph.image.max() <= 1 + 1e-12


def test_transmittance_telescoping(rng):
    """Final transmittance equals the product of (1 - ahat) over composited
    terms, recomputed independently per pixel, and the reference forward's
    stop index is the per-pixel walk's."""
    cam = identity_camera(width=8, height=8, fx=10.0, fy=10.0, z_offset=2.0)
    splats = project_gaussians(random_gaussians(rng, 12, spread=0.3), cam, True)
    _, trans, _ = raster._composite_forward(splats, cam, np.zeros(3), True)
    _, _, ref_stop = reference_composite_forward(splats, 8, 8, np.zeros(3), True)
    walk_trans, walk_stop = per_pixel_transmittance(splats, 8, 8)
    np.testing.assert_array_equal(ref_stop, walk_stop)
    assert np.abs(trans - walk_trans).max() < 1e-12


def test_order_permutation_invariance(rng):
    cam = identity_camera(width=12, height=12, fx=14.0, fy=14.0, z_offset=2.0)
    gaussians = random_gaussians(rng, 20)
    img1 = raster.render_gaussians(gaussians, cam)
    perm = list(rng.permutation(20))
    img2 = raster.render_gaussians([gaussians[i] for i in perm], cam)
    # identical depths are impossible here, so sorting restores one order
    assert img1.tobytes() == img2.tobytes()


def explicit_splats(mean2d, cov, opacity, color, H, W):
    """2D splats given directly, each with its thresholded footprint bbox."""
    a, b, c = cov[:, 0], cov[:, 1], cov[:, 2]
    det = a * c - b * b
    return SimpleNamespace(mean2d=mean2d, cov=cov, opacity=opacity, color=color,
                           bbox=raster._footprint_bbox(mean2d, cov, opacity, True, W, H),
                           conic=np.stack([c / det, -b / det, a / det], axis=1))


def buried_splats(rng, H, W):
    """Four opaque full-image splats, then small splats near the centre,
    several of them wholly behind pixels the front four have stopped."""
    front = np.full((4, 2), [W / 2, H / 2]) + rng.uniform(-0.5, 0.5, size=(4, 2))
    back = np.array([W / 2, H / 2]) + rng.uniform(-2.0, 2.0, size=(10, 2))
    cov = np.concatenate([np.tile([60.0, 0.0, 60.0], (4, 1)),
                          np.tile([0.3, 0.0, 0.3], (10, 1))])
    opacity = np.concatenate([np.ones(4), rng.uniform(0.3, 1.0, size=10)])
    return explicit_splats(np.concatenate([front, back]), cov, opacity,
                           rng.uniform(0, 1, size=(14, 3)), H, W)


@pytest.mark.parametrize("use_thresholds", [True, False])
def test_composite_matches_reference_loops(rng, monkeypatch, use_thresholds):
    """The compositing passes against the reference loops: the forward
    bitwise, the backward, fed the forward's outputs, to 1e-12 relative per
    array, and with thresholds the reference's final_trans and stop against a
    per-pixel walk. The scenes are random, some opaque enough to stop, one
    with splats wholly behind stopped pixels, and one with no splat; each
    runs with the default block budget and with budgets so small that tiles
    share blocks and lists are cut into several chunks. The image width is
    not a multiple of the tile size."""
    H, W = 16, 20
    cam = identity_camera(width=W, height=H, fx=18.0, fy=18.0, z_offset=2.0)
    no_splat = explicit_splats(np.zeros((0, 2)), np.zeros((0, 3)), np.zeros(0),
                               np.zeros((0, 3)), H, W)
    scenes = [no_splat, buried_splats(rng, H, W)]
    for trial in range(12):
        gaussians = random_gaussians(rng, int(rng.integers(1, 60)))
        if trial % 3 == 0:  # opaque enough that some pixels stop
            for g in gaussians:
                g.opacity = rng.uniform(0.9, 1.0)
        scenes.append(project_gaussians(gaussians, cam, use_thresholds))

    stopped = buried = split_lists = batched_tiles = 0
    for splats in scenes:
        M = splats.mean2d.shape[0]
        bg = rng.uniform(0, 1, size=3)
        grad_image = rng.normal(size=(H, W, 3))
        ref = reference_composite_forward(splats, H, W, bg, use_thresholds)
        _, trans, stop = ref
        ref_grads = reference_composite_backward(splats, H, W, bg, use_thresholds, trans, stop,
                                                 grad_image)
        if use_thresholds:
            walk_trans, walk_stop = per_pixel_transmittance(splats, H, W)
            np.testing.assert_array_equal(stop, walk_stop)
            np.testing.assert_allclose(trans, walk_trans, rtol=1e-12, atol=0)
        stopped += int((stop < M).sum())
        buried += sum(bool((stop[y0:y1 + 1, x0:x1 + 1] <= n).all())
                      for n, (x0, x1, y0, y1) in enumerate(splats.bbox.tolist()))

        for block_cells in (raster.BLOCK_CELLS, 256, 48):
            monkeypatch.setattr(raster, "BLOCK_CELLS", block_cells)
            image, got_trans, plan = raster._composite_forward(splats, cam, bg, use_thresholds)
            assert image.tobytes() == ref[0].tobytes()
            assert got_trans.tobytes() == trans.tobytes()
            got = raster._composite_backward(splats, cam, bg, use_thresholds, got_trans, plan,
                                             grad_image)
            for a, b in zip(got, ref_grads):
                assert a.shape == b.shape
                assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(b).max(initial=0.0)
            assert len(plan.carries) == len(plan.rounds)
            split_lists += len(plan.rounds) > 1
            batched_tiles += any(len(tiles) > 1 for blocks in plan.rounds
                                 for tiles, _, _ in blocks)
        monkeypatch.undo()
    assert (stopped > 0) == use_thresholds
    assert (buried > 0) == use_thresholds
    assert split_lists > 0 and batched_tiles > 0


@pytest.mark.parametrize("use_thresholds", [True, False])
def test_backward_bits_do_not_depend_on_an_earlier_frame(rng, monkeypatch, use_thresholds):
    """Frame A's compositing backward gives the same bits before and after
    the forward and backward of a larger frame B with longer tile lists, at
    the default block budget and at budgets so small that a one-term block
    exceeds them: each pass sizes its buffers from its own plan, and every
    cell a block reads was written by that block."""
    cam_a = identity_camera(width=12, height=10, fx=14.0, fy=14.0, z_offset=2.0)
    cam_b = identity_camera(width=28, height=20, fx=30.0, fy=30.0, z_offset=2.0)
    frames = [(project_gaussians(random_gaussians(rng, m), cam, use_thresholds), cam,
               rng.uniform(0, 1, size=3), rng.normal(size=(cam.height, cam.width, 3)))
              for m, cam in ((12, cam_a), (90, cam_b))]

    def backward(splats, cam, bg, grad_image):
        _, trans, plan = raster._composite_forward(splats, cam, bg, use_thresholds)
        # the (term, tile) pairs of the plan's largest block
        pairs = max(lens[-1] * len(tiles) for blocks in plan.rounds for tiles, _, lens in blocks)
        grads = raster._composite_backward(splats, cam, bg, use_thresholds, trans, plan,
                                           grad_image)
        return pairs, [g.tobytes() for g in grads]

    default = raster.BLOCK_CELLS
    for block_cells in (default, 256, 48):
        monkeypatch.setattr(raster, "BLOCK_CELLS", block_cells)
        pairs_a, before = backward(*frames[0])
        pairs_b, _ = backward(*frames[1])
        assert pairs_b > pairs_a if block_cells == default else pairs_b >= pairs_a
        if block_cells == 48:
            assert pairs_a * raster.TILE ** 2 > block_cells
        assert backward(*frames[0])[1] == before


def test_carries_are_the_transmittance_in_front_of_each_round(rng, monkeypatch):
    """One 8x8 tile, one term per round: the carry of round r is bitwise the
    reference's transmittance over the first r splats, the backward fed the
    forward's outputs matches the reference, and neither pass composites the
    tile once all its pixels have stopped. Opaque vertical bands stop the
    columns round after round; column 0 stops with no later bbox covering it."""
    H = W = 8
    cam = identity_camera(width=W, height=H)
    # (centre x, standard deviation in x, splats), each band spanning every row
    bands = [(1.0, 1.5, 4), (3.5, 0.9, 7), (7.0, 1.2, 6), (4.5, 0.9, 4), (5.0, 1.2, 3)]
    mean2d = np.array([[x, 4.0] for x, _, n in bands for _ in range(n)])
    cov = np.array([[sx * sx, 0.0, 1e4] for _, sx, n in bands for _ in range(n)])
    M = len(mean2d)
    color = rng.uniform(0, 1, size=(M, 3))

    def first(r):
        return explicit_splats(mean2d[:r], cov[:r], np.ones(r), color[:r], H, W)

    splats, bg, grad_image = first(M), rng.uniform(0, 1, size=3), rng.normal(size=(H, W, 3))
    monkeypatch.setattr(raster, "BLOCK_CELLS", raster.TILE * raster.TILE)
    composited, block_alphas = [], raster._block_alphas

    def spy(values, bbox, splat, block, *args):
        composited.append(int(block[1][0]))  # the tile's pair index, which is the round
        return block_alphas(values, bbox, splat, block, *args)

    monkeypatch.setattr(raster, "_block_alphas", spy)
    image, trans, plan = raster._composite_forward(splats, cam, bg, True)
    ref_image, ref_trans, ref_stop = reference_composite_forward(splats, H, W, bg, True)
    assert image.tobytes() == ref_image.tobytes() and trans.tobytes() == ref_trans.tobytes()
    assert len(plan.carries) == M
    for r, carry in enumerate(plan.carries):
        assert carry.tobytes() == reference_composite_forward(first(r), H, W, bg, True)[1].tobytes()
    stopped_at = [int((carry[0] < raster.STOP_TRANSMITTANCE).sum()) for carry in plan.carries]
    assert len(set(stopped_at) - {0, H * W}) > 2  # the pixels stop partway, band by band
    all_stopped = stopped_at.index(H * W)
    assert all_stopped < M - 1
    assert (ref_stop[:, 0] == M).all() and (ref_trans[:, 0] < raster.STOP_TRANSMITTANCE).all()
    assert composited == list(range(all_stopped))

    composited.clear()
    grads = raster._composite_backward(splats, cam, bg, True, trans, plan, grad_image)
    assert composited == list(reversed(range(all_stopped)))
    ref_grads = reference_composite_backward(splats, H, W, bg, True, ref_trans, ref_stop,
                                             grad_image)
    for a, b in zip(grads, ref_grads):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_term_exactly_at_the_stop_transmittance_composites(rng, monkeypatch):
    """A term whose transmittance in front is exactly STOP_TRANSMITTANCE is
    composited; the next one is stopped. One pixel, one term per round, and
    splats of alpha exactly 0.5 under a stop of 0.25: the third term sees 0.25
    (and the tile is open only through that pixel), the fourth 0.125."""
    monkeypatch.setattr(raster, "STOP_TRANSMITTANCE", 0.25)
    monkeypatch.setattr(oracles, "STOP_T", 0.25)
    monkeypatch.setattr(raster, "BLOCK_CELLS", raster.TILE * raster.TILE)
    cam = identity_camera(width=1, height=1)
    M = 5
    splats = explicit_splats(np.full((M, 2), 0.5), np.tile([0.5, 0.0, 0.5], (M, 1)),
                             np.full(M, 0.5), rng.uniform(0, 1, size=(M, 3)), 1, 1)
    bg, grad_image = rng.uniform(0, 1, size=3), rng.normal(size=(1, 1, 3))
    image, trans, plan = raster._composite_forward(splats, cam, bg, True)
    ref_image, ref_trans, ref_stop = reference_composite_forward(splats, 1, 1, bg, True)
    assert ref_trans[0, 0] == 0.125 and ref_stop[0, 0] == 3
    assert image.tobytes() == ref_image.tobytes() and trans.tobytes() == ref_trans.tobytes()
    grads = raster._composite_backward(splats, cam, bg, True, trans, plan, grad_image)
    ref_grads = reference_composite_backward(splats, 1, 1, bg, True, ref_trans, ref_stop,
                                             grad_image)
    assert (ref_grads[3][:3] != 0).all() and not ref_grads[3][3:].any()
    for a, b in zip(grads, ref_grads):
        assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()


def test_tile_blocks_partition_the_overlaps(rng, monkeypatch):
    """Every (splat, tile) bbox overlap appears in exactly one block, in
    depth order within its tile, a list's chunks follow each other round
    after round, and a block stays within the cell budget unless it holds
    one term."""
    nx, ny, T = 5, 4, raster.TILE
    x0, y0 = rng.integers(0, nx * T, size=200), rng.integers(0, ny * T, size=200)
    bbox = np.stack([x0, np.minimum(x0 + rng.integers(0, 12, 200), nx * T - 1),
                     y0, np.minimum(y0 + rng.integers(0, 12, 200), ny * T - 1)], axis=1)
    tile, splat = raster._tile_pairs(bbox, nx)
    overlaps = sorted((ty * nx + tx, n) for n, (a, b, c, d) in enumerate(bbox.tolist())
                      for ty in range(c // T, d // T + 1) for tx in range(a // T, b // T + 1))
    assert sorted(zip(tile.tolist(), splat.tolist())) == overlaps
    for block_cells in (256, 48):
        monkeypatch.setattr(raster, "BLOCK_CELLS", block_cells)
        covered, next_pair = [], {}
        for blocks in raster._rounds(tile, nx * ny):
            for tiles, first, lens in blocks:
                assert len(tiles) * lens.max() * T * T <= block_cells or lens.max() == 1
                for t, f, n in zip(tiles.tolist(), first.tolist(), lens.tolist()):
                    assert (tile[f:f + n] == t).all() and (np.diff(splat[f:f + n]) > 0).all()
                    # the list's previous chunk ended here, or this is its first
                    assert next_pair.get(t, np.searchsorted(tile, t)) == f
                    next_pair[t] = f + n
                    covered += range(f, f + n)
        assert sorted(covered) == list(range(tile.size))


def test_transmittance_early_out_forward_and_gradients(rng):
    """A stack of near-opaque splats drives the transmittance below
    STOP_TRANSMITTANCE in the middle of the image but not at its edge.
    Splats 0 and 2 have opacity 1 and sit on the centre of pixel (6, 6),
    where they are capped. final_trans and the reference forward's stop
    match a per-pixel walk, and every compositing gradient matches central
    differences."""
    H = W = 12
    cam = identity_camera(width=W, height=H)
    M = 8
    mean2d = np.array([6.5, 6.5]) + rng.uniform(-1.5, 1.5, size=(M, 2))
    mean2d[[0, 2]] = 6.5
    cov = np.stack([rng.uniform(10.0, 18.0, size=M), rng.uniform(-2.0, 2.0, size=M),
                    rng.uniform(10.0, 18.0, size=M)], axis=1)
    opacity = np.array([1.0, 0.98, 1.0, 0.98, 0.97, 0.97, 0.95, 0.95])
    color = rng.uniform(0, 1, size=(M, 3))
    bbox = np.tile([0, W - 1, 0, H - 1], (M, 1))
    bg = np.array([0.2, 0.3, 0.4])
    grad_image = rng.normal(size=(H, W, 3))

    def splats_of():
        a, b, c = cov[:, 0], cov[:, 1], cov[:, 2]
        det = a * c - b * b
        return SimpleNamespace(mean2d=mean2d, cov=cov, opacity=opacity, color=color,
                               bbox=bbox, conic=np.stack([c / det, -b / det, a / det], axis=1))

    def forward():
        return raster._composite_forward(splats_of(), cam, bg, True)

    def reference_stop():
        return reference_composite_forward(splats_of(), H, W, bg, True)[2]

    splats = splats_of()
    _, trans, plan = forward()
    stop = reference_stop()
    walk_trans, walk_stop = per_pixel_transmittance(splats, H, W)
    np.testing.assert_array_equal(stop, walk_stop)
    np.testing.assert_allclose(trans, walk_trans, rtol=1e-12, atol=0)
    assert (stop < M).sum() >= 20 and (stop == M).sum() >= 20
    assert stop[6, 6] > 2  # both capped terms were composited

    grads = raster._composite_backward(splats, cam, bg, True, trans, plan, grad_image)
    h = 1e-5
    for arr, grad in zip((mean2d, cov, opacity, color), grads):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            img_p, stop_p = forward()[0], reference_stop()
            flat[i] = orig - h
            img_m, stop_m = forward()[0], reference_stop()
            flat[i] = orig
            # the perturbation moves no pixel across the stop threshold
            assert stop_p.tobytes() == stop_m.tobytes() == stop.tobytes()
            fd = np.vdot(grad_image, img_p - img_m) / (2 * h)
            assert abs(fd - gflat[i]) <= 1e-6 * max(abs(fd), 1e-2), (arr.shape, i, fd, gflat[i])


# ---------------------------------------------------------------------------
# render_backward

def test_backward_zero_grad_image(rng):
    scaffold, weights, global_g = micro_scene(rng)
    cam = identity_camera()
    graph = raster.render(scaffold, cam, 0, weights, global_g)
    grads = raster.render_backward(graph, np.zeros((16, 16, 3)))
    for arr in (grads.f_base, grads.f_var, grads.offsets, grads.offset_scale,
                grads.shape_scale, grads.g, grads.splat_mean2d):
        assert not arr.any()
    for head in (grads.opacity_mlp, grads.color_mlp, grads.covariance_mlp):
        assert not any(a.any() for a in head.arrays())


def test_backward_single_splat_color_gradient():
    """For a lone splat, dC/dcolor at each pixel is ahat(u); summed over the
    image against the incoming gradient."""
    cam = identity_camera(width=8, height=8, fx=10.0, fy=10.0, z_offset=2.0)
    g = geom.Gaussian3D(mean=np.zeros(3), rotation=np.array([1.0, 0, 0, 0]),
                        scale=np.array([0.2, 0.2, 0.2]), opacity=0.8,
                        color=np.array([0.5, 0.5, 0.5]))
    splats = raster._project_and_cull(
        cam, g.mean[None], np.array([[1.0, 0, 0, 0]]), g.scale[None],
        np.array([g.opacity]), g.color[None],
        np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), True)
    image, trans, plan = raster._composite_forward(splats, cam, np.zeros(3), True)
    grad_image = np.zeros((8, 8, 3))
    grad_image[:, :, 0] = 1.0
    _, _, _, g_color = raster._composite_backward(
        splats, cam, np.zeros(3), True, trans, plan, grad_image)
    # sum of ahat over pixels where it was composited
    xs, ys = np.arange(8) + 0.5, np.arange(8) + 0.5
    A, B, C = splats.conic[0]
    dx = xs[None, :] - splats.mean2d[0, 0]
    dy = ys[:, None] - splats.mean2d[0, 1]
    ahat = np.minimum(splats.opacity[0]
                      * np.exp(-0.5 * (A * dx ** 2 + C * dy ** 2) - B * dx * dy), 0.99)
    x0, x1, y0, y1 = splats.bbox[0]
    mask = np.zeros((8, 8), dtype=bool)
    mask[y0:y1 + 1, x0:x1 + 1] = True
    expected = np.sum(np.where(mask & (ahat >= raster.ALPHA_SKIP), ahat, 0.0))
    assert abs(g_color[0, 0] - expected) < 1e-12
    assert g_color[0, 1] == 0.0


def test_backward_missing_state():
    graph = SimpleNamespace(batch=None, visible=np.array([0]))
    with pytest.raises(MissingForwardState):
        raster.render_backward(graph, np.zeros((4, 4, 3)))


def test_activation_gate_flip_removes_contribution(rng):
    """Flipping one slot's raw opacity from +eps to -eps removes exactly that
    slot's pixels and gradients, with no residue anywhere else."""
    cam = identity_camera(width=12, height=12, fx=14.0, fy=14.0, z_offset=2.0)
    eps = 1e-3
    means = np.array([[0.0, 0.0, 0.0], [0.25, 0.1, 0.1], [-0.2, -0.15, -0.1]])
    raws_pos = np.array([0.6, eps, 0.4])
    raws_neg = np.array([0.6, -eps, 0.4])
    colors = rng.uniform(0.2, 0.9, size=(3, 3))

    def run(raws):
        cluster = make_cluster(raws, means, colors=colors, scales=0.12)
        act = np.nonzero(cluster.active)[0]
        splats = raster._project_and_cull(
            cam, cluster.means[act], cluster.rotations[act], cluster.scales[act],
            cluster.raw_opacity[act], cluster.colors[act],
            act.astype(np.int64), np.zeros(act.size, dtype=np.int64), True)
        image, trans, plan = raster._composite_forward(splats, cam, np.zeros(3), True)
        gi = np.ones((12, 12, 3))
        back = raster._composite_backward(splats, cam, np.zeros(3), True, trans, plan, gi)
        return splats, image, back

    splats_pos, img_pos, back_pos = run(raws_pos)
    splats_neg, img_neg, back_neg = run(raws_neg)
    # the +eps slot contributes alpha <= eps * 1 < 1/255 -> skipped everywhere,
    # so both images and the shared slots' gradients agree bitwise
    assert img_pos.tobytes() == img_neg.tobytes()
    keep_pos = splats_pos.rows != 1
    for a, b in zip(back_pos, back_neg):
        assert a[keep_pos].tobytes() == b.tobytes()


def test_full_render_backward_finite_difference(rng):
    """Central differences through the whole render, with the thresholds off
    in every render: a perturbation of h can move a pixel's alpha across the
    skip threshold and the image by about 1/255. The guards keep every slot
    away from the activation gate and every splat away from the cap."""
    scaffold, weights, global_g = micro_scene(rng)
    cam = identity_camera()
    target = rng.uniform(0, 1, size=(16, 16, 3))
    bg = np.array([0.1, 0.15, 0.2])

    def loss():
        g = raster.render(scaffold, cam, 0, weights, global_g, background=bg,
                          use_thresholds=False)
        return l1_loss(g.image, target)[0]

    graph = raster.render(scaffold, cam, 0, weights, global_g, background=bg,
                          use_thresholds=False)
    assert np.abs(graph.batch.raw_opacity).min() > 1e-4
    assert graph.splats.opacity.max() < raster.ALPHA_CAP - 1e-4
    _, grad_img = l1_loss(graph.image, target)
    grads = raster.render_backward(graph, grad_img)

    h = 1e-5
    pairs = [(scaffold.offsets, grads.offsets), (scaffold.f_base, grads.f_base),
             (global_g, grads.g), (weights.covariance.W2, grads.covariance_mlp.W2),
             (scaffold.shape_scale, grads.shape_scale)]
    for arr, grad in pairs:
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in rng.choice(flat.size, size=min(10, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(fd - gflat[i])
            assert err <= 1e-3 * max(abs(fd), 1e-5), (fd, gflat[i])
