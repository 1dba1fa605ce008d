"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured values.

The end-to-end criteria (5, 6, 7, 10) share one generated two-period scene
(scenes/two_period_demo.json: a static blob field where one primitive exists
only in period 1, several change color between periods, and a global tint
shift separates the periods) and one trained full model. Training budgets
and thresholds were calibrated once against this frozen scene/seed and are
asserted exactly as stated here; see the test docstrings for the recorded
calibration values.
"""

import sys
import time

import numpy as np
import pytest

from periodsplat import geom, raster, temporal
from periodsplat.dataio import generate_synthetic, spec_from_json
from periodsplat.optim import hybrid_loss, l1_loss, psnr, ssim
from periodsplat.trainer import (TrainConfig, _densify_due, _next_camera, densify,
                                 evaluate, init_state, load_checkpoint,
                                 render_from_state, save_checkpoint, train,
                                 training_step)

from conftest import identity_camera, micro_scene
from oracles import naive_composite_image, pinhole_oracle, psnr_oracle, ssim_oracle

SCENE_SPEC_PATH = "scenes/two_period_demo.json"
E2E_ITERS = 800  # calibrated; well within the criterion's 5000 budget


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} ({detail})", file=sys.stderr)
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end artifacts

@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """Generate the two-period scene and train the full model once."""
    spec = spec_from_json(SCENE_SPEC_PATH)
    dataset = generate_synthetic(spec, tmp_path_factory.mktemp("scene") / "data")
    cfg = TrainConfig.desk_preset(seed=1, log_interval=0)
    t0 = time.time()
    state = init_state(cfg, dataset)
    for it in range(E2E_ITERS):
        cam = _next_camera(state, dataset)
        training_step(state, cam, dataset.images[cam.id])
        if _densify_due(cfg, it):
            densify(state)
    wall = time.time() - t0
    return spec, dataset, state, wall


def train_ablated(dataset, **flags):
    cfg = TrainConfig.desk_preset(seed=1, log_interval=0, **flags)
    state = init_state(cfg, dataset)
    for it in range(E2E_ITERS):
        cam = _next_camera(state, dataset)
        training_step(state, cam, dataset.images[cam.id])
        if _densify_due(cfg, it):
            densify(state)
    return state


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness on the micro-scene

def test_criterion_1_gradient_correctness(rng):
    """Every learnable scalar's analytic hybrid-loss gradient matches central
    finite differences (h=1e-5) with rel err < 1e-3 (abs < 1e-8 near zero) on
    a 3-anchor, K=4, 8x8, T=2 micro-scene, away from activation/cap/skip
    boundaries. The 8x8 image forces the lam=1 hybrid instance (the SSIM
    window needs 11px); a 16x16 lam=0.8 spot-check runs alongside."""
    t0 = time.time()
    scaffold, weights, global_g = micro_scene(rng)
    cam = identity_camera(width=8, height=8, fx=9.0, fy=9.0)
    target = rng.uniform(0, 1, size=(8, 8, 3))
    bg = np.array([0.1, 0.15, 0.2])

    graph = raster.render(scaffold, cam, 0, weights, global_g, background=bg)
    # margin guards: no slot within 1e-4 of the activation, cap, or skip gates
    assert np.abs(graph.batch.raw_opacity).min() > 1e-4
    assert graph.splats.opacity.max() < raster.ALPHA_CAP - 1e-4
    assert graph.final_trans.min() > raster.STOP_TRANSMITTANCE + 1e-4

    def loss_at(t=0.0):
        g = raster.render(scaffold, cam, t, weights, global_g, background=bg)
        return hybrid_loss(g.image, target, 1.0)[0].total

    rep, grad_img = hybrid_loss(graph.image, target, 1.0)
    grads = raster.render_backward(graph, grad_img)

    params = [
        (scaffold.f_base, grads.f_base), (scaffold.f_var, grads.f_var),
        (scaffold.offsets, grads.offsets), (scaffold.offset_scale, grads.offset_scale),
        (scaffold.shape_scale, grads.shape_scale), (global_g, grads.g),
    ]
    for head_w, head_g in (("opacity", "opacity_mlp"), ("color", "color_mlp"),
                           ("covariance", "covariance_mlp")):
        for a, g in zip(getattr(weights, head_w).arrays(), getattr(grads, head_g).arrays()):
            params.append((a, g))

    h = 1e-5
    checked = 0
    worst = 0.0
    for arr, grad in params:
        flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_at()
            flat[i] = orig - h
            fm = loss_at()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(fd - gflat[i])
            ok = err < 1e-8 or err / max(abs(fd), 1e-30) < 1e-3
            worst = max(worst, min(err, err / max(abs(fd), 1e-30)))
            assert ok, f"scalar {i}: fd={fd} analytic={gflat[i]}"
            checked += 1
    runtime = time.time() - t0

    # full-hybrid (lam=0.8) spot check at 16x16 covering the SSIM path
    scaffold2, weights2, global2 = micro_scene(np.random.default_rng(5))
    cam2 = identity_camera(width=16, height=16, fx=18.0, fy=18.0)
    target2 = np.random.default_rng(6).uniform(0, 1, size=(16, 16, 3))
    graph2 = raster.render(scaffold2, cam2, 1, weights2, global2, background=bg)
    rep2, gimg2 = hybrid_loss(graph2.image, target2, 0.8)
    grads2 = raster.render_backward(graph2, gimg2)

    def loss2():
        g = raster.render(scaffold2, cam2, 1, weights2, global2, background=bg)
        return hybrid_loss(g.image, target2, 0.8)[0].total

    rng2 = np.random.default_rng(7)
    for arr, grad in ((scaffold2.offsets, grads2.offsets), (global2, grads2.g),
                      (weights2.covariance.W2, grads2.covariance_mlp.W2),
                      (weights2.color.W1, grads2.color_mlp.W1)):
        flat, gflat = arr.reshape(-1), np.asarray(grad).reshape(-1)
        for i in rng2.choice(flat.size, size=8, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss2()
            flat[i] = orig - h
            fm = loss2()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            err = abs(fd - gflat[i])
            assert err < 1e-8 or err / max(abs(fd), 1e-30) < 1e-3

    report(1, runtime < 120.0,
           f"{checked} scalars, worst min(rel,abs) err {worst:.2e}, {runtime:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 2: compositing oracle

def test_criterion_2_compositing_oracle():
    """100 randomized splat sets (<=50 splats, 16x16): engine output within
    5e-3 of the no-culling, no-early-stop per-pixel sum, and within 1e-5
    with the skip thresholds disabled."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    cam = identity_camera(width=16, height=16, fx=20.0, fy=20.0, z_offset=2.0)
    bg = np.array([0.05, 0.1, 0.2])
    worst_on = worst_off = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 51))
        gaussians = [geom.Gaussian3D(
            mean=rng.normal(size=3) * [0.5, 0.5, 0.4],
            rotation=geom.quat_normalize(rng.normal(size=4)),
            scale=rng.uniform(0.02, 0.35, size=3),
            opacity=rng.uniform(0.02, 1.0),
            color=rng.uniform(0, 1, size=3)) for _ in range(m)]
        means = np.stack([g.mean for g in gaussians])
        quats = np.stack([geom.quat_normalize(g.rotation) for g in gaussians])
        scales = np.stack([g.scale for g in gaussians])
        proj = geom.project_splats(cam, means, quats, scales)
        front = proj.view[:, 2] > geom.NEAR_PLANE
        opac = np.array([g.opacity for g in gaussians])
        colors = np.stack([g.color for g in gaussians])
        idx = np.nonzero(front)[0]
        order = idx[np.lexsort((idx, proj.depth[front]))]
        on = raster.render_gaussians(gaussians, cam, bg, use_thresholds=True)
        ref_on = naive_composite_image(proj.mean2d, proj.cov, opac, colors, order,
                                       16, 16, bg, True, use_stop=False)
        off = raster.render_gaussians(gaussians, cam, bg, use_thresholds=False)
        ref_off = naive_composite_image(proj.mean2d, proj.cov, opac, colors, order,
                                        16, 16, bg, False)
        worst_on = max(worst_on, float(np.abs(on - ref_on).max()))
        worst_off = max(worst_off, float(np.abs(off - ref_off).max()))
    runtime = time.time() - t0
    report(2, worst_on < 5e-3 and worst_off < 1e-5 and runtime < 60.0,
           f"thresholds-on err {worst_on:.2e} < 5e-3, off err {worst_off:.2e} < 1e-5, "
           f"{runtime:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 3: temporal encoding exactness

def test_criterion_3_temporal_encoding():
    rng = np.random.default_rng(303)
    for T in (1, 2, 3, 5, 8):
        for t in range(T):
            w = temporal.encode_time(t, T)
            assert np.count_nonzero(w) == 1 and w[t] == 1.0
    worst_sum = 0.0
    for _ in range(1000):
        T = int(rng.integers(2, 9))
        t = rng.uniform(0, T - 1)
        w = temporal.encode_time(t, T)
        worst_sum = max(worst_sum, abs(w.sum() - 1.0))
        nz = np.nonzero(w)[0]
        assert nz.size <= 2 and (nz.size < 2 or nz[1] == nz[0] + 1)
        assert nz[0] == int(np.floor(t)) or w[int(np.floor(t))] == 0
    report(3, worst_sum <= 1e-12,
           f"one-hot at integers, 1000 fractional sums off by <= {worst_sum:.1e}")


# ---------------------------------------------------------------------------
# criterion 4: geometry activation gate

def test_criterion_4_geometry_activation(rng):
    """A slot at raw opacity -0.2 yields bitwise-identical images and
    gradients to the same scene with the slot deleted."""
    cam = identity_camera(width=12, height=12, fx=14.0, fy=14.0, z_offset=2.0)
    K = 4
    means = np.array([[0.0, 0.0, 0.0], [0.3, 0.1, 0.1],
                      [-0.25, -0.1, -0.08], [0.1, -0.3, 0.05]])
    quats = np.stack([geom.quat_normalize(rng.normal(size=4)) for _ in range(K)])
    scales = rng.uniform(0.08, 0.2, size=(K, 3))
    raws = np.array([0.6, -0.2, 0.45, 0.3])
    colors = rng.uniform(0.2, 0.9, size=(K, 3))
    grad_image = rng.normal(size=(12, 12, 3))

    def run(keep):
        keep = np.asarray(keep)
        splats = raster._project_and_cull(
            cam, means[keep], quats[keep], scales[keep], raws[keep], colors[keep],
            keep.astype(np.int64), np.zeros(keep.size, dtype=np.int64), True)
        image, trans, plan = raster._composite_forward(splats, cam, np.zeros(3), True)
        back = raster._composite_backward(splats, cam, np.zeros(3), True, trans, plan,
                                          grad_image)
        g_means, g_quats, g_scales = geom.project_splats_backward(
            cam, splats, back[0], back[1]) if splats.mean2d.shape[0] else (None,) * 3
        return splats, image, back, (g_means, g_quats, g_scales)

    with_slot = run([0, 1, 2, 3])
    without = run([0, 2, 3])
    assert with_slot[1].tobytes() == without[1].tobytes()
    assert np.array_equal(with_slot[0].rows, without[0].rows)
    for a, b in zip(with_slot[2], without[2]):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(with_slot[3], without[3]):
        assert a.tobytes() == b.tobytes()
    report(4, True, "image and every gradient array bitwise identical")


# ---------------------------------------------------------------------------
# criterion 5: end-to-end convergence

def test_criterion_5_convergence(e2e):
    spec, dataset, state, wall = e2e
    summary = evaluate(state, dataset)
    per = {t: v["psnr"] for t, v in summary["per_period"].items()}
    ok = all(v >= 28.0 for v in per.values()) and E2E_ITERS <= 5000 and wall <= 1800
    report(5, ok,
           f"per-period PSNR {({k: round(v, 2) for k, v in per.items()})} >= 28 dB "
           f"after {E2E_ITERS} iters (<= 5000), wall {wall / 60:.1f} min <= 30 min")


# ---------------------------------------------------------------------------
# criterion 6: disentanglement

def _primitive_region(cam, prim, radius_sigmas):
    view = cam.rotation_matrix() @ prim.mean + cam.translation
    pix, depth = pinhole_oracle(cam.fx, cam.fy, cam.cx, cam.cy, view)
    r = radius_sigmas * cam.fx * float(np.max(prim.scale)) / depth
    return pix, r


def test_criterion_6_disentanglement(e2e):
    """At the same test view, the period-1-only primitive's region changes
    strongly between t=0 and t=1 while a dark static blob's region stays
    nearly constant (the global tint shift contributes only a small residue
    on dark content)."""
    spec, dataset, state, _ = e2e
    new_prim = next(p for p in spec.primitives if p.lifespan == {1})
    # darkest always-present primitive without per-period recoloring
    ctrl_prim = min(
        (p for p in spec.primitives
         if p.lifespan == {0, 1} and not p.period_colors),
        key=lambda p: float(np.sum(p.color)))

    best = None
    for cam in dataset.test_cameras():
        (p1, r1) = _primitive_region(cam, new_prim, 1.0)
        (p2, r2) = _primitive_region(cam, ctrl_prim, 0.8)
        sep = np.linalg.norm(p1 - p2) - (r1 + r2)
        inside = all(r <= p[0] <= cam.width - r and r <= p[1] <= cam.height - r
                     for p, r in ((p1, r1), (p2, r2)))
        if inside and (best is None or sep > best[0]):
            best = (sep, cam)
    assert best is not None and best[0] > 0, "no view separates the regions"
    cam = best[1]

    img0 = render_from_state(state, cam, 0.0).image
    img1 = render_from_state(state, cam, 1.0).image

    def region_diff(pix, r):
        x0, x1 = int(max(0, pix[0] - r)), int(min(cam.width, pix[0] + r + 1))
        y0, y1 = int(max(0, pix[1] - r)), int(min(cam.height, pix[1] + r + 1))
        return float(np.abs(img1[y0:y1, x0:x1] - img0[y0:y1, x0:x1]).mean())

    new_diff = region_diff(*_primitive_region(cam, new_prim, 1.0))
    ctrl_diff = region_diff(*_primitive_region(cam, ctrl_prim, 0.8))
    report(6, new_diff > 0.1 and ctrl_diff < 0.02,
           f"changing region {new_diff:.3f} > 0.1, static control {ctrl_diff:.4f} < 0.02 "
           f"(camera {cam.id})")


# ---------------------------------------------------------------------------
# criterion 7: ablation ordering

def test_criterion_7_ablation_ordering(e2e):
    """Full model beats every feature-ablated variant by >= 0.3 dB at the
    shared training budget. Calibrated margins on the frozen scene/seed:
    +2.5 dB (base), +3.4 dB (var), +1.2 dB (global), +5.4 dB (var&global)."""
    spec, dataset, state, _ = e2e
    full = evaluate(state, dataset)["psnr_mean"]
    margins = {}
    for name, flags in (
        ("w/o base", {"disable_base": True}),
        ("w/o var", {"disable_var": True}),
        ("w/o global", {"disable_global": True}),
        ("w/o var&global", {"disable_var": True, "disable_global": True}),
    ):
        ablated = train_ablated(dataset, **flags)
        margins[name] = full - evaluate(ablated, dataset)["psnr_mean"]
    ok = all(m >= 0.3 for m in margins.values())
    report(7, ok, "full leads by " + ", ".join(
        f"{k}: {v:+.2f} dB" for k, v in margins.items()) + " (all >= 0.3)")


# ---------------------------------------------------------------------------
# criterion 8: metric oracles

def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(808)
    worst_ssim = worst_psnr = 0.0
    for _ in range(50):
        a = rng.uniform(0, 1, size=(13, 13, 3))
        b = rng.uniform(0, 1, size=(13, 13, 3))
        worst_ssim = max(worst_ssim, abs(ssim(a, b)[0] - ssim_oracle(a, b)))
        worst_psnr = max(worst_psnr, abs(psnr(a, b) - psnr_oracle(a, b)))
    ident = rng.uniform(0, 1, size=(12, 12, 3))
    exact_one = ssim(ident, ident)[0] == 1.0
    report(8, worst_ssim < 1e-6 and worst_psnr < 1e-9 and exact_one,
           f"ssim err {worst_ssim:.1e} < 1e-6, psnr err {worst_psnr:.1e} < 1e-9, "
           f"SSIM(a,a)=1 exactly: {exact_one}")


# ---------------------------------------------------------------------------
# criterion 9: determinism and persistence

def test_criterion_9_determinism_persistence(tmp_path):
    from periodsplat import dataio
    from test_dataio import single_blob_spec

    dataset = generate_synthetic(single_blob_spec(T=2), tmp_path / "data")
    cfg = TrainConfig.desk_preset(
        total_iters=60, stats_start=5,
        densify_start=15, densify_end=40, densify_interval=10,
        voxel_fraction=0.06, seed=9, log_interval=0)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(train(cfg, dataset), p1)
    save_checkpoint(train(cfg, dataset), p2)
    runs_identical = p1.read_bytes() == p2.read_bytes()

    loaded = load_checkpoint(p1)
    p3 = tmp_path / "resave.ckpt"
    save_checkpoint(loaded, p3)
    round_trip = p1.read_bytes() == p3.read_bytes()

    rng = np.random.default_rng(909)
    cameras = [geom.Camera(
        id=i + 1, width=32, height=24, fx=rng.uniform(30, 60), fy=rng.uniform(30, 60),
        cx=16.0, cy=12.0, rotation=geom.quat_normalize(rng.normal(size=4)),
        translation=rng.normal(size=3), period=0, image_name=f"c{i}.ppm")
        for i in range(4)]
    points = rng.normal(size=(12, 3))
    dataio.write_colmap(tmp_path / "colmap", cameras, points)
    back_cams, back_points = dataio.parse_colmap(tmp_path / "colmap")
    colmap_err = float(np.abs(back_points - points).max())
    for orig, back in zip(cameras, back_cams):
        colmap_err = max(colmap_err, float(np.abs(back.rotation - orig.rotation).max()),
                         float(np.abs(back.translation - orig.translation).max()),
                         abs(back.fx - orig.fx), abs(back.fy - orig.fy))
    report(9, runs_identical and round_trip and colmap_err < 1e-9,
           f"two runs bitwise identical: {runs_identical}, save/load/save byte-exact: "
           f"{round_trip}, COLMAP round-trip err {colmap_err:.1e} < 1e-9")


# ---------------------------------------------------------------------------
# criterion 10: interpolation continuity

def test_criterion_10_interpolation_continuity(e2e):
    spec, dataset, state, _ = e2e
    cam = dataset.test_cameras()[0]
    times = np.linspace(0.0, state.T - 1, 21)
    frames = [render_from_state(state, cam, float(t)).image for t in times]
    diffs = np.array([np.abs(frames[i + 1] - frames[i]).max() for i in range(20)])
    finite = bool(np.isfinite(diffs).all())
    median = float(np.median(diffs))
    ratio = float(diffs.max() / median) if median > 0 else np.inf
    slope_bound = float(diffs.max() / (1.0 / 20))  # the measured C
    report(10, finite and ratio <= 10.0,
           f"C = {slope_bound:.2f} finite, max/median inter-frame ratio {ratio:.2f} <= 10")
