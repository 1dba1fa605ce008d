from types import SimpleNamespace

import numpy as np
import pytest

from periodsplat import scaffold as sc
from periodsplat.errors import EmptyPointCloud

from conftest import identity_camera
from oracles import frustum_test


def make_scaffold(points_lists, voxel=0.5, d_b=4, d_v=4, K=3):
    return sc.init_scaffold(points_lists, voxel, d_b=d_b, d_v=d_v, K=K)


def voxel_centers(points, voxel):
    box_min, cells = sc.voxelize(points, voxel)
    return sc.cell_centers(cells, voxel, box_min)


def test_voxelize_single_point():
    centers = voxel_centers(np.array([[0.2, 0.3, 0.4]]), 1.0)
    assert centers.shape == (1, 3)
    cell = np.floor((np.array([0.2, 0.3, 0.4]) - centers[0] + 0.5))
    np.testing.assert_array_equal(cell, 0)


def test_voxelize_dedup():
    pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    assert voxel_centers(pts, 1.0).shape == (1, 3)


def test_voxelize_empty_raises():
    with pytest.raises(EmptyPointCloud):
        sc.voxelize(np.zeros((0, 3)), 1.0)


def test_voxelize_uniform_brute_force(rng):
    pts = rng.uniform(0, 1, size=(1000, 3))
    extent = pts.max(axis=0) - pts.min(axis=0)
    voxel = float(extent.max()) / 4
    centers = voxel_centers(pts, voxel)
    assert centers.shape[0] <= 64
    # brute-force membership with the same clamped binning
    box_min, box_max = pts.min(axis=0), pts.max(axis=0)
    center_cells = {tuple(c) for c in sc.voxel_cells(centers, voxel, box_min, box_max)}
    point_cells = {tuple(c) for c in sc.voxel_cells(pts, voxel, box_min, box_max)}
    assert center_cells == point_cells  # every center's cell holds >= 1 input point


def test_voxelize_deterministic_order(rng):
    pts = rng.uniform(-2, 2, size=(200, 3))
    c1 = voxel_centers(pts, 0.5)
    c2 = voxel_centers(pts[::-1].copy(), 0.5)
    np.testing.assert_array_equal(c1, c2)


def test_init_union_idempotent(rng):
    pts = rng.uniform(0, 2, size=(50, 3))
    one = make_scaffold([pts])
    two = make_scaffold([pts, pts.copy()])
    assert len(one) == len(two)
    np.testing.assert_array_equal(one.positions, two.positions)


def test_init_disjoint_clouds_sum():
    a = np.array([[0.1, 0.1, 0.1]])
    b = np.array([[5.1, 5.1, 5.1]])
    s = make_scaffold([a, b], voxel=1.0)
    assert len(s) == 2


def test_init_union_oracle(rng):
    a = rng.uniform(0, 3, size=(80, 3))
    b = rng.uniform(1, 4, size=(80, 3))
    s = make_scaffold([a, b], voxel=0.7)
    union = np.concatenate([a, b])
    box_min = union.min(axis=0)
    expected = {tuple(c) for c in np.floor((union - box_min) / 0.7).astype(int)}
    assert len(s) == len(expected)
    got = {tuple(c) for c in np.floor((s.positions - box_min) / 0.7).astype(int)}
    assert got == expected


def test_init_zero_features_and_scale_init(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(20, 3))], voxel=0.3)
    assert not s.f_base.any() and not s.f_var.any() and not s.offsets.any()
    np.testing.assert_array_equal(s.offset_scale, 0.3)
    np.testing.assert_array_equal(s.shape_scale, 0.3)


def test_init_all_empty_raises():
    with pytest.raises(EmptyPointCloud):
        make_scaffold([np.zeros((0, 3)), np.zeros((0, 3))])


def test_visible_anchors_basics():
    cam = identity_camera(z_offset=2.0)
    s = make_scaffold([np.array([[0.0, 0.0, 0.1], [0.0, 0.0, -8.0]])], voxel=0.4)
    vis = sc.visible_anchors(s, cam)
    in_front = [i for i in range(len(s)) if s.positions[i][2] > -1.0]
    assert list(vis) == in_front


def test_visible_anchors_matches_brute_force(rng):
    cam = identity_camera(width=32, height=24, fx=30.0, fy=28.0, z_offset=3.0)
    s = make_scaffold([rng.normal(size=(120, 3)) * 2.0], voxel=0.3)
    vis = set(sc.visible_anchors(s, cam).tolist())
    brute = {i for i in range(len(s)) if frustum_test(cam, s.positions[i])}
    assert vis == brute


class FakeGraph:
    """The render graph fields accumulate_stats reads: splats of the given
    (anchor, slot) cells, the ascending visible anchors, and their decoded
    raw opacities (V, K)."""

    def __init__(self, anchors, slots, visible, raw_opacity):
        self.visible = np.asarray(visible, dtype=np.int64)
        rows = np.searchsorted(self.visible, anchors)
        assert np.array_equal(self.visible[rows], anchors)
        self.splats = SimpleNamespace(rows=rows, slots=np.asarray(slots, dtype=np.int64))
        self.batch = SimpleNamespace(raw_opacity=np.asarray(raw_opacity, dtype=np.float64))


class FakeGrads:
    def __init__(self, mean2d, f_base):
        self.splat_mean2d = np.asarray(mean2d, dtype=np.float64)
        self.f_base = np.asarray(f_base, dtype=np.float64)


def test_accumulate_stats_zero_grads(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(10, 3))], voxel=0.2, K=3)
    n = len(s)
    graph = FakeGraph([0, 1], [0, 2], [0, 1, 2], [[0.5, 0.1], [-0.2, -0.4], [0.3, 0.0]])
    grads = FakeGrads(np.zeros((2, 2)), np.zeros((n, 4)))
    sc.accumulate_stats(s, graph, grads)
    assert not s.stats.grad_norm_sum.any()
    assert s.stats.visible_count[0, 0] == 1 and s.stats.visible_count[1, 2] == 1
    assert s.stats.sample_count[:3].tolist() == [1, 1, 1]
    np.testing.assert_allclose(s.stats.opacity_sum[:3], [0.5, 0.0, 0.3])


def test_accumulate_stats_three_four_five(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(10, 3))], voxel=0.2, K=3)
    graph = FakeGraph([2], [1], [2], [[0.9]])
    grads = FakeGrads(np.array([[3.0, 4.0]]), np.zeros((len(s), 4)))
    sc.accumulate_stats(s, graph, grads)
    assert s.stats.grad_norm_sum[2, 1] == 5.0


def test_accumulate_stats_additive(rng):
    s1 = make_scaffold([rng.uniform(0, 1, size=(12, 3))], voxel=0.2, K=2)
    s2 = make_scaffold([s1.positions.copy()], voxel=0.2, K=2)
    n = len(s1)
    views = []
    for _ in range(4):
        m = int(rng.integers(1, 6))
        graph = FakeGraph(rng.integers(0, n, size=m), rng.integers(0, 2, size=m),
                          np.arange(n), rng.uniform(-1, 1, size=(n, 2)))
        grads = FakeGrads(rng.normal(size=(m, 2)), rng.normal(size=(n, 4)))
        views.append((graph, grads))
    for graph, grads in views:
        sc.accumulate_stats(s1, graph, grads)
    # accumulate in two halves on the clone
    for graph, grads in views[:2]:
        sc.accumulate_stats(s2, graph, grads)
    for graph, grads in views[2:]:
        sc.accumulate_stats(s2, graph, grads)
    np.testing.assert_allclose(s1.stats.grad_norm_sum, s2.stats.grad_norm_sum, atol=1e-12)
    np.testing.assert_array_equal(s1.stats.visible_count, s2.stats.visible_count)
    np.testing.assert_allclose(s1.stats.opacity_sum, s2.stats.opacity_sum, atol=1e-12)


def test_grow_below_threshold_no_op(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(10, 3))], voxel=0.2)
    s.stats.grad_norm_sum[:] = 1e-6
    s.stats.visible_count[:] = 100
    assert sc.grow_anchors(s, tau_g=2e-4, min_visibility=10) == 0


def test_grow_single_hot_slot(rng):
    s = make_scaffold([np.array([[0.05, 0.05, 0.05]])], voxel=0.1, d_b=4, d_v=4, K=2)
    # aim slot 0's decoded position into an empty cell a few voxels away
    s.offsets[0, 0] = np.array([5.0, 0.0, 0.0])  # offset_scale is 0.1 -> +0.5 world
    s.stats.grad_norm_sum[0, 0] = 1.0
    s.stats.visible_count[0, 0] = 50
    before = len(s)
    added = sc.grow_anchors(s, tau_g=2e-4, min_visibility=10)
    assert added == 1 and len(s) == before + 1
    decoded = np.array([0.05 + 0.5, 0.05, 0.05])
    cell = np.floor((decoded - s.box_min) / s.voxel_size)
    expected_center = (cell + 0.5) * s.voxel_size + s.box_min
    np.testing.assert_allclose(s.positions[-1], expected_center, atol=1e-12)
    assert not s.f_base[-1].any() and not s.offsets[-1].any()
    # the triggering slot's stats were reset
    assert s.stats.grad_norm_sum[0, 0] == 0 and s.stats.visible_count[0, 0] == 0


def test_grow_occupied_cell_no_op(rng):
    s = make_scaffold([np.array([[0.05, 0.05, 0.05]])], voxel=0.1, K=2)
    s.offsets[0, 0] = np.zeros(3)  # decoded position falls in the anchor's own cell
    s.stats.grad_norm_sum[0, 0] = 1.0
    s.stats.visible_count[0, 0] = 50
    assert sc.grow_anchors(s, tau_g=2e-4, min_visibility=10) == 0


def test_grow_never_mutates_existing(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(15, 3))], voxel=0.2, K=2)
    n = len(s)
    s.offsets[:] = rng.normal(size=s.offsets.shape) * 4
    positions = s.positions.copy()
    offsets = s.offsets.copy()
    s.stats.grad_norm_sum[:] = 1.0
    s.stats.visible_count[:] = 100
    sc.grow_anchors(s, tau_g=2e-4, min_visibility=10)
    np.testing.assert_array_equal(s.positions[:n], positions)
    np.testing.assert_array_equal(s.offsets[:n], offsets)


def test_prune_above_threshold_no_removal(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(8, 3))], voxel=0.2)
    s.stats.opacity_sum[:] = 10.0
    s.stats.sample_count[:] = 20
    assert sc.apply_keep_mask(s, sc.prune_keep_mask(s, min_opacity=0.005, min_samples=10)) == 0


def test_prune_insufficient_evidence_retained(rng):
    s = make_scaffold([rng.uniform(0, 1, size=(8, 3))], voxel=0.2)
    s.stats.opacity_sum[:] = 0.0
    s.stats.sample_count[:] = 3  # below min_samples
    assert sc.apply_keep_mask(s, sc.prune_keep_mask(s, min_opacity=0.005, min_samples=10)) == 0


def test_prune_removes_transparent_anchor(rng):
    s = make_scaffold([rng.uniform(0, 2, size=(30, 3))], voxel=0.3)
    n = len(s)
    s.stats.sample_count[:] = 40
    s.stats.opacity_sum[:] = 40 * 0.5
    s.stats.opacity_sum[4] = 40 * 0.001  # mean opacity 0.001 < 0.005
    removed = sc.apply_keep_mask(s, sc.prune_keep_mask(s, min_opacity=0.005, min_samples=20))
    assert removed == 1 and len(s) == n - 1
    # stats reset after the event
    assert not s.stats.sample_count.any()


def test_voxel_uniqueness_after_grow_prune(rng):
    s = make_scaffold([rng.uniform(0, 1.5, size=(40, 3))], voxel=0.25, K=3)
    for round_ in range(3):
        s.offsets[:] = rng.normal(size=s.offsets.shape) * 3
        s.stats.grad_norm_sum[:] = rng.uniform(0, 1e-3, size=s.stats.grad_norm_sum.shape)
        s.stats.visible_count[:] = 60
        s.stats.sample_count[:] = 60
        s.stats.opacity_sum[:] = rng.uniform(0, 60 * 0.02, size=len(s))
        sc.grow_anchors(s, tau_g=2e-4, min_visibility=10)
        sc.apply_keep_mask(s, sc.prune_keep_mask(s, min_opacity=0.005, min_samples=20))
        cells = list(map(tuple, sc.voxel_cells(s.positions, s.voxel_size, s.box_min).tolist()))
        assert len(set(cells)) == len(cells)


def test_grow_prune_deterministic(rng):
    def build(seed):
        r = np.random.default_rng(seed)
        s = make_scaffold([r.uniform(0, 1.5, size=(40, 3))], voxel=0.25, K=3)
        s.offsets[:] = r.normal(size=s.offsets.shape) * 3
        s.stats.grad_norm_sum[:] = r.uniform(0, 1e-3, size=s.stats.grad_norm_sum.shape)
        s.stats.visible_count[:] = 60
        s.stats.sample_count[:] = 60
        s.stats.opacity_sum[:] = r.uniform(0, 60 * 0.02, size=len(s))
        sc.grow_anchors(s, tau_g=2e-4, min_visibility=10)
        sc.apply_keep_mask(s, sc.prune_keep_mask(s, min_opacity=0.005, min_samples=20))
        return s
    a, b = build(99), build(99)
    np.testing.assert_array_equal(a.positions, b.positions)
