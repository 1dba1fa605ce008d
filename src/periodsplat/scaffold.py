"""The unified anchor scaffold.

Anchors are fixed 3D points on a voxel grid built from the union of all
periods' sparse points. Each anchor carries learnable features (a base
vector plus per-period rows), K learnable center offsets, and two learnable
per-axis scales. Training statistics drive mid-training growth (new anchors
at high-gradient decoded positions) and pruning (persistently transparent
anchors).

Structure-of-arrays layout: row i of every array named in ROW_FIELDS
belongs to anchor i, and that tuple is the one list of them that init,
grow, prune, the optimizer's row state and checkpoints follow. At most one
anchor ever occupies a voxel cell; the grid (box_min, voxel_size) is fixed
at construction so grown anchors land on the same lattice, and the occupied
cells follow from the positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyPointCloud
from .geom import frustum_test_many

# The per-anchor arrays of AnchorScaffold, in checkpoint order.
ROW_FIELDS = ("positions", "f_base", "f_var", "offsets", "offset_scale", "shape_scale")


@dataclass
class AccumStats:
    """Per-slot and per-anchor training statistics between densify events."""

    grad_norm_sum: np.ndarray  # (N, K) accumulated ||dL/dmean2d||
    visible_count: np.ndarray  # (N, K) int
    opacity_sum: np.ndarray  # (N,) accumulated per-anchor max decoded opacity
    sample_count: np.ndarray  # (N,) int

    @staticmethod
    def zeros(n, k):
        return AccumStats(
            grad_norm_sum=np.zeros((n, k), dtype=np.float64),
            visible_count=np.zeros((n, k), dtype=np.int64),
            opacity_sum=np.zeros(n, dtype=np.float64),
            sample_count=np.zeros(n, dtype=np.int64),
        )


class AnchorScaffold:
    def __init__(self, positions, f_base, f_var, offsets, offset_scale, shape_scale,
                 voxel_size, box_min):
        self.positions = positions
        self.f_base = f_base
        self.f_var = f_var
        self.offsets = offsets
        self.offset_scale = offset_scale
        self.shape_scale = shape_scale
        self.voxel_size = float(voxel_size)
        self.box_min = np.asarray(box_min, dtype=np.float64)
        self.stats = AccumStats.zeros(len(positions), offsets.shape[1])

    def __len__(self):
        return self.positions.shape[0]

    @property
    def K(self):
        return self.offsets.shape[1]

    @property
    def T(self):
        return self.f_var.shape[1]

    @property
    def d_b(self):
        return self.f_base.shape[1]

    @property
    def d_v(self):
        return self.f_var.shape[2]

    def decoded_positions(self):
        """World centers of every offset slot: x_i + offset_scale_i * offsets_ik."""
        return self.positions[:, None, :] + self.offset_scale[:, None, :] * self.offsets


def voxel_cells(points, voxel_size, box_min, box_max=None):
    """Grid cell index of each point. When box_max is given, indices are
    clamped so points exactly on the upper box face join the last interior
    cell instead of opening a boundary-only cell."""
    cells = np.floor((points - box_min) / voxel_size).astype(np.int64)
    if box_max is not None:
        top = np.ceil((box_max - box_min) / voxel_size).astype(np.int64) - 1
        cells = np.minimum(cells, np.maximum(top, 0))
    return cells


def cell_centers(cells, voxel_size, box_min):
    """World centers of grid cells."""
    return (cells + 0.5) * voxel_size + box_min


def voxelize(points, voxel_size):
    """The occupied cells of the grid whose origin box_min is the points'
    minimum corner, deduplicated in lexicographic order. Returns
    (box_min, cells)."""
    points = np.asarray(points, dtype=np.float64)
    if points.size == 0:
        raise EmptyPointCloud("voxelize needs at least one point")
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    box_min = points.min(axis=0)
    # np.unique sorts rows lexicographically already.
    return box_min, np.unique(voxel_cells(points, voxel_size, box_min, points.max(axis=0)), axis=0)


def voxel_size_for_points(points, fraction):
    """Cell size as a fraction of the point bounding-box diagonal."""
    points = np.asarray(points, dtype=np.float64)
    diag = float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))
    if diag == 0.0:
        diag = 1.0
    return fraction * diag


def _fresh_rows(cells, voxel_size, box_min, *, T, d_b, d_v, K):
    """Row arrays of new anchors at the centres of the given cells: zero
    features and offsets, and both per-axis scales at the voxel size."""
    n = cells.shape[0]
    return dict(
        positions=cell_centers(cells, voxel_size, box_min),
        f_base=np.zeros((n, d_b)),
        f_var=np.zeros((n, T, d_v)),
        offsets=np.zeros((n, K, 3)),
        offset_scale=np.full((n, 3), float(voxel_size)),
        shape_scale=np.full((n, 3), float(voxel_size)),
    )


def init_scaffold(per_period_points, voxel_size, *, d_b, d_v, K):
    """Build the scaffold from the union of all periods' sparse points:
    one fresh anchor per occupied voxel cell. T is the number of per-period
    point lists."""
    points = [np.asarray(p, dtype=np.float64).reshape(-1, 3) for p in per_period_points]
    box_min, cells = voxelize(np.concatenate(points), voxel_size)
    rows = _fresh_rows(cells, voxel_size, box_min, T=len(points), d_b=d_b, d_v=d_v, K=K)
    return AnchorScaffold(**rows, voxel_size=voxel_size, box_min=box_min)


def visible_anchors(scaffold, camera):
    """Indices (ascending) of anchors whose position passes the frustum test."""
    return np.nonzero(frustum_test_many(camera, scaffold.positions))[0]


def accumulate_stats(scaffold, graph, grads):
    """Fold one view's backward results into the scaffold statistics.

    Every rendered splat adds its 2D positional gradient norm to its
    (anchor, slot) cell and bumps the slot's visible count; every visible
    anchor adds its strongest decoded opacity and one sample.
    """
    st = scaffold.stats
    cells = (graph.visible[graph.splats.rows], graph.splats.slots)
    np.add.at(st.grad_norm_sum, cells, np.linalg.norm(grads.splat_mean2d, axis=1))
    np.add.at(st.visible_count, cells, 1)
    st.opacity_sum[graph.visible] += np.maximum(graph.batch.raw_opacity, 0.0).max(axis=1)
    st.sample_count[graph.visible] += 1


def grow_anchors(scaffold, tau_g, min_visibility):
    """Spawn zero-featured anchors at hot offset slots' decoded positions.

    A slot qualifies when its mean 2D positional gradient exceeds tau_g over
    at least min_visibility sightings. The decoded position's voxel cell is
    filled only if empty; existing anchors are never touched. Qualifying
    slots have their statistics reset. Returns the number of new anchors.
    """
    st = scaffold.stats
    seen = st.visible_count >= max(int(min_visibility), 1)
    denom = np.maximum(st.visible_count, 1)
    hot = seen & (st.grad_norm_sum / denom > tau_g)
    if not hot.any():
        return 0

    # Candidate cells in (anchor, slot) order.
    voxel, box_min = scaffold.voxel_size, scaffold.box_min
    candidates = voxel_cells(scaffold.decoded_positions()[hot], voxel, box_min)
    occupied = set(map(tuple, voxel_cells(scaffold.positions, voxel, box_min).tolist()))
    new_cells = []
    for cell in map(tuple, candidates.tolist()):
        if cell not in occupied:
            occupied.add(cell)
            new_cells.append(cell)
    st.grad_norm_sum[hot] = 0.0
    st.visible_count[hot] = 0
    if not new_cells:
        return 0

    m = len(new_cells)
    rows = _fresh_rows(np.asarray(new_cells), voxel, box_min,
                      T=scaffold.T, d_b=scaffold.d_b, d_v=scaffold.d_v, K=scaffold.K)
    for owner, new in ((scaffold, rows), (st, vars(AccumStats.zeros(m, scaffold.K)))):
        for name, arr in new.items():
            setattr(owner, name, np.concatenate([getattr(owner, name), arr]))
    return m


def prune_keep_mask(scaffold, min_opacity, min_samples):
    """Boolean keep mask: drop anchors sampled at least min_samples times
    whose mean per-view max opacity stayed below min_opacity."""
    st = scaffold.stats
    sampled = st.sample_count >= max(int(min_samples), 1)
    mean_opacity = st.opacity_sum / np.maximum(st.sample_count, 1)
    return ~(sampled & (mean_opacity < min_opacity))


def apply_keep_mask(scaffold, keep):
    """Drop anchors where keep is False; resets all statistics."""
    removed = int((~keep).sum())
    if removed:
        for name in ROW_FIELDS:
            setattr(scaffold, name, getattr(scaffold, name)[keep])
    scaffold.stats = AccumStats.zeros(len(scaffold), scaffold.K)
    return removed
