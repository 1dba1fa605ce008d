"""Cameras, rigid transforms, perspective projection, and frustum tests.

Conventions used throughout the package:

- Quaternions are (w, x, y, z), unit norm, and rotate world points into the
  camera frame: ``view = R(q) @ point + translation``.
- Pixel coordinates are continuous with pixel (i, j) covering
  [i, i+1) x [j, j+1); the center of pixel (i, j) is (i + 0.5, j + 0.5).
- Depth is view-space z. Points with z <= NEAR_PLANE are culled, not clamped.
- Range checks on values are written so that NaN fails them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

NEAR_PLANE = 0.01
# Frustum tests pass points up to this fraction of the diagonal outside the image.
FRUSTUM_MARGIN = 0.15
# Added to both diagonal entries of every projected 2D covariance so
# sub-pixel splats stay well conditioned.
COV_DILATION = 0.3
# View-space x/z and y/z are clamped to this multiple of the frustum
# half-tangent before the projection Jacobian is evaluated.
JACOBIAN_CLAMP = 1.3


def quat_normalize(q):
    q = np.asarray(q, dtype=np.float64)
    norm = np.sqrt(q.dot(q))  # np.linalg.norm's arithmetic, without its call overhead
    if not 0 < norm < np.inf:
        raise ValueError(f"quaternion {q.tolist()} has no finite nonzero norm")
    return q / norm


def quat_to_rotmat(q):
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ],
        dtype=np.float64,
    )


def quats_to_rotmats(quats):
    """Batched quaternion-to-matrix, quats (M, 4) -> (M, 3, 3)."""
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    R = np.empty((quats.shape[0], 3, 3), dtype=np.float64)
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


def quats_rotmat_backward(quats, g_R):
    """Adjoint of quats_to_rotmats: gradients on R -> gradients on q.

    Treats the four quaternion components as free variables; callers that
    normalized the quaternion beforehand must apply the normalization
    Jacobian themselves.
    """
    w, x, y, z = quats[:, 0], quats[:, 1], quats[:, 2], quats[:, 3]
    g = g_R
    gq = np.empty_like(quats)
    gq[:, 0] = 2 * (
        -z * g[:, 0, 1] + y * g[:, 0, 2] + z * g[:, 1, 0] - x * g[:, 1, 2]
        - y * g[:, 2, 0] + x * g[:, 2, 1]
    )
    gq[:, 1] = 2 * (
        y * g[:, 0, 1] + z * g[:, 0, 2] + y * g[:, 1, 0] - 2 * x * g[:, 1, 1]
        - w * g[:, 1, 2] + z * g[:, 2, 0] + w * g[:, 2, 1] - 2 * x * g[:, 2, 2]
    )
    gq[:, 2] = 2 * (
        -2 * y * g[:, 0, 0] + x * g[:, 0, 1] + w * g[:, 0, 2] + x * g[:, 1, 0]
        + z * g[:, 1, 2] - w * g[:, 2, 0] + z * g[:, 2, 1] - 2 * y * g[:, 2, 2]
    )
    gq[:, 3] = 2 * (
        -2 * z * g[:, 0, 0] - w * g[:, 0, 1] + x * g[:, 0, 2] + w * g[:, 1, 0]
        - 2 * z * g[:, 1, 1] + y * g[:, 1, 2] + x * g[:, 2, 0] + y * g[:, 2, 1]
    )
    return gq


def rotmat_to_quat(R):
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0."""
    K = (
        np.array(
            [
                [R[0, 0] - R[1, 1] - R[2, 2], 0.0, 0.0, 0.0],
                [R[0, 1] + R[1, 0], R[1, 1] - R[0, 0] - R[2, 2], 0.0, 0.0],
                [R[0, 2] + R[2, 0], R[1, 2] + R[2, 1], R[2, 2] - R[0, 0] - R[1, 1], 0.0],
                [R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1], R[0, 0] + R[1, 1] + R[2, 2]],
            ]
        )
        / 3.0
    )
    vals, vecs = np.linalg.eigh(K)
    q = vecs[[3, 0, 1, 2], np.argmax(vals)]
    if q[0] < 0:
        q = -q
    return q


@dataclass
class Camera:
    """A pinhole camera registered to one capture period."""

    id: int
    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float
    rotation: np.ndarray  # world-to-camera unit quaternion (w, x, y, z)
    translation: np.ndarray  # world-to-camera offset
    period: int = 0
    image_name: str = ""

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if not (self.width >= 1 and self.height >= 1):
            raise ValueError("camera image size must be at least 1x1")
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not np.isfinite([self.cx, self.cy, *self.translation]).all():
            raise ValueError("principal point and translation must be finite")
        if not abs(np.linalg.norm(self.rotation) - 1.0) <= 1e-9:
            raise ValueError("camera quaternion must be unit norm")
        if self.period < 0:
            raise ValueError("period id must be non-negative")

    def rotation_matrix(self):
        return quat_to_rotmat(self.rotation)

    def center(self):
        """Camera position in world coordinates."""
        return -self.rotation_matrix().T @ self.translation

    def image_diagonal(self):
        return float(np.hypot(self.width, self.height))


@dataclass
class Gaussian3D:
    """One world-space Gaussian primitive."""

    mean: np.ndarray
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    scale: np.ndarray  # per-axis standard deviations, > 0
    opacity: float  # in (0, 1]
    color: np.ndarray  # RGB in [0, 1]

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.scale = np.asarray(self.scale, dtype=np.float64)
        self.color = np.asarray(self.color, dtype=np.float64)
        if not np.isfinite([*self.mean, *self.rotation]).all():
            raise ValueError("mean and rotation must be finite")
        if not ((self.scale > 0) & (self.scale < np.inf)).all():
            raise ValueError("scale components must be positive and finite")
        if not (0 < self.opacity <= 1):
            raise ValueError("opacity must lie in (0, 1]")
        if not ((self.color >= 0) & (self.color <= 1)).all():
            raise ValueError("color components must lie in [0, 1]")


def world_to_view_many(camera, points):
    return points @ camera.rotation_matrix().T + camera.translation


def frustum_test_many(camera, points):
    """Bool mask of the (N, 3) points that lie in front of the camera and
    project inside the image bounds expanded by FRUSTUM_MARGIN."""
    margin = FRUSTUM_MARGIN * camera.image_diagonal()
    view = world_to_view_many(camera, points)
    z = view[:, 2]
    ok = z > NEAR_PLANE
    safe_z = np.where(ok, z, 1.0)
    px = camera.fx * view[:, 0] / safe_z + camera.cx
    py = camera.fy * view[:, 1] / safe_z + camera.cy
    inside = (
        (px >= -margin) & (px <= camera.width + margin)
        & (py >= -margin) & (py <= camera.height + margin)
    )
    return ok & inside


def project_splats(camera, means, quats, scales):
    """Project a batch of 3D Gaussians to 2D splats.

    Parameters
    ----------
    means : (M, 3) world-space centers.
    quats : (M, 4) unit quaternions.
    scales : (M, 3) positive per-axis standard deviations.

    Returns a namespace with view (M,3), mean2d (M,2), depth (M,), cov (M,3)
    and the intermediates needed by project_splats_backward, every one an
    array with one row per Gaussian. All entries must already lie in front
    of the near plane.
    """
    R_cam = camera.rotation_matrix()
    view = world_to_view_many(camera, means)
    x, y, z = view[:, 0], view[:, 1], view[:, 2]
    inv_z = 1.0 / z

    mean2d = np.stack([camera.fx * x * inv_z + camera.cx, camera.fy * y * inv_z + camera.cy], axis=1)

    limx = JACOBIAN_CLAMP * camera.width / (2.0 * camera.fx)
    limy = JACOBIAN_CLAMP * camera.height / (2.0 * camera.fy)
    txz = x * inv_z
    tyz = y * inv_z
    ctx = np.clip(txz, -limx, limx)
    cty = np.clip(tyz, -limy, limy)
    tx = ctx * z
    ty = cty * z

    inv_z2 = inv_z * inv_z
    j00 = camera.fx * inv_z
    j02 = -camera.fx * tx * inv_z2
    j11 = camera.fy * inv_z
    j12 = -camera.fy * ty * inv_z2

    # Rows of T = J @ R_cam; only four Jacobian entries are nonzero.
    t0 = j00[:, None] * R_cam[0] + j02[:, None] * R_cam[2]
    t1 = j11[:, None] * R_cam[1] + j12[:, None] * R_cam[2]

    Rq = quats_to_rotmats(quats)
    Mm = Rq * scales[:, None, :]  # columns scaled: M = R diag(s)
    # v_i = Sigma3 t_i computed as M (M^T t_i) to avoid forming Sigma3.
    w0 = np.einsum("mij,mi->mj", Mm, t0)
    w1 = np.einsum("mij,mi->mj", Mm, t1)
    v0 = np.einsum("mij,mj->mi", Mm, w0)
    v1 = np.einsum("mij,mj->mi", Mm, w1)

    cov = np.empty((means.shape[0], 3), dtype=np.float64)
    cov[:, 0] = np.einsum("mi,mi->m", t0, v0) + COV_DILATION
    cov[:, 1] = np.einsum("mi,mi->m", t0, v1)
    cov[:, 2] = np.einsum("mi,mi->m", t1, v1) + COV_DILATION

    return SimpleNamespace(
        view=view, mean2d=mean2d, depth=z.copy(), cov=cov,
        quats=quats, scales=scales, Rq=Rq, Mm=Mm,
        t0=t0, t1=t1, v0=v0, v1=v1,
        txz=txz, tyz=tyz, ctx=ctx, cty=cty, tx=tx, ty=ty,
        inv_z=inv_z, inv_z2=inv_z2,
    )


def project_splats_backward(camera, proj, g_mean2d, g_cov):
    """Exact adjoint of project_splats.

    Takes gradients on mean2d (M, 2) and the covariance triplet (M, 3);
    returns gradients on world means, (unit) quaternions, and scales.
    Depth carries no gradient (it only orders compositing).
    """
    R_cam = camera.rotation_matrix()
    x, y, z = proj.view[:, 0], proj.view[:, 1], proj.view[:, 2]
    inv_z, inv_z2 = proj.inv_z, proj.inv_z2
    ga, gb, gc = g_cov[:, 0], g_cov[:, 1], g_cov[:, 2]

    # Covariance entries a = t0' S t0, b = t0' S t1, c = t1' S t1.
    gS = (
        ga[:, None, None] * np.einsum("mi,mj->mij", proj.t0, proj.t0)
        + gb[:, None, None] * np.einsum("mi,mj->mij", proj.t0, proj.t1)
        + gc[:, None, None] * np.einsum("mi,mj->mij", proj.t1, proj.t1)
    )
    gt0 = 2 * ga[:, None] * proj.v0 + gb[:, None] * proj.v1
    gt1 = gb[:, None] * proj.v0 + 2 * gc[:, None] * proj.v1

    # Sigma3 = M M^T  =>  gM = (gS + gS^T) M.
    gMm = np.einsum("mik,mkj->mij", gS + gS.transpose(0, 2, 1), proj.Mm)
    gRq = gMm * proj.scales[:, None, :]
    g_scales = np.einsum("mij,mij->mj", gMm, proj.Rq)
    g_quats = quats_rotmat_backward(proj.quats, gRq)

    # t_i = j_i @ R_cam with j0 = (j00, 0, j02), j1 = (0, j11, j12).
    gj00 = gt0 @ R_cam[0]
    gj02 = gt0 @ R_cam[2]
    gj11 = gt1 @ R_cam[1]
    gj12 = gt1 @ R_cam[2]

    fx, fy = camera.fx, camera.fy
    gtx = -fx * inv_z2 * gj02
    gty = -fy * inv_z2 * gj12
    gz_cov = (
        -fx * inv_z2 * gj00
        - fy * inv_z2 * gj11
        + 2.0 * (fx * proj.tx * gj02 + fy * proj.ty * gj12) * inv_z2 * inv_z
    )
    # tx = clip(x/z, +-lim) * z: identity in x when unclipped, linear in z when clipped.
    clipped_x = proj.txz != proj.ctx
    clipped_y = proj.tyz != proj.cty
    gx_cov = np.where(clipped_x, 0.0, gtx)
    gy_cov = np.where(clipped_y, 0.0, gty)
    gz_cov = gz_cov + np.where(clipped_x, gtx * proj.ctx, 0.0)
    gz_cov = gz_cov + np.where(clipped_y, gty * proj.cty, 0.0)

    gpx, gpy = g_mean2d[:, 0], g_mean2d[:, 1]
    gx = gpx * fx * inv_z + gx_cov
    gy = gpy * fy * inv_z + gy_cov
    gz = -(gpx * fx * x + gpy * fy * y) * inv_z2 + gz_cov

    g_view = np.stack([gx, gy, gz], axis=1)
    g_means = g_view @ R_cam
    return g_means, g_quats, g_scales
