import numpy as np

from periodsplat import geom, raster

from conftest import identity_camera
from oracles import pinhole_oracle, quat_matrix_oracle


def project_one(cam, point, rotation=(1.0, 0.0, 0.0, 0.0), scale=(0.1, 0.1, 0.1)):
    """project_splats of a single Gaussian."""
    return geom.project_splats(cam, np.asarray(point, dtype=np.float64)[None],
                               geom.quat_normalize(rotation)[None],
                               np.asarray(scale, dtype=np.float64)[None])


def test_world_to_view_identity():
    cam = identity_camera(z_offset=0.0)
    out = project_one(cam, [1.0, 2.0, 3.0]).view[0]
    np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])


def test_world_to_view_translation():
    cam = identity_camera(z_offset=5.0)
    out = project_one(cam, np.zeros(3)).view[0]
    np.testing.assert_array_equal(out, [0.0, 0.0, 5.0])


def test_world_to_view_yaw_matches_quaternion_oracle():
    # 90 degree yaw about +z
    q = np.array([np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4)])
    cam = identity_camera(z_offset=0.0)
    cam.rotation = q
    expected = quat_matrix_oracle(q) @ np.array([1.0, 0.0, 2.0])
    out = project_one(cam, [1.0, 0.0, 2.0]).view[0]
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out, [0.0, 1.0, 2.0], atol=1e-12)


def test_quat_to_rotmat_matches_oracle(rng):
    for _ in range(20):
        q = geom.quat_normalize(rng.normal(size=4))
        np.testing.assert_allclose(geom.quat_to_rotmat(q), quat_matrix_oracle(q), atol=1e-12)


def test_rotmat_quat_round_trip(rng):
    for _ in range(20):
        q = geom.quat_normalize(rng.normal(size=4))
        if q[0] < 0:
            q = -q
        back = geom.rotmat_to_quat(geom.quat_to_rotmat(q))
        np.testing.assert_allclose(back, q, atol=1e-9)


def test_project_mean_on_axis():
    cam = identity_camera(width=64, height=64, fx=100.0, fy=100.0, z_offset=0.0)
    cam.cx = cam.cy = 32.0
    proj = project_one(cam, [0.0, 0.0, 2.0])
    np.testing.assert_array_equal(proj.mean2d[0], [32.0, 32.0])
    assert proj.depth[0] == 2.0
    np.testing.assert_array_equal(project_one(cam, [1.0, 0.0, 2.0]).mean2d[0], [82.0, 32.0])


def test_project_mean_behind_camera():
    """Points on or behind the near plane are culled before projection."""
    cam = identity_camera(z_offset=0.0)
    means = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 0.0, geom.NEAR_PLANE],
                      [0.0, 0.0, 2.0]])
    n = means.shape[0]
    splats = raster._project_and_cull(
        cam, means, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)), np.full((n, 3), 0.1),
        np.full(n, 0.5), np.full((n, 3), 0.5), np.arange(n), np.zeros(n, dtype=np.int64),
        True)
    assert splats.rows.tolist() == [3]
    assert splats.depth.tolist() == [2.0]


def test_project_mean_matches_pinhole_oracle(rng):
    cam = identity_camera(width=40, height=30, fx=55.0, fy=47.0, z_offset=0.0)
    cam.cx, cam.cy = 19.5, 14.5
    for _ in range(50):
        p = rng.normal(size=3) * [0.5, 0.5, 0.2] + [0, 0, 3.0]
        proj = project_one(cam, p)
        exp_pixel, exp_depth = pinhole_oracle(cam.fx, cam.fy, cam.cx, cam.cy, p)
        np.testing.assert_allclose(proj.mean2d[0], exp_pixel, atol=1e-12)
        assert abs(proj.depth[0] - exp_depth) < 1e-12


def test_project_covariance_on_axis_isotropic():
    cam = identity_camera(width=64, height=64, fx=100.0, fy=100.0, z_offset=0.0)
    cam.cx = cam.cy = 32.0
    s, z = 0.07, 2.0
    a, b, c = project_one(cam, [0.0, 0.0, z], scale=[s, s, s]).cov[0]
    expected = (cam.fx * s / z) ** 2 + geom.COV_DILATION
    assert abs(a - expected) < 1e-12 and abs(c - expected) < 1e-12
    assert abs(b) < 1e-12


def test_project_covariance_zero_scale_limit():
    cam = identity_camera(z_offset=0.0)
    a, b, c = project_one(cam, [0.2, -0.1, 2.0], scale=[1e-12, 1e-12, 1e-12]).cov[0]
    np.testing.assert_allclose([a, b, c], [geom.COV_DILATION, 0.0, geom.COV_DILATION],
                               atol=1e-15)


def test_project_covariance_matches_numerical_jacobian(rng):
    """EWA output equals J_num Sigma_view J_num^T + dilation, with J_num from
    central differences of the pinhole map at the view mean (the camera sits
    at the world origin, so world and view coordinates agree)."""
    cam = identity_camera(width=48, height=36, fx=50.0, fy=44.0, z_offset=0.0)
    for _ in range(20):
        view = rng.normal(size=3) * [0.3, 0.3, 0.2] + [0, 0, 2.5]
        q = geom.quat_normalize(rng.normal(size=4))
        s = rng.uniform(0.05, 0.3, size=3)
        a, b, c = project_one(cam, view, q, s).cov[0]

        R = quat_matrix_oracle(q)
        sigma_world = R @ np.diag(s ** 2) @ R.T
        W = cam.rotation_matrix()
        sigma_view = W @ sigma_world @ W.T
        h = 1e-6
        J = np.zeros((2, 3))
        for j in range(3):
            dp = view.copy()
            dm = view.copy()
            dp[j] += h
            dm[j] -= h
            pp, _ = pinhole_oracle(cam.fx, cam.fy, cam.cx, cam.cy, dp)
            pm, _ = pinhole_oracle(cam.fx, cam.fy, cam.cx, cam.cy, dm)
            J[:, j] = (pp - pm) / (2 * h)
        ref = J @ sigma_view @ J.T
        np.testing.assert_allclose(
            [a, b, c],
            [ref[0, 0] + geom.COV_DILATION, ref[0, 1], ref[1, 1] + geom.COV_DILATION],
            rtol=1e-6)


def test_project_covariance_positive_definite(rng):
    cam = identity_camera(z_offset=0.0)
    for _ in range(100):
        view = rng.normal(size=3) * [1.0, 1.0, 0.5] + [0, 0, 3.0]
        q = geom.quat_normalize(rng.normal(size=4))
        s = 10.0 ** rng.uniform(-4, 0.5, size=3)
        a, b, c = project_one(cam, view, q, s).cov[0]
        assert a > 0 and a * c - b * b > 0


def test_frustum_center_and_behind():
    cam = identity_camera(z_offset=0.0)
    assert geom.frustum_test_many(cam, np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])).tolist() \
        == [True, False]


def test_frustum_margin():
    cam = identity_camera(width=100, height=100, fx=50.0, fy=50.0, z_offset=0.0)
    diag = cam.image_diagonal()
    # Point projecting 5% of the diagonal outside the border: inside the 15% margin.
    x_pix = 100 + 0.05 * diag
    inside = [(x_pix - cam.cx) / cam.fx * 2.0, 0.0, 2.0]
    # 20% outside: rejected.
    x_pix = 100 + 0.20 * diag
    outside = [(x_pix - cam.cx) / cam.fx * 2.0, 0.0, 2.0]
    assert geom.frustum_test_many(cam, np.array([inside, outside])).tolist() == [True, False]


def test_projection_rigid_invariance(rng):
    """Transforming the world and composing the inverse into the camera
    leaves projections unchanged."""
    cam = identity_camera(z_offset=0.0)
    cam.rotation = geom.quat_normalize(rng.normal(size=4))
    cam.translation = rng.normal(size=3) * 0.2 + [0, 0, 3.0]
    Q = quat_matrix_oracle(geom.quat_normalize(rng.normal(size=4)))
    d = rng.normal(size=3)

    R = cam.rotation_matrix()
    R2 = R @ Q.T
    cam2 = identity_camera(z_offset=0.0)
    cam2.rotation = geom.rotmat_to_quat(R2)
    # rotmat_to_quat may flip sign and reconstruct with ~1e-12 error; rebuild
    # the translation from the quaternion actually stored.
    cam2.translation = cam.translation - cam2.rotation_matrix() @ d

    for _ in range(20):
        p = rng.normal(size=3) * 0.4
        proj1 = project_one(cam, p)
        proj2 = project_one(cam2, Q @ p + d)
        np.testing.assert_allclose(proj1.mean2d, proj2.mean2d, atol=1e-9)
        assert abs(proj1.depth[0] - proj2.depth[0]) < 1e-9


def test_project_splats_backward_finite_difference(rng):
    cam = identity_camera(width=64, height=48, fx=70.0, fy=65.0, z_offset=0.0)
    cam.rotation = geom.quat_normalize(rng.normal(size=4))
    cam.translation = rng.normal(size=3) * 0.1
    R = cam.rotation_matrix()
    M = 5
    means = (np.array([0, 0, 3.0]) + rng.normal(size=(M, 3)) * 0.4 - cam.translation) @ R
    quats = np.stack([geom.quat_normalize(rng.normal(size=4)) for _ in range(M)])
    scales = rng.uniform(0.05, 0.4, size=(M, 3))
    g_mean2d = rng.normal(size=(M, 2))
    g_cov = rng.normal(size=(M, 3))

    proj = geom.project_splats(cam, means, quats, scales)
    g_means, g_quats, g_scales = geom.project_splats_backward(cam, proj, g_mean2d, g_cov)

    def loss():
        p = geom.project_splats(cam, means, quats, scales)
        return np.sum(p.mean2d * g_mean2d) + np.sum(p.cov * g_cov)

    h = 1e-6
    for arr, grad in ((means, g_means), (quats, g_quats), (scales, g_scales)):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in rng.choice(flat.size, size=8, replace=False):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss()
            flat[i] = orig - h
            fm = loss()
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            assert abs(fd - gflat[i]) <= 1e-5 * max(abs(fd), 1.0)
