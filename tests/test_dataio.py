import hashlib
import os

import numpy as np
import pytest

from periodsplat import dataio
from periodsplat.errors import (NonContiguousPeriods, ParseError, SpecInvalid,
                                UnknownImage, UnsupportedCameraModel, MissingFile)
from periodsplat.geom import Camera, project_splats, quat_normalize


# ---------------------------------------------------------------------------
# PPM

def test_ppm_one_white_pixel(tmp_path):
    path = tmp_path / "white.ppm"
    dataio.write_ppm(path, np.ones((1, 1, 3)))
    assert path.read_bytes() == b"P6\n1 1\n255\n\xff\xff\xff"


def test_ppm_write_read_write_identity(tmp_path):
    rng = np.random.default_rng(0)
    path1, path2 = tmp_path / "a.ppm", tmp_path / "b.ppm"
    dataio.write_ppm(path1, rng.uniform(0, 1, size=(5, 7, 3)))
    dataio.write_ppm(path2, dataio.read_ppm(path1))
    assert path1.read_bytes() == path2.read_bytes()


def test_ppm_quantization_bound(tmp_path, rng):
    img = rng.uniform(0, 1, size=(9, 11, 3))
    path = tmp_path / "q.ppm"
    dataio.write_ppm(path, img)
    back = dataio.read_ppm(path)
    assert np.abs(back - img).max() <= 1.0 / 510 + 1e-12


def test_ppm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(ParseError):
        dataio.read_ppm(path)


def test_ppm_truncated(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n2 2\n255\n\xff")
    with pytest.raises(ParseError):
        dataio.read_ppm(path)


# ---------------------------------------------------------------------------
# COLMAP text

MINIMAL_CAMERAS = """# comment line
1 PINHOLE 64 48 70.5 69.5 32.0 24.0
"""
MINIMAL_IMAGES = """# IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME
7 1 0 0 0 0.5 -0.25 3 1 img0.ppm

"""
MINIMAL_POINTS = """# POINT3D_ID X Y Z R G B ERROR TRACK
11 0.1 0.2 0.3 200 100 50 0.5 1 0 extra columns ignored
"""


def write_minimal(tmp_path):
    (tmp_path / "cameras.txt").write_text(MINIMAL_CAMERAS)
    (tmp_path / "images.txt").write_text(MINIMAL_IMAGES)
    (tmp_path / "points3D.txt").write_text(MINIMAL_POINTS)


def test_parse_minimal_fixture(tmp_path):
    write_minimal(tmp_path)
    cameras, points = dataio.parse_colmap(tmp_path)
    assert len(cameras) == 1
    cam = cameras[0]
    assert cam.id == 7 and cam.width == 64 and cam.height == 48
    assert cam.fx == 70.5 and cam.fy == 69.5
    np.testing.assert_array_equal(cam.translation, [0.5, -0.25, 3.0])
    assert cam.image_name == "img0.ppm"
    np.testing.assert_array_equal(points, [[0.1, 0.2, 0.3]])


def test_parse_simple_pinhole(tmp_path):
    (tmp_path / "cameras.txt").write_text("1 SIMPLE_PINHOLE 32 32 50 16 16\n")
    (tmp_path / "images.txt").write_text("1 1 0 0 0 0 0 2 1 a.ppm\n\n")
    (tmp_path / "points3D.txt").write_text("1 0 0 0 0 0 0 0\n")
    cameras, _ = dataio.parse_colmap(tmp_path)
    assert cameras[0].fx == cameras[0].fy == 50.0


def test_parse_unsupported_model(tmp_path):
    (tmp_path / "cameras.txt").write_text("1 OPENCV 32 32 50 50 16 16 0 0 0 0\n")
    (tmp_path / "images.txt").write_text("1 1 0 0 0 0 0 2 1 a.ppm\n\n")
    (tmp_path / "points3D.txt").write_text("1 0 0 0 0 0 0 0\n")
    with pytest.raises(UnsupportedCameraModel):
        dataio.parse_colmap(tmp_path)


def test_parse_error_has_line_number(tmp_path):
    (tmp_path / "cameras.txt").write_text("# header\n1 PINHOLE 64 48 bad 69.5 32 24\n")
    (tmp_path / "images.txt").write_text("")
    (tmp_path / "points3D.txt").write_text("")
    with pytest.raises(ParseError) as err:
        dataio.parse_colmap(tmp_path)
    assert ":2:" in str(err.value)


def test_missing_file(tmp_path):
    with pytest.raises(MissingFile):
        dataio.parse_colmap(tmp_path)


def test_colmap_round_trip(tmp_path, rng):
    cameras = []
    for i in range(5):
        cameras.append(Camera(
            id=i + 1, width=64, height=48,
            fx=rng.uniform(40, 90), fy=rng.uniform(40, 90),
            cx=rng.uniform(28, 36), cy=rng.uniform(20, 28),
            rotation=quat_normalize(rng.normal(size=4)),
            translation=rng.normal(size=3),
            period=0, image_name=f"im{i}.ppm"))
    points = rng.normal(size=(20, 3))
    dataio.write_colmap(tmp_path, cameras, points)
    back_cams, back_points = dataio.parse_colmap(tmp_path)
    assert len(back_cams) == 5
    for orig, back in zip(cameras, back_cams):
        assert back.id == orig.id and back.image_name == orig.image_name
        for attr in ("fx", "fy", "cx", "cy"):
            assert abs(getattr(back, attr) - getattr(orig, attr)) < 1e-9
        np.testing.assert_allclose(back.rotation, orig.rotation, atol=1e-9)
        np.testing.assert_allclose(back.translation, orig.translation, atol=1e-9)
    np.testing.assert_allclose(back_points, points, atol=1e-9)


# ---------------------------------------------------------------------------
# periods manifest

def test_load_periods_basic(tmp_path):
    path = tmp_path / "periods.txt"
    path.write_text("# comment\na.png 0\n\nb.png 1\n")
    assert dataio.load_periods(path) == {"a.png": 0, "b.png": 1}


def test_load_periods_non_contiguous(tmp_path):
    path = tmp_path / "periods.txt"
    path.write_text("a.png 0\nb.png 2\n")
    with pytest.raises(NonContiguousPeriods):
        dataio.load_periods(path)


def test_load_periods_unknown_image(tmp_path):
    write_minimal(tmp_path)
    os.makedirs(tmp_path / "images", exist_ok=True)
    dataio.write_ppm(tmp_path / "images" / "img0.ppm", np.zeros((48, 64, 3)))
    (tmp_path / "periods.txt").write_text("img0.ppm 0\nghost.ppm 1\n")
    with pytest.raises(UnknownImage):
        dataio.load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# synthetic generator

def single_blob_spec(T=1, lifespan=None, cams=8, seed=3):
    prim = dataio.PrimitiveSpec(
        mean=np.array([0.0, 0.0, 0.2]), rotation=np.array([1.0, 0, 0, 0]),
        scale=np.array([0.25, 0.25, 0.25]), opacity=0.95,
        color=np.array([0.9, 0.2, 0.1]),
        lifespan=set(range(T)) if lifespan is None else lifespan)
    always = dataio.PrimitiveSpec(
        mean=np.array([0.0, 0.0, -0.4]), rotation=np.array([1.0, 0, 0, 0]),
        scale=np.array([0.6, 0.6, 0.1]), opacity=0.9,
        color=np.array([0.2, 0.5, 0.2]), lifespan=set(range(T)))
    return dataio.SyntheticSceneSpec(
        T=T, primitives=[always, prim], tint=[(1.0, 1.0, 1.0)] * T,
        orbit_radius=2.5, orbit_height=1.4, cams_per_period=cams,
        width=32, height=32, fov_deg=55.0, seed=seed, points_per_primitive=16)


def test_generate_single_primitive_projection_check(tmp_path):
    spec = single_blob_spec(T=1)
    ds = dataio.generate_synthetic(spec, tmp_path / "ds")
    assert len(ds.cameras) == 8
    blob = spec.primitives[1]
    for cam in ds.cameras:
        pix = project_splats(cam, blob.mean[None], blob.rotation[None], blob.scale[None]).mean2d[0]
        ix, iy = int(pix[0]), int(pix[1])
        patch = ds.images[cam.id][max(0, iy - 1):iy + 2, max(0, ix - 1):ix + 2]
        # the red blob dominates its projection neighborhood
        assert patch[:, :, 0].max() > 0.4


def test_generate_lifespan_semantics(tmp_path):
    spec = single_blob_spec(T=2, lifespan={1})
    ds = dataio.generate_synthetic(spec, tmp_path / "ds")
    blob = spec.primitives[1]
    cam0 = [c for c in ds.cameras if c.period == 0][0]
    cam1 = [c for c in ds.cameras if c.period == 1][2]
    for cam, present in ((cam0, False), (cam1, True)):
        pix = project_splats(cam, blob.mean[None], blob.rotation[None], blob.scale[None]).mean2d[0]
        ix, iy = int(pix[0]), int(pix[1])
        red = ds.images[cam.id][iy, ix, 0]
        if present:
            assert red > 0.4
        else:
            assert red < 0.4


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def test_generate_deterministic(tmp_path):
    spec = single_blob_spec(T=2)
    dataio.generate_synthetic(spec, tmp_path / "a")
    dataio.generate_synthetic(single_blob_spec(T=2), tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")


def test_generate_split_partition(tmp_path):
    ds = dataio.generate_synthetic(single_blob_spec(T=2), tmp_path / "ds")
    train = {c.id for c in ds.train_cameras()}
    test = {c.id for c in ds.test_cameras()}
    assert train.isdisjoint(test)
    assert train | test == {c.id for c in ds.cameras}


def test_generate_load_round_trip(tmp_path):
    spec = single_blob_spec(T=2)
    ds = dataio.generate_synthetic(spec, tmp_path / "ds")
    back = dataio.load_dataset(tmp_path / "ds")
    assert back.T == 2 and len(back.cameras) == len(ds.cameras)
    for orig, load in zip(ds.cameras, back.cameras):
        assert load.period == orig.period
        np.testing.assert_allclose(load.rotation, orig.rotation, atol=1e-9)
        np.testing.assert_allclose(load.translation, orig.translation, atol=1e-9)
    assert back.split == ds.split
    for cid, img in ds.images.items():
        assert np.abs(back.images[cid] - img).max() <= 1.0 / 510 + 1e-12
    for a, b in zip(ds.per_period_points, back.per_period_points):
        np.testing.assert_allclose(a, b, atol=1e-9)


def test_short_period_point_line_names_path_and_line(tmp_path):
    dataio.generate_synthetic(single_blob_spec(T=2), tmp_path / "ds")
    path = os.path.join(tmp_path / "ds", "points3D_1.txt")
    with open(path, "a") as f:
        f.write("99 0.5 0.25\n")
    with open(path) as f:
        line = len(f.readlines())
    with pytest.raises(ParseError) as err:
        dataio.load_dataset(tmp_path / "ds")
    assert (err.value.path, err.value.line) == (path, line)
    assert f"{path}:{line}:" in str(err.value)


def test_generate_anchor_count_vs_primitives(tmp_path):
    """Disjoint per-period primitives produce at least one anchor each."""
    from periodsplat.scaffold import init_scaffold, voxel_size_for_points
    spec = single_blob_spec(T=2, lifespan={1})
    ds = dataio.generate_synthetic(spec, tmp_path / "ds")
    union = ds.union_points()
    voxel = voxel_size_for_points(union, 0.05)
    s = init_scaffold(ds.per_period_points, voxel, d_b=4, d_v=4, K=2)
    assert len(s) >= len(spec.primitives)


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        dataio.SyntheticSceneSpec(T=1, primitives=[], tint=[(1, 1, 1)])
    prim = dataio.PrimitiveSpec(
        mean=np.zeros(3), rotation=np.array([1.0, 0, 0, 0]), scale=np.ones(3),
        opacity=0.5, color=np.zeros(3), lifespan={0})
    with pytest.raises(SpecInvalid):
        dataio.SyntheticSceneSpec(T=1, primitives=[prim], tint=[(0.0, 1, 1)])
    with pytest.raises(SpecInvalid):
        dataio.SyntheticSceneSpec(T=2, primitives=[prim], tint=[(1, 1, 1)] * 2)


def test_spec_json_round_trip(tmp_path):
    spec = dataio.spec_from_json("scenes/two_period_demo.json")
    assert spec.T == 2
    assert any(p.lifespan == {1} for p in spec.primitives)  # appears in period 1
    assert any(p.lifespan == {0} for p in spec.primitives)  # removed after period 0
    assert any(p.period_colors for p in spec.primitives)  # local recoloring
    assert spec.arc_frac == 0.5 and spec.test_every == 4
