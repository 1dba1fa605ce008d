import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("header", [
    b"P6\n-64 -64\n255\n", b"P6\n-1 64\n255\n", b"P6\n+1 1\n255\n", b"P6\n1_0 1\n255\n",
    b"P6\n2 2\n", b"P6\n2 2\n255", b"P6\n2 2 # open comment", b"P6 1 1 255x", b"P6",
    b"P6\n1234567890 1\n255\n", b"P6\n1 1\n65535\n"], ids=[
    "signed-both", "signed-width", "plus-sign", "underscore", "no-maxval", "no-byte-after-maxval",
    "open-comment", "no-space-after-maxval", "magic-only", "ten-digits", "maxval-16-bit"])
def test_ppm_header_faults_name_the_file(tmp_path, header):
    """A header that is not P6 and three unsigned decimal fields, or that
    stops short, is a ParseError naming the file, at the end of the file or
    before enough pixel bytes for any size it names."""
    path = tmp_path / "h.ppm"
    for data in (header, header + bytes(64 * 64 * 3)):
        path.write_bytes(data)
        with pytest.raises(ParseError, match="h.ppm"):
            dataio.read_ppm(path)


def test_ppm_header_comments_between_fields(tmp_path):
    """Comments and runs of whitespace may stand between any two fields."""
    pixels = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6# after magic\n3\t# width\n\n2 #\n255\r" + pixels.tobytes())
    assert dataio.read_ppm(path, raw=True).tobytes() == pixels.tobytes()


_SIZE_FIELDS = st.one_of(st.integers(-3, 3).map(lambda n: b"%d" % n),
                         st.sampled_from([b"+2", b"0x2", b"2.0", b"1_0", b"\xd9\xa3"]))
_HEADER_GAPS = st.lists(st.sampled_from([b" ", b"\n", b"\t\r", b"# c\n", b" #\n\n"]),
                        min_size=3, max_size=3)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(magic=st.sampled_from([b"P6", b"P6", b"P5"]), gaps=_HEADER_GAPS,
       width=_SIZE_FIELDS, height=_SIZE_FIELDS,
       maxval=st.sampled_from([b"255", b"255", b"+255", b"-255", b"65535"]),
       end=st.sampled_from([b" ", b"\n", b"\r", b"", b"x"]), tail=st.binary(max_size=40))
def test_ppm_header_fuzz_loads_or_parse_error(tmp_path_factory, magic, gaps, width, height,
                                              maxval, end, tail):
    """A header loads exactly when it is P6, unsigned decimal sizes, maxval
    255 and one whitespace byte, and enough pixel bytes follow; then it holds
    the size it names. Any other header is a ParseError."""
    path = tmp_path_factory.getbasetemp() / "fuzz.ppm"
    fields = (width, height, maxval)
    path.write_bytes(magic + b"".join(g + f for g, f in zip(gaps, fields)) + end + tail)
    well_formed = (magic == b"P6" and maxval == b"255" and end.isspace()
                   and all(f.isascii() and f.isdigit() for f in (width, height)))
    if not (well_formed and len(tail) >= int(width) * int(height) * 3):
        with pytest.raises(ParseError):
            dataio.read_ppm(path, raw=True)
        return
    pixels = dataio.read_ppm(path, raw=True)
    assert pixels.shape == (int(height), int(width), 3)
    assert pixels.tobytes() == tail[:pixels.size]


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
    """A missing COLMAP file is a MissingFile that says so; read_cameras
    needs no point file."""
    with pytest.raises(MissingFile, match="cameras.txt is missing"):
        dataio.parse_colmap(tmp_path)
    (tmp_path / "cameras.txt").write_text("1 SIMPLE_PINHOLE 32 32 50 16 16\n")
    (tmp_path / "images.txt").write_text("1 1 0 0 0 0 0 2 1 a.ppm\n\n")
    assert [cam.image_name for cam in dataio.read_cameras(tmp_path)] == ["a.ppm"]
    with pytest.raises(MissingFile, match="points3D.txt is missing"):
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
# periods.txt and split.txt manifests

MANIFESTS = {"periods.txt": "# comment\nimg0.ppm 0\n\nimg1.ppm 1\n",
             "split.txt": "img0.ppm train\nimg1.ppm test\n"}


def write_two_views(tmp_path):
    """A two-image dataset (camera ids 7 and 8) with both manifests."""
    write_minimal(tmp_path)
    with open(tmp_path / "images.txt", "a") as f:
        f.write("8 1 0 0 0 0 0 3 1 img1.ppm\n\n")
    os.makedirs(tmp_path / "images", exist_ok=True)
    for name in ("img0.ppm", "img1.ppm"):
        dataio.write_ppm(tmp_path / "images" / name, np.zeros((48, 64, 3)))
    for name, text in MANIFESTS.items():
        (tmp_path / name).write_text(text)


def test_manifests_map_images_to_values(tmp_path):
    write_two_views(tmp_path)
    ds = dataio.load_dataset(tmp_path)
    assert ds.T == 2 and [c.period for c in ds.cameras] == [0, 1]
    assert ds.split == {7: "train", 8: "test"}


@pytest.mark.parametrize("manifest,text,error,line", [
    ("periods.txt", "img0.ppm 0\nimg1.ppm 1\nghost.ppm 1\n", UnknownImage, None),
    ("split.txt", "img0.ppm train\nimg1.ppm test\nghost.ppm test\n", UnknownImage, None),
    ("periods.txt", "img0.ppm 0\n", ParseError, None),
    ("split.txt", "img0.ppm train\n", ParseError, None),
    ("periods.txt", "img0.ppm 0\nimg1.ppm one\n", ParseError, 2),
    ("split.txt", "img0.ppm train\nimg1.ppm val\n", ParseError, 2),
    ("periods.txt", "img0.ppm 0\nimg1.ppm 1 2\n", ParseError, 2),
    ("split.txt", "img0.ppm train\n\nimg1.ppm\n", ParseError, 3),
    ("periods.txt", "img0.ppm 0\nimg1.ppm 1\nimg0.ppm 1\n", ParseError, 3),
    ("split.txt", "img0.ppm train\nimg1.ppm test\nimg0.ppm test\n", ParseError, 3),
    ("periods.txt", "img0.ppm 0\nimg1.ppm 2\n", NonContiguousPeriods, None),
], ids=["periods-unknown-image", "split-unknown-image", "periods-no-line", "split-no-line",
        "periods-bad-value", "split-bad-value", "periods-three-columns", "split-one-column",
        "periods-repeated", "split-repeated", "periods-non-contiguous"])
def test_manifest_faults(tmp_path, manifest, text, error, line):
    """Both manifests name known images, each exactly once, with a valid
    value; a ParseError names the file, and the line where there is one."""
    write_two_views(tmp_path)
    (tmp_path / manifest).write_text(text)
    with pytest.raises(error) as err:
        dataio.load_dataset(tmp_path)
    if error is ParseError:
        assert (err.value.path, err.value.line) == (str(tmp_path / manifest), line)
        if line is None:
            assert "'img1.ppm' has no entry" in str(err.value)


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
    np.testing.assert_allclose(back.points, ds.points, atol=1e-9)


def test_loaded_images_keep_their_8_bit_pixels(tmp_path):
    """load_dataset holds each image as the uint8 pixels it read; an image is
    converted on access bit for bit as read_ppm converts it, also through
    .items()."""
    ds = dataio.generate_synthetic(single_blob_spec(T=2), tmp_path / "ds")
    back = dataio.load_dataset(tmp_path / "ds")
    assert {p.dtype for p in back.images.pixels.values()} == {np.dtype(np.uint8)}
    assert sorted(back.images) == sorted(ds.images) and len(back.images) == len(ds.images)
    for cam in back.cameras:
        expected = dataio.read_ppm(tmp_path / "ds" / "images" / cam.image_name)
        assert back.images[cam.id].tobytes() == expected.tobytes()
    for cid, img in back.images.items():
        assert img.dtype == np.float64 and img.tobytes() == back.images[cid].tobytes()


def test_short_period_point_line_names_path_and_line(tmp_path):
    dataio.generate_synthetic(single_blob_spec(T=2), tmp_path / "ds")
    path = os.path.join(tmp_path / "ds", "points3D.txt")
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
    voxel = voxel_size_for_points(ds.points, 0.05)
    s = init_scaffold(ds.points, voxel, T=2, d_b=4, d_v=4, K=2)
    assert len(s) >= len(spec.primitives)


def test_per_period_point_files_are_ignored(tmp_path):
    """The generator writes one points3D.txt, and the loader reads only that
    file: a malformed per-period point list beside it changes nothing."""
    ds = dataio.generate_synthetic(single_blob_spec(T=2), tmp_path / "ds")
    assert sorted(p.name for p in (tmp_path / "ds").glob("points3D*")) == ["points3D.txt"]
    (tmp_path / "ds" / "points3D_1.txt").write_text("1 0.5 0.25\n")
    back = dataio.load_dataset(tmp_path / "ds")
    np.testing.assert_array_equal(back.points, ds.points)


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
