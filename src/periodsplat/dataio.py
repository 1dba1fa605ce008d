"""Dataset ingestion, image I/O, and the synthetic multi-period generator.

On-disk dataset layout (COLMAP text convention plus two manifests):

    dataset/
      cameras.txt            COLMAP camera intrinsics (PINHOLE / SIMPLE_PINHOLE)
      images.txt             COLMAP extrinsics; two lines per image
      points3D.txt           union sparse points across all periods
      periods.txt            "image_name period_id" per line, ids contiguous 0..T-1
      split.txt              optional "image_name train|test" per line
      images/<image_name>    PPM (P6) image files

A PPM header is "P6" and unsigned decimal width, height and maxval 255,
separated by whitespace or "#" comments. read_cameras reads the cameras
from the first two files alone. Each manifest (periods.txt, split.txt)
lists every image exactly once. Without split.txt, even positions in
images.txt order train and odd ones test. Other files, per-period point
lists included, are ignored: the scaffold reads only the union of all
periods' points. Ground-truth images from the synthetic generator are
rendered with this package's own rasterizer, so a trained model can reach
them exactly.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (EmptyDataset, IoError, MissingFile, NonContiguousPeriods, ParseError,
                     SpecInvalid, UnknownImage, UnsupportedCameraModel)
from .geom import MAX_PIXELS, Camera, Gaussian3D, quat_normalize, rotmat_to_quat
from .raster import render_gaussians

FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# PPM (P6, maxval 255)

# "P6", then width, height and maxval as unsigned decimals of at most nine digits, each
# after whitespace or "#" comments to the end of a line, then one whitespace byte.
_PPM_HEADER = re.compile(rb"P6" + rb"(?:\s|#[^\n]*\n)+(\d{1,9})" * 3 + rb"\s")


def read_ppm(path, raw=False):
    """Read a binary PPM into an (H, W, 3) float array in [0, 1], or with
    raw=True into its uint8 pixels."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    header = _PPM_HEADER.match(data)
    if header is None:
        raise ParseError("not a P6 header of three decimal fields", path=path)
    width, height, maxval = map(int, header.groups())
    if maxval != 255:
        raise ParseError(f"only maxval 255 is supported, got {maxval}", path=path)
    need = width * height * 3
    if len(data) - header.end() < need:
        raise ParseError("truncated PPM pixel data", path=path)
    pixels = np.frombuffer(data, np.uint8, need, header.end()).reshape(height, width, 3)
    return pixels if raw else _unit_float(pixels)


def _unit_float(pixels):
    return pixels.astype(np.float64) / 255.0


def write_ppm(path, image):
    """Write an (H, W, 3) array in [0, 1] as binary PPM (values rounded)."""
    image = np.asarray(image)
    h, w = image.shape[:2]
    quant = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    try:
        with open(path, "wb") as f:
            f.write(b"P6\n%d %d\n255\n" % (w, h))
            f.write(quant.tobytes())
    except OSError as exc:
        raise IoError(str(exc)) from exc


# ---------------------------------------------------------------------------
# COLMAP text files

def _lines(path):
    """Yield (line_number, stripped_line) for every line of a UTF-8 text file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            for i, line in enumerate(f, start=1):
                yield i, line.strip()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}", path=path) from exc


def _data_lines(path):
    """Yield (line_number, stripped_line) for non-comment, non-blank lines."""
    return ((i, line) for i, line in _lines(path) if line and not line.startswith("#"))


def _require(path):
    if not os.path.isfile(path):
        raise MissingFile(f"{path} is missing")
    return path


def parse_colmap(directory):
    """Parse cameras.txt + images.txt + points3D.txt into per-image cameras
    and an (N, 3) point array; the inverse of write_colmap."""
    return read_cameras(directory), read_points(_require(os.path.join(directory, "points3D.txt")))


def read_cameras(directory):
    """Per-image cameras from cameras.txt + images.txt, sorted by image id.
    2D observation lines and unknown trailing columns are ignored; periods
    are filled in separately. A value that no Camera accepts is a ParseError
    at its line."""
    cam_path = _require(os.path.join(directory, "cameras.txt"))
    img_path = _require(os.path.join(directory, "images.txt"))

    intrinsics = {}
    for ln, line in _data_lines(cam_path):
        parts = line.split()
        if len(parts) < 4:
            raise ParseError("camera line needs at least 4 fields", path=cam_path, line=ln)
        try:
            cam_id = int(parts[0])
            model = parts[1]
            width, height = int(parts[2]), int(parts[3])
            params = [float(p) for p in parts[4:]]
        except ValueError as exc:
            raise ParseError(str(exc), path=cam_path, line=ln) from exc
        if model == "PINHOLE":
            if len(params) < 4:
                raise ParseError("PINHOLE needs fx fy cx cy", path=cam_path, line=ln)
            fx, fy, cx, cy = params[:4]
        elif model == "SIMPLE_PINHOLE":
            if len(params) < 3:
                raise ParseError("SIMPLE_PINHOLE needs f cx cy", path=cam_path, line=ln)
            fx = fy = params[0]
            cx, cy = params[1], params[2]
        else:
            raise UnsupportedCameraModel(f"{model} (line {ln} of {cam_path})")
        try:  # at the identity pose; each image line sets its own
            intrinsics[cam_id] = Camera(cam_id, width, height, fx, fy, cx, cy,
                                        rotation=[1.0, 0.0, 0.0, 0.0], translation=np.zeros(3))
        except ValueError as exc:
            raise ParseError(str(exc), path=cam_path, line=ln) from exc

    cameras = []
    seen_ids, seen_names = set(), set()
    expect_pose = True
    for ln, line in _lines(img_path):
        if line.startswith("#"):
            continue
        if not expect_pose:
            expect_pose = True  # observation line (possibly empty), ignored
            continue
        if not line:
            continue
        parts = line.split()
        if len(parts) < 10:
            raise ParseError("image line needs 10 fields", path=img_path, line=ln)
        try:
            image_id, cam_id = int(parts[0]), int(parts[8])
            if cam_id not in intrinsics:
                raise ValueError(f"image references unknown camera {cam_id}")
            if image_id in seen_ids:
                raise ValueError(f"image id {image_id} is repeated")
            if parts[9] in seen_names:
                raise ValueError(f"image name {parts[9]!r} is repeated")
            seen_ids.add(image_id)
            seen_names.add(parts[9])
            cameras.append(replace(
                intrinsics[cam_id], id=image_id,
                rotation=quat_normalize([float(p) for p in parts[1:5]]),
                translation=np.array([float(p) for p in parts[5:8]]), image_name=parts[9]))
        except ValueError as exc:
            raise ParseError(str(exc), path=img_path, line=ln) from exc
        expect_pose = False

    cameras.sort(key=lambda c: c.id)
    return cameras


def read_points(path):
    """(N, 3) positions from a points3D text file; columns after X Y Z are
    ignored."""
    points = []
    for ln, line in _data_lines(path):
        parts = line.split()
        if len(parts) < 4:
            raise ParseError("point line needs at least 4 fields", path=path, line=ln)
        try:
            xyz = [float(parts[1]), float(parts[2]), float(parts[3])]
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=ln) from exc
        if not all(map(math.isfinite, xyz)):
            raise ParseError(f"point {xyz} is not finite", path=path, line=ln)
        points.append(xyz)
    return np.asarray(points, dtype=np.float64).reshape(-1, 3)


def write_colmap(directory, cameras, points):
    """Write cameras/images/points3D text files (inverse of parse_colmap).

    Every camera gets its own CAMERA_ID so arbitrary per-image intrinsics
    round-trip; observation lines are written empty.
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "cameras.txt"), "w") as f:
        f.write("# Camera list: CAMERA_ID MODEL WIDTH HEIGHT PARAMS[]\n")
        for cam in cameras:
            params = " ".join(FLOAT_FMT % v for v in (cam.fx, cam.fy, cam.cx, cam.cy))
            f.write(f"{cam.id} PINHOLE {cam.width} {cam.height} {params}\n")
    with open(os.path.join(directory, "images.txt"), "w") as f:
        f.write("# Image list: IMAGE_ID QW QX QY QZ TX TY TZ CAMERA_ID NAME\n")
        for cam in cameras:
            q = " ".join(FLOAT_FMT % v for v in cam.rotation)
            t = " ".join(FLOAT_FMT % v for v in cam.translation)
            f.write(f"{cam.id} {q} {t} {cam.id} {cam.image_name}\n\n")
    with open(os.path.join(directory, "points3D.txt"), "w") as f:
        f.write("# 3D point list: POINT3D_ID X Y Z R G B ERROR\n")
        for i, p in enumerate(points, start=1):
            xyz = " ".join(FLOAT_FMT % v for v in p)
            f.write(f"{i} {xyz} 128 128 128 0\n")


# ---------------------------------------------------------------------------
# Dataset assembly

class ImageStore(Mapping):
    """Camera id -> (H, W, 3) float image in [0, 1], held as the 8-bit pixels
    read from disk and converted on each access exactly as read_ppm does."""

    def __init__(self, pixels):
        self.pixels = pixels  # camera id -> (H, W, 3) uint8

    def __getitem__(self, cam_id):
        return _unit_float(self.pixels[cam_id])

    def __iter__(self):
        return iter(self.pixels)

    def __len__(self):
        return len(self.pixels)


@dataclass
class MultiPeriodDataset:
    cameras: list  # Camera, sorted by id, periods filled
    images: Mapping  # camera id -> (H, W, 3) float array in [0, 1]
    points: np.ndarray  # (N, 3) sparse points of all periods
    split: dict  # camera id -> "train" | "test"
    T: int

    def train_cameras(self):
        return [c for c in self.cameras if self.split[c.id] == "train"]

    def test_cameras(self):
        return [c for c in self.cameras if self.split[c.id] == "test"]


def _split_tag(value):
    if value not in ("train", "test"):
        raise ValueError(f"expected train or test, got {value!r}")
    return value


def _read_manifest(path, cameras, parse):
    """Camera id -> parse(value) from a manifest of "image_name value" lines
    that names each camera's image exactly once."""
    id_of = {c.image_name: c.id for c in cameras}
    values = {}
    for ln, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'image_name value'", path=path, line=ln)
        name, value = parts
        if name not in id_of:
            raise UnknownImage(f"{path} names {name!r}, absent from images.txt")
        if id_of[name] in values:
            raise ParseError(f"image {name!r} is repeated", path=path, line=ln)
        try:
            values[id_of[name]] = parse(value)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=ln) from exc
    for cam in cameras:
        if cam.id not in values:
            raise ParseError(f"image {cam.image_name!r} has no entry", path=path)
    return values


def load_dataset(directory):
    """Assemble a MultiPeriodDataset from an on-disk directory."""
    cameras, points = parse_colmap(directory)
    if not cameras:
        raise EmptyDataset(f"no images in {directory}")
    period_of = _read_manifest(_require(os.path.join(directory, "periods.txt")), cameras, int)
    ids = set(period_of.values())
    T = max(ids) + 1
    if ids != set(range(T)):
        raise NonContiguousPeriods(f"period ids {sorted(ids)} are not contiguous 0..{T - 1}")
    for cam in cameras:
        cam.period = period_of[cam.id]

    split_path = os.path.join(directory, "split.txt")
    if os.path.isfile(split_path):
        split = _read_manifest(split_path, cameras, _split_tag)
    else:
        split = {cam.id: "train" if i % 2 == 0 else "test" for i, cam in enumerate(cameras)}

    pixels = {}
    for cam in cameras:
        pixels[cam.id] = read_ppm(os.path.join(directory, "images", cam.image_name), raw=True)
        if pixels[cam.id].shape[:2] != (cam.height, cam.width):
            raise ParseError(f"image {cam.image_name!r} size does not match camera")
    return MultiPeriodDataset(cameras=cameras, images=ImageStore(pixels),
                              points=points, split=split, T=T)


# ---------------------------------------------------------------------------
# Synthetic multi-period scenes

@dataclass
class PrimitiveSpec:
    """One ground-truth Gaussian with its lifespan and optional recoloring."""

    mean: np.ndarray
    rotation: np.ndarray
    scale: np.ndarray
    opacity: float
    color: np.ndarray
    lifespan: set  # period ids during which the primitive exists
    period_colors: dict = field(default_factory=dict)  # period -> RGB override


@dataclass
class SyntheticSceneSpec:
    T: int
    primitives: list
    tint: list  # per-period RGB multipliers in (0, 1]
    orbit_radius: float = 3.0
    orbit_height: float = 1.5
    cams_per_period: int = 8
    width: int = 64
    height: int = 64
    fov_deg: float = 60.0
    seed: int = 0
    points_per_primitive: int = 48
    test_every: int = 2
    # Fraction of the orbit each period's training cameras cover. Below 1,
    # period t trains on an arc starting at phase t/T while its test views
    # still sample the full circle, so static regions unseen by one period's
    # training views are covered by the other periods' (the cross-period
    # supervision regime).
    arc_frac: float = 1.0
    target: np.ndarray = None

    def __post_init__(self):
        for name, minimum in (("T", 1), ("cams_per_period", 1), ("width", 1), ("height", 1),
                              ("seed", 0), ("points_per_primitive", 1), ("test_every", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise SpecInvalid(f"{name} must be an integer, got {value!r}")
            if value < minimum:
                raise SpecInvalid(f"{name} must be at least {minimum}, got {value}")
        if self.width * self.height > MAX_PIXELS:
            raise SpecInvalid(f"width x height = {self.width}x{self.height} exceeds "
                              f"MAX_PIXELS={MAX_PIXELS}")
        if self.target is None:
            self.target = np.zeros(3)
        self.target = np.asarray(self.target, dtype=np.float64)
        if self.target.shape != (3,) or not np.isfinite(self.target).all():
            raise SpecInvalid(f"target must be three finite numbers, got {self.target}")
        orbit = (self.orbit_radius, self.orbit_height)
        if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
                   for v in orbit):
            raise SpecInvalid(f"orbit_radius and orbit_height must be finite numbers, got {orbit}")
        if math.hypot(*orbit) == 0:
            raise SpecInvalid("orbit_radius and orbit_height are both 0: "
                              "every camera would sit on its target")
        if len(self.tint) != self.T:
            raise SpecInvalid("need one tint per period")
        for tint in self.tint:
            arr = np.asarray(tint, dtype=np.float64)
            if np.any(arr <= 0) or np.any(arr > 1):
                raise SpecInvalid("tint components must lie in (0, 1]")
        if not (0.0 < self.arc_frac <= 1.0):
            raise SpecInvalid("arc_frac must lie in (0, 1]")
        for t in range(self.T):
            if not any(t in p.lifespan for p in self.primitives):
                raise SpecInvalid(f"period {t} has no live primitive")
        for p in self.primitives:
            if any(t < 0 or t >= self.T for t in p.lifespan):
                raise SpecInvalid("primitive lifespan outside [0, T)")
        if not (0 < self.fov_deg < 180):
            raise SpecInvalid("fov_deg must lie in (0, 180)")
        for t in range(self.T):
            try:
                ground_truth_gaussians(self, t)
            except ValueError as exc:
                raise SpecInvalid(f"a primitive of period {t} is invalid: {exc}") from exc


def spec_from_json(path):
    try:
        with open(path, "r") as f:
            raw = json.load(f)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(str(exc), path=path) from exc
    try:
        prims = [
            PrimitiveSpec(
                mean=np.asarray(p["mean"], dtype=np.float64),
                rotation=quat_normalize(p.get("rotation", [1, 0, 0, 0])),
                scale=np.asarray(p["scale"], dtype=np.float64),
                opacity=float(p["opacity"]),
                color=np.asarray(p["color"], dtype=np.float64),
                lifespan=set(p["lifespan"]),
                period_colors={int(k): np.asarray(v, dtype=np.float64)
                               for k, v in p.get("period_colors", {}).items()},
            )
            for p in raw["primitives"]
        ]
        kwargs = {k: raw[k] for k in (
            "orbit_radius", "orbit_height", "cams_per_period", "width", "height",
            "fov_deg", "seed", "points_per_primitive", "test_every", "arc_frac",
            "target") if k in raw}
        return SyntheticSceneSpec(T=raw["T"], primitives=prims, tint=raw["tint"], **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecInvalid(f"bad scene spec: {exc}") from exc


def look_at_camera(cam_id, position, target, width, height, fov_deg, period, name):
    """Camera at `position` looking at `target`, world +z as up; image y down."""
    forward = np.asarray(target, dtype=np.float64) - np.asarray(position, dtype=np.float64)
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-9:
        up = np.array([0.0, 1.0, 0.0])
        right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    R = np.stack([right, down, forward])
    fx = 0.5 * width / np.tan(np.radians(fov_deg) / 2.0)
    return Camera(
        id=cam_id, width=width, height=height, fx=fx, fy=fx,
        cx=width / 2.0, cy=height / 2.0,
        rotation=rotmat_to_quat(R), translation=-R @ np.asarray(position, dtype=np.float64),
        period=period, image_name=name)


def ground_truth_gaussians(spec, t):
    """The period-t truth set: live primitives with period colors and tint."""
    tint = np.asarray(spec.tint[t], dtype=np.float64)
    out = []
    for p in spec.primitives:
        if t in p.lifespan:
            color = np.clip(p.period_colors.get(t, p.color) * tint, 0.0, 1.0)
            out.append(Gaussian3D(p.mean, p.rotation, p.scale, p.opacity, color))
    return out


def generate_synthetic(spec, out_dir):
    """Render and write a synthetic multi-period dataset; returns it."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)

    cameras = []
    images = {}
    split = {}
    cam_id = 1
    for t in range(spec.T):
        truth = ground_truth_gaussians(spec, t)
        if spec.arc_frac < 1.0:
            n_test = spec.cams_per_period // spec.test_every
            n_train = spec.cams_per_period - n_test
            start = 2.0 * np.pi * t / spec.T
            angles = [(start + 2.0 * np.pi * spec.arc_frac * j / n_train, "train")
                      for j in range(n_train)]
            angles += [(2.0 * np.pi * (j + 0.37) / n_test, "test") for j in range(n_test)]
        else:
            angles = []
            for j in range(spec.cams_per_period):
                tag = "test" if (j % spec.test_every) == spec.test_every - 1 else "train"
                angles.append((2.0 * np.pi * (j + t / spec.T) / spec.cams_per_period, tag))
        for j, (angle, tag) in enumerate(angles):
            pos = np.array([
                spec.orbit_radius * np.cos(angle),
                spec.orbit_radius * np.sin(angle),
                spec.orbit_height,
            ]) + spec.target
            name = f"t{t}_cam{j:03d}.ppm"
            cam = look_at_camera(cam_id, pos, spec.target, spec.width, spec.height,
                                 spec.fov_deg, t, name)
            image = render_gaussians(truth, cam)
            write_ppm(os.path.join(out_dir, "images", name), image)
            cameras.append(cam)
            images[cam_id] = image
            split[cam_id] = tag
            cam_id += 1

    points = []  # period by period, so that the RNG order stays fixed
    for t in range(spec.T):
        for p in spec.primitives:
            if t in p.lifespan:
                sigma = float(np.mean(p.scale))
                points.append(p.mean + sigma * rng.normal(size=(spec.points_per_primitive, 3)))
    points = np.concatenate(points, axis=0)

    write_colmap(out_dir, cameras, points)
    with open(os.path.join(out_dir, "periods.txt"), "w") as f:
        f.writelines(f"{cam.image_name} {cam.period}\n" for cam in cameras)
    with open(os.path.join(out_dir, "split.txt"), "w") as f:
        f.writelines(f"{cam.image_name} {split[cam.id]}\n" for cam in cameras)

    return MultiPeriodDataset(cameras=cameras, images=images,
                              points=points, split=split, T=spec.T)
