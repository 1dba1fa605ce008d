"""Training loop, densification orchestration, and checkpointing.

Training has three phases: plain optimization until densify_start, a
densification phase in [densify_start, densify_end] where anchors are
grown/pruned every densify_interval iterations from statistics collected
over [stats_start, densify_end], and pure optimization afterwards with the
anchor structure frozen. Each iteration renders one training camera at its
own integer period, applies the hybrid loss, backpropagates, and steps Adam
on every parameter group but those of the ablated feature components.

Checkpoints are a single binary file: magic "CGS1", length-prefixed named
sections (config, meta, rng, then the tensors that _tensors lists once for
save and load alike), trailing CRC-32, all tensors little-endian with floats
widened to 64 bit. Saving is atomic (write-temp-then-rename) and
save -> load -> save reproduces the file byte for byte. Loading refuses a
malformed or non-finite value, or a config that fails validation, as
CorruptChecksum.

Reproducibility: the only randomness is a PCG64 generator seeded from the
config; with a fixed BLAS thread count two runs produce bitwise-identical
checkpoints.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from . import raster
from .decoder import DecoderWeights, MlpWeights, init_decoder_weights
from .errors import (ConfigInvalid, CorruptChecksum, EmptyDataset, InternalError,
                     IoError, VersionMismatch)
from .optim import LrSchedule, ParamGroup, adam_step, hybrid_loss, psnr, ssim
from .scaffold import (ROW_FIELDS, AnchorScaffold, accumulate_stats, apply_keep_mask,
                       grow_anchors, init_scaffold, prune_keep_mask, voxel_size_for_points)

CHECKPOINT_MAGIC = b"CGS1"


@dataclass
class TrainConfig:
    """All trainer knobs; addressable one-per-line in key=value config files."""

    d_b: int = 16
    d_v: int = 16
    d_g: int = 32
    K: int = 10
    d_f: int = 64
    total_iters: int = 40000
    densify_start: int = 1500
    densify_end: int = 20000
    densify_interval: int = 100
    stats_start: int = 500
    tau_g: float = 0.0002
    loss_lambda: float = 0.8
    voxel_fraction: float = 0.001
    min_opacity: float = 0.005
    seed: int = 0
    disable_base: bool = False
    disable_var: bool = False
    disable_global: bool = False
    background: tuple = (0.0, 0.0, 0.0)
    opacity_bias: float = 0.1
    log_interval: int = 10
    checkpoint_interval: int = 0  # 0 = final checkpoint only
    eval_interval: int = 0  # 0 = no mid-training eval

    def validate(self):
        if min(self.d_b, self.d_v, self.d_g, self.d_f, self.K) < 1:
            raise ConfigInvalid("feature dimensions and K must be positive")
        if not (0 <= self.densify_start <= self.densify_end <= self.total_iters):
            raise ConfigInvalid(f"need 0 <= densify_start={self.densify_start} <= densify_end="
                                f"{self.densify_end} <= total_iters={self.total_iters}")
        if not (0 <= self.stats_start <= self.densify_start):
            raise ConfigInvalid(f"need 0 <= stats_start={self.stats_start} <= "
                                f"densify_start={self.densify_start}")
        if self.densify_interval < 1:
            raise ConfigInvalid("densify_interval must be positive")
        if not (0.0 <= self.loss_lambda <= 1.0):
            raise ConfigInvalid("loss_lambda must lie in [0, 1]")
        inf = math.inf  # every comparison below is False for NaN
        for key, ok, need in (
                ("voxel_fraction", 0 < self.voxel_fraction < inf, "positive and finite"),
                ("tau_g", 0 <= self.tau_g < inf, "non-negative and finite"),
                ("min_opacity", 0 <= self.min_opacity <= 1, "in [0, 1]"),
                ("opacity_bias", -inf < self.opacity_bias < inf, "finite"),
                *((key, getattr(self, key) >= 0, "non-negative")
                  for key in ("seed", "log_interval", "checkpoint_interval", "eval_interval"))):
            if not ok:
                raise ConfigInvalid(f"{key} must be {need}")
        if len(self.background) != 3 or any(not (0 <= b <= 1) for b in self.background):
            raise ConfigInvalid("background must be three values in [0, 1]")
        return self

    @staticmethod
    def desk_preset(**overrides):
        """Schedule scaled down from the full 40k run to workstation scale."""
        cfg = TrainConfig(
            total_iters=5000,
            stats_start=100,
            densify_start=300, densify_end=2500, densify_interval=100,
            voxel_fraction=0.04,
        )
        return replace(cfg, **overrides).validate()

    @property
    def ablate(self):
        return (self.disable_base, self.disable_var, self.disable_global)


_CONFIG_FIELDS = {f.name: f for f in fields(TrainConfig)}
# Keys of deleted fields that older checkpoints' config text still holds: (old type,
# the only value accepted, as a run now behaves, or None for any; what to set instead).
# stats_end is accepted from densify_start on; see config_from_text.
_RETIRED_KEYS = {
    "deterministic": ("bool", None, ""),
    "warmup_end": ("int", None, ""),
    "dtype": ("str", "f64", "parameters are always stored in f64"),
    "voxel_size": ("float", 0.0, "use voxel_fraction"),
    "min_visibility": ("int", 0, "use densify_interval; half of it is the minimum"),
    "prune_min_samples": ("int", 0, "use densify_interval; half of it is the minimum"),
    "randomize_background": ("bool", False, "use background"),
    "balance_periods": ("bool", False, "each epoch is one permutation of all training cameras"),
    "stats_end": ("int", None, "statistics run from stats_start to densify_end"),
}


def config_to_text(cfg):
    lines = []
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, tuple):
            text = ",".join(repr(float(v)) for v in value)
        else:
            text = str(value)
        lines.append(f"{name}={text}")
    return "\n".join(lines) + "\n"


def config_from_text(text, base=None):
    """Parse flat key=value lines. Unknown keys are hard errors, and so is a
    retired key set to a value that would change a run."""
    cfg = base or TrainConfig()
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {ln}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _CONFIG_FIELDS and key not in _RETIRED_KEYS:
            raise ConfigInvalid(f"unknown config key {key!r}")
        ftype = _RETIRED_KEYS[key][0] if key in _RETIRED_KEYS else _CONFIG_FIELDS[key].type
        try:
            if ftype == "bool":
                if val.lower() not in ("true", "false", "0", "1"):
                    raise ValueError(f"bad boolean {val!r}")
                values[key] = val.lower() in ("true", "1")
            elif ftype == "int":
                values[key] = int(val)
            elif ftype == "float":
                values[key] = float(val)
            elif ftype == "tuple":
                values[key] = tuple(float(v) for v in val.split(","))
            else:
                values[key] = val
        except ValueError as exc:
            raise ConfigInvalid(f"config key {key}: {exc}") from exc
    retired = {key: values.pop(key) for key in _RETIRED_KEYS if key in values}
    for key, value in retired.items():
        _, kept, instead = _RETIRED_KEYS[key]
        if kept is not None and value != kept:
            raise ConfigInvalid(f"config key {key} is retired and accepts only {kept!r}, "
                                f"not {value!r}; {instead}")
    cfg = replace(cfg, **values)
    if retired.get("stats_end", cfg.densify_start) < cfg.densify_start:  # a gap in statistics
        raise ConfigInvalid(f"config key stats_end is retired and accepts only values >= "
                            f"densify_start={cfg.densify_start}; {_RETIRED_KEYS['stats_end'][2]}")
    return cfg


class TrainState:
    """Everything that evolves during training."""

    def __init__(self, config, T, scaffold, global_g, weights, groups, rng,
                 spatial_lr_scale, iteration=0):
        self.config = config
        self.T = T
        self.scaffold = scaffold
        self.global_g = global_g
        self.weights = weights
        self.groups = groups
        self.rng = rng
        self.spatial_lr_scale = spatial_lr_scale
        self.iteration = iteration
        self._epoch_queue = []


def _build_groups(config, scaffold, global_g, weights, spatial_lr_scale):
    total = config.total_iters
    sls = spatial_lr_scale

    def sched(initial, final=None):
        return LrSchedule(initial, initial if final is None else final, total)

    groups = {
        "offsets": ParamGroup("offsets", [scaffold.offsets],
                              sched(0.01 * sls, 0.0001 * sls), row_state=True),
        "offset_scale": ParamGroup("offset_scale", [scaffold.offset_scale],
                                   sched(0.007), row_state=True),
        "shape_scale": ParamGroup("shape_scale", [scaffold.shape_scale],
                                  sched(0.007), row_state=True),
        "f_base": ParamGroup("f_base", [scaffold.f_base], sched(0.0075), row_state=True),
        "f_var": ParamGroup("f_var", [scaffold.f_var], sched(0.002), row_state=True),
        "global_g": ParamGroup("global_g", [global_g], sched(0.0075)),
        "mlp_opacity": ParamGroup("mlp_opacity", weights.opacity.arrays(),
                                  sched(0.002, 0.00002)),
        "mlp_covariance": ParamGroup("mlp_covariance", weights.covariance.arrays(),
                                     sched(0.004)),
        "mlp_color": ParamGroup("mlp_color", weights.color.arrays(),
                                sched(0.008, 0.00005)),
    }
    return groups


def init_state(config, dataset):
    config.validate()
    if not dataset.cameras:
        raise EmptyDataset("dataset has no cameras")
    per_period_images = [0] * dataset.T
    for cam in dataset.cameras:
        per_period_images[cam.period] += 1
    if min(per_period_images) == 0:
        raise EmptyDataset("every period needs at least one image")

    voxel = voxel_size_for_points(dataset.points, config.voxel_fraction)
    scaffold = init_scaffold(dataset.points, voxel, T=dataset.T,
                             d_b=config.d_b, d_v=config.d_v, K=config.K)

    centers = np.stack([cam.center() for cam in dataset.cameras])
    radius = float(np.linalg.norm(centers - centers.mean(axis=0), axis=1).max())
    spatial_lr_scale = 1.1 * (radius if radius > 0 else 1.0)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    weights = init_decoder_weights(rng, config.d_b + config.d_v + config.d_g + 3,
                                   config.d_f, config.K, config.opacity_bias)
    global_g = np.zeros((dataset.T, config.d_g))

    groups = _build_groups(config, scaffold, global_g, weights, spatial_lr_scale)
    return TrainState(config, dataset.T, scaffold, global_g, weights, groups,
                      rng, spatial_lr_scale)


def _stats_enabled(config, iteration):
    return config.stats_start <= iteration <= config.densify_end


def _densify_due(config, iteration):
    return (config.densify_start <= iteration <= config.densify_end
            and (iteration - config.densify_start) % config.densify_interval == 0)


def render_from_state(state, camera, t):
    return raster.render(
        state.scaffold, camera, t, state.weights, state.global_g,
        background=np.asarray(state.config.background, dtype=np.float64))


def training_step(state, camera, image):
    """One forward/backward/update cycle at the camera's own period.

    A non-finite loss or gradient raises InternalError before anything is
    updated.
    """
    cfg = state.config
    graph = render_from_state(state, camera, camera.period)
    report, grad_image = hybrid_loss(graph.image, image, cfg.loss_lambda)
    if not math.isfinite(report.total):
        raise InternalError(f"non-finite loss {report.total} at iteration {state.iteration}")
    grads = raster.render_backward(graph, grad_image)
    # A row group's gradient carries the name of its scaffold array.
    grad_map = {name: [getattr(grads, name)] for name, g in state.groups.items() if g.row_state}
    grad_map.update(global_g=[grads.g], mlp_opacity=grads.opacity_mlp.arrays(),
                    mlp_covariance=grads.covariance_mlp.arrays(),
                    mlp_color=grads.color_mlp.arrays())
    for name, arrays in grad_map.items():
        if not all(np.isfinite(g).all() for g in arrays):
            raise InternalError(f"non-finite gradient in group {name!r} "
                                f"at iteration {state.iteration}")

    if _stats_enabled(cfg, state.iteration):
        accumulate_stats(state.scaffold, graph, grads)
    # An ablated component starts at zero and is never stepped, so it stays zero.
    frozen = {name for name, off in zip(("f_base", "f_var", "global_g"), cfg.ablate) if off}
    for name, group in state.groups.items():
        if name in frozen:
            continue
        adam_step(group, grad_map[name], state.iteration)

    state.iteration += 1
    return report


def densify(state):
    """One grow + prune event; keeps optimizer state aligned with the scaffold.
    Each row_state group is named after the scaffold array it updates."""
    cfg = state.config
    min_samples = max(1, cfg.densify_interval // 2)  # sightings before growing or pruning
    added = grow_anchors(state.scaffold, cfg.tau_g, min_samples)
    keep = prune_keep_mask(state.scaffold, cfg.min_opacity, min_samples)
    removed = apply_keep_mask(state.scaffold, keep)
    for group in state.groups.values():
        if group.row_state:
            group.resize_rows(getattr(state.scaffold, group.name), added, keep)
    return added, removed


def _next_camera(state, dataset):
    cams = dataset.train_cameras()
    if not state._epoch_queue:
        state._epoch_queue = list(state.rng.permutation(len(cams)))
    return cams[state._epoch_queue.pop()]


def evaluate(state, dataset):
    """Held-out metrics per period and averaged across periods."""
    per_period = {}
    for cam in dataset.test_cameras():
        graph = render_from_state(state, cam, cam.period)
        gt = dataset.images[cam.id]
        entry = per_period.setdefault(cam.period, {"psnr": [], "ssim": []})
        entry["psnr"].append(psnr(graph.image, gt))
        entry["ssim"].append(ssim(graph.image, gt)[0])
    summary = {"per_period": {}, "psnr_mean": 0.0, "ssim_mean": 0.0}
    for t in sorted(per_period):
        summary["per_period"][str(t)] = {
            "psnr": float(np.mean(per_period[t]["psnr"])),
            "ssim": float(np.mean(per_period[t]["ssim"])),
            "count": len(per_period[t]["psnr"]),
        }
    if summary["per_period"]:
        summary["psnr_mean"] = float(np.mean([v["psnr"] for v in summary["per_period"].values()]))
        summary["ssim_mean"] = float(np.mean([v["ssim"] for v in summary["per_period"].values()]))
    return summary


def train(config, dataset, out_path=None, log_path=None):
    """Run the full training schedule; returns the final TrainState.

    Writes a checkpoint to out_path (and every checkpoint_interval
    iterations) and appends line-delimited JSON metric records to log_path.
    """
    state = init_state(config, dataset)
    log_file = open(log_path, "w") if log_path else None
    # A dataset without test views has nothing to evaluate.
    evaluates = bool(dataset.test_cameras())

    def log(record):
        if log_file:
            log_file.write(json.dumps(record, sort_keys=True) + "\n")

    try:
        for it in range(config.total_iters):
            cam = _next_camera(state, dataset)
            report = training_step(state, cam, dataset.images[cam.id])
            densified = None
            if _densify_due(config, it):
                densified = densify(state)
            if config.log_interval and (it % config.log_interval == 0 or densified):
                record = {"iter": it, "total": report.total, "l1": report.l1,
                          "ssim": report.ssim, "anchors": len(state.scaffold)}
                if densified:
                    record["grown"], record["pruned"] = densified
                log(record)
            if evaluates and config.eval_interval and it and it % config.eval_interval == 0:
                log({"iter": it, "eval": evaluate(state, dataset)})
            if out_path and config.checkpoint_interval and it and it % config.checkpoint_interval == 0:
                save_checkpoint(state, out_path)
        if evaluates and log_file:
            log({"iter": config.total_iters, "eval": evaluate(state, dataset)})
        if out_path:
            save_checkpoint(state, out_path)
    finally:
        if log_file:
            log_file.close()
    return state


# ---------------------------------------------------------------------------
# Checkpoint format

# Tensors are stored little-endian whatever the host's byte order.
_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<i8")}


def _encode_tensor(arr):
    if arr.dtype.kind == "f":
        code = 0
    elif arr.dtype.kind in "iub":
        code = 1
    else:
        raise ValueError(f"cannot encode dtype {arr.dtype}")
    header = struct.pack("<BB", code, arr.ndim)
    dims = struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return header + dims + arr.astype(_DTYPE_CODES[code]).tobytes(order="C")


def _decode_tensor(payload):
    """Inverse of _encode_tensor; CorruptChecksum if the payload is not one."""
    try:
        code, ndim = struct.unpack_from("<BB", payload, 0)
        shape = struct.unpack_from(f"<{ndim}Q", payload, 2) if ndim else ()
    except struct.error as exc:
        raise CorruptChecksum(f"truncated tensor header: {exc}") from exc
    if code not in _DTYPE_CODES:
        raise CorruptChecksum(f"unknown tensor dtype code {code}")
    dtype = _DTYPE_CODES[code]
    offset = 2 + 8 * ndim
    if len(payload) - offset != math.prod(shape) * dtype.itemsize:
        raise CorruptChecksum(f"tensor payload of {len(payload) - offset} bytes "
                              f"does not hold shape {shape}")
    try:  # numpy refuses more than 64 axes, and an empty array's huge ones
        arr = np.frombuffer(payload, dtype=dtype, offset=offset).reshape(shape)
    except ValueError as exc:
        raise CorruptChecksum(f"tensor shape {shape}: {exc}") from exc
    return arr.astype(dtype.newbyteorder("="))


def _parameter_shapes(config, T, n):
    """Shape of each parameter section of a checkpoint with this config, T
    periods and n anchors; ROW_FIELDS lead with one row per anchor."""
    c = config
    shapes = {"scaffold.positions": (n, 3), "scaffold.f_base": (n, c.d_b),
              "scaffold.f_var": (n, T, c.d_v), "scaffold.offsets": (n, c.K, 3),
              "scaffold.offset_scale": (n, 3), "scaffold.shape_scale": (n, 3),
              "scaffold.box_min": (3,), "global.g": (T, c.d_g)}
    in_dim = c.d_b + c.d_v + c.d_g + 3
    for head, out in (("opacity", c.K), ("color", 3 * c.K), ("covariance", 7 * c.K)):
        shapes.update({f"decoder.{head}.W1": (c.d_f, in_dim), f"decoder.{head}.b1": (c.d_f,),
                       f"decoder.{head}.W2": (out, c.d_f), f"decoder.{head}.b2": (out,)})
    return shapes


def _int_in(low, high):
    return lambda v: type(v) is int and low <= v < high


def _positive(v):
    return type(v) in (int, float) and 0 < v < math.inf


def _u128_text(v):
    return type(v) is str and v.isascii() and v.isdigit() and len(v) <= 39 and int(v) < 2**128


def _tensors(state):
    """Yield (section name, array) for each tensor section of state's
    checkpoint, in file order; the one list that save and load both walk."""
    for name in ROW_FIELDS:
        yield f"scaffold.{name}", getattr(state.scaffold, name)
    yield "scaffold.box_min", state.scaffold.box_min
    yield "global.g", state.global_g
    for head in ("opacity", "color", "covariance"):
        for arr_name, arr in zip(("W1", "b1", "W2", "b2"), getattr(state.weights, head).arrays()):
            yield f"decoder.{head}.{arr_name}", arr
    for name in sorted(state.groups):
        group = state.groups[name]
        for i in range(len(group.params)):
            yield f"adam.{name}.{i}.m", group.m[i]
            yield f"adam.{name}.{i}.v", group.v[i]
            yield f"adam.{name}.{i}.step", group.step[i]


def save_checkpoint(state, path):
    meta = {"T": state.T, "iteration": state.iteration, "anchors": len(state.scaffold),
            "spatial_lr_scale": state.spatial_lr_scale, "voxel_size": state.scaffold.voxel_size}
    bits = state.rng.bit_generator.state
    rng = {"state": str(bits["state"]["state"]), "inc": str(bits["state"]["inc"]),
           "has_uint32": bits["has_uint32"], "uinteger": bits["uinteger"]}
    _write_sections([("config", config_to_text(state.config).encode()),
                     ("meta", json.dumps(meta, sort_keys=True).encode()),
                     ("rng", json.dumps(rng, sort_keys=True).encode()),
                     *((name, _encode_tensor(arr)) for name, arr in _tensors(state))], path)


def _write_sections(sections, path):
    """Write (name, payload) pairs as a checkpoint file; inverse of _read_sections."""
    blob = bytearray(CHECKPOINT_MAGIC)
    for name, payload in sections:
        encoded = name.encode()
        blob += struct.pack("<I", len(encoded)) + encoded
        blob += struct.pack("<Q", len(payload)) + payload
    blob += struct.pack("<I", zlib.crc32(bytes(blob)))
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(blob)
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _read_sections(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if len(blob) < len(CHECKPOINT_MAGIC) + 4:
        raise CorruptChecksum("file too short to be a checkpoint")
    if blob[:3] != CHECKPOINT_MAGIC[:3]:
        raise CorruptChecksum("not a checkpoint file (bad magic)")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise VersionMismatch(f"unsupported checkpoint version {blob[3:4]!r}")
    body, tail = blob[:-4], blob[-4:]
    if zlib.crc32(body) != struct.unpack("<I", tail)[0]:
        raise CorruptChecksum("CRC-32 mismatch")
    sections = {}
    pos = 4
    while pos < len(body):
        try:
            (name_len,) = struct.unpack_from("<I", body, pos)
            pos += 4
            name = body[pos:pos + name_len].decode()
            pos += name_len
            (payload_len,) = struct.unpack_from("<Q", body, pos)
            pos += 8
            sections[name] = body[pos:pos + payload_len]
            pos += payload_len
        except (struct.error, UnicodeDecodeError) as exc:
            raise CorruptChecksum(f"malformed section table: {exc}") from exc
    return sections


def load_checkpoint(path):
    """Rebuild a TrainState from a checkpoint file.

    A CRC-valid file that lacks a section, holds a malformed one or a config
    that fails validation, a meta or rng value of the wrong type or range, a
    tensor of another shape or dtype than its config and meta imply, or a
    non-finite value raises CorruptChecksum, like a file that fails its CRC.
    """
    sections = _read_sections(path)

    def section(name):
        try:
            return sections[name]
        except KeyError:
            raise CorruptChecksum(f"checkpoint has no section {name!r}") from None

    def json_section(name, checks):
        try:
            record = json.loads(section(name).decode())
            values = {key: record[key] for key in checks}
        except (ValueError, KeyError, TypeError) as exc:
            raise CorruptChecksum(f"malformed section {name!r}: {exc!r}") from exc
        for key, ok in checks.items():
            if not ok(values[key]):
                raise CorruptChecksum(f"section {name!r} holds {key}={values[key]!r}")
        return values

    def tensor(name, shape, dtype):
        arr = _decode_tensor(section(name))
        if arr.shape != shape or arr.dtype != dtype:
            raise CorruptChecksum(f"section {name!r} holds {arr.dtype} {arr.shape}, "
                                  f"not {np.dtype(dtype)} {shape}")
        if not np.isfinite(arr).all():
            raise CorruptChecksum(f"section {name!r} holds a non-finite value")
        return arr

    try:
        config = config_from_text(section("config").decode()).validate()
    except (UnicodeDecodeError, ConfigInvalid) as exc:
        raise CorruptChecksum(f"malformed section 'config': {exc}") from exc
    meta = json_section("meta", {"T": _int_in(1, math.inf), "iteration": _int_in(0, math.inf),
                                 "anchors": _int_in(0, math.inf),
                                 "spatial_lr_scale": _positive, "voxel_size": _positive})
    params = {name: tensor(name, shape, np.float64) for name, shape
              in _parameter_shapes(config, meta["T"], meta["anchors"]).items()}
    scaffold = AnchorScaffold(**{name: params[f"scaffold.{name}"] for name in ROW_FIELDS},
                              voxel_size=meta["voxel_size"], box_min=params["scaffold.box_min"])
    global_g = params["global.g"]
    weights = DecoderWeights(**{
        head: MlpWeights(*(params[f"decoder.{head}.{arr}"] for arr in ("W1", "b1", "W2", "b2")))
        for head in ("opacity", "color", "covariance")})

    groups = _build_groups(config, scaffold, global_g, weights, meta["spatial_lr_scale"])
    rng_meta = json_section("rng", {"state": _u128_text, "inc": _u128_text,
                                    "has_uint32": _int_in(0, 2), "uinteger": _int_in(0, 2**32)})
    rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": int(rng_meta["state"]), "inc": int(rng_meta["inc"])},
        "has_uint32": rng_meta["has_uint32"],
        "uinteger": rng_meta["uinteger"],
    }
    state = TrainState(config, meta["T"], scaffold, global_g, weights, groups, rng,
                       meta["spatial_lr_scale"], iteration=meta["iteration"])
    # _build_groups sized the Adam state by the checked parameters; fill it in place.
    for name, arr in _tensors(state):
        if name not in params:
            arr[...] = tensor(name, arr.shape, arr.dtype)
    return state
