import json

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def identity_camera(width=16, height=16, fx=20.0, fy=20.0, z_offset=2.5, period=0):
    """Camera at the world origin looking down +z, scene pushed to depth z_offset."""
    from periodsplat.geom import Camera
    return Camera(id=0, width=width, height=height, fx=fx, fy=fy,
                  cx=width / 2.0, cy=height / 2.0,
                  rotation=np.array([1.0, 0.0, 0.0, 0.0]),
                  translation=np.array([0.0, 0.0, z_offset]), period=period)


def micro_scene(rng, n=3, d_b=4, d_v=4, d_g=6, K=4, d_f=8, T=2, opacity_bias=0.35):
    """Small scaffold + decoder weights with every slot active and away from
    the cap/skip/stop boundaries; suitable for finite-difference checks."""
    from periodsplat.decoder import init_decoder_weights
    from periodsplat.scaffold import AnchorScaffold
    positions = np.array([[0.0, 0.0, 0.0], [0.45, 0.1, 0.12], [-0.3, -0.25, 0.2]])[:n]
    scaffold = AnchorScaffold(
        positions=positions,
        f_base=rng.normal(size=(n, d_b)) * 0.5,
        f_var=rng.normal(size=(n, T, d_v)) * 0.5,
        offsets=rng.normal(size=(n, K, 3)) * 0.8,
        offset_scale=0.25 * rng.uniform(0.8, 1.2, size=(n, 3)),
        shape_scale=0.3 * rng.uniform(0.8, 1.2, size=(n, 3)),
        voxel_size=0.3, box_min=positions.min(axis=0),
    )
    weights = init_decoder_weights(rng, d_b + d_v + d_g + 3, d_f, K, opacity_bias)
    global_g = rng.normal(size=(T, d_g)) * 0.5
    return scaffold, weights, global_g


def central_difference(fn, arr, indices, h=1e-5):
    """Central finite differences of scalar fn() for flat indices of arr."""
    flat = arr.reshape(-1)
    out = {}
    for i in indices:
        orig = flat[i]
        flat[i] = orig + h
        fp = fn()
        flat[i] = orig - h
        fm = fn()
        flat[i] = orig
        out[i] = (fp - fm) / (2 * h)
    return out


def rewrite_checkpoint(src, dst, edit):
    """Copy checkpoint src to dst with edit(sections) applied to its section
    dict; the copy gets a valid CRC, so that only the edit is at fault."""
    from periodsplat import trainer
    sections = trainer._read_sections(src)
    edit(sections)
    trainer._write_sections(sections.items(), dst)


def _drop_global(sections):
    del sections["global.g"]


def _unknown_dtype(sections):
    sections["global.g"] = bytes([7]) + sections["global.g"][1:]


def _short_payload(sections):
    sections["global.g"] = sections["global.g"][:-8]


def _meta_not_json(sections):
    sections["meta"] = b'{"T": 2'


def _set_tensor(name, edit):
    """A fault that replaces tensor section `name` by edit(its array)."""
    def fault(sections):
        from periodsplat import trainer
        sections[name] = trainer._encode_tensor(edit(trainer._decode_tensor(sections[name])))
    return fault


def _set_json(section, key, value):
    """A fault that sets `key` of JSON section `section` to `value`."""
    def fault(sections):
        record = json.loads(sections[section])
        record[key] = value
        sections[section] = json.dumps(record, sort_keys=True).encode()
    return fault


def _first_value(value):
    """An edit for _set_tensor that sets the first element of a copy to value."""
    def edit(arr):
        arr = arr.copy()
        arr.flat[0] = value
        return arr
    return edit


def _append_config(line):
    """A fault that appends `line` to the config text; a later key wins."""
    def fault(sections):
        sections["config"] += line.encode() + b"\n"
    return fault


# CRC-valid checkpoint faults, each of which must read as CorruptChecksum.
CHECKPOINT_FAULTS = {
    "missing_section": _drop_global, "unknown_dtype": _unknown_dtype,
    "short_payload": _short_payload, "meta_not_json": _meta_not_json,
    "f_var_five_rows": _set_tensor("scaffold.f_var", lambda a: a[:5]),
    "color_W1_ten_columns": _set_tensor("decoder.color.W1", lambda a: a[:, :10]),
    "adam_step_three_rows": _set_tensor("adam.f_base.0.step", lambda a: np.zeros(3, np.int64)),
    "adam_moment_transposed": _set_tensor("adam.mlp_color.0.m", lambda a: a.T),
    "step_as_float": _set_tensor("adam.global_g.0.step", lambda a: a.astype(np.float64)),
    "meta_T_text": _set_json("meta", "T", "2"),
    "meta_T_beyond_tensors": _set_json("meta", "T", 3),
    "meta_voxel_size_text": _set_json("meta", "voxel_size", "x"),
    "meta_anchors_negative": _set_json("meta", "anchors", -1),
    "rng_state_not_decimal": _set_json("rng", "state", "abc"),
    "rng_has_uint32_text": _set_json("rng", "has_uint32", "yes"),
    "rng_has_uint32_two": _set_json("rng", "has_uint32", 2),
    "shape_scale_nan": _set_tensor("scaffold.shape_scale", _first_value(np.nan)),
    "global_g_nan": _set_tensor("global.g", _first_value(np.nan)),
    "adam_v_inf": _set_tensor("adam.f_base.0.v", _first_value(np.inf)),
    "config_K_zero": _append_config("K=0"),
    "config_unknown_key": _append_config("fp16=1"),
}
