import os
import subprocess
import sys

import numpy as np
import pytest

from periodsplat import trainer as tr
from periodsplat.dataio import (PrimitiveSpec, SyntheticSceneSpec, generate_synthetic,
                                look_at_camera)
from periodsplat.errors import (ConfigInvalid, CorruptChecksum, EmptyDataset,
                                InternalError, VersionMismatch)
from periodsplat.scaffold import ROW_FIELDS, accumulate_stats, apply_keep_mask

from conftest import CHECKPOINT_FAULTS, rewrite_checkpoint


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    prims = [
        PrimitiveSpec(mean=np.array([0.0, 0.0, -0.3]), rotation=np.array([1.0, 0, 0, 0]),
                      scale=np.array([0.6, 0.6, 0.1]), opacity=0.9,
                      color=np.array([0.3, 0.5, 0.3]), lifespan={0, 1}),
        PrimitiveSpec(mean=np.array([0.2, 0.1, 0.25]), rotation=np.array([1.0, 0, 0, 0]),
                      scale=np.array([0.2, 0.2, 0.25]), opacity=0.9,
                      color=np.array([0.8, 0.3, 0.2]), lifespan={1}),
    ]
    spec = SyntheticSceneSpec(
        T=2, primitives=prims, tint=[(1.0, 0.95, 0.9), (0.9, 0.95, 1.0)],
        orbit_radius=2.4, orbit_height=1.4, cams_per_period=8,
        width=24, height=24, fov_deg=55.0, seed=11, points_per_primitive=16)
    return generate_synthetic(spec, tmp_path_factory.mktemp("tiny") / "ds")


def tiny_config(**over):
    base = dict(total_iters=40, stats_start=5,
                densify_start=15, densify_end=30, densify_interval=10,
                voxel_fraction=0.06, seed=3, log_interval=0)
    base.update(over)
    total = base["total_iters"]
    base["densify_end"] = min(base["densify_end"], total)
    base["densify_start"] = min(base["densify_start"], base["densify_end"])
    base["stats_start"] = min(base["stats_start"], base["densify_start"])
    return tr.TrainConfig.desk_preset(**base)


# ---------------------------------------------------------------------------
# config

def test_config_validation():
    with pytest.raises(ConfigInvalid):
        tr.TrainConfig(total_iters=100, densify_start=50, densify_end=200).validate()
    with pytest.raises(ConfigInvalid):
        tr.TrainConfig(loss_lambda=1.5).validate()
    tr.TrainConfig().validate()


def test_config_text_round_trip():
    cfg = tiny_config(loss_lambda=0.75, disable_var=True,
                      background=(0.25, 0.5, 0.125))
    text = tr.config_to_text(cfg)
    back = tr.config_from_text(text)
    assert back == cfg
    assert tr.config_to_text(back) == text


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigInvalid) as err:
        tr.config_from_text("d_b=16\nlearning_rate=3\n")
    assert "learning_rate" in str(err.value)


def test_config_bad_value_rejected():
    with pytest.raises(ConfigInvalid):
        tr.config_from_text("total_iters=many\n")


@pytest.mark.parametrize("key,kept,changed", [
    ("deterministic", ["true", "false"], "maybe"),
    ("warmup_end", ["0", "500"], "soon"),
    ("dtype", ["f64"], "f32"),
    ("voxel_size", ["0", "0.0"], "0.05"),
    ("min_visibility", ["0"], "3"),
    ("prune_min_samples", ["0"], "3"),
    ("randomize_background", ["false", "0"], "true"),
    ("balance_periods", ["false", "0"], "true"),
    ("stats_end", ["1500", "20000"], "1499"),  # densify_start is 1500
])
def test_config_retired_key_values(key, kept, changed):
    """A retired key loads as a no-op only at a value the program still
    behaves as; any other value is refused and the error names the key."""
    for value in kept:
        assert tr.config_from_text(f"seed=4\n{key}={value}\n") == tr.TrainConfig(seed=4)
    with pytest.raises(ConfigInvalid) as err:
        tr.config_from_text(f"seed=4\n{key}={changed}\n")
    assert key in str(err.value)


def test_config_stats_end_checked_after_parsing():
    """A retired stats_end is compared with the densify_start of the parsed
    text, also when stats_end comes first, as in old checkpoints."""
    old = "stats_start=100\nstats_end=300\ndensify_start=300\n"
    assert tr.config_from_text(old) == tr.TrainConfig(stats_start=100, densify_start=300)
    with pytest.raises(ConfigInvalid, match="stats_end"):
        tr.config_from_text(old.replace("densify_start=300", "densify_start=301"))


# ---------------------------------------------------------------------------
# training loop

def test_train_zero_iters_checkpoint_equals_init(tiny_dataset, tmp_path):
    cfg = tiny_config(total_iters=0, stats_start=0, densify_start=0, densify_end=0)
    state = tr.train(cfg, tiny_dataset, out_path=tmp_path / "a.ckpt")
    fresh = tr.init_state(cfg, tiny_dataset)
    assert state.iteration == 0
    np.testing.assert_array_equal(state.scaffold.f_base, fresh.scaffold.f_base)
    np.testing.assert_array_equal(state.weights.opacity.W1, fresh.weights.opacity.W1)
    loaded = tr.load_checkpoint(tmp_path / "a.ckpt")
    np.testing.assert_array_equal(loaded.scaffold.positions, fresh.scaffold.positions)


def test_training_loss_decreases(tiny_dataset):
    """Windowed average training loss decreases over a short smoke run."""
    cfg = tiny_config(total_iters=200, stats_start=10,
                      densify_start=40, densify_end=150, densify_interval=50, seed=7)
    state = tr.init_state(cfg, tiny_dataset)
    cam = tiny_dataset.train_cameras()[0]
    image = tiny_dataset.images[cam.id]
    losses = []
    for it in range(200):
        losses.append(tr.training_step(state, cam, image).total)
    windows = [np.mean(losses[i:i + 50]) for i in range(0, 200, 50)]
    assert all(a > b for a, b in zip(windows, windows[1:]))


def test_phase_discipline_anchor_counts(tiny_dataset):
    cfg = tiny_config(total_iters=40)
    state = tr.init_state(cfg, tiny_dataset)
    counts = []
    for it in range(cfg.total_iters):
        cam = tr._next_camera(state, tiny_dataset)
        tr.training_step(state, cam, tiny_dataset.images[cam.id])
        if tr._densify_due(cfg, it):
            tr.densify(state)
        counts.append(len(state.scaffold))
    # counts may only change at densify events within [start, end]
    for it in range(1, cfg.total_iters):
        if counts[it] != counts[it - 1]:
            assert cfg.densify_start <= it <= cfg.densify_end
            assert (it - cfg.densify_start) % cfg.densify_interval == 0


def test_ablate_var_and_global_time_independent(tiny_dataset):
    cfg = tiny_config(disable_var=True, disable_global=True)
    state = tr.init_state(cfg, tiny_dataset)
    for it in range(10):
        cam = tr._next_camera(state, tiny_dataset)
        tr.training_step(state, cam, tiny_dataset.images[cam.id])
    cam = tiny_dataset.test_cameras()[0]
    img0 = tr.render_from_state(state, cam, 0).image
    img1 = tr.render_from_state(state, cam, 1).image
    assert img0.tobytes() == img1.tobytes()


@pytest.mark.parametrize("component", [0, 1, 2], ids=["base", "var", "global"])
def test_ablate_base_still_trains(tiny_dataset, component):
    """An ablated component starts at zero and no Adam step touches it: after
    training through one forced growth, its array (the grown row included),
    its Adam state and its block of the decoder input are all zero, while
    the other components train."""
    flag = ("disable_base", "disable_var", "disable_global")[component]
    cfg = tiny_config(**{flag: True})
    state = tr.init_state(cfg, tiny_dataset)
    s = state.scaffold

    def train(iterations):
        for _ in range(iterations):
            cam = tr._next_camera(state, tiny_dataset)
            report = tr.training_step(state, cam, tiny_dataset.images[cam.id])
            assert np.isfinite(report.total)

    train(10)
    # Slot 0 of anchor 0 is hot and decodes two cells beyond the largest x of
    # the scaffold; at 40 iterations the tiny scene grows nothing by itself.
    target = s.positions[:, 0].max() + 2 * s.voxel_size
    s.offsets[0, 0, 0] = (target - s.positions[0, 0]) / s.offset_scale[0, 0]
    s.stats.grad_norm_sum[0, 0], s.stats.visible_count[0, 0] = 1.0, 100
    n = len(s)
    added, removed = tr.densify(state)
    assert added == 1 and len(s) == n + 1 - removed
    train(10)

    arrays = (s.f_base, s.f_var, state.global_g)
    assert not arrays[component].any()
    assert all(a.any() for i, a in enumerate(arrays) if i != component)
    group = state.groups[("f_base", "f_var", "global_g")[component]]
    assert not (group.m[0].any() or group.v[0].any() or np.any(group.step[0]))
    edges = np.cumsum([0, cfg.d_b, cfg.d_v, cfg.d_g])
    block = slice(edges[component], edges[component + 1])
    cam = tiny_dataset.test_cameras()[0]
    for t in (0, 0.5, 1):
        assert not tr.render_from_state(state, cam, t).batch.u[:, block].any()


def test_ablation_keeps_shapes(tiny_dataset):
    cfg = tiny_config(disable_global=True)
    state = tr.init_state(cfg, tiny_dataset)
    ref = tr.init_state(tiny_config(), tiny_dataset)
    assert state.global_g.shape == ref.global_g.shape
    assert state.scaffold.f_var.shape == ref.scaffold.f_var.shape


def test_densify_keeps_row_arrays_aligned(tiny_dataset):
    """One densify event grows one anchor and prunes another: every row
    array and the Adam state of every row group keep the surviving rows in
    order, the grown row starts fresh, and each row group still updates the
    scaffold's own array."""
    state = tr.init_state(tiny_config(), tiny_dataset)
    s, n = state.scaffold, len(state.scaffold)
    row_groups = [g for g in state.groups.values() if g.row_state]
    for g in row_groups:
        ids = np.arange(n).reshape((n,) + (1,) * (g.m[0].ndim - 1))
        g.m[0][...] = ids + 0.25
        g.v[0][...] = ids + 0.5
        g.step[0][...] = np.arange(n) + 1
    # Slot 0 of anchor 0 is hot and decodes two cells beyond the largest x of
    # the scaffold (offset_scale starts at the voxel size); anchor 2 is
    # transparent.
    reach = np.ceil((s.positions[:, 0].max() - s.positions[0, 0]) / s.voxel_size) + 2
    s.offsets[0, 0, 0] = reach
    s.stats.grad_norm_sum[0, 0], s.stats.visible_count[0, 0] = 1.0, 100
    s.stats.sample_count[:], s.stats.opacity_sum[:] = 100, 50.0
    s.stats.opacity_sum[2] = 0.0
    keep = np.arange(n) != 2
    rows = {name: getattr(s, name).copy() for name in ROW_FIELDS}
    adam = {g.name: (g.m[0].copy(), g.v[0].copy(), g.step[0].copy()) for g in row_groups}

    assert tr.densify(state) == (1, 1)
    assert len(s) == n
    for name in ROW_FIELDS:
        np.testing.assert_array_equal(getattr(s, name)[:-1], rows[name][keep])
    for g in row_groups:
        assert g.params[0] is getattr(s, g.name)
        for now, before in zip((g.m[0], g.v[0], g.step[0]), adam[g.name]):
            np.testing.assert_array_equal(now[:-1], before[keep])
            assert not now[-1].any()
    np.testing.assert_allclose(s.positions[-1], rows["positions"][0] + [reach * s.voxel_size, 0, 0],
                               atol=1e-12)
    assert not (s.f_base[-1].any() or s.f_var[-1].any() or s.offsets[-1].any())
    assert (s.offset_scale[-1] == s.voxel_size).all() and (s.shape_scale[-1] == s.voxel_size).all()


def _facing_away(state, cam):
    center = cam.center()
    return look_at_camera(cam.id, center, 2 * center, cam.width, cam.height, 55.0,
                          cam.period, cam.image_name)


def _all_slots_inactive(state, cam):
    state.weights.opacity.b2[:] = -100.0
    return cam


def _pruned_to_zero(state, cam):
    keep = np.zeros(len(state.scaffold), dtype=bool)
    apply_keep_mask(state.scaffold, keep)
    for group in state.groups.values():
        if group.row_state:
            group.resize_rows(getattr(state.scaffold, group.name), 0, keep)
    return cam


@pytest.mark.parametrize("empty_view,visible", [
    (_facing_away, False), (_all_slots_inactive, True), (_pruned_to_zero, False)],
    ids=["facing-away", "all-slots-inactive", "pruned-to-zero"])
def test_empty_frame(tiny_dataset, rng, empty_view, visible):
    """A view that composites no splat renders the background bitwise, its
    adjoint returns every gradient at full shape and zero, the statistics
    sample only the visible anchors, and a training step on it is finite."""
    state = tr.init_state(tiny_config(background=(0.2, 0.4, 0.6)), tiny_dataset)
    state.iteration = 7  # inside the statistics window
    cam = empty_view(state, tiny_dataset.train_cameras()[0])
    graph = tr.render_from_state(state, cam, cam.period)
    assert graph.splats.mean2d.shape[0] == 0 and (graph.visible.size > 0) == visible
    background = np.broadcast_to(state.config.background, graph.image.shape)
    assert graph.image.tobytes() == background.tobytes()

    grads = tr.raster.render_backward(graph, rng.normal(size=graph.image.shape))
    pairs = [(getattr(grads, name), getattr(state.scaffold, name))
             for name, group in state.groups.items() if group.row_state]
    pairs.append((grads.g, state.global_g))
    for head in ("opacity", "color", "covariance"):
        pairs += zip(getattr(grads, f"{head}_mlp").arrays(), getattr(state.weights, head).arrays())
    for grad, param in pairs:
        assert grad.shape == param.shape and not grad.any()
    assert grads.splat_mean2d.shape == (0, 2)

    accumulate_stats(state.scaffold, graph, grads)
    st = state.scaffold.stats
    np.testing.assert_array_equal(st.sample_count, np.isin(np.arange(len(state.scaffold)),
                                                           graph.visible))
    assert not (st.visible_count.any() or st.grad_norm_sum.any() or st.opacity_sum.any())

    report = tr.training_step(state, cam, tiny_dataset.images[cam.id])
    assert np.isfinite(report.total)


def _optimizer_bytes(state):
    return [np.asarray(a).tobytes() for g in state.groups.values()
            for a in (*g.params, *g.m, *g.v, *g.step)]


def test_non_finite_gradient_updates_nothing(tiny_dataset, monkeypatch):
    state = tr.init_state(tiny_config(), tiny_dataset)
    state.iteration = 7  # inside the statistics window
    backward = tr.raster.render_backward

    def poisoned(graph, grad_image):
        grads = backward(graph, grad_image)
        grads.f_var[0, 0, 0] = np.nan
        return grads

    monkeypatch.setattr(tr.raster, "render_backward", poisoned)
    before = _optimizer_bytes(state)
    cam = tiny_dataset.train_cameras()[0]
    with pytest.raises(InternalError, match="'f_var' at iteration 7"):
        tr.training_step(state, cam, tiny_dataset.images[cam.id])
    assert _optimizer_bytes(state) == before
    assert state.iteration == 7 and not state.scaffold.stats.sample_count.any()


def test_non_finite_loss_updates_nothing(tiny_dataset):
    state = tr.init_state(tiny_config(), tiny_dataset)
    cam = tiny_dataset.train_cameras()[0]
    image = tiny_dataset.images[cam.id].copy()
    image[3, 4, 1] = np.nan
    before = _optimizer_bytes(state)
    with pytest.raises(InternalError, match="non-finite loss nan at iteration 0"):
        tr.training_step(state, cam, image)
    assert _optimizer_bytes(state) == before and state.iteration == 0


def test_empty_dataset_rejected(tiny_dataset):
    import copy
    broken = copy.copy(tiny_dataset)
    broken.cameras = [c for c in tiny_dataset.cameras if c.period == 0]
    with pytest.raises(EmptyDataset):
        tr.init_state(tiny_config(), broken)


# ---------------------------------------------------------------------------
# checkpoints

def train_briefly(tiny_dataset, tmp_path, name="ck", iters=25, **over):
    cfg = tiny_config(total_iters=iters, **over)
    path = tmp_path / f"{name}.ckpt"
    state = tr.train(cfg, tiny_dataset, out_path=path)
    return state, path


def test_checkpoint_save_load_save_bytes(tiny_dataset, tmp_path):
    state, path = train_briefly(tiny_dataset, tmp_path)
    loaded = tr.load_checkpoint(path)
    path2 = tmp_path / "resaved.ckpt"
    tr.save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_tensors_round_trip(tiny_dataset, tmp_path):
    state, path = train_briefly(tiny_dataset, tmp_path)
    loaded = tr.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.scaffold.positions, state.scaffold.positions)
    np.testing.assert_array_equal(loaded.scaffold.f_var, state.scaffold.f_var)
    np.testing.assert_array_equal(loaded.global_g, state.global_g)
    np.testing.assert_array_equal(loaded.weights.color.W2, state.weights.color.W2)
    assert loaded.iteration == state.iteration
    assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
    for name, group in state.groups.items():
        lg = loaded.groups[name]
        for a, b in zip(group.m, lg.m):
            np.testing.assert_array_equal(a, b)
        if group.row_state:
            np.testing.assert_array_equal(group.step[0], lg.step[0])
        else:
            assert group.step == lg.step


def test_checkpoint_render_identical_after_load(tiny_dataset, tmp_path):
    state, path = train_briefly(tiny_dataset, tmp_path)
    loaded = tr.load_checkpoint(path)
    cam = tiny_dataset.test_cameras()[0]
    img_a = tr.render_from_state(state, cam, 1).image
    img_b = tr.render_from_state(loaded, cam, 1).image
    assert img_a.tobytes() == img_b.tobytes()


def test_checkpoint_truncated(tiny_dataset, tmp_path):
    _, path = train_briefly(tiny_dataset, tmp_path)
    blob = path.read_bytes()
    bad = tmp_path / "trunc.ckpt"
    bad.write_bytes(blob[:len(blob) // 2])
    with pytest.raises(CorruptChecksum):
        tr.load_checkpoint(bad)


def test_checkpoint_version_bump(tiny_dataset, tmp_path):
    _, path = train_briefly(tiny_dataset, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[3] = ord("2")
    bad = tmp_path / "v2.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        tr.load_checkpoint(bad)


def test_checkpoint_flipped_byte(tiny_dataset, tmp_path):
    _, path = train_briefly(tiny_dataset, tmp_path)
    blob = bytearray(path.read_bytes())
    blob[100] ^= 0xFF
    bad = tmp_path / "flip.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CorruptChecksum):
        tr.load_checkpoint(bad)


def test_checkpoint_with_retired_config_keys(tiny_dataset, tmp_path, capsys):
    """Checkpoints written before the deterministic and dtype fields were
    deleted still hold them in their config text; they load, render and
    inspect like a current one, while any other unknown key stays an error."""
    from periodsplat import cli

    state, path = train_briefly(tiny_dataset, tmp_path, iters=0)
    old = tmp_path / "old.ckpt"

    def add_retired(sections):
        sections["config"] += b"deterministic=true\ndtype=f64\n"

    rewrite_checkpoint(path, old, add_retired)
    loaded = tr.load_checkpoint(old)
    assert loaded.config == state.config
    cam = tiny_dataset.test_cameras()[0]
    assert (tr.render_from_state(loaded, cam, 0.5).image.tobytes()
            == tr.render_from_state(tr.load_checkpoint(path), cam, 0.5).image.tobytes())
    assert cli.main(["inspect", "--ckpt", str(old)]) == 0
    assert "deterministic" not in capsys.readouterr().out

    unknown = tmp_path / "unknown.ckpt"
    rewrite_checkpoint(path, unknown,
                       lambda sections: sections.update(config=sections["config"] + b"fp16=1\n"))
    with pytest.raises(ConfigInvalid):
        tr.load_checkpoint(unknown)


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_checkpoint_crc_valid_faults(tiny_dataset, tmp_path, fault):
    """A section missing, an unknown dtype code or a payload shorter than its
    shape, each under a valid CRC, is reported as a corrupt checkpoint."""
    _, path = train_briefly(tiny_dataset, tmp_path, iters=0)
    same = tmp_path / "same.ckpt"
    rewrite_checkpoint(path, same, lambda sections: None)
    assert same.read_bytes() == path.read_bytes()
    bad = tmp_path / f"{fault}.ckpt"
    rewrite_checkpoint(path, bad, CHECKPOINT_FAULTS[fault])
    with pytest.raises(CorruptChecksum):
        tr.load_checkpoint(bad)


def test_deterministic_training_bitwise(tiny_dataset, tmp_path):
    _, p1 = train_briefly(tiny_dataset, tmp_path, name="d1", seed=5)
    _, p2 = train_briefly(tiny_dataset, tmp_path, name="d2", seed=5)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_interval_saves_mid_run(tiny_dataset, tmp_path, monkeypatch):
    """checkpoint_interval=5 saves after iterations 5, 10 and 15, then the
    final checkpoint; that file equals a final-only run's but for config."""
    _, plain = train_briefly(tiny_dataset, tmp_path, name="plain", iters=20)
    saved_at, save = [], tr.save_checkpoint

    def spy(state, path):
        saved_at.append(state.iteration)
        save(state, path)

    monkeypatch.setattr(tr, "save_checkpoint", spy)
    _, periodic = train_briefly(tiny_dataset, tmp_path, name="periodic", iters=20,
                                checkpoint_interval=5)
    assert saved_at == [6, 11, 16, 20]
    a, b = tr._read_sections(plain), tr._read_sections(periodic)
    assert list(a) == list(b)
    assert a.pop("config") != b.pop("config") and a == b


def test_eval_interval_logs_mid_run_evals(tiny_dataset, tmp_path):
    """eval_interval=5 adds eval records at iterations 5, 10 and 15 to the
    final one, and leaves every training loss unchanged."""
    import json

    def run(name, **over):
        log_path = tmp_path / f"{name}.jsonl"
        tr.train(tiny_config(total_iters=20, log_interval=1, **over), tiny_dataset,
                 log_path=log_path)
        return [json.loads(line) for line in log_path.read_text().splitlines()]

    plain, evaluated = run("plain"), run("evaluated", eval_interval=5)
    assert [r["iter"] for r in evaluated if "eval" in r] == [5, 10, 15, 20]
    assert [r["iter"] for r in plain if "eval" in r] == [20]
    losses = [r for r in plain if "total" in r]
    assert len(losses) == 20 and losses == [r for r in evaluated if "total" in r]


def test_metric_log_records(tiny_dataset, tmp_path):
    import json
    cfg = tiny_config(total_iters=20, log_interval=5)
    log_path = tmp_path / "log.jsonl"
    tr.train(cfg, tiny_dataset, log_path=log_path)
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    assert records
    iter_records = [r for r in records if "total" in r]
    assert {"iter", "total", "l1", "ssim", "anchors"} <= set(iter_records[0])
    assert "eval" in records[-1]
    assert "per_period" in records[-1]["eval"]


_NO_SCIPY_SCRIPT = """
import sys
import numpy as np
from periodsplat import trainer as tr
from periodsplat.dataio import (PrimitiveSpec, SyntheticSceneSpec, generate_synthetic,
                                look_at_camera)
from periodsplat.optim import hybrid_loss

prim = PrimitiveSpec(mean=np.zeros(3), rotation=np.array([1.0, 0, 0, 0]),
                     scale=np.array([0.5, 0.5, 0.2]), opacity=0.9,
                     color=np.array([0.3, 0.5, 0.3]), lifespan={0, 1})
spec = SyntheticSceneSpec(T=2, primitives=[prim], tint=[(1, 1, 1), (0.9, 0.95, 1)],
                          orbit_radius=2.4, orbit_height=1.4, cams_per_period=4,
                          width=16, height=16, fov_deg=55.0, seed=1,
                          points_per_primitive=16)
dataset = generate_synthetic(spec, sys.argv[1])
image = dataset.images[dataset.cameras[0].id]
hybrid_loss(image * 0.5, image, 0.2)
state = tr.init_state(tr.TrainConfig.desk_preset(loss_lambda=0.2), dataset)
cam = dataset.train_cameras()[0]
tr.training_step(state, cam, dataset.images[cam.id])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_training_step_does_not_load_scipy(tmp_path):
    """The package computes SSIM with numpy alone: a loss and a training
    step in a fresh interpreter leave scipy unimported."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, str(tmp_path / "ds")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
