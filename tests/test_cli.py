import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from periodsplat import cli
from periodsplat.dataio import read_ppm

from conftest import CHECKPOINT_FAULTS, rewrite_checkpoint
from test_dataio import tree_digest


SCENE_SPEC = {
    "T": 2,
    "tint": [[1.0, 1.0, 1.0], [0.9, 0.95, 1.0]],
    "orbit_radius": 2.4, "orbit_height": 1.4, "cams_per_period": 8,
    "width": 24, "height": 24, "fov_deg": 55.0, "seed": 11,
    "points_per_primitive": 16,
    "primitives": [
        {"mean": [0.0, 0.0, -0.3], "rotation": [1, 0, 0, 0],
         "scale": [0.6, 0.6, 0.1], "opacity": 0.9, "color": [0.3, 0.5, 0.3],
         "lifespan": [0, 1]},
        {"mean": [0.2, 0.1, 0.25], "rotation": [1, 0, 0, 0],
         "scale": [0.2, 0.2, 0.25], "opacity": 0.9, "color": [0.8, 0.3, 0.2],
         "lifespan": [1]},
    ],
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Generated dataset + trained checkpoint shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "scene.json"
    spec_path.write_text(json.dumps(SCENE_SPEC))
    data_dir = root / "data"
    assert cli.main(["generate", "--spec", str(spec_path), "--out", str(data_dir)]) == 0
    ckpt = root / "model.ckpt"
    config = root / "train.cfg"
    config.write_text(
        "total_iters=60\nstats_start=5\n"
        "densify_start=15\ndensify_end=40\ndensify_interval=10\n"
        "voxel_fraction=0.06\nseed=3\nlog_interval=10\n")
    code = cli.main(["train", "--data", str(data_dir), "--out", str(ckpt),
                     "--config", str(config)])
    assert code == 0
    return root, spec_path, data_dir, ckpt, config


def test_generate_missing_spec(tmp_path):
    code = cli.main(["generate", "--spec", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 2


def test_generate_deterministic_trees(workspace, tmp_path):
    _, spec_path, _, _, _ = workspace
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["generate", "--spec", str(spec_path), "--out", str(a),
                     "--seed", "77"]) == 0
    assert cli.main(["generate", "--spec", str(spec_path), "--out", str(b),
                     "--seed", "77"]) == 0
    assert tree_digest(a) == tree_digest(b)


def test_train_wrote_checkpoint_and_log(workspace):
    root, _, _, ckpt, _ = workspace
    assert ckpt.is_file()
    log = ckpt.with_name(ckpt.name + ".log.jsonl")
    assert log.is_file()
    records = [json.loads(line) for line in log.read_text().splitlines()]
    totals = [r["total"] for r in records if "total" in r]
    assert len(totals) >= 3
    # broad downward trend over the smoke run
    assert np.mean(totals[-2:]) < np.mean(totals[:2])


def test_train_invalid_config_key(workspace, tmp_path):
    _, _, data_dir, _, _ = workspace
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key=1\n")
    code = cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x.ckpt"),
                     "--config", str(bad)])
    assert code == 2


def test_train_retired_key_changing_a_run_exit_2(workspace, tmp_path, capsys):
    """dtype=f32 names a storage option that no longer exists: a usage error,
    not an f64 run."""
    _, _, data_dir, _, _ = workspace
    code = cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x.ckpt"),
                     "--set", "total_iters=0", "--set", "dtype=f32"])
    assert code == 2
    assert "dtype" in capsys.readouterr().err
    assert not (tmp_path / "x.ckpt").exists()


def test_train_stats_end_checked_against_set_overrides(workspace, tmp_path, capsys):
    """A retired stats_end in a config file is checked against the
    densify_start that a --set override gives the run."""
    _, _, data_dir, _, config = workspace
    old = tmp_path / "old.cfg"
    old.write_text(config.read_text() + "stats_end=15\n")  # densify_start=15
    code = cli.main(["train", "--data", str(data_dir), "--out", str(tmp_path / "x.ckpt"),
                     "--config", str(old), "--set", "densify_start=20"])
    assert code == 2
    assert "stats_end" in capsys.readouterr().err


def test_train_ablation_flags(workspace, tmp_path):
    _, _, data_dir, _, config = workspace
    out = tmp_path / "ablate.ckpt"
    code = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                     "--config", str(config), "--set", "total_iters=10",
                     "--set", "densify_end=10", "--set", "densify_start=6",
                     "--ablate", "var", "--ablate", "global"])
    assert code == 0
    from periodsplat.trainer import load_checkpoint
    state = load_checkpoint(out)
    assert state.config.disable_var and state.config.disable_global


def test_render_time_variants(workspace, tmp_path):
    _, _, data_dir, ckpt, _ = workspace
    out1 = tmp_path / "t1.ppm"
    out2 = tmp_path / "t1f.ppm"
    cam_id = "2"
    assert cli.main(["render", "--ckpt", str(ckpt), "--camera", cam_id,
                     "--time", "1", "--out", str(out1), "--data", str(data_dir)]) == 0
    assert cli.main(["render", "--ckpt", str(ckpt), "--camera", cam_id,
                     "--time", "1.0", "--out", str(out2), "--data", str(data_dir)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_render_time_out_of_range(workspace, tmp_path):
    _, _, data_dir, ckpt, _ = workspace
    code = cli.main(["render", "--ckpt", str(ckpt), "--camera", "2",
                     "--time", "5", "--out", str(tmp_path / "x.ppm"),
                     "--data", str(data_dir)])
    assert code == 2


def test_render_camera_id_needs_data(workspace, tmp_path):
    _, _, _, ckpt, _ = workspace
    code = cli.main(["render", "--ckpt", str(ckpt), "--camera", "2",
                     "--time", "0", "--out", str(tmp_path / "x.ppm")])
    assert code == 2


@pytest.mark.parametrize("command,extra", [("render", ["--time", "0.5"]),
                                           ("interp", ["--steps", "2"])])
def test_camera_id_resolves_from_colmap_files_alone(workspace, tmp_path, command, extra):
    """A camera id resolves through cameras.txt and images.txt alone: a copy
    of the dataset without images/, manifests and points gives the same bytes."""
    _, _, data_dir, ckpt, _ = workspace
    bare = tmp_path / "bare"
    shutil.copytree(data_dir, bare,
                    ignore=shutil.ignore_patterns("images", "periods.txt", "split.txt",
                                                  "points3D.txt"))
    written = []
    for data in (data_dir, bare):
        out = tmp_path / f"{command}-{data.name}"
        assert cli.main([command, "--ckpt", str(ckpt), "--camera", "2", "--out", str(out),
                         "--data", str(data), *extra]) == 0
        written.append(out.read_bytes() if out.is_file() else tree_digest(out))
    assert written[0] == written[1]


def test_render_pose_file(workspace, tmp_path):
    _, _, _, ckpt, _ = workspace
    pose = tmp_path / "pose.json"
    pose.write_text(json.dumps({
        "width": 24, "height": 24, "fx": 23.0, "fy": 23.0, "cx": 12.0, "cy": 12.0,
        "rotation": [1, 0, 0, 0], "translation": [0, 0, 2.5]}))
    out = tmp_path / "pose.ppm"
    assert cli.main(["render", "--ckpt", str(ckpt), "--camera", str(pose),
                     "--time", "0.5", "--out", str(out)]) == 0
    assert read_ppm(out).shape == (24, 24, 3)


_POSE = {"width": 24, "height": 24, "fx": 23.0, "fy": 23.0, "cx": 12.0, "cy": 12.0,
         "rotation": [1, 0, 0, 0], "translation": [0, 0, 2.5]}


@pytest.mark.parametrize("command", ["render", "interp"])
@pytest.mark.parametrize("text,named", [
    (json.dumps({k: v for k, v in _POSE.items() if k != "width"}), "width"),
    (json.dumps(_POSE)[:-5], "not valid JSON"),
    (json.dumps({**_POSE, "rotation": [0, 0, 0, 0]}), "quaternion")])
def test_pose_file_faults_exit_2(workspace, tmp_path, capsys, command, text, named):
    """A pose file that lacks a key, is not valid JSON or holds a zero
    quaternion is a usage error."""
    _, _, _, ckpt, _ = workspace
    pose = tmp_path / "pose.json"
    pose.write_text(text)
    extra = ["--time", "0"] if command == "render" else ["--steps", "2"]
    code = cli.main([command, "--ckpt", str(ckpt), "--camera", str(pose),
                     "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    assert named in capsys.readouterr().err


def _set_fields(path, line, fields, values):
    """Replace the given whitespace-separated fields of the 1-based line."""
    lines = path.read_text().splitlines()
    parts = lines[line - 1].split()
    parts[fields] = values
    lines[line - 1] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


def _no_points(data):
    (data / "points3D.txt").write_text("# 3D point list\n")


def _append(path, line):
    with open(path, "a") as f:
        f.write(line + "\n")


def _bad_spec(edit):
    def argv(workspace, tmp_path):
        spec = json.loads(json.dumps(SCENE_SPEC))
        edit(spec)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return ["generate", "--spec", str(path), "--out", str(tmp_path / "out")]
    return argv


def _bad_data(edit):
    def argv(workspace, tmp_path):
        _, _, data_dir, _, config = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        edit(data)
        return ["train", "--data", str(data), "--out", str(tmp_path / "x.ckpt"),
                "--config", str(config), "--set", "total_iters=20", "--set", "densify_end=20"]
    return argv


def _bad_set(item):
    def argv(workspace, tmp_path):
        _, _, data_dir, _, config = workspace
        return ["train", "--data", str(data_dir), "--out", str(tmp_path / "x.ckpt"),
                "--config", str(config), "--set", item]
    return argv


_BAD_SETS = ["voxel_fraction=nan", "voxel_fraction=inf", "opacity_bias=nan", "tau_g=nan",
             "min_opacity=nan", "log_interval=-1", "checkpoint_interval=-1", "eval_interval=-1",
             "seed=-1"]


@pytest.mark.parametrize("make_argv,code,named", [
    (_bad_spec(lambda s: s["primitives"][0].update(opacity=2.0)), 2, "opacity"),
    (_bad_spec(lambda s: s["primitives"][1].update(scale=[0.2, -0.2, 0.25])), 2, "scale"),
    (_bad_spec(lambda s: s.update(width=0)), 2, "width"),
    (_bad_spec(lambda s: s.update(orbit_radius=0, orbit_height=0)), 2, "orbit_radius"),
    (_bad_spec(lambda s: s.update(points_per_primitive=-3)), 2, "points_per_primitive"),
    (_bad_spec(lambda s: s.update(width=16.5)), 2, "width"),
    (_bad_spec(lambda s: s.update(cams_per_period=0)), 2, "cams_per_period"),
    (_bad_spec(lambda s: s.update(seed=-1)), 2, "seed"),
    (_bad_data(lambda d: _set_fields(d / "cameras.txt", 2, slice(4, 5), ["0"])), 3,
     "cameras.txt:2"),
    (_bad_data(lambda d: _set_fields(d / "cameras.txt", 2, slice(4, 5), ["nan"])), 3,
     "cameras.txt:2"),
    (_bad_data(lambda d: _set_fields(d / "images.txt", 2, slice(1, 5), ["0"] * 4)), 3,
     "images.txt:2"),
    (_bad_data(lambda d: _set_fields(d / "points3D.txt", 2, slice(1, 2), ["nan"])), 3,
     "points3D.txt:2"),
    (_bad_data(_no_points), 3, "no sparse points"),
    (_bad_data(lambda d: _set_fields(d / "images.txt", 4, slice(0, 1), ["1"])), 3,
     "images.txt:4"),
    (_bad_data(lambda d: _set_fields(d / "images.txt", 4, slice(9, 10), ["t0_cam000.ppm"])), 3,
     "images.txt:4"),
    (_bad_data(lambda d: _append(d / "periods.txt", "t0_cam000.ppm 1")), 3, "periods.txt:17"),
    (_bad_data(lambda d: _append(d / "split.txt", "t0_cam000.ppm test")), 3, "split.txt:17"),
    *((_bad_set(item), 2, item.partition("=")[0]) for item in _BAD_SETS),
], ids=["opacity", "scale", "width", "orbit-on-target", "points-negative", "width-fraction",
        "no-cameras", "seed-negative", "fx-zero", "fx-nan", "quat-zero", "point-nan",
        "no-points", "image-id-repeated", "image-name-repeated", "period-repeated",
        "split-repeated", *(f"set-{item}" for item in _BAD_SETS)])
def test_non_finite_or_out_of_range_input_exit_code(workspace, tmp_path, make_argv, code,
                                                    named):
    """Out-of-range and non-finite values in a scene spec or a training
    config (exit 2) or a dataset (exit 3) end in their documented exit code
    with a one-line message, never a traceback or a run."""
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "periodsplat.cli",
                           *make_argv(workspace, tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert named in proc.stderr


def test_interp_endpoints_match_render(workspace, tmp_path):
    _, _, data_dir, ckpt, _ = workspace
    frames = tmp_path / "frames"
    assert cli.main(["interp", "--ckpt", str(ckpt), "--camera", "2",
                     "--steps", "5", "--out", str(frames), "--data", str(data_dir)]) == 0
    names = sorted(os.listdir(frames))
    assert names == [f"frame_{i:04d}.ppm" for i in range(5)]
    r0, r1 = tmp_path / "r0.ppm", tmp_path / "r1.ppm"
    cli.main(["render", "--ckpt", str(ckpt), "--camera", "2", "--time", "0",
              "--out", str(r0), "--data", str(data_dir)])
    cli.main(["render", "--ckpt", str(ckpt), "--camera", "2", "--time", "1",
              "--out", str(r1), "--data", str(data_dir)])
    assert (frames / "frame_0000.ppm").read_bytes() == r0.read_bytes()
    assert (frames / "frame_0004.ppm").read_bytes() == r1.read_bytes()


def test_interp_single_step(workspace, tmp_path):
    _, _, data_dir, ckpt, _ = workspace
    frames = tmp_path / "one"
    assert cli.main(["interp", "--ckpt", str(ckpt), "--camera", "2",
                     "--steps", "1", "--out", str(frames), "--data", str(data_dir)]) == 0
    assert sorted(os.listdir(frames)) == ["frame_0000.ppm"]
    r0 = tmp_path / "r0.ppm"
    cli.main(["render", "--ckpt", str(ckpt), "--camera", "2", "--time", "0",
              "--out", str(r0), "--data", str(data_dir)])
    assert (frames / "frame_0000.ppm").read_bytes() == r0.read_bytes()


def test_interp_middle_uses_half_encoding(workspace, tmp_path):
    """With T=2 and 3 steps the middle frame renders at t=0.5."""
    _, _, data_dir, ckpt, _ = workspace
    frames = tmp_path / "three"
    assert cli.main(["interp", "--ckpt", str(ckpt), "--camera", "2",
                     "--steps", "3", "--out", str(frames), "--data", str(data_dir)]) == 0
    half = tmp_path / "half.ppm"
    cli.main(["render", "--ckpt", str(ckpt), "--camera", "2", "--time", "0.5",
              "--out", str(half), "--data", str(data_dir)])
    assert (frames / "frame_0001.ppm").read_bytes() == half.read_bytes()


def test_eval_report(workspace, tmp_path):
    _, _, data_dir, ckpt, _ = workspace
    report1, report2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--out", str(report1)]) == 0
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                     "--out", str(report2)]) == 0
    assert report1.read_bytes() == report2.read_bytes()
    records = [json.loads(line) for line in report1.read_text().splitlines()]
    per_period = [r for r in records if isinstance(r["period"], int)]
    summary = [r for r in records if r["period"] == "mean"]
    assert {r["period"] for r in per_period} == {0, 1}
    assert all({"psnr", "ssim", "count"} <= set(r) for r in per_period)
    assert len(summary) == 1
    mean_psnr = np.mean([r["psnr"] for r in per_period])
    assert abs(summary[0]["psnr"] - mean_psnr) < 1e-12


def test_eval_without_test_views_exit_3(workspace, tmp_path, capsys):
    """A dataset whose split marks every view train has nothing to evaluate:
    eval refuses it instead of reporting 0 dB."""
    _, _, data_dir, ckpt, _ = workspace
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    split = data / "split.txt"
    split.write_text(split.read_text().replace(" test\n", " train\n"))
    report = tmp_path / "r.jsonl"
    assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                     "--out", str(report)]) == 3
    assert "no test view" in capsys.readouterr().err
    assert not report.exists()


def test_train_without_test_views_logs_no_eval(workspace, tmp_path):
    """Training on a dataset whose split marks every view train logs no eval
    record, neither mid-run nor at the end, instead of one at 0 dB."""
    _, _, data_dir, _, _ = workspace
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    split = data / "split.txt"
    split.write_text(split.read_text().replace(" test\n", " train\n"))
    config = tmp_path / "train.cfg"
    config.write_text("total_iters=5\nstats_start=1\ndensify_start=2\ndensify_end=4\n"
                      "densify_interval=2\nvoxel_fraction=0.06\nseed=3\nlog_interval=1\n"
                      "eval_interval=2\n")
    ckpt = tmp_path / "model.ckpt"
    assert cli.main(["train", "--data", str(data), "--out", str(ckpt),
                     "--config", str(config)]) == 0
    log = ckpt.with_name(ckpt.name + ".log.jsonl")
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["iter"] for r in records if "total" in r] == [0, 1, 2, 3, 4]
    assert not any("eval" in r for r in records)


def test_inspect_output(workspace, capsys):
    _, _, _, ckpt, _ = workspace
    assert cli.main(["inspect", "--ckpt", str(ckpt)]) == 0
    out = capsys.readouterr().out
    assert "format: CGS1" in out
    assert "periods: 2" in out
    assert "iteration: 60" in out
    from periodsplat.trainer import load_checkpoint
    state = load_checkpoint(ckpt)
    assert f"anchors: {len(state.scaffold)}" in out
    assert "params[mlp_opacity]" in out


def test_inspect_fresh_checkpoint_iteration_zero(workspace, tmp_path, capsys):
    _, _, data_dir, _, _ = workspace
    out = tmp_path / "fresh.ckpt"
    code = cli.main(["train", "--data", str(data_dir), "--out", str(out),
                     "--set", "total_iters=0", "--set", "densify_start=0",
                     "--set", "densify_end=0",
                     "--set", "stats_start=0"])
    assert code == 0
    assert cli.main(["inspect", "--ckpt", str(out)]) == 0
    assert "iteration: 0" in capsys.readouterr().out


def test_inspect_corrupted_exit_3(workspace, tmp_path):
    _, _, _, ckpt, _ = workspace
    bad = tmp_path / "bad.ckpt"
    blob = bytearray(ckpt.read_bytes())
    blob[50] ^= 0x55
    bad.write_bytes(bytes(blob))
    assert cli.main(["inspect", "--ckpt", str(bad)]) == 3


@pytest.mark.parametrize("fault", sorted(CHECKPOINT_FAULTS))
def test_inspect_crc_valid_fault_exit_3(workspace, tmp_path, fault):
    """inspect, render and interp each end a CRC-valid malformed checkpoint
    in exit 3, never a traceback."""
    _, _, data_dir, ckpt, _ = workspace
    bad = tmp_path / f"{fault}.ckpt"
    rewrite_checkpoint(ckpt, bad, CHECKPOINT_FAULTS[fault])
    view = ["--camera", "2", "--data", str(data_dir)]
    for argv in (["inspect"], ["render", *view, "--time", "0.5", "--out", str(tmp_path / "v.ppm")],
                 ["interp", *view, "--steps", "3", "--out", str(tmp_path / "frames")]):
        assert cli.main([*argv, "--ckpt", str(bad)]) == 3, argv[0]


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("argv", [["--threads", "3"], ["--threads=3"], [], ["--thread", "3"]])
def test_threads_flag_pins_blas_both_forms(argv, tmp_path, monkeypatch):
    """main sets the thread variables from the parsed flag in every form
    argparse accepts, the abbreviation included; without it an unset
    variable becomes 1 and a preset one is kept."""
    for preset, unflagged in (("7", "7"), (None, "1")):
        for var in _THREAD_VARS:
            if preset is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, preset)
        assert cli.main([*argv, "inspect", "--ckpt", str(tmp_path / "missing.ckpt")]) == 3
        expected = "3" if argv else unflagged
        assert [os.environ[var] for var in _THREAD_VARS] == [expected] * 4


@pytest.mark.parametrize("count", ["0", "-1"])
def test_threads_below_one_exit_2(count, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--threads", count, "inspect", "--ckpt", str(tmp_path / "x.ckpt")])
    assert exc.value.code == 2
    assert "--threads must be at least 1" in capsys.readouterr().err


def _run_python(script, *args, **env_over):
    src = pathlib.Path(cli.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(env_over, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_loads_no_numpy():
    """The thread variables only reach BLAS if numpy loads after main has
    set them, so importing the entry point must not load it."""
    assert _run_python("import sys, periodsplat.cli; print('numpy' in sys.modules)") == "False"


_BLAS_THREADS_SCRIPT = """
import ctypes, glob, os, sys
from periodsplat import cli
assert cli.main(["--threads", "1", "inspect", "--ckpt", sys.argv[1]]) == 3
import numpy
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "*openblas*"))
for path in libs:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        if hasattr(lib, name):
            print(getattr(lib, name)())
            sys.exit(0)
print("absent")
"""


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "preset-2"])
def test_threads_flag_reaches_openblas(preset, tmp_path):
    """--threads 1 is the count OpenBLAS runs with, also over a preset
    variable that would give it two threads."""
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    out = _run_python(_BLAS_THREADS_SCRIPT, str(tmp_path / "x.ckpt"), **env)
    if out == "absent":
        pytest.skip("numpy.libs holds no OpenBLAS exporting a get_num_threads symbol")
    assert out == "1"
