#!/usr/bin/env python3
"""Benchmark of periodsplat training steps and rendered frames.

    python3 perfbench/run.py --workload train-demo --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --self-check

One run drives the library in-process on one workload (see WORKLOADS and
perfbench/README.md) and checks every op's output. With --trace 0 it reports
the end-to-end metrics; with --trace 1 it wraps the library's module-level
functions at the names their callers look up and reports busy time and
counts per layer. Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
The package is imported from this checkout's src/ and nowhere else.
"""

import os

# Pinned before numpy is first imported: with the default thread pool and
# another process on the cores, one decoder head backward ran about 30x slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

try:
    from periodsplat import dataio, geom, optim, raster, trainer
    from periodsplat.errors import PeriodSplatError
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import periodsplat from {SRC}: {exc}")

SCENE_SPEC = ROOT / "scenes" / "two_period_demo.json"
# The acceptance suite's calibration pair. The scene and config seeds set the
# model's size (over the pairs (5, 1) .. (9, 5) the splats per op of
# train-dense ranged from 1.7k to 3.1k), so they stay fixed; --seed orders
# the render sweep's frames (see also train_views).
SCENE_SEED, CONFIG_SEED = 5, 1
LOSS_OPS = 10  # ops averaged for loss_last, and for the reference it must beat
SWEEP_TIMES = (0.0, 0.5, 1.0)

# kind "train": one op is one training_step; "render": one rendered frame.
# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "train-demo": {"kind": "train", "scene": {}, "config": {}},
    "train-dense": {"kind": "train", "scene": {"width": 32, "height": 32},
                    "config": {"voxel_fraction": 0.03}},
    "render-sweep": {"kind": "render", "scene": {}, "config": {}},
}


@dataclass(frozen=True)
class Budget:
    seconds: float
    setup_reps: int = 3  # setup_s is the median of these
    warmup_ops: int = 10  # untimed training steps before the timed window
    min_ops: int = 100  # at least 10 samples beyond p90
    psnr_views: int = 8  # held-out views scored after a training window
    sweep_views: int | None = None  # test views per render sweep; None = all


QUICK = Budget(seconds=0, setup_reps=1, warmup_ops=1, min_ops=0, psnr_views=2,
               sweep_views=2)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# Tracing plan: (namespace, attribute, span name, counter). Each function is
# wrapped where its caller looks it up, e.g. raster.decode_anchors is the name
# raster.render calls. cli (an argparse wrapper) and errors (no work) are not
# traced; neither is densification, which no timed window reaches.

def _render_counts(args, kwargs, graph):
    bbox = graph.splats.bbox
    yield "raster.splats", bbox.shape[0]
    yield "raster.footprint_px", int(((bbox[:, 1] - bbox[:, 0] + 1)
                                      * (bbox[:, 3] - bbox[:, 2] + 1)).sum())
    yield "decoder.active_slots", int(graph.batch.active.sum())
    yield "decoder.anchors", graph.visible.size
    yield "decoder.slots", graph.visible.size * graph.K
    yield "scaffold.anchors", graph.n_anchors


def _adam_counts(args, kwargs, result):
    yield "optim.adam_params", sum(np.size(p) for p in args[0].params)


def _checkpoint_counts(args, kwargs, result):
    yield "trainer.checkpoint_bytes", os.path.getsize(args[1])


TRACE_PLAN = [
    (raster, "render", "raster.render", _render_counts),
    (raster, "render_backward", "raster.render_backward", None),
    (raster, "decode_anchors", "decoder.decode_anchors", None),
    (raster, "decode_backward", "decoder.decode_backward", None),
    (raster, "visible_anchors", "scaffold.visible_anchors", None),
    (raster, "encode_time", "temporal.encode_time", None),
    (raster, "reduce_periods", "temporal.reduce_periods", None),
    (raster, "reduce_periods_many", "temporal.reduce_periods_many", None),
    (geom, "project_splats", "geom.project_splats", None),
    (geom, "project_splats_backward", "geom.project_splats_backward", None),
    (trainer, "training_step", "trainer.training_step", None),
    (trainer, "hybrid_loss", "optim.hybrid_loss", None),
    (trainer, "adam_step", "optim.adam_step", _adam_counts),
    (trainer, "accumulate_stats", "scaffold.accumulate_stats", None),
    (trainer, "save_checkpoint", "trainer.save_checkpoint", _checkpoint_counts),
    (trainer, "load_checkpoint", "trainer.load_checkpoint", None),
    (dataio, "generate_synthetic", "dataio.generate_synthetic", None),
    (dataio, "load_dataset", "dataio.load_dataset", None),
]
TEMPORAL_SPANS = ("temporal.encode_time", "temporal.reduce_periods",
                  "temporal.reduce_periods_many")
SETUP_SPANS = ("dataio.generate_synthetic", "dataio.load_dataset")
CHECKPOINT_SPANS = ("trainer.save_checkpoint", "trainer.load_checkpoint")
RENDER_SPANS = ("raster.render", "decoder.decode_anchors", "geom.project_splats",
                "scaffold.visible_anchors") + TEMPORAL_SPANS
TRAIN_SPANS = RENDER_SPANS + (
    "raster.render_backward", "decoder.decode_backward", "geom.project_splats_backward",
    "trainer.training_step", "optim.hybrid_loss", "optim.adam_step",
    "scaffold.accumulate_stats")
# Spans a workload must record at least one call of; see layer_metrics.
REQUIRED_SPANS = {
    "train": (TRAIN_SPANS, SETUP_SPANS),
    "render": (RENDER_SPANS, SETUP_SPANS + CHECKPOINT_SPANS),
}


# ---------------------------------------------------------------------------
# Set-up and ops

def set_up(workload, budget, work, tracer):
    """Generate the scene, load it and build the model, budget.setup_reps times.

    Returns (seconds of each repetition, dataset, state, in-memory state).
    For render workloads the state is re-loaded from a checkpoint and the
    in-memory one is kept for the bit-for-bit check.
    """
    spec = dataio.spec_from_json(str(SCENE_SPEC))
    spec = replace(spec, seed=SCENE_SEED, **workload["scene"])
    # Statistics are gathered from iteration 0 (the preset starts at 100) so
    # the timed window exercises accumulate_stats. They only feed
    # densification, first due at iteration 300, so losses are unchanged.
    config = trainer.TrainConfig.desk_preset(seed=CONFIG_SEED, stats_start=0,
                                             **workload["config"])
    times = []
    for rep in range(budget.setup_reps):
        rep_dir = work / f"setup{rep}"
        root = tracer.begin("setup") if tracer else None
        start = perf_counter()
        dataio.generate_synthetic(spec, str(rep_dir))
        dataset = dataio.load_dataset(str(rep_dir))
        state = memory_state = trainer.init_state(config, dataset)
        if workload["kind"] == "render":
            path = str(rep_dir / "model.ckpt")
            trainer.save_checkpoint(memory_state, path)
            state = trainer.load_checkpoint(path)
        times.append(perf_counter() - start)
        if tracer:
            tracer.end(root)
    return times, dataset, state, memory_state


class OpLog:
    """Per-op wall times, failures and the timed wall time of every window."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = []  # (ms, traced)
        self.failed = 0
        self.wall_s = 0.0

    def timed(self, op, traced):
        """Run op(); returns its result, or None when it raised.

        op looks the library function up when called, so that a traced op
        reaches the wrapper installed just before it.
        """
        if traced:
            self.tracer.enable()
            root = self.tracer.begin("op")
        start = perf_counter()
        try:
            result = op()
        except PeriodSplatError as exc:
            print(f"# op failed: {type(exc).__name__}: {exc}")
            result = None
        elapsed = perf_counter() - start
        if traced:
            self.tracer.end(root)
            self.tracer.disable()
        self.samples.append((1000.0 * elapsed, traced))
        return result


def _is_traced(tracer, window, j):
    # Alternate traced and untraced ops, shifting by one each replay, so that
    # both halves sample every op of the window.
    return tracer is not None and (window + j) % 2 == 0


def _finite_image(image):
    return bool(np.all(np.isfinite(image)) and image.min() >= 0.0 and image.max() <= 1.0)


def run_train(dataset, state, budget, log, tracer):
    """Replay one window of training steps from a snapshot until time is up.

    Time is checked between replays only, so every op of the window is timed
    equally often. Every replay must reproduce the first window's losses
    bitwise. Returns (loss_last, psnr_db) from the first window.
    """
    warmup, window_cams = train_views(dataset.train_cameras(), budget)
    for cam in warmup:
        trainer.training_step(state, cam, dataset.images[cam.id])
    snapshot = copy.deepcopy(state)

    reference = None
    begin = perf_counter()
    window = 0
    while True:
        state = copy.deepcopy(snapshot)
        reports = []
        window_start = perf_counter()
        for j, cam in enumerate(window_cams):
            reports.append(log.timed(
                lambda: trainer.training_step(state, cam, dataset.images[cam.id]),
                _is_traced(tracer, window, j)))
        log.wall_s += perf_counter() - window_start

        losses = [r.total if r is not None else float("nan") for r in reports]
        for j, r in enumerate(reports):
            ok = (r is not None and np.isfinite([r.total, r.l1, r.ssim]).all()
                  and 0.0 <= r.l1 <= 1.0)
            if reference is not None:
                ok = ok and losses[j] == reference[j]
            log.failed += not ok
        if reference is None:
            reference = losses
            loss_last = float(np.mean(losses[-LOSS_OPS:]))
            params_ok = all(np.isfinite(p).all()
                            for g in state.groups.values() for p in g.params)
            psnr_db, images_ok = _score_views(state, dataset, budget.psnr_views)
            log.failed += not (params_ok and images_ok
                               and loss_last < np.mean(losses[:LOSS_OPS]))
        window += 1
        if _time_is_up(begin, budget, log):
            return loss_last, psnr_db


def train_views(cams, budget):
    """The warm-up and timed-window views: fixed sets in one fixed order.

    The window is every 6th training view, so it spans both periods' arcs.
    The order does not depend on --seed: after 40 steps the loss still moves
    by several percent with the order of the views, which would hide a change
    of result behind the choice of seed.
    """
    rng = np.random.default_rng(CONFIG_SEED)
    warmup = cams[3::12][:budget.warmup_ops]
    timed = cams[::6]
    return ([warmup[i] for i in rng.permutation(len(warmup))],
            [timed[i] for i in rng.permutation(len(timed))])


def _time_is_up(begin, budget, log):
    return perf_counter() - begin >= budget.seconds and len(log.samples) >= budget.min_ops


def _score_views(state, dataset, n_views):
    """Mean PSNR of held-out views at their own period, and whether all images pass."""
    scores, ok = [], True
    for cam in dataset.test_cameras()[:n_views]:
        image = trainer.render_from_state(state, cam, cam.period).image
        ok = ok and _finite_image(image)
        scores.append(optim.psnr(image, dataset.images[cam.id]))
    return float(np.mean(scores)), ok


def run_render(dataset, state, memory_state, seed, budget, log, tracer):
    """Render every test view at each of SWEEP_TIMES, in a seeded order, sweep after sweep.

    Every sweep must reproduce the first bitwise. Frames at a view's own
    period are scored against ground truth. Returns (loss_last, psnr_db):
    the mean hybrid loss and the mean PSNR of the first sweep's scored
    frames, taken in view order so that they do not depend on the seed.
    """
    views = dataset.test_cameras()[:budget.sweep_views]
    frames = [(cam, t) for cam in views for t in SWEEP_TIMES]
    frames = [frames[i] for i in np.random.default_rng(seed).permutation(len(frames))]
    first_cam, first_t = frames[0]
    in_memory = trainer.render_from_state(memory_state, first_cam, first_t).image
    reloaded = trainer.render_from_state(state, first_cam, first_t).image
    checkpoint_ok = np.array_equal(in_memory, reloaded)
    lam = state.config.loss_lambda

    reference = None
    begin = perf_counter()
    sweep = 0
    while True:
        images = []
        sweep_start = perf_counter()
        for j, (cam, t) in enumerate(frames):
            if reference is not None and _time_is_up(begin, budget, log):
                break
            graph = log.timed(lambda: trainer.render_from_state(state, cam, t),
                              _is_traced(tracer, sweep, j))
            images.append(None if graph is None else graph.image)
        log.wall_s += perf_counter() - sweep_start

        for j, image in enumerate(images):
            ok = image is not None and _finite_image(image)
            if reference is not None:
                ok = ok and np.array_equal(image, reference[j])
            elif j == 0:
                ok = ok and checkpoint_ok
            log.failed += not ok
        if reference is None:
            reference = images
            scored = sorted((cam.id, image) for image, (cam, t) in zip(images, frames)
                            if image is not None and t == cam.period)
            psnr_db = float(np.mean([optim.psnr(image, dataset.images[i])
                                     for i, image in scored]))
            loss_last = float(np.mean([optim.hybrid_loss(image, dataset.images[i], lam)[0].total
                                       for i, image in scored]))
        sweep += 1
        if len(images) < len(frames) or _time_is_up(begin, budget, log):
            return loss_last, psnr_db


# ---------------------------------------------------------------------------
# Metrics

def _p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end_metrics(setup_times, log, loss_last, psnr_db):
    ms = [m for m, _ in log.samples]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (_p90(ms), "ms"),
        "ops_per_s": (len(ms) / log.wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "loss_last": (loss_last, "loss"),
        "psnr_db": (psnr_db, "dB"),
    }


def layer_metrics(tracer, log, workload_name, kind):
    """Per-op busy ms and counts by layer, from the traced ops only.

    Exits if a span this workload must reach recorded no calls: a refactor
    that moves a function must not turn its layer into a silent 0 ms.
    """
    n_ops, ops, counts = tracer.summary("op")
    n_setup, setup, setup_counts = tracer.summary("setup")
    op_spans, setup_spans = REQUIRED_SPANS[kind]
    missing = [n for n in op_spans if ops.get(n, {}).get("calls", 0) == 0]
    missing += [n for n in setup_spans if setup.get(n, {}).get("calls", 0) == 0]
    if missing:
        sys.exit(f"perfbench: {workload_name}: no calls recorded for {', '.join(missing)}")

    def op_ms(*names, key="total_s"):
        return 1000.0 * sum(ops.get(n, {}).get(key, 0.0) for n in names) / n_ops

    def setup_ms(name):
        return 1000.0 * setup.get(name, {}).get("total_s", 0.0) / n_setup

    def per_op(key):
        return counts.get(key, 0.0) / n_ops

    traced = [m for m, t in log.samples if t]
    untraced = [m for m, t in log.samples if not t]
    traced_p50, untraced_p50 = statistics.median(traced), statistics.median(untraced)
    return {
        "raster.render.self_ms": (op_ms("raster.render", key="self_s"), "ms"),
        "raster.render_backward.self_ms": (op_ms("raster.render_backward", key="self_s"), "ms"),
        "raster.splats": (per_op("raster.splats"), "count"),
        "raster.footprint_px": (per_op("raster.footprint_px"), "px"),
        "raster.splats_per_active_slot": (
            counts["raster.splats"] / max(counts["decoder.active_slots"], 1), "ratio"),
        "decoder.decode_anchors.ms": (op_ms("decoder.decode_anchors"), "ms"),
        "decoder.decode_backward.ms": (op_ms("decoder.decode_backward"), "ms"),
        "decoder.anchors": (per_op("decoder.anchors"), "count"),
        "decoder.active_slot_ratio": (
            counts["decoder.active_slots"] / max(counts["decoder.slots"], 1), "ratio"),
        "geom.project_splats.ms": (op_ms("geom.project_splats"), "ms"),
        "geom.project_splats_backward.ms": (op_ms("geom.project_splats_backward"), "ms"),
        "scaffold.visible_anchors.ms": (op_ms("scaffold.visible_anchors"), "ms"),
        "scaffold.accumulate_stats.ms": (op_ms("scaffold.accumulate_stats"), "ms"),
        "scaffold.anchors": (per_op("scaffold.anchors"), "count"),
        "temporal.ms": (op_ms(*TEMPORAL_SPANS), "ms"),
        "optim.hybrid_loss.ms": (op_ms("optim.hybrid_loss"), "ms"),
        "optim.adam_step.ms": (op_ms("optim.adam_step"), "ms"),
        "optim.adam_params": (per_op("optim.adam_params"), "count"),
        "trainer.training_step.self_ms": (op_ms("trainer.training_step", key="self_s"), "ms"),
        "trainer.save_checkpoint.ms": (setup_ms("trainer.save_checkpoint"), "ms"),
        "trainer.load_checkpoint.ms": (setup_ms("trainer.load_checkpoint"), "ms"),
        "trainer.checkpoint_bytes": (
            setup_counts.get("trainer.checkpoint_bytes", 0.0) / n_setup, "bytes"),
        "dataio.generate_synthetic.ms": (setup_ms("dataio.generate_synthetic"), "ms"),
        "dataio.load_dataset.ms": (setup_ms("dataio.load_dataset"), "ms"),
        "trace.op_ms_p50": (traced_p50, "ms"),
        "trace.untraced_op_ms_p50": (untraced_p50, "ms"),
        "trace.overhead_pct": (100.0 * (traced_p50 / untraced_p50 - 1.0), "%"),
    }


# ---------------------------------------------------------------------------
# Driver

def run(workload_name, seed, budget, trace):
    """Run one workload; returns the result object printed as the last line."""
    workload = WORKLOADS[workload_name]
    tracer = Tracer() if trace else None
    work = ROOT / "perfbench" / "_work" / f"{workload_name}-{os.getpid()}"
    if tracer:
        tracer.plan(TRACE_PLAN)
        tracer.enable()
    try:
        setup_times, dataset, state, memory_state = set_up(workload, budget, work, tracer)
    finally:
        if tracer:
            tracer.disable()
        shutil.rmtree(work, ignore_errors=True)

    log = OpLog(tracer)
    if workload["kind"] == "train":
        loss_last, psnr_db = run_train(dataset, state, budget, log, tracer)
    else:
        loss_last, psnr_db = run_render(dataset, state, memory_state, seed, budget, log, tracer)

    if tracer:
        metrics = layer_metrics(tracer, log, workload_name, workload["kind"])
    else:
        metrics = end_to_end_metrics(setup_times, log, loss_last, psnr_db)
    attempted = len(log.samples)
    print(f"# {workload_name} seed={seed} trace={trace} ops={attempted} "
          f"error_rate={log.failed / attempted} ratio")
    for name, (value, unit) in metrics.items():
        print(f"# {workload_name} {name} = {value:.6g} {unit}")
    return {
        "correct": log.failed == 0,
        "attempted": attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def self_check():
    """A few ops per workload and mode; every declared metric must appear with its unit."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        sys.exit(f"perfbench: BENCHMARK.json workloads {names} != {sorted(WORKLOADS)}")
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    for name in names:
        for trace in (0, 1):
            result = run(name, 0, QUICK, trace)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                sys.exit(f"perfbench: {name} trace={trace} emitted {units}, "
                         f"BENCHMARK.json declares {expected[trace]}")
            if not result["correct"]:
                sys.exit(f"perfbench: {name} trace={trace}: {result['failed']} ops failed")
    print("perfbench self-check passed")


def run_all(args):
    """Run every workload in a process of its own; returns the exit status."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        returncode = subprocess.run(cmd, timeout=900).returncode
        status = status or returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run a few ops of every workload and check the emitted metrics")
    args = parser.parse_args(argv)

    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not Path(dataio.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: periodsplat was imported from {dataio.__file__}, not {SRC}")
    if args.workload == "all":
        sys.exit(run_all(args))
    print("# env " + json.dumps(environment(), sort_keys=True))
    if args.self_check:
        self_check()
        return
    result = run(args.workload, args.seed, Budget(seconds=args.seconds), args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
