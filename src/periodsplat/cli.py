"""Command-line entry point.

Subcommands: generate, train, render, interp, eval, inspect. Exit codes:
0 success, 2 usage/config error, 3 data/checkpoint error, 4 internal
invariant violation. Progress goes to stderr; machine-readable artifacts
(images, checkpoints, metric logs, reports) go to files only.

Heavy imports happen inside the command handlers so that --threads can pin
the BLAS thread count before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


class _UsageError(Exception):
    pass


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="periodsplat",
        description="Multi-period Gaussian-splatting reconstruction toolkit")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (at least 1), set before numpy loads; "
                             "the same count gives the same checkpoint bytes on any "
                             "host (default: 1 where the thread variable is unset)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="render a synthetic multi-period dataset")
    p.add_argument("--spec", required=True, help="scene spec JSON file")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")

    p = sub.add_parser("train", help="train a model on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--preset", choices=["desk", "paper"], default="desk")
    p.add_argument("--ablate", action="append", choices=["base", "var", "global"],
                   default=[])
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a single config key (repeatable)")
    p.add_argument("--log", default=None, help="metric log path (default <out>.log.jsonl)")

    p = sub.add_parser("render", help="render one view from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--camera", required=True, help="camera id (with --data) or pose JSON file")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--data", default=None, help="dataset dir for resolving camera ids")

    p = sub.add_parser("interp", help="render a timestamp sweep")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--camera", required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory for frames")
    p.add_argument("--data", default=None)

    p = sub.add_parser("eval", help="held-out metrics per period")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report path (JSON lines)")

    p = sub.add_parser("inspect", help="print checkpoint facts")
    p.add_argument("--ckpt", required=True)
    return parser


def cmd_generate(args):
    from dataclasses import replace

    from .dataio import generate_synthetic, spec_from_json
    if not os.path.isfile(args.spec):
        raise _UsageError(f"scene spec not found: {args.spec}")
    spec = spec_from_json(args.spec)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    dataset = generate_synthetic(spec, args.out)
    print(f"wrote {len(dataset.cameras)} images across {dataset.T} periods to {args.out}",
          file=sys.stderr)
    return 0


def cmd_train(args):
    from .dataio import load_dataset
    from .trainer import TrainConfig, config_from_text, init_state, train
    if args.preset == "desk":
        config = TrainConfig.desk_preset()
    else:
        config = TrainConfig()
    text = ""
    if args.config:
        if not os.path.isfile(args.config):
            raise _UsageError(f"config file not found: {args.config}")
        with open(args.config) as f:
            text = f.read()
    for item in args.set:
        if "=" not in item:
            raise _UsageError(f"--set expects KEY=VALUE, got {item!r}")
    # One parse, so that cross-key checks see the overrides too; the last value wins.
    ablated = [f"disable_{name}=true" for name in args.ablate]
    config = config_from_text("\n".join([text, *args.set, *ablated]), base=config).validate()

    dataset = load_dataset(args.data)
    log_path = args.log or f"{args.out}.log.jsonl"
    print(f"training {config.total_iters} iterations on {len(dataset.train_cameras())} views",
          file=sys.stderr)
    state = train(init_state(config, dataset), dataset, out_path=args.out, log_path=log_path)
    print(f"final scaffold: {len(state.scaffold)} anchors; checkpoint: {args.out}",
          file=sys.stderr)
    return 0


_POSE_KEYS = ("width", "height", "fx", "fy", "cx", "cy", "rotation", "translation")


def _resolve_camera(spec, data_dir):
    import numpy as np

    from .geom import Camera, quat_normalize
    try:
        cam_id = int(spec)
    except ValueError:
        cam_id = None
    if cam_id is not None:
        if not data_dir:
            raise _UsageError("--camera <id> needs --data to resolve against")
        from .dataio import read_cameras
        for cam in read_cameras(data_dir):
            if cam.id == cam_id:
                return cam
        raise _UsageError(f"camera id {cam_id} not in dataset")
    if not os.path.isfile(spec):
        raise _UsageError(f"camera pose file not found: {spec}")
    try:
        with open(spec) as f:
            pose = json.load(f)
    except ValueError as exc:
        raise _UsageError(f"camera pose file {spec} is not valid JSON: {exc}") from exc
    if not isinstance(pose, dict):
        raise _UsageError(f"camera pose file {spec} must hold a JSON object")
    missing = [key for key in _POSE_KEYS if key not in pose]
    if missing:
        raise _UsageError(f"camera pose file {spec} lacks {', '.join(missing)}")
    try:
        return Camera(
            id=int(pose.get("id", 0)), width=int(pose["width"]), height=int(pose["height"]),
            fx=float(pose["fx"]), fy=float(pose["fy"]),
            cx=float(pose["cx"]), cy=float(pose["cy"]),
            rotation=quat_normalize(np.asarray(pose["rotation"], dtype=np.float64)),
            translation=np.asarray(pose["translation"], dtype=np.float64),
            period=int(pose.get("period", 0)), image_name=pose.get("image_name", "pose"))
    except (TypeError, ValueError, OverflowError) as exc:  # JSON reads 1e400 as inf
        raise _UsageError(f"camera pose file {spec}: {exc}") from exc


def cmd_render(args):
    from .dataio import write_ppm
    from .trainer import load_checkpoint, render_from_state
    state = load_checkpoint(args.ckpt)
    if not (0.0 <= args.time <= state.T - 1):
        raise _UsageError(f"--time {args.time} outside [0, {state.T - 1}]")
    camera = _resolve_camera(args.camera, args.data)
    graph = render_from_state(state, camera, args.time)
    write_ppm(args.out, graph.image)
    return 0


def cmd_interp(args):
    import numpy as np

    from .dataio import write_ppm
    from .trainer import load_checkpoint, render_from_state
    if args.steps < 1:
        raise _UsageError("--steps must be at least 1")
    state = load_checkpoint(args.ckpt)
    camera = _resolve_camera(args.camera, args.data)
    os.makedirs(args.out, exist_ok=True)
    times = np.linspace(0.0, state.T - 1, args.steps)
    for i, t in enumerate(times):
        graph = render_from_state(state, camera, float(t))
        write_ppm(os.path.join(args.out, f"frame_{i:04d}.ppm"), graph.image)
    return 0


def cmd_eval(args):
    from .dataio import load_dataset
    from .errors import EmptyDataset
    from .trainer import evaluate, load_checkpoint
    state = load_checkpoint(args.ckpt)
    dataset = load_dataset(args.data)
    if not dataset.test_cameras():
        raise EmptyDataset(f"{args.data} has no test view to evaluate")
    summary = evaluate(state, dataset)
    with open(args.out, "w") as f:
        for t, entry in summary["per_period"].items():
            f.write(json.dumps({"period": int(t), **entry}, sort_keys=True) + "\n")
        f.write(json.dumps({"period": "mean", "psnr": summary["psnr_mean"],
                            "ssim": summary["ssim_mean"]}, sort_keys=True) + "\n")
    print(f"{'period':>8} {'psnr':>10} {'ssim':>8} {'views':>6}", file=sys.stderr)
    for t, entry in summary["per_period"].items():
        print(f"{t:>8} {entry['psnr']:>10.3f} {entry['ssim']:>8.4f} {entry['count']:>6}",
              file=sys.stderr)
    print(f"{'mean':>8} {summary['psnr_mean']:>10.3f} {summary['ssim_mean']:>8.4f}",
          file=sys.stderr)
    return 0


def cmd_inspect(args):
    import numpy as np

    from .trainer import config_to_text, load_checkpoint
    state = load_checkpoint(args.ckpt)
    counts = {name: sum(int(np.prod(p.shape)) for p in group.params)
              for name, group in state.groups.items()}
    print("format: CGS1")
    print(f"periods: {state.T}")
    print(f"anchors: {len(state.scaffold)}")
    print(f"iteration: {state.iteration}")
    for name in sorted(counts):
        print(f"params[{name}]: {counts[name]}")
    print("config:")
    for line in config_to_text(state.config).strip().splitlines():
        print(f"  {line}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "render": cmd_render,
    "interp": cmd_interp,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    # No numpy is loaded yet: the flag wins, an unset variable becomes 1.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        if args.threads is None:
            os.environ.setdefault(var, "1")
        else:
            os.environ[var] = str(args.threads)

    from .errors import (ConfigInvalid, InternalError, OutOfRange,
                         PeriodSplatError, SpecInvalid)
    try:
        return _COMMANDS[args.command](args)
    except (_UsageError, ConfigInvalid, OutOfRange, SpecInvalid) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except PeriodSplatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
